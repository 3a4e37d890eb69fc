"""A standalone memcached client (for tests, examples, warm-up)."""

from __future__ import annotations

import itertools
from typing import Dict

from ..net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Packet,
    RpcHeader,
    UDPHeader,
)
from ..net.network import Node
from ..sim import Environment
from .server import STATUS_OK


class MemcachedClient:
    """Issues GET/SET/DEL RPCs and matches responses by request id."""

    def __init__(self, env: Environment, node: Node, server: str,
                 timeout: float = 0.05, retries: int = 3) -> None:
        self.env = env
        self.node = node
        self.server = server
        self.timeout = timeout
        self.retries = retries
        self._ids = itertools.count(1)
        self._waiting: Dict[int, object] = {}
        node.attach(self._receive)

    def _receive(self, packet: Packet) -> None:
        lam = packet.headers.get("LambdaHeader")
        if lam is None or not lam.is_response:
            return
        waiter = self._waiting.pop(lam.request_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(packet)

    def _request(self, method: str, key: str, payload: bytes = b""):
        request_id = next(self._ids)
        attempt = 0
        while True:
            attempt += 1
            waiter = self.env.event()
            self._waiting[request_id] = waiter
            self.node.send(Packet(
                src=self.node.name, dst=self.server,
                headers=HeaderStack([
                    EthernetHeader(),
                    IPv4Header(),
                    UDPHeader(),
                    LambdaHeader(request_id=request_id),
                    RpcHeader(method=method, key=key),
                ]),
                payload=payload,
                payload_bytes=max(len(payload), 32),
            ))
            outcome = yield self.env.any_of(
                [waiter, self.env.timeout(self.timeout, value=None)]
            )
            if waiter in outcome:
                return waiter.value
            self._waiting.pop(request_id, None)
            if attempt > self.retries:
                raise TimeoutError(f"memcached {method} {key!r} timed out")

    # All return processes whose value is (status, payload_bytes_obj).

    def set(self, key: str, value: bytes):
        def run():
            response = yield from self._request("SET", key, value)
            return response.headers.require("RpcHeader").status

        return self.env.process(run())

    def get(self, key: str):
        def run():
            response = yield from self._request("GET", key)
            status = response.headers.require("RpcHeader").status
            value = response.payload if status == STATUS_OK else None
            return status, value

        return self.env.process(run())

    def delete(self, key: str):
        def run():
            response = yield from self._request("DEL", key)
            return response.headers.require("RpcHeader").status

        return self.env.process(run())

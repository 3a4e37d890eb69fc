"""A memcached-like cache server (the testbed's memcached on M1).

Serves GET/SET/DEL over the simulated network with a small service
time per request (hash lookup plus per-byte copy cost). The key-value
client lambdas (§6.2b) generate traffic against this server from both
host backends and λ-NIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..net import (
    DEADLINE_META,
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Packet,
    RpcHeader,
    UDPHeader,
)
from ..net.network import Node
from ..obs import Tracer
from ..sim import Environment

#: RpcHeader.status codes.
STATUS_OK = 0
STATUS_MISS = 1
STATUS_ERROR = 2


@dataclass
class CacheStats:
    gets: int = 0
    sets: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0
    bytes_stored: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MemcachedServer:
    """An in-memory cache with request/response packet semantics."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        base_service_seconds: float = 6e-6,
        per_kib_seconds: float = 0.4e-6,
        capacity_bytes: int = 1024 * 1024 * 1024,
    ) -> None:
        self.env = env
        self.node = node
        self.name = node.name
        self.base_service_seconds = base_service_seconds
        self.per_kib_seconds = per_kib_seconds
        self.capacity_bytes = capacity_bytes
        self.data: Dict[str, bytes] = {}
        self.stats = CacheStats()
        node.attach(self.receive)

    def receive(self, packet: Packet) -> None:
        rpc = packet.headers.get("RpcHeader")
        if rpc is None:
            return
        self.env.process(self._serve(packet, rpc))

    def _serve(self, packet: Packet, rpc) -> Any:
        method = rpc.method.upper()
        key = rpc.key
        payload_bytes = packet.payload_bytes
        tracer = self.env.tracer
        span = None
        if tracer is not None:
            trace_id, parent = Tracer.context(packet)
            if trace_id:
                span = tracer.begin(
                    "kv.serve", "kv", trace_id=trace_id, parent=parent,
                    node=self.name, tags={"method": method},
                )
        yield self.env.timeout(
            self.base_service_seconds
            + self.per_kib_seconds * payload_bytes / 1024.0
        )
        status = STATUS_OK
        value: bytes = b""
        if method == "GET":
            self.stats.gets += 1
            stored = self.data.get(key)
            if stored is None:
                self.stats.misses += 1
                status = STATUS_MISS
            else:
                self.stats.hits += 1
                value = stored
        elif method == "SET":
            self.stats.sets += 1
            blob = packet.payload if isinstance(packet.payload, (bytes, bytearray)) \
                else b"\x00" * payload_bytes
            if self._stored_bytes() + len(blob) > self.capacity_bytes:
                self._evict(len(blob))
            self.data[key] = bytes(blob)
            self.stats.bytes_stored = self._stored_bytes()
        elif method == "DEL" or method == "DELETE":
            self.stats.deletes += 1
            if self.data.pop(key, None) is None:
                status = STATUS_MISS
        else:
            status = STATUS_ERROR
        if span is not None:
            tracer.end(span, tags={"status": status})
        self._respond(packet, status, value)

    def _stored_bytes(self) -> int:
        return sum(len(value) for value in self.data.values())

    def _evict(self, needed: int) -> None:
        """FIFO eviction until ``needed`` bytes fit."""
        for key in list(self.data):
            if self._stored_bytes() + needed <= self.capacity_bytes:
                break
            del self.data[key]

    def _respond(self, request: Packet, status: int, value: bytes) -> None:
        lam = request.headers.get("LambdaHeader")
        response = Packet(
            src=self.name,
            dst=request.src,
            headers=HeaderStack([
                EthernetHeader(),
                IPv4Header(src_ip=self.name, dst_ip=request.src),
                UDPHeader(),
                LambdaHeader(
                    wid=lam.wid if lam else 0,
                    request_id=lam.request_id if lam else 0,
                    is_response=True,
                ),
                RpcHeader(method="RESP", key="", status=status),
            ]),
            payload=value,
            payload_bytes=max(len(value), 16),
        )
        # Deadline propagation: the reply inherits the request's
        # deadline so the caller's response pass can drop dead work.
        deadline = request.meta.get(DEADLINE_META)
        if deadline is not None:
            response.meta[DEADLINE_META] = deadline
        Tracer.propagate(request, response)
        self.node.send(response)

"""etcd-like replicated key-value store on top of Raft.

The paper's bare-metal backend relies on etcd to sync lambda placement
and load-balancing state with the gateway (§6.1.1); this module is that
substrate: a Raft-replicated dict supporting SET/GET/DEL/CAS, a cluster
builder, and a retrying client.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from ..net import HeaderStack, Packet, RpcHeader, UDPHeader
from ..net.network import Network, Node
from ..sim import Environment, RngRegistry
from .messages import ClientCommand, ClientReply, payload_bytes
from .node import RaftNode


class EtcdStore:
    """The replicated state machine: a string-keyed dict."""

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}
        self.applied_commands = 0

    def apply(self, command: Tuple[str, ...]) -> Any:
        """Apply one committed command; returns its result."""
        self.applied_commands += 1
        op = command[0]
        if op == "SET":
            _, key, value = command
            self.data[key] = value
            return "OK"
        if op == "GET":
            return self.data.get(command[1])
        if op == "DEL":
            return self.data.pop(command[1], None) is not None
        if op == "CAS":
            _, key, expected, value = command
            if self.data.get(key) == expected:
                self.data[key] = value
                return True
            return False
        raise ValueError(f"unknown command {op!r}")


class EtcdCluster:
    """An N-node Raft cluster, each node on the shared network."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        n_nodes: int = 3,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        rng = rng or RngRegistry(seed=0)
        self.env = env
        self.names = [f"etcd{index}" for index in range(1, n_nodes + 1)]
        self.stores: Dict[str, EtcdStore] = {}
        self.nodes: Dict[str, RaftNode] = {}
        for name in self.names:
            store = EtcdStore()
            net_node = network.add_node(name)
            raft = RaftNode(
                env, net_node, peers=list(self.names),
                apply_fn=store.apply, rng=rng.stream(f"raft:{name}"),
            )
            self.stores[name] = store
            self.nodes[name] = raft

    def leader(self) -> Optional[RaftNode]:
        leaders = [node for node in self.nodes.values() if node.is_leader]
        return leaders[0] if leaders else None

    def wait_for_leader(self, check_interval: float = 0.05):
        """Process: wait until some node is leader; returns it."""
        def waiter():
            while self.leader() is None:
                yield self.env.timeout(check_interval)
            return self.leader()

        return self.env.process(waiter())

    def crash(self, name: str) -> None:
        self.nodes[name].crash()

    def recover(self, name: str) -> None:
        self.nodes[name].recover()


class EtcdClient:
    """A cluster client with leader discovery and retries."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        cluster_names: List[str],
        timeout: float = 0.5,
        max_attempts: int = 12,
    ) -> None:
        self.env = env
        self.node = node
        self.name = node.name
        self.cluster_names = list(cluster_names)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._seq = itertools.count(1)
        self._waiting: Dict[int, Any] = {}
        self._leader_guess: Optional[str] = None
        node.attach(self._receive)

    def _receive(self, packet: Packet) -> None:
        message = packet.payload
        if isinstance(message, ClientReply):
            waiter = self._waiting.pop(message.seq, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(message)

    def execute(self, command: Tuple[str, ...]):
        """Process: run a command through the cluster; returns result."""
        return self.env.process(self._execute(command))

    def _execute(self, command: Tuple[str, ...]):
        seq = next(self._seq)
        targets = itertools.cycle(self.cluster_names)
        for attempt in range(self.max_attempts):
            target = self._leader_guess or next(targets)
            message = ClientCommand(command=tuple(command), client=self.name,
                                    seq=seq)
            waiter = self.env.event()
            self._waiting[seq] = waiter
            self.node.send(Packet(
                src=self.name, dst=target,
                headers=HeaderStack([UDPHeader(), RpcHeader(method="ClientCommand")]),
                payload=message,
                payload_bytes=payload_bytes(message),
            ))
            outcome = yield self.env.any_of(
                [waiter, self.env.timeout(self.timeout, value=None)]
            )
            reply = waiter.value if waiter in outcome else None
            self._waiting.pop(seq, None)
            if reply is None:
                self._leader_guess = None  # Timed out; try someone else.
                continue
            if reply.ok:
                return reply.result
            self._leader_guess = reply.leader_hint  # Redirected.
            yield self.env.timeout(0.02)
        raise TimeoutError(f"etcd command {command!r} failed after retries")

    # -- convenience wrappers (all return processes) -----------------------

    def set(self, key: str, value: Any):
        return self.execute(("SET", key, value))

    def get(self, key: str):
        return self.execute(("GET", key))

    def delete(self, key: str):
        return self.execute(("DEL", key))

    def cas(self, key: str, expected: Any, value: Any):
        return self.execute(("CAS", key, expected, value))

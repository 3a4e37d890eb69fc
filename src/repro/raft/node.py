"""A Raft consensus node running over the simulated network.

Implements leader election, log replication, and commitment from the
Raft paper (Ongaro & Ousterhout 2014), which is the protocol behind the
etcd store the paper's bare-metal backend syncs state through (§6.1.1).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net import HeaderStack, Packet, RpcHeader, UDPHeader
from ..net.network import Node
from ..sim import Environment
from .log import RaftLog
from .messages import (
    AppendEntries,
    AppendEntriesReply,
    ClientCommand,
    ClientReply,
    LogEntry,
    RequestVote,
    RequestVoteReply,
    payload_bytes,
)

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Timer granularity: how often a node checks its election deadline.
TICK_SECONDS = 0.010


class RaftNode:
    """One member of a Raft cluster."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        peers: List[str],
        apply_fn: Callable[[Tuple[str, ...]], Any],
        rng,
        election_timeout_min: float = 0.150,
        election_timeout_max: float = 0.300,
        heartbeat_interval: float = 0.050,
    ) -> None:
        self.env = env
        self.node = node
        self.name = node.name
        self.peers = [peer for peer in peers if peer != self.name]
        self.apply_fn = apply_fn
        self.rng = rng
        self.election_timeout_min = election_timeout_min
        self.election_timeout_max = election_timeout_max
        self.heartbeat_interval = heartbeat_interval

        # Persistent state.
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log = RaftLog()

        # Volatile state.
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint: Optional[str] = None
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self._votes: set = set()
        self._alive = True
        self._election_deadline = 0.0
        #: Waiting client replies: log index -> (client, seq).
        self._client_waiting: Dict[int, Tuple[str, int]] = {}
        #: Applied results kept for duplicate suppression: (client, seq).
        self._applied_seqs: Dict[Tuple[str, int], Any] = {}

        node.attach(self._receive)
        self._reset_election_deadline()
        env.process(self._ticker())

    # -- lifecycle / failure injection -------------------------------------

    @property
    def is_leader(self) -> bool:
        return self._alive and self.state == LEADER

    @property
    def alive(self) -> bool:
        return self._alive

    def crash(self) -> None:
        """Stop participating (messages are ignored)."""
        self._alive = False
        self.state = FOLLOWER

    def recover(self) -> None:
        """Rejoin the cluster as a follower (log and term persist)."""
        self._alive = True
        self.state = FOLLOWER
        self._reset_election_deadline()

    # -- timers --------------------------------------------------------------

    def _reset_election_deadline(self) -> None:
        timeout = self.rng.uniform(
            self.election_timeout_min, self.election_timeout_max
        )
        self._election_deadline = self.env.now + timeout

    def _ticker(self):
        while True:
            yield self.env.timeout(TICK_SECONDS)
            if not self._alive:
                continue
            if self.state == LEADER:
                self._broadcast_append_entries()
            elif self.env.now >= self._election_deadline:
                self._start_election()

    # -- messaging -------------------------------------------------------------

    def _send(self, dst: str, message: Any) -> None:
        packet = Packet(
            src=self.name,
            dst=dst,
            headers=HeaderStack([
                UDPHeader(), RpcHeader(method=type(message).__name__),
            ]),
            payload=message,
            payload_bytes=payload_bytes(message),
        )
        self.node.send(packet)

    def _receive(self, packet: Packet) -> None:
        if not self._alive:
            return
        message = packet.payload
        if isinstance(message, RequestVote):
            self._on_request_vote(message)
        elif isinstance(message, RequestVoteReply):
            self._on_request_vote_reply(message)
        elif isinstance(message, AppendEntries):
            self._on_append_entries(message)
        elif isinstance(message, AppendEntriesReply):
            self._on_append_entries_reply(message)
        elif isinstance(message, ClientCommand):
            self._on_client_command(packet.src, message)

    def _step_down(self, term: int) -> None:
        self.current_term = term
        self.state = FOLLOWER
        self.voted_for = None
        self._votes.clear()
        self._reset_election_deadline()

    # -- elections ----------------------------------------------------------------

    def _start_election(self) -> None:
        self.state = CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self._votes = {self.name}
        self._reset_election_deadline()
        if self.env.tracer is not None:
            self.env.tracer.instant(
                "raft.election", "raft", node=self.name,
                tags={"term": self.current_term},
            )
        message = RequestVote(
            term=self.current_term,
            candidate=self.name,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
        )
        for peer in self.peers:
            self._send(peer, message)
        self._maybe_win()

    def _on_request_vote(self, message: RequestVote) -> None:
        if message.term > self.current_term:
            self._step_down(message.term)
        granted = False
        if message.term == self.current_term and \
                self.voted_for in (None, message.candidate) and \
                self.log.is_up_to_date(message.last_log_index,
                                       message.last_log_term):
            granted = True
            self.voted_for = message.candidate
            self._reset_election_deadline()
        self._send(
            message.candidate,
            RequestVoteReply(term=self.current_term, voter=self.name,
                             granted=granted),
        )

    def _on_request_vote_reply(self, message: RequestVoteReply) -> None:
        if message.term > self.current_term:
            self._step_down(message.term)
            return
        if self.state != CANDIDATE or message.term != self.current_term:
            return
        if message.granted:
            self._votes.add(message.voter)
            self._maybe_win()

    def _maybe_win(self) -> None:
        majority = (len(self.peers) + 1) // 2 + 1
        if self.state == CANDIDATE and len(self._votes) >= majority:
            self.state = LEADER
            self.leader_hint = self.name
            if self.env.tracer is not None:
                self.env.tracer.instant(
                    "raft.leader_elected", "raft", node=self.name,
                    tags={"term": self.current_term},
                )
            for peer in self.peers:
                self.next_index[peer] = self.log.last_index + 1
                self.match_index[peer] = 0
            self._broadcast_append_entries()

    # -- replication -----------------------------------------------------------------

    def _broadcast_append_entries(self) -> None:
        for peer in self.peers:
            self._send_append_entries(peer)

    def _send_append_entries(self, peer: str) -> None:
        next_index = self.next_index.get(peer, self.log.last_index + 1)
        prev_index = next_index - 1
        message = AppendEntries(
            term=self.current_term,
            leader=self.name,
            prev_log_index=prev_index,
            prev_log_term=self.log.term_at(prev_index),
            entries=self.log.entries_from(next_index),
            leader_commit=self.commit_index,
        )
        self._send(peer, message)

    def _on_append_entries(self, message: AppendEntries) -> None:
        if message.term > self.current_term:
            self._step_down(message.term)
        if message.term < self.current_term:
            self._send(
                message.leader,
                AppendEntriesReply(term=self.current_term,
                                   follower=self.name, success=False),
            )
            return
        # Valid leader for this term.
        self.state = FOLLOWER
        self.leader_hint = message.leader
        self._reset_election_deadline()

        if not self.log.matches(message.prev_log_index, message.prev_log_term):
            self._send(
                message.leader,
                AppendEntriesReply(term=self.current_term,
                                   follower=self.name, success=False),
            )
            return

        # Append new entries, truncating conflicts.
        index = message.prev_log_index
        for entry in message.entries:
            index += 1
            if index <= self.log.last_index:
                if self.log.term_at(index) != entry.term:
                    self.log.truncate_from(index)
                    self.log.append(entry)
            else:
                self.log.append(entry)

        if message.leader_commit > self.commit_index:
            self.commit_index = min(message.leader_commit, self.log.last_index)
            self._apply_committed()

        self._send(
            message.leader,
            AppendEntriesReply(term=self.current_term, follower=self.name,
                               success=True, match_index=index),
        )

    def _on_append_entries_reply(self, message: AppendEntriesReply) -> None:
        if message.term > self.current_term:
            self._step_down(message.term)
            return
        if self.state != LEADER or message.term != self.current_term:
            return
        peer = message.follower
        if message.success:
            self.match_index[peer] = max(
                self.match_index.get(peer, 0), message.match_index
            )
            self.next_index[peer] = self.match_index[peer] + 1
            self._advance_commit_index()
        else:
            self.next_index[peer] = max(1, self.next_index.get(peer, 1) - 1)
            self._send_append_entries(peer)

    def _advance_commit_index(self) -> None:
        for index in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(index) != self.current_term:
                continue  # §5.4.2: only commit current-term entries by counting.
            replicated = 1 + sum(
                1 for peer in self.peers if self.match_index.get(peer, 0) >= index
            )
            majority = (len(self.peers) + 1) // 2 + 1
            if replicated >= majority:
                self.commit_index = index
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry(self.last_applied)
            result = self.apply_fn(entry.command)
            if entry.client is not None:
                self._applied_seqs[(entry.client, entry.client_seq)] = result
                waiting = self._client_waiting.pop(self.last_applied, None)
                if waiting is not None and self.state == LEADER:
                    client, seq = waiting
                    self._send(client, ClientReply(seq=seq, ok=True,
                                                   result=result))

    # -- client interface -----------------------------------------------------------

    def _on_client_command(self, client: str, message: ClientCommand) -> None:
        if self.state != LEADER:
            self._send(client, ClientReply(
                seq=message.seq, ok=False, leader_hint=self.leader_hint,
            ))
            return
        done = self._applied_seqs.get((message.client, message.seq))
        if done is not None:
            # Duplicate (client retried after a lost reply): do not
            # re-apply, just re-answer.
            self._send(client, ClientReply(seq=message.seq, ok=True, result=done))
            return
        index = self.log.append(LogEntry(
            term=self.current_term,
            command=tuple(message.command),
            client=message.client,
            client_seq=message.seq,
        ))
        self._client_waiting[index] = (client, message.seq)
        # Replies advance the commit index; a leader without peers gets
        # none, so its own append must count toward the majority here.
        self._advance_commit_index()
        self._broadcast_append_entries()

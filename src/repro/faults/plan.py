"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is a script of timed :class:`FaultEvent` entries:
*at second 30 kill m2's NIC, at 45 flap m3's link for 2 s, at 60 crash
the Raft leader...* The plan is pure data — building one touches
nothing; the :class:`~repro.faults.injector.FaultInjector` replays it
against a live testbed. Because events are ordered by (time, insertion
order) and every fault hook in the simulator is deterministic, two runs
of the same plan on the same seed produce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

#: Every action a plan may contain, and what ``target`` means for it.
ACTIONS = {
    "kill_nic": "SmartNIC node name (whole NIC loses power)",
    "restore_nic": "SmartNIC node name",
    "kill_island": "SmartNIC node name (params: island)",
    "restore_island": "SmartNIC node name (params: island)",
    "crash_server": "host worker node name",
    "restart_server": "host worker node name (params: reboot_seconds)",
    "link_down": "node whose cable to the switch is cut",
    "link_up": "node whose cable is restored",
    "partition": "- (params: groups = list of node-name lists)",
    "heal": "- (remove any switch partition)",
    "crash_raft": "Raft node name, or 'leader' resolved at fire time",
    "recover_raft": "Raft node name",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or repair) action."""

    at: float
    action: str
    target: str = ""
    params: Tuple[Tuple[str, object], ...] = ()
    #: Insertion order; ties on ``at`` fire in the order they were added.
    seq: int = 0

    @property
    def kwargs(self) -> Dict[str, object]:
        return dict(self.params)

    def sort_key(self) -> Tuple[float, int]:
        return (self.at, self.seq)


class FaultPlan:
    """A chainable builder for a fault schedule.

    >>> plan = (FaultPlan()
    ...         .kill_nic(30.0, "m2-nic")
    ...         .link_flap(45.0, "m3-nic", down_for=2.0)
    ...         .crash_raft(60.0, "leader")
    ...         .restore_nic(75.0, "m2-nic"))
    """

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []

    # -- generic -----------------------------------------------------------

    def add(self, at: float, action: str, target: str = "",
            **params) -> "FaultPlan":
        if at < 0:
            raise ValueError("fault time must be non-negative")
        if action not in ACTIONS:
            raise ValueError(
                f"unknown action {action!r} (know {sorted(ACTIONS)})"
            )
        self._events.append(FaultEvent(
            at=at, action=action, target=target,
            params=tuple(sorted(params.items())), seq=len(self._events),
        ))
        return self

    # -- SmartNIC / NPU islands (repro.hw) ---------------------------------

    def kill_nic(self, at: float, nic: str) -> "FaultPlan":
        return self.add(at, "kill_nic", nic)

    def restore_nic(self, at: float, nic: str) -> "FaultPlan":
        return self.add(at, "restore_nic", nic)

    def kill_island(self, at: float, nic: str, island: int) -> "FaultPlan":
        return self.add(at, "kill_island", nic, island=island)

    def restore_island(self, at: float, nic: str, island: int) -> "FaultPlan":
        return self.add(at, "restore_island", nic, island=island)

    # -- host workers (repro.host) -----------------------------------------

    def crash_server(self, at: float, server: str) -> "FaultPlan":
        return self.add(at, "crash_server", server)

    def restart_server(self, at: float, server: str,
                       reboot_seconds: float = 1.0) -> "FaultPlan":
        return self.add(at, "restart_server", server,
                        reboot_seconds=reboot_seconds)

    # -- network (repro.net) -----------------------------------------------

    def link_down(self, at: float, node: str) -> "FaultPlan":
        return self.add(at, "link_down", node)

    def link_up(self, at: float, node: str) -> "FaultPlan":
        return self.add(at, "link_up", node)

    def link_flap(self, at: float, node: str,
                  down_for: float = 1.0) -> "FaultPlan":
        """Cut a cable at ``at`` and restore it ``down_for`` later."""
        if down_for <= 0:
            raise ValueError("down_for must be positive")
        return self.link_down(at, node).link_up(at + down_for, node)

    def partition(self, at: float, *groups) -> "FaultPlan":
        """Split the switch into isolated groups of node names."""
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        return self.add(at, "partition",
                        groups=tuple(tuple(g) for g in groups))

    def heal(self, at: float) -> "FaultPlan":
        return self.add(at, "heal")

    # -- Raft / etcd (repro.raft) ------------------------------------------

    def crash_raft(self, at: float, node: str = "leader") -> "FaultPlan":
        """Crash a Raft node; ``"leader"`` is resolved when it fires."""
        return self.add(at, "crash_raft", node)

    def recover_raft(self, at: float, node: str) -> "FaultPlan":
        return self.add(at, "recover_raft", node)

    # -- reading the plan --------------------------------------------------

    @property
    def events(self) -> List[FaultEvent]:
        """Events in deterministic firing order."""
        return sorted(self._events, key=FaultEvent.sort_key)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def horizon(self) -> float:
        """Time of the last scheduled event (0.0 for an empty plan)."""
        return max((e.at for e in self._events), default=0.0)

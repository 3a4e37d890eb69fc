"""The fault injector: replays a :class:`FaultPlan` against a testbed.

One simulation process walks the plan's events in deterministic order,
sleeping between fire times and dispatching each action to the right
subsystem hook (``SmartNIC.fail``, ``HostServer.crash``,
``Network.set_link_state``, ``EtcdCluster.crash`` ...). Every action is
appended to :attr:`FaultInjector.trace` as ``(time, action, target)``,
which is what the reproducibility check compares across same-seed runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim import Environment
from .plan import FaultEvent, FaultPlan


class FaultInjector:
    """Drives a testbed through a scripted fault storm."""

    def __init__(self, env: Environment, testbed, plan: FaultPlan,
                 metrics=None) -> None:
        self.env = env
        self.testbed = testbed
        self.plan = plan
        #: (sim time, action, resolved target) per fired event.
        self.trace: List[Tuple[float, str, str]] = []
        #: Events that could not be applied (e.g. crash_raft with no
        #: leader elected yet) — they are skipped, not fatal.
        self.skipped: List[Tuple[float, str, str]] = []
        self.faults_injected_total = None
        if metrics is not None:
            self.faults_injected_total = metrics.counter(
                "faults_injected_total", "fault events fired, by action",
            )
        self._started = False

    def start(self):
        """Process: fire every plan event at its scheduled time."""
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        return self.env.process(self._run())

    def _run(self):
        for event in self.plan.events:
            delay = event.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._fire(event)
        if False:  # pragma: no cover - keep this a generator when empty
            yield

    # -- dispatch ----------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_do_{event.action}", None)
        if handler is None:  # unreachable: FaultPlan validates actions
            raise ValueError(f"unknown action {event.action!r}")
        target = handler(event)
        if target is None:
            self.skipped.append((self.env.now, event.action, event.target))
            return
        self.trace.append((self.env.now, event.action, target))
        if self.env.tracer is not None:
            self.env.tracer.instant(
                "fault.injected", "fault", node=target,
                tags={"action": event.action},
            )
        if self.faults_injected_total is not None:
            self.faults_injected_total.inc(labels={"action": event.action})

    # Each _do_* returns the resolved target name, or None to skip.

    def _do_kill_nic(self, event: FaultEvent) -> Optional[str]:
        self.testbed.nic(event.target).fail()
        return event.target

    def _do_restore_nic(self, event: FaultEvent) -> Optional[str]:
        self.testbed.nic(event.target).restore()
        return event.target

    def _do_kill_island(self, event: FaultEvent) -> Optional[str]:
        island = event.kwargs["island"]
        self.testbed.nic(event.target).fail_island(island)
        return f"{event.target}/island{island}"

    def _do_restore_island(self, event: FaultEvent) -> Optional[str]:
        island = event.kwargs["island"]
        self.testbed.nic(event.target).restore_island(island)
        return f"{event.target}/island{island}"

    def _do_crash_server(self, event: FaultEvent) -> Optional[str]:
        self.testbed.host_server(event.target).crash()
        return event.target

    def _do_restart_server(self, event: FaultEvent) -> Optional[str]:
        self.testbed.host_server(event.target).restart(**event.kwargs)
        return event.target

    def _do_link_down(self, event: FaultEvent) -> Optional[str]:
        self.testbed.network.set_link_state(event.target, up=False)
        return event.target

    def _do_link_up(self, event: FaultEvent) -> Optional[str]:
        self.testbed.network.set_link_state(event.target, up=True)
        return event.target

    def _do_partition(self, event: FaultEvent) -> Optional[str]:
        groups = event.kwargs["groups"]
        self.testbed.network.partition(*groups)
        return "|".join(",".join(g) for g in groups)

    def _do_heal(self, event: FaultEvent) -> Optional[str]:
        self.testbed.network.heal_partition()
        return "-"

    def _do_crash_raft(self, event: FaultEvent) -> Optional[str]:
        cluster = self.testbed.etcd_cluster
        if cluster is None:
            return None
        name = event.target
        if name == "leader":
            leader = cluster.leader()
            if leader is None:
                return None  # no leader to kill right now
            name = leader.name
        cluster.crash(name)
        return name

    def _do_recover_raft(self, event: FaultEvent) -> Optional[str]:
        cluster = self.testbed.etcd_cluster
        if cluster is None:
            return None
        cluster.recover(event.target)
        return event.target

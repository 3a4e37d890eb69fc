"""The failover driver: health-checked routes and degradation.

:class:`HealthMonitor` is a probe loop that compares each route against
the substrate's live targets, shrinks or expands routes, degrades
workloads to a fallback backend when their home substrate is dead,
reverses the degradation on recovery, and probes breaker-ejected
targets back into rotation. Each action it takes is recorded as a
:class:`FailoverEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..sim import Environment
from .gateway import Gateway
from .manager import WorkloadManager

#: How long a probe of a breaker-ejected target waits for its answer.
PROBE_TIMEOUT_SECONDS = 0.1


@dataclass
class FailoverEvent:
    """One recovery action taken by the health monitor."""

    at: float          # detection time
    workload: str
    kind: str          # "shrink" | "expand" | "degrade" | "restore"
    detail: str = ""
    completed_at: float = 0.0
    #: The triggering fault (same string written to the deployment
    #: record's ``last_fault``) and the backend kind chosen.
    fault: str = ""
    target_kind: str = ""

    @property
    def duration(self) -> float:
        """Detection-to-route-installed latency (time to failover)."""
        return max(0.0, self.completed_at - self.at)


class HealthMonitor:
    """Detects dead deployments and drives the manager to fail over.

    Each check interval, for every deployment:

    1. degraded + home substrate healthy again  -> ``restore`` home;
    2. no live target on the active backend     -> ``degrade`` to the
       first fallback backend with capacity;
    3. route disagrees with the live-target set -> ``shrink``/``expand``
       the route in place (same deployment, fewer/more targets);
    4. targets ejected by a gateway breaker are probed so a recovered
       target closes its breaker and rejoins rotation.

    Every action is recorded as a :class:`FailoverEvent`, which is what
    the fault-recovery experiment reads time-to-failover from.
    """

    def __init__(
        self,
        env: Environment,
        gateway: Gateway,
        manager: WorkloadManager,
        check_interval: float = 0.25,
        migrator=None,
    ) -> None:
        if check_interval <= 0:
            raise ValueError("check interval must be positive")
        self.env = env
        self.gateway = gateway
        self.manager = manager
        #: When a MigrationController is attached, degrade/restore run
        #: as forced migrations through its state machine (one control
        #: plane); legacy metrics and events are preserved.
        self.migrator = migrator
        self.check_interval = check_interval
        self.events: List[FailoverEvent] = []
        self.errors = 0
        self._transitioning: Set[str] = set()
        self._running = False

    def start(self):
        self._running = True

        def loop():
            while self._running:
                yield self.env.timeout(self.check_interval)
                if self._running:  # Not stopped while it slept.
                    self.check()

        return self.env.process(loop())

    def stop(self) -> None:
        self._running = False

    # -- one evaluation round ---------------------------------------------

    def check(self) -> List[FailoverEvent]:
        """Evaluate every deployment once; returns events started."""
        started: List[FailoverEvent] = []
        for workload in sorted(self.manager.deployments):
            if workload in self._transitioning:
                continue
            event = self._check_workload(workload)
            if event is not None:
                started.append(event)
        return started

    def _check_workload(self, workload: str) -> Optional[FailoverEvent]:
        manager = self.manager
        record = manager.deployments[workload]
        try:
            route = self.gateway.route_for(workload)
        except KeyError:
            return None  # racing an undeploy

        if record.degraded and self._home_alive(record):
            detail = f"home {record.home_backend} back"
            if self.migrator is not None:
                factory = lambda: self.migrator.migrate(  # noqa: E731
                    workload, target_kind=record.home_backend,
                    reason="restore", fault=detail, forced=True)
            else:
                factory = lambda: manager.restore_home(workload)  # noqa: E731
            return self._transition(workload, "restore", detail=detail,
                                    proc_factory=factory)

        live = manager.live_targets(workload)
        if not live:
            if manager.pick_fallback(record) is None:
                return None  # nowhere to go; keep probing
            detail = f"no live {record.backend_kind} target"
            if self.migrator is not None:
                factory = lambda: self.migrator.migrate(  # noqa: E731
                    workload, reason="fault", fault=detail, forced=True)
            else:
                factory = lambda: manager.degrade(workload)  # noqa: E731
            return self._transition(workload, "degrade", detail=detail,
                                    proc_factory=factory)

        if set(route.targets) != set(live):
            kind = "shrink" if len(live) < len(route.targets) else "expand"
            event = FailoverEvent(self.env.now, workload, kind,
                                  detail=",".join(live),
                                  fault=f"route/live mismatch on "
                                        f"{record.backend_kind}",
                                  target_kind=record.backend_kind)
            manager.reroute(workload, live)
            event.completed_at = self.env.now
            self.events.append(event)
            if self.env.tracer is not None:
                self.env.tracer.instant(
                    "monitor.failover", "failover",
                    tags={"workload": workload, "kind": kind},
                )
            return event

        self._probe_open_breakers(workload, route.targets)
        return None

    def _home_alive(self, record) -> bool:
        if record.home_result is None:
            return False
        healthy = set(self.manager.healthy_targets(record.home_backend))
        return any(t in healthy for t in record.home_result.targets)

    def _probe_open_breakers(self, workload: str,
                               targets: List[str]) -> None:
        for target in targets:
            breaker = self.gateway._breakers.get(target)
            if breaker is not None and breaker.ejected:
                self.gateway.probe_target(workload, target,
                                          timeout=PROBE_TIMEOUT_SECONDS)

    # -- slow transitions (degrade / restore) ------------------------------

    def _transition(self, workload: str, kind: str, detail: str,
                    proc_factory) -> FailoverEvent:
        event = FailoverEvent(self.env.now, workload, kind, detail=detail,
                              fault=detail)
        self._transitioning.add(workload)

        def runner():
            ok = False
            try:
                result = yield proc_factory()
                ok = result is not None and result is not False
            except Exception:
                # A failover that dies (e.g. fallback deploy racing
                # another fault) must not kill the monitor loop; the
                # next check retries.
                self.errors += 1
            finally:
                self._transitioning.discard(workload)
            if ok:
                event.completed_at = self.env.now
                try:
                    event.target_kind = \
                        self.manager.record(workload).backend_kind
                except KeyError:
                    pass  # undeployed while transitioning
                self.events.append(event)
                if self.env.tracer is not None:
                    self.env.tracer.instant(
                        "monitor.failover", "failover",
                        tags={"workload": workload, "kind": kind},
                    )

        self.env.process(runner())
        return event

    # -- reporting ---------------------------------------------------------

    def mean_time_to_failover(self) -> float:
        if not self.events:
            return 0.0
        return sum(e.duration for e in self.events) / len(self.events)

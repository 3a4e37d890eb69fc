"""Monitoring engine and watch service (Figure 5's M1 components).

The OpenFaaS baseline runs a Prometheus-based monitoring engine and a
watch service on the master node. Here:

* :class:`MonitoringEngine` scrapes the metrics registry on an
  interval, keeps bounded time series, and answers rate/percentile
  queries over recent windows.
* :class:`WatchService` watches per-workload health (gateway failures
  vs successes) and raises/clears alerts — the signal an operator
  would act on.
* :class:`HealthMonitor` is the failover driver: a probe loop that
  compares each route against the substrate's live targets, shrinks or
  expands routes, degrades workloads to a fallback backend when their
  home substrate is dead, reverses the degradation on recovery, and
  probes breaker-ejected targets back into rotation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..sim import Environment
from .gateway import Gateway
from .manager import WorkloadManager
from .metrics import Counter, MetricsRegistry


@dataclass
class Sample:
    at: float
    value: float


class TimeSeries:
    """A bounded series of (time, value) samples."""

    def __init__(self, max_samples: int = 1024) -> None:
        self.samples: Deque[Sample] = deque(maxlen=max_samples)

    def append(self, at: float, value: float) -> None:
        self.samples.append(Sample(at, value))

    def latest(self) -> Optional[Sample]:
        return self.samples[-1] if self.samples else None

    def window(self, since: float) -> List[Sample]:
        return [sample for sample in self.samples if sample.at >= since]

    def rate(self, window_seconds: float, now: float) -> float:
        """Per-second increase of a counter over the trailing window."""
        window = self.window(now - window_seconds)
        if len(window) < 2:
            return 0.0
        first, last = window[0], window[-1]
        elapsed = last.at - first.at
        if elapsed <= 0:
            return 0.0
        return max(0.0, (last.value - first.value) / elapsed)


class MonitoringEngine:
    """Periodically scrapes counters into time series."""

    def __init__(self, env: Environment, registry: MetricsRegistry,
                 scrape_interval: float = 1.0,
                 max_samples: int = 1024) -> None:
        if scrape_interval <= 0:
            raise ValueError("scrape interval must be positive")
        self.env = env
        self.registry = registry
        self.scrape_interval = scrape_interval
        self.max_samples = max_samples
        self.series: Dict[Tuple[str, Tuple], TimeSeries] = {}
        self.scrapes = 0
        self._running = False

    def start(self):
        """Process: scrape until stopped."""
        self._running = True

        def loop():
            while self._running:
                yield self.env.timeout(self.scrape_interval)
                if self._running:  # Not stopped while it slept.
                    self.scrape()

        return self.env.process(loop())

    def stop(self) -> None:
        self._running = False

    def scrape(self) -> None:
        """Snapshot every counter in the registry right now."""
        self.scrapes += 1
        now = self.env.now
        for name, metric in self.registry.scrape().items():
            if not isinstance(metric, Counter):
                continue
            for labelset, value in metric._values.items():
                key = (name, labelset)
                series = self.series.get(key)
                if series is None:
                    series = TimeSeries(self.max_samples)
                    self.series[key] = series
                series.append(now, value)

    def counter_series(self, name: str,
                       labels: Optional[Dict[str, str]] = None) -> TimeSeries:
        key = (name, tuple(sorted((labels or {}).items())))
        return self.series.get(key, TimeSeries(0))

    def rate(self, name: str, labels: Optional[Dict[str, str]] = None,
             window_seconds: float = 10.0) -> float:
        return self.counter_series(name, labels).rate(
            window_seconds, self.env.now
        )


@dataclass
class Alert:
    at: float
    workload: str
    reason: str
    cleared_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.cleared_at is None


class WatchService:
    """Flags workloads whose requests are failing.

    A workload is unhealthy when its failure count grows while its
    success count does not (over one check interval).
    """

    def __init__(self, env: Environment, gateway: Gateway,
                 check_interval: float = 1.0) -> None:
        self.env = env
        self.gateway = gateway
        self.check_interval = check_interval
        self.alerts: List[Alert] = []
        self._last: Dict[str, Tuple[float, float]] = {}
        self._active: Dict[str, Alert] = {}
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

    def check(self) -> List[Alert]:
        """One health evaluation; returns alerts raised this round."""
        raised = []
        for workload in self.gateway.workloads:
            labels = {"workload": workload}
            ok = self.gateway.requests_total.value(labels=labels)
            # Failures carry a ``reason`` label; aggregate across it.
            failed = self.gateway.failures_total.sum_matching(labels=labels)
            last_ok, last_failed = self._last.get(workload, (0.0, 0.0))
            self._last[workload] = (ok, failed)
            failing = failed > last_failed and ok == last_ok
            if failing and workload not in self._active:
                alert = Alert(self.env.now, workload,
                              reason="requests failing with no successes")
                self._active[workload] = alert
                self.alerts.append(alert)
                raised.append(alert)
            elif not failing and workload in self._active and ok > last_ok:
                self._active.pop(workload).cleared_at = self.env.now
        return raised

    def unhealthy(self) -> List[str]:
        return sorted(self._active)


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
        probe_timeout: float = 0.1,
        probe_ejected: bool = True,
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
        self.probe_timeout = probe_timeout
        self.probe_ejected = probe_ejected
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

        if self.probe_ejected:
            self._probe_ejected_targets(workload, route.targets)
        return None

    def _home_alive(self, record) -> bool:
        if record.home_result is None:
            return False
        healthy = set(self.manager.healthy_targets(record.home_backend))
        return any(t in healthy for t in record.home_result.targets)

    def _probe_ejected_targets(self, workload: str,
                               targets: List[str]) -> None:
        for target in targets:
            breaker = self.gateway._breakers.get(target)
            if breaker is not None and breaker.ejected:
                self.gateway.probe_target(workload, target,
                                          timeout=self.probe_timeout)

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

"""The workload manager (Figure 2): compile, store, deploy, route.

Drives the full deployment pipeline: package the workload, upload it to
object storage, have the backend download and start it, install the
gateway route, and (when an etcd client is present) record placement in
the replicated store the way the paper's bare-metal backend does.

The manager is also the failover actuator: when the health monitor
reports a deployment's targets dead it can shrink the route to the
survivors, degrade the workload onto a fallback backend (container /
bare-metal) when its home substrate has no capacity left, and reverse
the degradation once the home substrate returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry
from ..raft import EtcdClient
from ..sim import Environment
from ..workloads import WorkloadSpec
from .admission import AdmissionDecision, AdmissionError, AdmissionPolicy
from .backends import Backend, DeployResult
from .gateway import Gateway
from .storage import ObjectStorage

#: Order in which fallback substrates are tried during degradation;
#: bare-metal first because its cold start is the shortest (Table 4).
DEFAULT_FALLBACK_ORDER = ("bare-metal", "container", "lambda-nic")


@dataclass
class DeploymentRecord:
    """Bookkeeping for one workload deployment."""

    spec: WorkloadSpec
    backend_kind: str
    result: DeployResult
    #: Wall-clock from deploy() start to route installed.
    total_seconds: float = 0.0
    #: The Table-4 startup metric: download + boot (excludes upload).
    startup_seconds: float = 0.0
    #: Where the workload was originally deployed (failover reverses
    #: back to this backend when it becomes healthy again).
    home_backend: str = ""
    home_result: Optional[DeployResult] = None
    #: A warm copy on a fallback backend, kept ready for degradation.
    standby_kind: Optional[str] = None
    standby_result: Optional[DeployResult] = None
    #: Static-verification outcome (None when no admission policy ran).
    admission: Optional[AdmissionDecision] = None
    #: Fault attribution: the fault detail that last moved this
    #: deployment and where it went, written at migration cutover so
    #: the record never goes stale after a reroute.
    last_fault: str = ""
    last_migration_reason: str = ""
    last_target_kind: str = ""
    last_targets: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True while served by a backend other than its home."""
        return bool(self.home_backend) and \
            self.backend_kind != self.home_backend


class WorkloadManager:
    """Coordinates backends, storage, the gateway, and etcd."""

    def __init__(
        self,
        env: Environment,
        gateway: Gateway,
        storage: ObjectStorage,
        etcd: Optional[EtcdClient] = None,
        metrics: Optional[MetricsRegistry] = None,
        fallback_order: Sequence[str] = DEFAULT_FALLBACK_ORDER,
        admission: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.env = env
        self.gateway = gateway
        self.storage = storage
        self.etcd = etcd
        self.metrics = metrics or gateway.metrics
        self.fallback_order = tuple(fallback_order)
        #: Optional verifier-backed admission control for NIC deploys.
        self.admission = admission
        self.backends: Dict[str, Backend] = {}
        self.deployments: Dict[str, DeploymentRecord] = {}
        self._wids = itertools.count(1)
        self.failovers_total = self.metrics.counter(
            "manager_failovers_total",
            "route changes by kind (shrink/expand/degrade/restore)",
        )
        self.failover_seconds = self.metrics.histogram(
            "manager_failover_seconds",
            "time from failover start to route re-installed",
        )
        self.degraded_workloads = self.metrics.gauge(
            "manager_degraded_workloads",
            "workloads currently served off their home backend",
        )
        self.admission_total = self.metrics.counter(
            "manager_admission_total",
            "admission decisions by outcome "
            "(admitted/not-nic/rerouted-wcet/rerouted-unbounded/rejected)",
        )

    def add_backend(self, backend: Backend) -> None:
        if backend.kind in self.backends:
            raise ValueError(f"backend {backend.kind!r} already added")
        self.backends[backend.kind] = backend

    def backend(self, kind: str) -> Backend:
        try:
            return self.backends[kind]
        except KeyError:
            raise KeyError(f"no backend {kind!r} (have {sorted(self.backends)})") \
                from None

    def deploy(self, spec: WorkloadSpec, backend_kind: str):
        """Process: run the full deployment pipeline for one workload."""
        return self.env.process(self._deploy(spec, backend_kind))

    def _deploy(self, spec: WorkloadSpec, backend_kind: str):
        if spec.name in self.deployments:
            raise ValueError(f"workload {spec.name!r} already deployed")
        decision = self._admit(spec, backend_kind)
        if decision is not None:
            backend_kind = decision.admitted_kind
        backend = self.backend(backend_kind)
        started = self.env.now
        wid = next(self._wids)

        # 1. Package + upload to global storage.
        package_bytes = backend.package_bytes(spec)
        yield self.storage.put(f"{spec.name}.{backend_kind}", package_bytes)

        # 2. Workers download the artifact.
        download_started = self.env.now
        yield self.storage.download(f"{spec.name}.{backend_kind}")

        # 3. Backend-specific start (boot containers / flash firmware).
        result = yield backend.deploy(spec, wid=wid)

        # 4. Route installation at the gateway.
        self.gateway.set_route(spec.name, wid, result.targets,
                               rdma_qp=result.rdma_qp)

        # 5. Placement state into etcd (bare-metal backend state sync).
        yield from self._record_placement(spec.name, wid, backend_kind,
                                          result.targets)

        record = DeploymentRecord(
            spec=spec,
            backend_kind=backend_kind,
            result=result,
            total_seconds=self.env.now - started,
            startup_seconds=self.env.now - download_started,
            home_backend=backend_kind,
            home_result=result,
            admission=decision,
        )
        self.deployments[spec.name] = record
        return record

    def _admit(self, spec: WorkloadSpec,
               backend_kind: str) -> Optional[AdmissionDecision]:
        """Run the admission policy (when configured) for one deploy.

        Raises :class:`AdmissionError` — and counts the rejection —
        when the lambda fails static verification outright.
        """
        if self.admission is None:
            return None
        try:
            decision = self.admission.evaluate(
                spec, backend_kind, available_kinds=self.backends
            )
        except AdmissionError:
            self.admission_total.inc(
                labels={"workload": spec.name, "outcome": "rejected"}
            )
            raise
        self.admission_total.inc(
            labels={"workload": spec.name, "outcome": decision.reason}
        )
        return decision

    def undeploy(self, workload: str):
        """Process: tear a workload down everywhere."""
        return self.env.process(self._undeploy(workload))

    def _undeploy(self, workload: str):
        record = self.deployments.get(workload)
        if record is None:
            raise KeyError(f"workload {workload!r} is not deployed")
        self.gateway.remove_route(workload)
        # Tear down every copy: active, home, and warm standby.
        kinds = {record.backend_kind, record.home_backend}
        if record.standby_kind is not None:
            kinds.add(record.standby_kind)
        for kind in sorted(k for k in kinds if k):
            yield self.backend(kind).undeploy(workload)
        if self.etcd is not None:
            yield self.etcd.delete(f"/placement/{workload}")
        if record.degraded:
            self.degraded_workloads.add(-1)
        del self.deployments[workload]
        return record

    def placement(self, workload: str):
        """Process: read a workload's placement back from etcd."""
        if self.etcd is None:
            raise RuntimeError("no etcd client configured")
        return self.etcd.get(f"/placement/{workload}")

    def _record_placement(self, workload: str, wid: int, kind: str,
                          targets: Sequence[str]):
        """Best-effort placement write; etcd may itself be failing over."""
        if self.etcd is None:
            return
        try:
            yield self.etcd.set(
                f"/placement/{workload}",
                {"wid": wid, "backend": kind, "targets": list(targets)},
            )
        except TimeoutError:
            # The store is (temporarily) unavailable — e.g. mid leader
            # election. Routing must not wait for it; the next placement
            # write will reconcile.
            pass

    # -- health / failover -------------------------------------------------

    def record(self, workload: str) -> DeploymentRecord:
        try:
            return self.deployments[workload]
        except KeyError:
            raise KeyError(f"workload {workload!r} is not deployed") from None

    def healthy_targets(self, kind: str) -> List[str]:
        return self.backend(kind).healthy_targets()

    def live_targets(self, workload: str) -> List[str]:
        """The active deployment's targets the substrate reports alive."""
        record = self.record(workload)
        healthy = set(self.healthy_targets(record.backend_kind))
        return [t for t in record.result.targets if t in healthy]

    def reroute(self, workload: str, targets: List[str]) -> None:
        """Re-point the gateway at ``targets`` (same deployment).

        Used for the fast failover paths: shrink away from dead targets,
        expand back when they return. Synchronous — the new route is
        live immediately.
        """
        if not targets:
            raise ValueError("reroute needs at least one target")
        record = self.record(workload)
        kind = "shrink" if len(targets) < len(record.result.targets) else \
            "expand"
        self.gateway.set_route(workload, record.result.wid, list(targets),
                               rdma_qp=record.result.rdma_qp)
        record.last_target_kind = record.backend_kind
        record.last_targets = list(targets)
        self.failovers_total.inc(labels={"workload": workload, "kind": kind})

    def prepare_standby(self, workload: str, kind: str):
        """Process: warm a copy of ``workload`` on backend ``kind``.

        The standby is deployed and booted but receives no traffic; a
        later :meth:`degrade` to the same kind becomes a pure re-route.
        """
        return self.env.process(self._prepare_standby(workload, kind))

    def _prepare_standby(self, workload: str, kind: str):
        record = self.record(workload)
        if kind == record.home_backend:
            raise ValueError(f"{kind!r} is {workload!r}'s home backend")
        if record.standby_kind == kind and record.standby_result is not None:
            return record.standby_result
        backend = self.backend(kind)
        spec = record.spec
        yield self.storage.put(f"{spec.name}.{kind}",
                               backend.package_bytes(spec))
        yield self.storage.download(f"{spec.name}.{kind}")
        result = yield backend.deploy(spec, wid=next(self._wids))
        record.standby_kind = kind
        record.standby_result = result
        return result

    def pick_fallback(self, record: DeploymentRecord) -> Optional[str]:
        """First configured fallback kind with live capacity, or None."""
        for kind in self.fallback_order:
            if kind == record.backend_kind or kind not in self.backends:
                continue
            if self.backend(kind).healthy_targets():
                return kind
        return None

    def degrade(self, workload: str):
        """Process: fail the workload over to a fallback backend.

        Prefers a pre-warmed standby (pure re-route); otherwise runs a
        cold deploy on the fallback. Returns the fallback DeployResult,
        or None when no fallback has capacity.
        """
        return self.env.process(self._degrade(workload))

    def _degrade(self, workload: str):
        record = self.record(workload)
        started = self.env.now
        kind = self.pick_fallback(record)
        if kind is None:
            return None
        if record.standby_kind == kind and record.standby_result is not None:
            result = record.standby_result
        else:
            result = yield from self._prepare_standby(workload, kind)
        healthy = set(self.backend(kind).healthy_targets())
        targets = [t for t in result.targets if t in healthy] or \
            list(result.targets)
        self.gateway.set_route(workload, result.wid, targets,
                               rdma_qp=result.rdma_qp)
        was_degraded = record.degraded
        record.backend_kind = kind
        record.result = result
        if not was_degraded:
            self.degraded_workloads.add(1)
        self.failovers_total.inc(
            labels={"workload": workload, "kind": "degrade"}
        )
        self.failover_seconds.observe(self.env.now - started,
                                      labels={"kind": "degrade"})
        yield from self._record_placement(workload, result.wid, kind, targets)
        return result

    def restore_home(self, workload: str):
        """Process: reverse a degradation once the home backend is back.

        Re-points the route at the healthy home targets and returns
        True; returns False when the home substrate still has no live
        targets. The fallback copy stays warm for the next incident.
        """
        return self.env.process(self._restore_home(workload))

    def _restore_home(self, workload: str):
        record = self.record(workload)
        if not record.degraded or record.home_result is None:
            return False
        home = record.home_result
        healthy = set(self.healthy_targets(record.home_backend))
        targets = [t for t in home.targets if t in healthy]
        if not targets:
            return False
        started = self.env.now
        self.gateway.set_route(workload, home.wid, targets,
                               rdma_qp=home.rdma_qp)
        record.backend_kind = record.home_backend
        record.result = home
        self.degraded_workloads.add(-1)
        self.failovers_total.inc(
            labels={"workload": workload, "kind": "restore"}
        )
        self.failover_seconds.observe(self.env.now - started,
                                      labels={"kind": "restore"})
        yield from self._record_placement(workload, home.wid,
                                          record.home_backend, targets)
        return True

"""Live lambda migration: one resource pool across NICs and hosts.

λ-NIC statically splits lambdas between NPU cores and host CPUs at
admission time; this module makes the split revisitable at runtime, as
argued by the "one resource pool" line of work (SuperNIC, "the NIC
should be part of the OS"). A :class:`MigrationController` moves a
deployed lambda between backends (NIC → host, host → NIC, NIC → NIC)
as a crash-safe state machine::

    PLANNED ──► PREPARED ──► DRAINING ──► STATE_HANDOFF ──► CUTOVER ──► COMPLETED
       │            │            │               │             │
       └────────────┴────────────┴───────────────┘             └─► (forward only)
                         │
                         ▼
                      ABORTED  (rollback: source keeps serving)

* **PREPARED** — the target deployment exists, is verified healthy,
  and is warm (a reused home copy, a pre-warmed standby, or a fresh
  deploy).
* **DRAINING** — the gateway *queues* new requests behind a hold
  (loss-free, a bounded latency bump), then waits for in-flight
  requests to the source to finish.
* **STATE_HANDOFF** — the lambda's persistent memory objects are
  exported at a source epoch, shipped over the RDMA substrate, and the
  epoch re-checked: any concurrent write bumps the source's
  ``state_epoch`` and forces a re-export (the epoch fence). Importing
  bumps the target's state epoch.
* **CUTOVER** — a single synchronous step (no simulation yields): flip
  the gateway route, update the deployment record, release held
  requests. Either everything flips or nothing does.
* **ABORTED** — reachable from every pre-cutover state; the source
  route was never touched, so rollback is: release holds, keep the
  (now warm) target copy as a standby.

The controller journals each transition to etcd, so an idempotent
:meth:`MigrationController.recover` on restart rolls an interrupted
pre-cutover migration back and completes a post-cutover one forward.

PR 1's health-monitor failover is re-expressed as *forced* migrations
(``forced=True``): the same state machine runs, but the drain wait is
skipped when the source is already dead and the legacy failover
metrics (``manager_failovers_total``, ``manager_failover_seconds``,
``manager_degraded_workloads``) are emitted exactly as the manager's
degrade/restore paths did, so the one control plane serves both
caller-driven migrations and fault recovery. A caller names the target
kind; a forced migration without one goes to the manager's fallback
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.message import RDMA_SEGMENT_BYTES
from ..sim import Environment
from .backends import StateSnapshot
from .gateway import Gateway
from .manager import DeploymentRecord, WorkloadManager

# State machine vertices.
PLANNED = "PLANNED"
PREPARED = "PREPARED"
DRAINING = "DRAINING"
STATE_HANDOFF = "STATE_HANDOFF"
CUTOVER = "CUTOVER"
COMPLETED = "COMPLETED"
ABORTED = "ABORTED"

#: States a rollback is legal from (everything before the route flip).
PRE_CUTOVER_STATES = (PLANNED, PREPARED, DRAINING, STATE_HANDOFF)

#: Wire rate used to time the state handoff (the testbed's 10 G links).
HANDOFF_BANDWIDTH_BPS = 10e9

#: Fixed per-segment cost of the RDMA handoff path (descriptor setup).
HANDOFF_SEGMENT_SECONDS = 1e-6


class _ControllerStopped(Exception):
    """Raised inside a migration when the controller crashed/stopped."""


@dataclass
class Migration:
    """One migration attempt: the state machine instance."""

    workload: str
    source_kind: str
    target_kind: str
    reason: str
    started_at: float
    state: str = PLANNED
    #: (sim time, state) per transition, ending in COMPLETED/ABORTED.
    history: List[Tuple[float, str]] = field(default_factory=list)
    #: The fault detail that triggered a forced migration, if any.
    fault: str = ""
    forced: bool = False
    #: Chosen target addressing: route targets installed at cutover.
    targets: List[str] = field(default_factory=list)
    state_bytes: int = 0
    state_transferred: bool = False
    handoff_retries: int = 0
    outcome: str = ""          # "completed" | "rolled-back"
    error: str = ""
    completed_at: float = 0.0

    @property
    def duration(self) -> float:
        return max(0.0, self.completed_at - self.started_at)


class MigrationController:
    """Executes migrations as the crash-safe state machine above."""

    def __init__(
        self,
        env: Environment,
        manager: WorkloadManager,
        gateway: Gateway,
        etcd=None,
        metrics=None,
        drain_timeout: float = 1.0,
        drain_poll_seconds: float = 0.002,
        handoff_max_retries: int = 3,
    ) -> None:
        self.env = env
        self.manager = manager
        self.gateway = gateway
        self.etcd = etcd
        self.metrics = metrics if metrics is not None else manager.metrics
        self.drain_timeout = drain_timeout
        self.drain_poll_seconds = drain_poll_seconds
        self.handoff_max_retries = handoff_max_retries
        #: Every migration ever attempted, in start order.
        self.migrations: List[Migration] = []
        #: Workload -> in-flight migration (at most one per workload).
        self.active: Dict[str, Migration] = {}
        self._stopped = False
        self.migrations_total = self.metrics.counter(
            "manager_migrations_total",
            "migrations by reason and outcome (completed/rolled-back)",
        )
        self.migration_seconds = self.metrics.histogram(
            "manager_migration_seconds",
            "wall-clock from PLANNED to COMPLETED/ABORTED",
        )
        self.phase_seconds = self.metrics.histogram(
            "migration_phase_seconds", "time spent per state-machine phase",
        )
        self.state_bytes_total = self.metrics.counter(
            "migration_state_bytes_total",
            "persistent lambda state shipped during handoffs",
        )
        self.handoff_retries_total = self.metrics.counter(
            "migration_handoff_retries_total",
            "state re-exports forced by the epoch fence",
        )

    # -- crash simulation ---------------------------------------------------

    def stop(self) -> None:
        """Simulate a controller crash: in-flight migrations freeze
        where they are (holds stay held, journals stay stale) until a
        new controller calls :meth:`recover`."""
        self._stopped = True

    def _checkpoint(self) -> None:
        if self._stopped:
            raise _ControllerStopped()

    # -- public API ---------------------------------------------------------

    def migrate(self, workload: str, target_kind: Optional[str] = None,
                target: Optional[str] = None, reason: str = "manual",
                fault: str = "", forced: bool = False):
        """Process: migrate ``workload``; returns the Migration on
        success (CUTOVER reached), None when it rolled back or another
        migration for the workload is already running.

        Only a forced migration may leave ``target_kind`` out: it goes
        to the manager's fallback backend
        (:meth:`WorkloadManager.pick_fallback`). An unforced one without
        it raises :class:`ValueError` here, before any process starts.
        """
        if target_kind is None and not forced:
            raise ValueError(
                f"migrating {workload!r} needs a target_kind unless forced")
        return self.env.process(self._migrate(
            workload, target_kind, target, reason, fault, forced,
        ))

    def migration_for(self, workload: str) -> Optional[Migration]:
        """The most recent migration attempted for ``workload``."""
        for migration in reversed(self.migrations):
            if migration.workload == workload:
                return migration
        return None

    # -- the state machine --------------------------------------------------

    def _set_state(self, migration: Migration, state: str) -> None:
        now = self.env.now
        if migration.history:
            last_at, last_state = migration.history[-1]
            self.phase_seconds.observe(now - last_at,
                                       labels={"phase": last_state})
        migration.state = state
        migration.history.append((now, state))
        if self.env.tracer is not None:
            self.env.tracer.instant(
                "migration.phase", "migration",
                tags={"workload": migration.workload, "state": state,
                      "reason": migration.reason},
            )

    def _migrate(self, workload, target_kind, target, reason, fault,
                 forced):
        if workload in self.active:
            return None
        try:
            record = self.manager.record(workload)
        except KeyError:
            return None
        source_kind = record.backend_kind
        if target_kind is None:
            target_kind = self.manager.pick_fallback(record)
        if target_kind is None:
            return None
        same_kind = target_kind == source_kind
        if same_kind and target is None:
            return None  # NIC->NIC needs an explicit destination
        migration = Migration(
            workload=workload, source_kind=source_kind,
            target_kind=target_kind, reason=reason,
            started_at=self.env.now, fault=fault, forced=forced,
        )
        self.migrations.append(migration)
        self.active[workload] = migration
        self._set_state(migration, PLANNED)
        if fault:
            record.last_fault = fault
        record.last_migration_reason = reason
        try:
            yield from self._journal(migration)

            # PLANNED -> PREPARED: target exists, verified, warm.
            target_result = yield from self._prepare(migration, record,
                                                     target)
            if target_result is None:
                return self._rollback(migration, "no healthy target")
            self._set_state(migration, PREPARED)

            # PREPARED -> DRAINING: quiesce the source.
            self._set_state(migration, DRAINING)
            yield from self._drain(migration, record)

            # DRAINING -> STATE_HANDOFF: ship persistent state.
            self._set_state(migration, STATE_HANDOFF)
            handed_off = yield from self._handoff(migration, record, target)
            if not handed_off:
                return self._rollback(migration, "epoch fence never settled")

            # STATE_HANDOFF -> CUTOVER -> COMPLETED. The journal write
            # is fire-and-forget so the flip itself has no yield: a
            # crash lands either wholly before or wholly after it.
            self._journal_sync(migration, CUTOVER)
            self._set_state(migration, CUTOVER)
            self._cutover(migration, record, target_result)
            self._set_state(migration, COMPLETED)
            self._finish(migration, "completed")
            self._journal_sync(migration, COMPLETED)
            return migration
        except _ControllerStopped:
            # Crashed mid-flight: leave everything (holds, journal) as
            # is; recover() on the next controller reconciles.
            return None
        except Exception as exc:
            return self._rollback(migration, f"{type(exc).__name__}: {exc}")
        finally:
            self.active.pop(workload, None)

    # -- phases -------------------------------------------------------------

    def _prepare(self, migration: Migration, record: DeploymentRecord,
                 target: Optional[str]):
        """Deploy/verify/warm the target; returns its DeployResult."""
        manager = self.manager
        workload = migration.workload
        kind = migration.target_kind
        backend = manager.backend(kind)
        if migration.source_kind == kind:
            # NIC->NIC (or host->host): same deployment, new target.
            self._checkpoint()
            healthy = set(backend.healthy_targets())
            if target not in healthy:
                return None
            migration.targets = [target]
            return record.result
        if kind == record.home_backend and record.home_result is not None:
            result = record.home_result
        elif record.standby_kind == kind and record.standby_result is not None:
            result = record.standby_result
        else:
            result = yield manager.prepare_standby(workload, kind)
            self._checkpoint()
        healthy = set(backend.healthy_targets())
        targets = [t for t in result.targets if t in healthy]
        if not targets:
            return None
        migration.targets = targets
        return result

    def _drain(self, migration: Migration, record: DeploymentRecord):
        """Quiesce the source: hold new requests, wait out in-flight."""
        workload = migration.workload
        gateway = self.gateway
        gateway.hold_route(workload)
        source_alive = bool(
            set(self.manager.healthy_targets(migration.source_kind))
            & set(record.result.targets)
        )
        if not source_alive:
            # Forced migration off a dead source: there is nothing to
            # quiesce — in-flight requests are already retrying through
            # the gateway and will land on the post-cutover route.
            return
        deadline = self.env.now + self.drain_timeout
        while gateway.inflight(workload) > 0 and self.env.now < deadline:
            yield self.env.timeout(self.drain_poll_seconds)
            self._checkpoint()
        # A drain timeout is safe: the source stays deployed after
        # cutover, so stragglers still complete (or retry and land on
        # the new route). The timeout only bounds held-request latency.

    def _target_result(self, record: DeploymentRecord,
                       migration: Migration):
        if migration.target_kind == record.home_backend and \
                record.home_result is not None:
            return record.home_result
        if record.standby_result is not None and \
                record.standby_kind == migration.target_kind:
            return record.standby_result
        return record.result

    def _handoff(self, migration: Migration, record: DeploymentRecord,
                 target: Optional[str]):
        """Export state at an epoch, ship it, verify, import. Returns
        False when the epoch fence never settled (abort)."""
        source = self.manager.backend(migration.source_kind)
        dest = self.manager.backend(migration.target_kind)
        source_target = (record.result.targets[0]
                         if migration.source_kind == migration.target_kind
                         else None)
        for attempt in range(self.handoff_max_retries + 1):
            snapshot = source.export_state(migration.workload,
                                           target=source_target)
            if snapshot is None:
                # Stateless substrate or dead source: nothing to ship.
                migration.state_transferred = False
                return True
            yield from self._transfer_time(snapshot)
            self._checkpoint()
            epoch_now = source.state_epoch(migration.workload,
                                           target=snapshot.source)
            if epoch_now == snapshot.epoch:
                dest.import_state(migration.workload, snapshot,
                                  target=target)
                migration.state_bytes = snapshot.size_bytes
                migration.state_transferred = True
                self.state_bytes_total.inc(snapshot.size_bytes)
                return True
            migration.handoff_retries += 1
            self.handoff_retries_total.inc()
        return False

    def _transfer_time(self, snapshot: StateSnapshot):
        """Time to ship the snapshot over the RDMA substrate."""
        size = snapshot.size_bytes
        if size <= 0:
            return
        n_segments = -(-size // RDMA_SEGMENT_BYTES)
        seconds = (size * 8 / HANDOFF_BANDWIDTH_BPS +
                   n_segments * HANDOFF_SEGMENT_SECONDS)
        yield self.env.timeout(seconds)

    def _cutover(self, migration: Migration, record: DeploymentRecord,
                 result) -> None:
        """The atomic flip: route, record, holds — no yields allowed."""
        manager = self.manager
        workload = migration.workload
        self.gateway.set_route(workload, result.wid, list(migration.targets),
                               rdma_qp=result.rdma_qp)
        was_degraded = record.degraded
        record.backend_kind = migration.target_kind
        record.result = result
        record.last_target_kind = migration.target_kind
        record.last_targets = list(migration.targets)
        now_degraded = record.degraded
        if now_degraded and not was_degraded:
            manager.degraded_workloads.add(1)
        elif was_degraded and not now_degraded:
            manager.degraded_workloads.add(-1)
        if migration.forced:
            # Legacy failover accounting: a forced migration IS the
            # old degrade/restore, expressed through the state machine.
            legacy = "restore" if (was_degraded and not now_degraded) \
                else "degrade"
            manager.failovers_total.inc(
                labels={"workload": workload, "kind": legacy})
            manager.failover_seconds.observe(
                self.env.now - migration.started_at,
                labels={"kind": legacy})
        self.gateway.release_route(workload)
        # Placement record: fire-and-forget (etcd may be mid-election;
        # routing must not wait for it).
        if manager.etcd is not None:
            self.env.process(manager._record_placement(
                workload, result.wid, migration.target_kind,
                migration.targets))

    def _rollback(self, migration: Migration, error: str):
        """ABORTED from any pre-cutover state: source keeps serving."""
        workload = migration.workload
        self.gateway.release_route(workload)
        migration.error = error
        self._set_state(migration, ABORTED)
        self._finish(migration, "rolled-back")
        self._journal_sync(migration, ABORTED)
        return None

    def _finish(self, migration: Migration, outcome: str) -> None:
        migration.outcome = outcome
        migration.completed_at = self.env.now
        self.migrations_total.inc(
            labels={"reason": migration.reason, "outcome": outcome})
        self.migration_seconds.observe(
            migration.duration, labels={"reason": migration.reason})
        if self.env.tracer is not None:
            self.env.tracer.instant(
                "migration.done", "migration",
                tags={"workload": migration.workload,
                      "reason": migration.reason, "outcome": outcome},
            )

    # -- journal + recovery -------------------------------------------------

    def _journal_key(self, workload: str) -> str:
        return f"/migration/{workload}"

    def _journal_value(self, migration: Migration, state: str) -> dict:
        return {
            "state": state,
            "source_kind": migration.source_kind,
            "target_kind": migration.target_kind,
            "targets": list(migration.targets),
            "reason": migration.reason,
            "forced": migration.forced,
        }

    def _journal(self, migration: Migration):
        """Durable PLANNED record; best-effort (etcd may be electing).

        Forced migrations never wait on the journal — failover latency
        must not depend on Raft liveness — so they fall through to the
        fire-and-forget path.
        """
        if self.etcd is None:
            return
        if migration.forced:
            self._journal_sync(migration, migration.state)
            return
        try:
            yield self.etcd.set(self._journal_key(migration.workload),
                                self._journal_value(migration,
                                                    migration.state))
        except TimeoutError:
            pass
        self._checkpoint()

    def _journal_sync(self, migration: Migration, state: str) -> None:
        """Fire-and-forget journal write (no yield at the call site)."""
        if self.etcd is None:
            return

        def writer():
            try:
                yield self.etcd.set(
                    self._journal_key(migration.workload),
                    self._journal_value(migration, state))
            except TimeoutError:
                pass

        self.env.process(writer())

    def recover(self, workload: str):
        """Process: reconcile an interrupted migration after a
        controller restart. Idempotent: pre-cutover journals roll
        back (source serving, holds released), a CUTOVER journal is
        completed forward, terminal journals are no-ops. Returns the
        action taken: "none" | "rolled-back" | "completed"."""
        return self.env.process(self._recover(workload))

    def _recover(self, workload: str):
        if self.etcd is None:
            return "none"
        try:
            entry = yield self.etcd.get(self._journal_key(workload))
        except TimeoutError:
            return "none"
        if entry is None:
            return "none"
        state = entry.get("state")
        if state in (COMPLETED, ABORTED) or state is None:
            return "none"
        try:
            record = self.manager.record(workload)
        except KeyError:
            return "none"
        migration = Migration(
            workload=workload,
            source_kind=entry.get("source_kind", record.backend_kind),
            target_kind=entry.get("target_kind", record.backend_kind),
            reason=entry.get("reason", "recovered"),
            started_at=self.env.now,
            forced=bool(entry.get("forced")),
            targets=list(entry.get("targets") or []),
        )
        migration.history.append((self.env.now, state))
        migration.state = state
        self.migrations.append(migration)
        if state == CUTOVER:
            # The flip was journalled: finish forward. Re-running the
            # cutover is idempotent (same route, same record fields).
            result = self._target_result(record, migration)
            if not migration.targets:
                healthy = self.manager.backend(
                    migration.target_kind).healthy_targets()
                migration.targets = [t for t in result.targets
                                     if t in healthy] or list(result.targets)
            self._set_state(migration, CUTOVER)
            self._cutover(migration, record, result)
            self._set_state(migration, COMPLETED)
            self._finish(migration, "completed")
            self._journal_sync(migration, COMPLETED)
            return "completed"
        # Pre-cutover: the source route was never touched — rollback
        # is releasing gateway drain state and closing the journal.
        self._rollback(migration, f"recovered from {state}")
        return "rolled-back"

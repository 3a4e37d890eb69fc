"""Fault storm: availability and recovery under injected failures.

Not a paper table — a robustness experiment over the paper's testbed.
All three workloads are deployed on λ-NIC (warm bare-metal standbys
ready), then a scripted :class:`~repro.faults.FaultPlan` kills one NIC,
takes an NPU island offline, kills the *other* NIC (forcing graceful
degradation to bare-metal), restores the fleet (reversing the
degradation), flaps a link, and crashes the Raft leader — all while
open-loop load runs against the gateway.

Reported per workload: availability during the storm, p99 during vs
after, plus the health monitor's mean time-to-failover and the
injector's event trace (identical across same-seed runs).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional

from ..faults import FaultPlan
from ..obs import TraceCollection
from ..serverless import Testbed
from ..workloads import standard_workloads
from .calibration import DEFAULT_CONFIG, WORKLOAD_NAMES, ExperimentConfig
from .harness import (
    ExperimentReport,
    deploy,
    load_cell,
    open_loop_phase,
    run_scenario,
)

#: Gateway tuned for fast failure detection (short timeout, aggressive
#: retries with jittered backoff, quick breaker reset probes).
GATEWAY_KWARGS = dict(
    request_timeout=0.25,
    max_retries=8,
    backoff_base=0.05,
    backoff_max=0.5,
    breaker_threshold=3,
    breaker_reset_timeout=0.5,
)

#: How long load keeps running after the last fault, and the length of
#: the clean "after" measurement phase.
SETTLE_SECONDS = 5.0
AFTER_SECONDS = 10.0


def build_plan(t0: float) -> FaultPlan:
    """The scripted storm, offset from ``t0`` (end of deployment)."""
    return (
        FaultPlan()
        # One NIC dies: the monitor shrinks routes to the survivor.
        .kill_nic(t0 + 5.0, "m2-nic")
        # Partial capacity loss on the survivor: island 0 goes dark.
        .kill_island(t0 + 8.0, "m3-nic", island=0)
        .restore_island(t0 + 12.0, "m3-nic", island=0)
        # The last NIC dies too: degrade to the warm bare-metal standby.
        .kill_nic(t0 + 15.0, "m3-nic")
        # Power returns: the monitor restores the λ-NIC home routes.
        .restore_nic(t0 + 22.0, "m2-nic")
        .restore_nic(t0 + 22.0, "m3-nic")
        # A transient cable pull; retries + breakers ride it out.
        .link_flap(t0 + 26.0, "m3-nic", down_for=0.5)
        # Control-plane churn: the Raft leader crashes mid-run.
        .crash_raft(t0 + 30.0, "leader")
    )


def run_storm(seed: int = 42, rate_rps: float = 25.0,
              after_rate_rps: Optional[float] = None,
              trace: bool = False,
              plan: Callable[[float], FaultPlan] = build_plan,
              schedule: Optional[Callable[[float], list]] = None,
              **testbed_kwargs: Any) -> dict:
    """Run the full storm scenario; returns raw results for reporting.

    ``plan(t0)`` scripts the faults and ``schedule(t0)`` optionally
    lists ``(fire time, workload, kwargs)`` live migrations, both
    offset from ``t0`` (end of deployment); a schedule needs
    ``with_migration=True`` among the extra ``testbed_kwargs``.

    The returned dict has ``during`` / ``after`` ({workload: LoadResult}),
    ``trace`` (the injector's fired events), ``events`` (failover
    actions), ``mttf`` (mean time-to-failover) and the testbed itself.
    """
    tb = Testbed(
        seed=seed, n_workers=2, with_etcd=True, with_failover=True,
        with_tracing=trace,
        gateway_kwargs=dict(GATEWAY_KWARGS),
        **testbed_kwargs,
    )
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    specs = [standard_workloads()[name] for name in WORKLOAD_NAMES]
    after_rate = after_rate_rps if after_rate_rps is not None else rate_rps

    def migration_driver(env, migrations):
        for at, workload, kwargs in migrations:
            delay = at - env.now
            if delay > 0:
                yield env.timeout(delay)
            # Fire and keep walking the schedule: a slow migration must
            # not delay the next one (they target different workloads).
            tb.migrator.migrate(workload, **kwargs)

    def scenario(env):
        yield tb.etcd_cluster.wait_for_leader()
        yield from deploy(tb, specs, "lambda-nic")
        # Warm standbys make degradation a pure re-route.
        for spec in specs:
            yield tb.manager.prepare_standby(spec.name, "bare-metal")

        t0 = env.now
        faults = plan(t0)
        tb.add_fault_injector(faults)
        if schedule is not None:
            env.process(migration_driver(env, schedule(t0)))

        during = yield from open_loop_phase(
            tb, "during", [(spec, rate_rps) for spec in specs],
            (faults.horizon - env.now) + SETTLE_SECONDS,
        )
        after = yield from open_loop_phase(
            tb, "after", [(spec, after_rate) for spec in specs],
            AFTER_SECONDS,
        )
        return during, after

    during, after = run_scenario(tb, scenario)
    return {
        "testbed": tb,
        "during": during,
        "after": after,
        "trace": list(tb.injector.trace),
        "events": list(tb.health.events),
        "mttf": tb.health.mean_time_to_failover(),
    }


def availability(result) -> float:
    """Fraction of issued requests that completed (1.0 == no failures)."""
    issued = result.completed + result.failures
    return result.completed / issued if issued else 1.0


def storm_report(storm: dict, trace: bool, experiment: str, title: str,
                 notes: List[str],
                 columns: Optional[Dict[str, Dict[str, Any]]] = None,
                 ) -> ExperimentReport:
    """Per-workload availability and latency rows for a storm run.

    ``columns`` adds ``{header: {workload: value}}`` columns before
    ``failed``, each also kept in the cells' ``extra``.
    """
    collection = None
    if trace:
        collection = TraceCollection()
        collection.add("storm", storm["testbed"].tracer)
    columns = columns or {}
    headers = ["workload", "avail_pct", "goodput_rps", "p99_ms_during",
               "p99_ms_after", *columns, "failed"]

    cells = {}
    rows = []
    for name in WORKLOAD_NAMES:
        during, after = storm["during"][name], storm["after"][name]
        extra = {header: values[name] for header, values in columns.items()}
        cells[name] = load_cell(
            name, "lambda-nic", during,
            availability=availability(during),
            after_p99=after.percentile(99),
            goodput_rps=during.goodput_rps,
            **extra,
        )
        rows.append([
            name,
            100.0 * availability(during),
            during.goodput_rps,
            during.percentile(99) * 1e3,
            after.percentile(99) * 1e3,
            *extra.values(),
            during.failures,
        ])
    return ExperimentReport(
        experiment=experiment,
        title=title,
        headers=headers,
        rows=rows,
        notes=notes,
        cells=cells,
        trace=collection,
    )


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """The registered experiment entry point."""
    config = config or DEFAULT_CONFIG
    storm = run_storm(seed=config.seed, trace=config.trace)
    kinds = Counter(event.kind for event in storm["events"])
    return storm_report(
        storm, config.trace,
        experiment="Fault storm",
        title="availability and recovery under injected failures",
        notes=[
            f"{len(storm['trace'])} faults fired; "
            f"{len(storm['events'])} failover actions "
            f"({kinds['shrink']} shrink, {kinds['degrade']} degrade, "
            f"{kinds['restore']} restore); "
            f"mean time-to-failover {storm['mttf'] * 1e3:.1f} ms",
        ],
    )

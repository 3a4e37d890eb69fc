"""Migration storm: live migrations under fault injection.

The robustness experiment for the "one resource pool" control plane
(Issue 6): all three workloads deploy on λ-NIC with warm bare-metal
standbys, open-loop load runs throughout, and two storms overlap:

* a *migration* storm — scripted live migrations (NIC → host, host →
  NIC, NIC → NIC) driven through the
  :class:`~repro.serverless.migration.MigrationController`'s state
  machine, some deliberately aimed at targets a fault has just killed
  (those must roll back to a serving source);
* a *fault* storm — NIC kills, island losses, link flaps, and a Raft
  leader crash from a scripted
  :class:`~repro.faults.FaultPlan`, including a full λ-NIC outage that
  the health monitor answers with *forced* migrations (degrade), then
  reverses (restore) when power returns.

The contract under test: no request is lost or duplicated (exactly-once
observable responses — held requests drain into the post-cutover route,
dual-routed copies dedup by request id), per-workload availability
stays ≥ 99 %, a failed migration leaves the source serving, and the
whole run is deterministic under a fixed seed.
"""

from __future__ import annotations

from typing import Optional

from ..faults import FaultPlan
from . import fault_recovery
from .calibration import DEFAULT_CONFIG, WORKLOAD_NAMES, ExperimentConfig
# The fault storm's runner and report serve this storm too; its
# availability is re-exported for this storm's benchmark gates.
from .fault_recovery import availability, storm_report  # noqa: F401
from .harness import ExperimentReport

#: Migration controller stance for the storm: short drains so held
#: requests see a bounded latency bump even when cutover races a fault.
MIGRATION_KWARGS = dict(
    drain_timeout=0.5,
    drain_poll_seconds=0.002,
)


def build_plan(t0: float) -> FaultPlan:
    """The fault half of the storm, offset from ``t0``."""
    return (
        FaultPlan()
        # One NIC dies while a live migration is in flight elsewhere.
        .kill_nic(t0 + 6.0, "m2-nic")
        # Partial capacity loss on the survivor.
        .kill_island(t0 + 9.0, "m3-nic", island=0)
        .restore_island(t0 + 11.0, "m3-nic", island=0)
        .restore_nic(t0 + 12.0, "m2-nic")
        # The other NIC dies right as migrations target it.
        .kill_nic(t0 + 14.0, "m3-nic")
        .restore_nic(t0 + 17.0, "m3-nic")
        # A transient cable pull mid-migration; retries ride it out.
        .link_flap(t0 + 20.0, "m3-nic", down_for=0.5)
        # Control-plane churn: the journal substrate loses its leader.
        .crash_raft(t0 + 22.0, "leader")
        # Full λ-NIC outage: every NIC workload force-migrates to the
        # warm bare-metal standby, then restores when power returns.
        .kill_nic(t0 + 26.0, "m2-nic")
        .kill_nic(t0 + 26.0, "m3-nic")
        .restore_nic(t0 + 30.0, "m2-nic")
        .restore_nic(t0 + 30.0, "m3-nic")
    )


def migration_schedule(t0: float):
    """(fire time, workload, kwargs) for the scripted live migrations.

    Interleaved with :func:`build_plan` so some land on healthy
    substrate (must COMPLETE) and some race a fault (must roll back or
    complete off the survivor — never lose the route).
    """
    return [
        # Clean live NIC -> host migration under load.
        (t0 + 3.0, "web_server",
         dict(target_kind="bare-metal", reason="storm")),
        # Back home while m2-nic is dead: cutover lands on m3-nic.
        (t0 + 8.0, "web_server",
         dict(target_kind="lambda-nic", reason="storm")),
        # NIC -> NIC aimed at the dead m2-nic: must roll back.
        (t0 + 10.0, "kv_client",
         dict(target_kind="lambda-nic", target="m2-nic", reason="storm")),
        # NIC -> NIC onto the restored m2-nic: completes, ships state.
        (t0 + 13.0, "kv_client",
         dict(target_kind="lambda-nic", target="m2-nic", reason="storm")),
        # Host-bound migration racing the m3-nic kill.
        (t0 + 15.0, "image_transformer",
         dict(target_kind="bare-metal", reason="storm")),
        # And home again once the fleet recovers.
        (t0 + 18.5, "image_transformer",
         dict(target_kind="lambda-nic", reason="storm")),
        # A migration during the Raft leader election: the journal is
        # best-effort, the data path must not stall.
        (t0 + 23.0, "web_server",
         dict(target_kind="bare-metal", reason="storm")),
        (t0 + 24.5, "web_server",
         dict(target_kind="lambda-nic", reason="storm")),
    ]


def run_storm(seed: int = 42, rate_rps: float = 25.0,
              after_rate_rps: Optional[float] = None,
              trace: bool = False) -> dict:
    """Run the combined storm: :func:`fault_recovery.run_storm`'s result
    plus ``migrations`` (every Migration attempted)."""
    storm = fault_recovery.run_storm(
        seed=seed, rate_rps=rate_rps, after_rate_rps=after_rate_rps,
        trace=trace, plan=build_plan, schedule=migration_schedule,
        with_migration=True, migration_kwargs=dict(MIGRATION_KWARGS),
    )
    storm["migrations"] = list(storm["testbed"].migrator.migrations)
    return storm


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """The registered experiment entry point."""
    config = config or DEFAULT_CONFIG
    storm = run_storm(seed=config.seed, trace=config.trace)
    tb = storm["testbed"]
    migrations = storm["migrations"]
    per_workload = {
        name: sum(1 for m in migrations if m.workload == name)
        for name in WORKLOAD_NAMES
    }
    n_completed = sum(1 for m in migrations if m.outcome == "completed")
    n_rolled = sum(1 for m in migrations if m.outcome == "rolled-back")
    held = tb.gateway.held_requests_total.total
    dupes = tb.gateway.duplicate_responses_total.total
    state_bytes = tb.migrator.state_bytes_total.total
    return storm_report(
        storm, config.trace,
        experiment="Migration storm",
        title="live NIC↔host migration under fault injection",
        notes=[
            f"{len(migrations)} migrations ({n_completed} completed, "
            f"{n_rolled} rolled back); {len(storm['trace'])} faults fired; "
            f"{len(storm['events'])} failover actions; "
            f"mean time-to-failover {storm['mttf'] * 1e3:.1f} ms",
            f"{int(held)} requests held during drains, "
            f"{int(dupes)} duplicate responses absorbed, "
            f"{int(state_bytes)} state bytes shipped",
        ],
        columns={"migrations": per_workload},
    )

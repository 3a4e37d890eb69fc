"""Property-based tests for live migration.

Two contracts, fuzzed rather than scripted:

* **Exactly-once under chaos** — for any fault schedule crossed with
  any migration point, every issued request resolves to exactly one
  observable outcome (success or failure — never zero, never two), the
  gateway is left with no dangling hold, and the migration counters
  exactly account for every state machine run.
* **Tracing is inert** — with migrations in the schedule, a traced run
  and an untraced run of the same seed are byte-identical in every
  observable output (exact latencies, migration history timestamps,
  final sim time).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.serverless import Testbed, open_loop
from repro.workloads import web_server_spec

GATEWAY = {
    "request_timeout": 0.05, "max_retries": 6,
    "backoff_base": 0.005, "backoff_max": 0.05,
    "breaker_reset_timeout": 0.25,
}

#: Fault actions the fuzzer may schedule, as (plan method, target).
FAULTS = ["kill_m2", "kill_m3", "island_m3", "flap_m3"]


def _apply_fault(plan: FaultPlan, kind: str, at: float) -> None:
    if kind == "kill_m2":
        plan.kill_nic(at, "m2-nic")
    elif kind == "kill_m3":
        plan.kill_nic(at, "m3-nic")
    elif kind == "island_m3":
        plan.kill_island(at, "m3-nic", island=0)
    elif kind == "flap_m3":
        plan.link_flap(at, "m3-nic", down_for=0.05)


def _run_chaos(seed, faults, migrate_at, with_tracing=False):
    tb = Testbed(seed=seed, n_workers=2, with_failover=True,
                 with_migration=True, with_tracing=with_tracing,
                 gateway_kwargs=dict(GATEWAY),
                 failover_kwargs={"check_interval": 0.1},
                 migration_kwargs={"drain_timeout": 0.05})
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        yield tb.manager.prepare_standby(spec.name, "bare-metal")
        t0 = env.now
        plan = FaultPlan()
        for offset, kind in faults:
            _apply_fault(plan, kind, t0 + offset)
        if plan.events:
            tb.add_fault_injector(plan)
        load = open_loop(env, tb.gateway, spec.name, rate_rps=200.0,
                         duration=0.6, rng=tb.rng.stream("load"))
        yield env.timeout(migrate_at)
        yield tb.migrator.migrate(spec.name, target_kind="bare-metal",
                                  reason="fuzz")
        result = yield load
        yield env.timeout(1.0)  # let failover + stragglers settle
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    tb.run(until=tb.env.now + 1.0)
    return tb, spec, process.value


@given(
    seed=st.integers(min_value=0, max_value=2 ** 10),
    faults=st.lists(
        st.tuples(st.floats(min_value=0.01, max_value=0.4),
                  st.sampled_from(FAULTS)),
        min_size=0, max_size=3),
    migrate_at=st.floats(min_value=0.0, max_value=0.4),
)
@settings(max_examples=12, deadline=None)
def test_exactly_once_under_fuzzed_faults_and_migrations(
        seed, faults, migrate_at):
    tb, spec, load = _run_chaos(seed, faults, migrate_at)

    # Exactly-once observable outcomes: every issued request resolved
    # to exactly one success or one failure.
    issued = load.completed + load.failures
    assert issued > 0
    assert load.completed == len(load.latencies)
    # Whatever the interleaving, the gateway is left clean: no hold,
    # nothing still in flight.
    assert not tb.gateway.held(spec.name)
    assert tb.gateway.inflight(spec.name) == 0
    # Each request was sent to one target at a time: no response ever
    # arrived twice.
    assert tb.gateway.duplicate_responses_total.total == 0

    # The migration counters are a complete, monotone account of every
    # state machine run: each attempt ended in exactly one outcome.
    migrations = tb.migrator.migrations
    assert all(m.outcome in ("completed", "rolled-back")
               for m in migrations)
    assert tb.migrator.migrations_total.total == len(migrations)
    for reason in {m.reason for m in migrations}:
        for outcome in ("completed", "rolled-back"):
            want = sum(1 for m in migrations
                       if m.reason == reason and m.outcome == outcome)
            got = tb.migrator.migrations_total.value(
                labels={"reason": reason, "outcome": outcome})
            assert got == want
    # A rolled-back migration left the source serving: the workload
    # still has a route either way.
    assert tb.gateway.route_for(spec.name).targets


def _fingerprint(seed, faults, migrate_at, with_tracing):
    tb, spec, load = _run_chaos(seed, faults, migrate_at,
                                with_tracing=with_tracing)
    lines = [
        f"completed={load.completed!r} failures={load.failures!r}",
        f"latencies={[f'{x!r}' for x in load.latencies]}",
        f"now={tb.env.now!r}",
        f"held={tb.gateway.held_requests_total.total!r} "
        f"dupes={tb.gateway.duplicate_responses_total.total!r}",
    ]
    for m in tb.migrator.migrations:
        lines.append(
            f"migration {m.workload} {m.source_kind}->{m.target_kind} "
            f"reason={m.reason} outcome={m.outcome} "
            f"history={[(f'{t!r}', s) for t, s in m.history]} "
            f"bytes={m.state_bytes!r} retries={m.handoff_retries!r}"
        )
    return "\n".join(lines)


@given(
    seed=st.integers(min_value=0, max_value=2 ** 10),
    migrate_at=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=6, deadline=None)
def test_traced_run_is_byte_identical_with_migration(seed, migrate_at):
    """Tracing must not perturb migration timing or outcomes."""
    faults = [(0.2, "kill_m2")]
    untraced = _fingerprint(seed, faults, migrate_at, False)
    traced = _fingerprint(seed, faults, migrate_at, True)
    assert traced == untraced
    assert "migration" in untraced  # the fingerprint is non-trivial

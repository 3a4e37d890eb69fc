"""Live migration: state machine, draining, handoff, rollback, recovery."""

import pytest

from repro.serverless import (
    ABORTED,
    COMPLETED,
    CUTOVER,
    DRAINING,
    MigrationPolicy,
    PLANNED,
    PREPARED,
    PlacementScorer,
    STATE_HANDOFF,
    Testbed,
    closed_loop,
    open_loop,
)
from repro.workloads import standard_workloads, web_server_spec

FAST_GATEWAY = {
    "request_timeout": 0.05, "max_retries": 6,
    "backoff_base": 0.005, "backoff_max": 0.05,
    "breaker_reset_timeout": 0.25,
}

FULL_HISTORY = [PLANNED, PREPARED, DRAINING, STATE_HANDOFF, CUTOVER,
                COMPLETED]


def make_testbed(n_workers=2, **kwargs):
    kwargs.setdefault("gateway_kwargs", dict(FAST_GATEWAY))
    return Testbed(seed=8, n_workers=n_workers, with_migration=True, **kwargs)


def run_scenario(tb, gen):
    process = tb.env.process(gen(tb.env))
    tb.run(until=process)
    return process.value


# -- the happy path ---------------------------------------------------------


def test_live_migration_nic_to_host_under_load():
    """A lambda moves NIC -> host while requests flow; none are lost."""
    tb = make_testbed(migration_kwargs={"drain_timeout": 0.05})
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        yield tb.manager.prepare_standby(spec.name, "bare-metal")
        load = open_loop(env, tb.gateway, spec.name, rate_rps=200.0,
                         duration=0.5, rng=tb.rng.stream("load"))
        yield env.timeout(0.1)
        migration = yield tb.migrator.migrate(spec.name,
                                              target_kind="bare-metal",
                                              reason="test")
        result = yield load
        return migration, result

    migration, load = run_scenario(tb, scenario)
    assert migration is not None
    assert migration.outcome == "completed"
    assert [state for _, state in migration.history] == FULL_HISTORY
    assert load.failures == 0
    record = tb.manager.record(spec.name)
    assert record.backend_kind == "bare-metal"
    assert record.last_migration_reason == "test"
    assert record.last_target_kind == "bare-metal"
    assert set(record.last_targets) == set(migration.targets)
    assert set(tb.gateway.route_for(spec.name).targets) <= {"m2-bm", "m3-bm"}
    # The drain held at least some of the open-loop arrivals, and every
    # held request completed exactly once (no duplicates observed).
    assert tb.gateway.duplicate_responses_total.total == 0
    assert tb.migrator.migrations_total.value(
        labels={"reason": "test", "outcome": "completed"}) == 1


def test_migration_back_home_reuses_home_deployment():
    tb = make_testbed()
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        yield tb.manager.prepare_standby(spec.name, "bare-metal")
        away = yield tb.migrator.migrate(spec.name, target_kind="bare-metal")
        home = yield tb.migrator.migrate(spec.name, target_kind="lambda-nic")
        return away, home

    away, home = run_scenario(tb, scenario)
    assert away.outcome == home.outcome == "completed"
    record = tb.manager.record(spec.name)
    assert record.backend_kind == "lambda-nic"
    assert not record.degraded
    # Home migration reused the original NIC deployment: no re-deploy,
    # so it is fast (sub-millisecond: drain poll + fence check only).
    assert home.duration < 0.05
    proc = closed_loop(tb.env, tb.gateway, spec.name, n_requests=5)
    tb.run(until=proc)
    assert proc.value.failures == 0


def test_nic_to_nic_migration_ships_persistent_state():
    tb = make_testbed()
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        # Touch the lambda so its persistent objects hold real content.
        yield closed_loop(env, tb.gateway, spec.name, n_requests=5)
        migration = yield tb.migrator.migrate(
            spec.name, target_kind="lambda-nic", target="m3-nic")
        return migration

    migration = run_scenario(tb, scenario)
    assert migration is not None and migration.outcome == "completed"
    assert migration.state_transferred
    assert migration.state_bytes > 0
    assert tb.gateway.route_for(spec.name).targets == ["m3-nic"]
    assert tb.migrator.state_bytes_total.total == migration.state_bytes
    # The shipped bytes match the source's objects, byte for byte.
    src = dict(tb.nic("m2-nic").export_lambda_state(spec.name)[1])
    dst = dict(tb.nic("m3-nic").export_lambda_state(spec.name)[1])
    assert src == dst


def test_nic_to_nic_requires_explicit_target():
    tb = make_testbed()
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        outcome = yield tb.migrator.migrate(spec.name,
                                            target_kind="lambda-nic")
        return outcome

    assert run_scenario(tb, scenario) is None
    assert tb.migrator.migrations == []


# -- rollback ---------------------------------------------------------------


def test_migration_to_dead_target_rolls_back():
    tb = make_testbed()
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        tb.nic("m3-nic").fail()
        outcome = yield tb.migrator.migrate(
            spec.name, target_kind="lambda-nic", target="m3-nic")
        load = yield closed_loop(env, tb.gateway, spec.name, n_requests=5)
        return outcome, load

    outcome, load = run_scenario(tb, scenario)
    assert outcome is None
    migration = tb.migrator.migration_for(spec.name)
    assert migration.state == ABORTED
    assert migration.outcome == "rolled-back"
    assert migration.error == "no healthy target"
    # The source route was never touched: the lambda keeps serving.
    assert load.failures == 0
    assert tb.migrator.migrations_total.value(
        labels={"reason": "manual", "outcome": "rolled-back"}) == 1


def test_epoch_fence_churn_rolls_back_and_releases_held_requests():
    """Concurrent writes during the handoff trip the epoch fence every
    attempt; the migration aborts and requests held by the drain are
    released back onto the (still serving) source."""
    tb = make_testbed(migration_kwargs={"drain_timeout": 0.02,
                                        "handoff_max_retries": 1})
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        yield closed_loop(env, tb.gateway, spec.name, n_requests=2)
        nic = tb.nic("m2-nic")
        name = next(iter(nic.export_lambda_state(spec.name)[1]))
        churning = [True]

        def churn():
            while churning[0]:
                nic.lambda_memory(name)  # bumps the state epoch
                yield env.timeout(1e-5)

        env.process(churn())
        proc = tb.migrator.migrate(spec.name, target_kind="lambda-nic",
                                   target="m3-nic")
        # A request arriving mid-handoff queues behind the gateway hold.
        yield env.timeout(5e-5)
        assert tb.gateway.held(spec.name)
        held = tb.gateway.request(spec.name)
        outcome = yield proc
        result = yield held
        churning[0] = False
        return outcome, result

    outcome, outcome_request = run_scenario(tb, scenario)
    assert outcome is None
    migration = tb.migrator.migration_for(spec.name)
    assert migration.state == ABORTED
    assert migration.error == "epoch fence never settled"
    assert migration.handoff_retries == 2  # initial + 1 retry, both fenced
    assert tb.migrator.handoff_retries_total.total == 2
    # The held request was released by the rollback and completed on
    # the untouched source route.
    assert tb.gateway.held_requests_total.total == 1
    assert not tb.gateway.held(spec.name)
    assert outcome_request.latency > 0
    assert tb.gateway.route_for(spec.name).targets == ["m2-nic", "m3-nic"]


# -- dual-routing (mirror) drain --------------------------------------------


def test_dual_mode_dedups_mirrored_responses_exactly_once():
    tb = make_testbed(migration_kwargs={"drain_timeout": 0.05})
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        # Keep the source busy so the drain actually waits...
        first = [tb.gateway.request(spec.name) for _ in range(8)]
        yield env.timeout(1e-6)
        proc = tb.migrator.migrate(
            spec.name, target_kind="lambda-nic", target="m3-nic",
            drain_mode="dual")
        # ... and requests arriving mid-drain get dual-routed (no
        # queueing delay in dual mode, unlike the hold).
        yield env.timeout(1e-5)
        assert not tb.gateway.held(spec.name)
        second = [tb.gateway.request(spec.name) for _ in range(5)]
        migration = yield proc
        outcomes = yield env.all_of(first + second)
        return migration, list(outcomes.todict().values())

    migration, outcomes = run_scenario(tb, scenario)
    assert migration is not None and migration.outcome == "completed"
    assert migration.drain_mode == "dual"
    # Requests in flight during the drain were sent to both source and
    # target; the second copy of each response was absorbed, so the
    # caller saw every request complete exactly once: one duplicate
    # absorbed per mirrored request, and all 13 outcomes delivered.
    mirrored = tb.gateway.mirrored_requests_total.total
    assert mirrored >= 5
    assert tb.gateway.duplicate_responses_total.total == mirrored
    assert len(outcomes) == 13
    assert all(outcome.latency > 0 for outcome in outcomes)


# -- crash + recovery -------------------------------------------------------


def test_controller_crash_pre_cutover_recovers_to_rollback():
    tb = make_testbed(with_etcd=True)
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.etcd_cluster.wait_for_leader()
        yield tb.manager.deploy(spec, "lambda-nic")
        yield tb.manager.prepare_standby(spec.name, "bare-metal")
        proc = tb.migrator.migrate(spec.name, target_kind="bare-metal")
        yield env.timeout(1e-4)  # let it journal PLANNED
        tb.migrator.stop()
        outcome = yield proc
        assert outcome is None  # frozen mid-flight, not rolled back
        # A restarted controller reconciles from the journal.
        tb.migrator._stopped = False
        first = yield tb.migrator.recover(spec.name)
        second = yield tb.migrator.recover(spec.name)
        load = yield closed_loop(env, tb.gateway, spec.name, n_requests=5)
        return first, second, load

    first, second, load = run_scenario(tb, scenario)
    assert first == "rolled-back"
    assert second == "none"  # idempotent: journal is terminal now
    assert not tb.gateway.held(spec.name)
    assert tb.manager.record(spec.name).backend_kind == "lambda-nic"
    assert load.failures == 0


def test_recover_completes_forward_from_cutover_journal():
    """A CUTOVER journal entry means the flip was decided: recovery
    finishes the migration forward instead of rolling back."""
    tb = make_testbed(n_workers=1, with_etcd=True)
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.etcd_cluster.wait_for_leader()
        yield tb.manager.deploy(spec, "lambda-nic")
        yield tb.manager.prepare_standby(spec.name, "bare-metal")
        yield tb.manager.etcd.set(f"/migration/{spec.name}", {
            "state": CUTOVER, "source_kind": "lambda-nic",
            "target_kind": "bare-metal", "targets": ["m2-bm"],
            "reason": "recovered-test", "forced": False,
        })
        action = yield tb.migrator.recover(spec.name)
        load = yield closed_loop(env, tb.gateway, spec.name, n_requests=5)
        return action, load

    action, load = run_scenario(tb, scenario)
    assert action == "completed"
    record = tb.manager.record(spec.name)
    assert record.backend_kind == "bare-metal"
    assert tb.gateway.route_for(spec.name).targets == ["m2-bm"]
    assert load.failures == 0
    migration = tb.migrator.migration_for(spec.name)
    assert migration.outcome == "completed"
    assert migration.reason == "recovered-test"


def test_recover_with_no_journal_is_a_noop():
    tb = make_testbed(with_etcd=True)
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.etcd_cluster.wait_for_leader()
        yield tb.manager.deploy(spec, "lambda-nic")
        return (yield tb.migrator.recover(spec.name))

    assert run_scenario(tb, scenario) == "none"
    assert tb.migrator.migrations == []


# -- forced migrations == PR 1 failover -------------------------------------


def test_forced_migration_replays_legacy_failover_contract():
    tb = make_testbed(n_workers=1, with_failover=True,
                      failover_kwargs={"check_interval": 0.1})
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        yield tb.manager.prepare_standby(spec.name, "bare-metal")
        tb.nic("m2-nic").fail()
        yield env.timeout(1.0)
        record = tb.manager.record(spec.name)
        assert record.degraded and record.backend_kind == "bare-metal"
        degraded_load = yield closed_loop(env, tb.gateway, spec.name,
                                          n_requests=5)
        tb.nic("m2-nic").restore()
        yield env.timeout(1.0)
        return degraded_load

    degraded_load = run_scenario(tb, scenario)
    assert degraded_load.failures == 0
    record = tb.manager.record(spec.name)
    assert not record.degraded
    assert record.backend_kind == "lambda-nic"
    # The degrade/restore ran through the migration state machine...
    outcomes = [(m.reason, m.forced, m.outcome)
                for m in tb.migrator.migrations]
    assert ("fault", True, "completed") in outcomes
    assert ("restore", True, "completed") in outcomes
    degrade = tb.migrator.migrations[0]
    assert [state for _, state in degrade.history] == FULL_HISTORY
    assert degrade.fault != ""
    # ... while emitting the PR 1 failover metrics exactly as before.
    assert tb.manager.failovers_total.value(
        labels={"workload": spec.name, "kind": "degrade"}) == 1
    assert tb.manager.failovers_total.value(
        labels={"workload": spec.name, "kind": "restore"}) == 1
    assert tb.manager.degraded_workloads.value() == 0
    assert tb.manager.failover_seconds.count(labels={"kind": "degrade"}) == 1
    assert tb.health.mean_time_to_failover() < 0.5
    # The failover event records what fired it and where traffic went.
    degrade_events = [e for e in tb.health.events if e.kind == "degrade"]
    assert degrade_events and degrade_events[0].fault != ""
    assert degrade_events[0].target_kind == "bare-metal"
    assert record.last_fault != ""
    assert record.last_targets == ["m2-nic"]  # home again after restore


# -- placement scoring ------------------------------------------------------


class _StubAdmission:
    wcet_seconds = 2e-6


class _StubRecord:
    admission = _StubAdmission()


class _StubBackend:
    def __init__(self, loads):
        self.loads = loads

    def target_load(self, target):
        return self.loads[target]

    def healthy_targets(self):
        return sorted(self.loads)


class _StubManager:
    def __init__(self, backends):
        self.backends = backends

    def record(self, workload):
        return _StubRecord()

    def backend(self, kind):
        return self.backends[kind]


class _StubMonitoring:
    def __init__(self, rps):
        self.rps = rps

    def rate(self, name, labels=None, window_seconds=None):
        return self.rps


def test_scorer_headroom_is_capacity_minus_wcet_occupancy():
    manager = _StubManager({
        "lambda-nic": _StubBackend({"m2-nic": (10, 64), "m3-nic": (2, 64)}),
        "bare-metal": _StubBackend({"m2-bm": (3, 4)}),
    })
    scorer = PlacementScorer(manager, monitoring=_StubMonitoring(1e6))
    # (64 - 10) - 1e6 * 2e-6 = 52; (64 - 2) - 2 = 60; (4 - 3) - 2 = -1.
    assert scorer.headroom("w", "lambda-nic", "m2-nic") == pytest.approx(52.0)
    assert scorer.headroom("w", "lambda-nic", "m3-nic") == pytest.approx(60.0)
    assert scorer.headroom("w", "bare-metal", "m2-bm") == pytest.approx(-1.0)
    assert scorer.rank("w", "lambda-nic", ["m2-nic", "m3-nic"]) == \
        ["m3-nic", "m2-nic"]
    assert scorer.best_kind("w") == "lambda-nic"
    assert scorer.best_kind("w", exclude="lambda-nic") == "bare-metal"


def test_scorer_without_monitoring_scores_live_load_only():
    manager = _StubManager({
        "lambda-nic": _StubBackend({"m2-nic": (0, 64), "m3-nic": (0, 64)}),
    })
    scorer = PlacementScorer(manager)
    assert scorer.headroom("w", "lambda-nic", "m2-nic") == pytest.approx(64.0)
    # Ties break by name so rankings are deterministic.
    assert scorer.rank("w", "lambda-nic", ["m3-nic", "m2-nic"]) == \
        ["m2-nic", "m3-nic"]


# -- the migration policy ---------------------------------------------------


def test_policy_queue_depth_triggers_migration_decision():
    tb = make_testbed()
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "bare-metal")
        policy = MigrationPolicy(env, tb.manager, tb.gateway,
                                 queue_depth_threshold=4,
                                 scorer=tb.scorer)
        proc = closed_loop(env, tb.gateway, spec.name, n_requests=40,
                           concurrency=10)
        yield env.timeout(0.002)  # host latencies are ms: all in flight
        decisions = policy.evaluate()
        again = policy.evaluate()  # cooldown: no duplicate decision
        yield proc
        return decisions, again

    decisions, again = run_scenario(tb, scenario)
    assert len(decisions) == 1
    assert decisions[0].reason == "queue"
    assert decisions[0].target_kind == "lambda-nic"
    assert again == []


def test_policy_p99_over_slo_triggers_migration_decision():
    tb = make_testbed()
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "bare-metal")
        policy = MigrationPolicy(env, tb.manager, tb.gateway,
                                 slo_seconds={spec.name: 1e-6},
                                 min_window_requests=20,
                                 scorer=tb.scorer)
        yield closed_loop(env, tb.gateway, spec.name, n_requests=30)
        return policy.evaluate()

    decisions = run_scenario(tb, scenario)
    assert len(decisions) == 1
    assert decisions[0].reason == "slo"
    assert decisions[0].target_kind == "lambda-nic"
    assert "p99=" in decisions[0].detail


def test_policy_sees_injected_faults():
    from repro.faults import FaultPlan

    tb = make_testbed()
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        tb.add_fault_injector(FaultPlan().kill_nic(env.now + 0.5, "m2-nic"))
        yield env.timeout(1.0)

    run_scenario(tb, scenario)
    assert [(action, target) for _, action, target
            in tb.migration_policy.faults_seen] == [("kill_nic", "m2-nic")]


def test_concurrent_migration_for_same_workload_is_rejected():
    tb = make_testbed(migration_kwargs={"drain_timeout": 0.5})
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        first = tb.migrator.migrate(spec.name, target_kind="bare-metal")
        yield env.timeout(1e-4)
        second = yield tb.migrator.migrate(spec.name,
                                           target_kind="bare-metal")
        assert second is None  # already migrating
        migration = yield first
        return migration

    migration = run_scenario(tb, scenario)
    assert migration is not None and migration.outcome == "completed"
    assert len(tb.migrator.migrations) == 1

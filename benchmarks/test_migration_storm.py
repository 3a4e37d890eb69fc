"""Benchmark: the migration storm — the Issue 6 robustness contract.

Runs scripted live migrations (NIC -> host, host -> NIC, NIC -> NIC)
overlapped with a fault storm (NIC kills, island loss, full-fleet
outage with forced migrations, link flap, Raft leader crash) under
open-loop load, and asserts:

* no request is lost or duplicated: exactly-once observable responses
  through every drain, cutover, and rollback;
* availability stays >= 99% for every workload through the storm;
* a failed migration rolls back to a serving source;
* p99 stays bounded while draining (held requests pay a bounded bump);
* two same-seed runs are identical down to exact latencies.
"""

from repro.experiments import migration_storm

MIN_AVAILABILITY = 0.99
#: Held requests wait at most drain_timeout + one service time; the
#: storm also rides through 250 ms gateway retry timeouts, so p99 over
#: the whole storm stays within a small multiple of the retry budget.
MAX_P99_DURING = 2.0  # seconds


def run_storm():
    return migration_storm.run_storm(seed=42, rate_rps=20.0)


def test_migration_storm(benchmark):
    storm = benchmark.pedantic(run_storm, rounds=1, iterations=1)
    tb = storm["testbed"]

    # -- exactly-once: nothing lost, nothing duplicated ------------------
    for name, result in storm["during"].items():
        issued = result.completed + result.failures
        assert issued > 0
        assert result.completed == len(result.latencies)
    # No request is ever sent twice at once (the storm does not hedge),
    # so no response may arrive twice.
    assert tb.gateway.duplicate_responses_total.total == 0
    for name in storm["during"]:
        assert not tb.gateway.held(name)
        assert tb.gateway.inflight(name) == 0

    # -- availability through the storm ----------------------------------
    for name, result in storm["during"].items():
        avail = migration_storm.availability(result)
        benchmark.extra_info[f"availability_{name}"] = round(avail, 4)
        assert avail >= MIN_AVAILABILITY, \
            f"{name}: availability {avail:.4f} < {MIN_AVAILABILITY}"

    # -- the storm exercised every migration path ------------------------
    migrations = storm["migrations"]
    outcomes = {(m.source_kind, m.target_kind, m.outcome)
                for m in migrations}
    assert ("lambda-nic", "bare-metal", "completed") in outcomes
    assert ("bare-metal", "lambda-nic", "completed") in outcomes
    assert ("lambda-nic", "lambda-nic", "completed") in outcomes  # NIC->NIC
    rolled = [m for m in migrations if m.outcome == "rolled-back"]
    assert rolled, "no migration was forced to roll back"
    # Rollback left the source serving: the workload kept its route
    # and ended the storm back on its home substrate.
    for m in rolled:
        assert tb.gateway.route_for(m.workload).targets
    forced = [m for m in migrations if m.forced]
    assert any(m.reason == "fault" for m in forced)     # degrade
    assert any(m.reason == "restore" for m in forced)   # restore home
    assert any(m.state_transferred for m in migrations)  # state shipped
    benchmark.extra_info["migrations"] = len(migrations)
    benchmark.extra_info["rolled_back"] = len(rolled)

    # -- bounded p99 during draining -------------------------------------
    for name, result in storm["during"].items():
        p99 = result.percentile(99)
        benchmark.extra_info[f"p99_during_{name}"] = round(p99, 4)
        assert p99 <= MAX_P99_DURING
    held = tb.gateway.held_requests_total.total
    benchmark.extra_info["held_requests"] = int(held)
    assert held > 0  # the queue drain actually held arrivals

    # -- everything ends home and healthy --------------------------------
    for name, result in storm["after"].items():
        assert migration_storm.availability(result) == 1.0
        assert tb.manager.record(name).backend_kind == "lambda-nic"
    assert tb.manager.degraded_workloads.value() == 0


def test_migration_storm_is_deterministic():
    first = run_storm()
    second = run_storm()
    assert first["trace"] == second["trace"]
    assert [(m.workload, m.started_at, m.outcome, m.state_bytes,
             [(t, s) for t, s in m.history])
            for m in first["migrations"]] == \
        [(m.workload, m.started_at, m.outcome, m.state_bytes,
          [(t, s) for t, s in m.history])
         for m in second["migrations"]]
    for name in first["during"]:
        assert first["during"][name].latencies == \
            second["during"][name].latencies

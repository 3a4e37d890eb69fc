"""Tests for the experiment drivers (FAST configuration).

The benchmark harness runs the full-scale versions; these tests check
that each driver produces a structurally complete, shape-correct
report quickly enough for CI.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    FAST_CONFIG,
    fault_recovery,
    fig6_latency,
    fig8_contention,
    fig9_optimizer,
    micro_reorder,
    table1_nic_types,
    table3_resources,
    table4_startup,
    verify_lambdas,
)
from repro.experiments.calibration import (
    FIG9_EXTENDED,
    PAPER_FIG9,
    PAPER_TABLE4,
)
from tests.speed_gates import MIN_JIT_SPEEDUP, engine_rates


def test_registry_covers_every_table_and_figure():
    assert set(ALL_EXPERIMENTS) == {
        "table1", "fig6", "fig7", "fig8", "table2", "table3", "table4",
        "fig9", "reorder", "fault_recovery", "migration_storm",
        "overload_storm", "verify", "scale_sweep",
    }


def test_fig6_single_cell_shapes():
    nic = fig6_latency.run_cell("web_server", "lambda-nic", FAST_CONFIG)
    bare = fig6_latency.run_cell("web_server", "bare-metal", FAST_CONFIG)
    assert nic.mean < 50e-6
    assert bare.mean > 10 * nic.mean
    assert len(nic.samples) == FAST_CONFIG.latency_requests


def test_fig6_report_has_nine_cells():
    report = fig6_latency.run(FAST_CONFIG)
    assert len(report.cells) == 9
    assert len(report.rows) == 9
    text = report.format()
    assert "Figure 6" in text
    assert "web_server" in text


def test_fig6_ecdf_export():
    report = fig6_latency.run(FAST_CONFIG)
    curve = fig6_latency.ecdf(report, "web_server", "lambda-nic")
    assert curve[-1][1] == 1.0
    xs = [x for x, _ in curve]
    assert xs == sorted(xs)


def test_fig8_contention_shapes():
    report = fig8_contention.run(FAST_CONFIG)
    nic = report.cells["lambda-nic-56"]
    bare = report.cells["bare-metal-56"]
    assert bare.mean > 50 * nic.mean
    assert nic.mean < 100e-6


def test_table2_throughput_shapes():
    report = fig8_contention.run_table2(FAST_CONFIG)
    nic = report.cells["lambda-nic-56"].throughput
    bare56 = report.cells["bare-metal-56"].throughput
    assert nic > 20 * bare56


def test_table3_resource_shapes():
    report = table3_resources.run(FAST_CONFIG)
    assert report.cells["lambda-nic"].extra["nic_mem_mib"] > 30
    assert report.cells["container"].extra["host_mem_mib"] == 219.5
    assert report.cells["bare-metal"].extra["host_cpu_pct"] > 1


def test_table4_startup_within_paper_tolerance():
    report = table4_startup.run(FAST_CONFIG)
    for backend, paper in PAPER_TABLE4.items():
        measured = report.cells[backend].extra
        assert measured["size_mib"] == pytest.approx(paper["size_mib"],
                                                     rel=0.25)
        assert measured["startup_s"] == pytest.approx(paper["startup_s"],
                                                      rel=0.25)


def test_fig9_matches_paper_stages():
    report = fig9_optimizer.run(FAST_CONFIG)
    # The paper's four stages lead the report; extended passes follow.
    assert [row[0] for row in report.rows][:len(PAPER_FIG9)] == \
        [s for s, _, _ in PAPER_FIG9]
    measured = [row[1] for row in report.rows]
    assert measured == sorted(measured, reverse=True)
    for count, (_, paper_count, _) in zip(measured, PAPER_FIG9):
        assert abs(count - paper_count) / paper_count < 0.05


def test_fig9_extended_series_pinned():
    """The full extended-pass series matches the golden in calibration;
    a compiler change that moves these counts must update FIG9_EXTENDED
    deliberately."""
    report = fig9_optimizer.run(FAST_CONFIG)
    assert [(row[0], row[1]) for row in report.rows] == \
        [(stage, count) for stage, count, _ in FIG9_EXTENDED]
    for row, (_, count, cum) in zip(report.rows, FIG9_EXTENDED):
        assert float(row[2].strip("-%")) == pytest.approx(cum, abs=0.01)
    # Extended rows have no paper reference column.
    for row in report.rows[len(PAPER_FIG9):]:
        assert row[3] == "—" and row[4] == "—"


def test_micro_reorder_exact():
    report = micro_reorder.run(FAST_CONFIG)
    assert report.rows[0][1] == 120
    assert 0.5 < float(report.rows[2][1]) < 3.0


def test_table1_static():
    report = table1_nic_types.run(FAST_CONFIG)
    assert len(report.rows) == 3
    profile = table1_nic_types.modeled_asic_profile()
    assert profile["cores"] == 56


def test_report_formatting_renders_floats():
    report = table1_nic_types.run(FAST_CONFIG)
    text = report.format()
    assert "==" in text and "metric" in text


def test_shapes_robust_across_seeds():
    """The headline ordering must not depend on the RNG seed."""
    from repro.experiments import ExperimentConfig

    for seed in [1, 7, 99]:
        config = ExperimentConfig(
            seed=seed, latency_requests=30, image_latency_requests=3,
        )
        nic = fig6_latency.run_cell("web_server", "lambda-nic", config)
        bare = fig6_latency.run_cell("web_server", "bare-metal", config)
        container = fig6_latency.run_cell("web_server", "container", config)
        assert nic.mean < bare.mean < container.mean, f"seed {seed}"
        assert container.mean / nic.mean > 100, f"seed {seed}"


def test_experiments_deterministic_for_fixed_seed():
    first = fig6_latency.run_cell("web_server", "lambda-nic", FAST_CONFIG)
    second = fig6_latency.run_cell("web_server", "lambda-nic", FAST_CONFIG)
    assert first.samples == second.samples


def test_perf_report_shapes():
    """The engine speed gate (medians of three warm rounds): the JIT
    is at least 6x the reference interpreter without falling back."""
    engines = engine_rates(requests=120, rounds=3)
    assert engines["jit_speedup"] >= MIN_JIT_SPEEDUP, (
        f"JIT only {engines['jit_speedup']:.2f}x over the reference "
        f"interpreter (gate: {MIN_JIT_SPEEDUP}x)"
    )
    assert engines["jit_fallbacks"] == 0


def test_verify_report_shapes():
    """The verifier driver: every workload verified, admissions correct."""
    report = verify_lambdas.run(FAST_CONFIG)
    rows = {row[0]: row for row in report.rows}
    assert set(rows) == {"image_transformer", "kv_client", "web_server"}
    assert all(row[2] == "ok" for row in report.rows)
    assert rows["web_server"][6] == "admitted -> lambda-nic"
    assert rows["kv_client"][6] == "admitted -> lambda-nic"
    assert rows["image_transformer"][6] == "rerouted-wcet -> bare-metal"
    # WCET columns are real cycle counts, ordered as measured.
    assert rows["kv_client"][4] < rows["web_server"][4]
    assert rows["image_transformer"][4] > 1_000_000
    assert "verify" in report.format()


def test_fault_recovery_storm_shapes():
    """CI-scale storm: every recovery path fires, availability holds."""
    storm = fault_recovery.run_storm(seed=1, rate_rps=3.0)
    for result in storm["during"].values():
        assert fault_recovery.availability(result) >= 0.99
    kinds = {event.kind for event in storm["events"]}
    assert {"shrink", "degrade", "restore"} <= kinds
    actions = {action for _, action, _ in storm["trace"]}
    assert "crash_raft" in actions and "kill_nic" in actions
    assert all(event.duration <= 2.0 for event in storm["events"])

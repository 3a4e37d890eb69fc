"""Self-test of the benchmark at smoke sizes: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench import ROOT
from bench.cli import catalogue, check, result_line, spawn, summarize
from bench.compare import verdict
from bench.layers import LAYERS
from bench.workloads import WORKLOADS


@pytest.fixture(scope="module")
def smoke_run():
    """One traced smoke run of every workload, one repeat each."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seconds", "0",
         "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout.splitlines()


def test_benchmark_json_matches_the_workloads():
    catalog = catalogue()
    assert [w["name"] for w in catalog["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in catalog["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in catalog["end_to_end"] + catalog["per_layer"]]
    assert len(names) == len(set(names))


def test_every_metric_is_printed_with_its_unit(smoke_run):
    catalog = catalogue()
    result = json.loads(smoke_run[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        block = _block(smoke_run, workload)
        for spec in catalog["end_to_end"] + catalog["per_layer"]:
            assert any(line.split()[:2] == [spec["name"], spec["unit"]]
                       for line in block), (workload, spec["name"])
        for spec in catalog["per_layer"]:
            metric = result["metrics"][f"{workload}.{spec['name']}"]
            assert metric["unit"] == spec["unit"]


def test_layer_shares_sum_to_one(smoke_run):
    metrics = json.loads(smoke_run[-1])["metrics"]
    for workload in WORKLOADS:
        total = sum(metrics[f"{workload}.{layer}.self_share"]["value"]
                    for layer in LAYERS + ("other",))
        assert total == pytest.approx(1.0, abs=0.01), workload


def test_ledger_check_fires_on_a_fabricated_mismatch():
    good = spawn("web_nic", 42, trace=False, smoke=True, timeout=120)
    bad = json.loads(json.dumps(good))
    bad["sim"]["ok"] -= 1
    summary = summarize("web_nic", [good, bad], None, smoke=True)
    assert summary["checks"]["ledger"] is False
    assert summary["failed"] == bad["sim"]["issued"]
    line = result_line({"web_nic": summary}, False, catalogue())
    assert line["correct"] is False and line["failed"] > 0
    assert check([good])["ledger"] is True


def test_same_seed_repeats_share_a_digest():
    first = spawn("storm_mixed", 7, trace=False, smoke=True, timeout=120)
    second = spawn("storm_mixed", 7, trace=False, smoke=True, timeout=120)
    traced = spawn("storm_mixed", 7, trace=True, smoke=True, timeout=120)
    assert first["digest"] == second["digest"] == traced["digest"]
    other_seed = spawn("storm_mixed", 8, trace=False, smoke=True, timeout=120)
    assert other_seed["digest"] != first["digest"]


@pytest.mark.parametrize("a, b, expected", [
    ([100.0] * 10, [120.0] * 10, "better"),
    ([100.0] * 10, [85.0] * 10, "worse beyond bound"),
    ([100.0] * 10, [97.0] * 10, "within bound"),
    ([70.0, 130.0] * 5, [100.0] * 10, "unresolved"),
    ([100.0] * 2, [85.0] * 2, "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    assert verdict(a, b, "higher", 0.1)[0] == expected


def test_fails_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and bench/, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        catalogue()["command"] + ["--workload", "web_nic", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _block(lines, workload):
    """The report lines of one workload."""
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"== {workload}:"))
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("== ") or lines[i].startswith("{")),
               len(lines))
    return [line.strip() for line in lines[start:end]]

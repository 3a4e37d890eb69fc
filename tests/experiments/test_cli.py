"""The ``python -m repro.experiments`` CLI, driven with stub experiments."""

import json

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import ExperimentReport
from repro.obs import TraceCollection, Tracer
from repro.sim import Environment


def _stub(name, traced):
    """A runner returning a one-row report, with one span if ``traced``."""
    def runner(config):
        collection = None
        if traced and config.trace:
            tracer = Tracer(Environment())
            tracer.instant(f"{name}.event", "test")
            collection = TraceCollection()
            collection.add(name, tracer)
        return ExperimentReport(experiment=name, title="stub",
                                headers=["k"], rows=[[name]],
                                trace=collection)
    return runner


@pytest.fixture
def stubs(monkeypatch):
    experiments = {
        "plain": _stub("plain", traced=False),
        "alpha": _stub("alpha", traced=True),
        "beta": _stub("beta", traced=True),
    }
    monkeypatch.setattr(cli, "ALL_EXPERIMENTS", experiments)
    return experiments


def test_unknown_experiment_returns_2(stubs, capsys):
    assert cli.main(["plain", "nonsense"]) == 2
    captured = capsys.readouterr()
    assert "nonsense" in captured.err
    assert captured.out == ""  # nothing ran


def test_trace_with_only_untraced_reports_returns_2(stubs, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.main(["plain", "--trace", str(path)]) == 2
    assert "== plain: stub ==" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_two_traced_reports_write_two_file_pairs(stubs, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.main(["plain", "alpha", "beta", "--fast",
                     f"--trace={path}"]) == 0
    out = capsys.readouterr().out
    for name in ("plain", "alpha", "beta"):
        assert f"== {name}: stub ==" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.alpha.json", "out.alpha.spans.jsonl",
        "out.beta.json", "out.beta.spans.jsonl",
    ]
    for name in ("alpha", "beta"):
        chrome = json.loads((tmp_path / f"out.{name}.json").read_text())
        assert chrome["traceEvents"]
        lines = (tmp_path / f"out.{name}.spans.jsonl").read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [
            f"{name}.event"]

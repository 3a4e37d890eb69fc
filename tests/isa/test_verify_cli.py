"""The standalone lint CLI: files, --workloads, --json, --forbid,
--explain, exit codes."""

import json
from pathlib import Path

import pytest

from repro.isa.verify.__main__ import main

CLEAN = """\
.lambda clean entry=clean
.func clean
    mov r1, 7
    add r0, r1, 1
    ret r0
"""

BUGGY = """\
.lambda buggy entry=buggy
.object buf size=64 access=read_write
.func buggy
    mov r1, 1
    resolve r14, [buf+100]
    store r14, [buf+100], r1
    add r0, r9, 1
    ret r0
"""

WARNY = """\
.lambda warny entry=warny
.func warny
    mov r1, 7
    ret r1
    mov r2, 9
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_clean_file_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "clean.asm", CLEAN)
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "clean: OK" in out
    assert "wcet:" in out


def test_buggy_file_exits_nonzero_with_locations(tmp_path, capsys):
    path = write(tmp_path, "buggy.asm", BUGGY)
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert "buggy: REJECTED" in out
    assert "oob-store" in out and "buggy@2" in out
    assert "uninit-read" in out and "buggy@3" in out


def test_strict_promotes_warnings_to_failure(tmp_path):
    path = write(tmp_path, "warny.asm", WARNY)
    assert main([path]) == 0
    assert main([path, "--strict"]) == 1


def test_json_report_artifact(tmp_path):
    clean = write(tmp_path, "clean.asm", CLEAN)
    buggy = write(tmp_path, "buggy.asm", BUGGY)
    artifact = tmp_path / "report.json"
    assert main([clean, buggy, "--json", str(artifact)]) == 1
    payload = json.loads(artifact.read_text())
    assert [entry["program"] for entry in payload] == ["clean", "buggy"]
    assert payload[0]["ok"] and not payload[1]["ok"]
    codes = {f["code"] for f in payload[1]["findings"]}
    assert {"oob-store", "uninit-read"} <= codes
    # Findings carry machine-usable locations.
    oob = next(f for f in payload[1]["findings"] if f["code"] == "oob-store")
    assert oob["function"] == "buggy" and oob["index"] == 2


def test_workloads_flag_covers_builtin_programs(capsys):
    assert main(["--workloads", "--quiet"]) == 0
    err = capsys.readouterr().err
    assert "3 ok, 0 rejected" in err


def test_unreadable_file_counts_as_failure(tmp_path, capsys):
    assert main([str(tmp_path / "missing.asm")]) == 1
    assert "failed to load" in capsys.readouterr().err


def test_nothing_to_verify_is_an_error():
    with pytest.raises(SystemExit):
        main([])


def example_files():
    from pathlib import Path

    return sorted(
        str(p) for p in
        (Path(__file__).resolve().parents[2] / "examples" /
         "lambdas").glob("*.asm")
    )


def test_shipped_examples_are_clean():
    examples = example_files()
    assert examples, "examples/lambdas/*.asm missing"
    assert main(examples) == 0


# -- interval-provenance flags ----------------------------------------------

MASKED = """\
.lambda masked entry=masked
.object buckets size=256 access=read_write
.func masked
    hload r1, LambdaHeader.request_id
    hash r2, r1
    and r2, r2, 248
    resolve r14, [buckets+r2]
    load r0, r14, [buckets+r2]
    ret r0
"""

UNPROVEN = """\
.lambda unproven entry=unproven
.object buckets size=256 access=read_write
.func unproven
    hload r1, LambdaHeader.request_id
    hash r2, r1
    resolve r14, [buckets+r2]
    load r0, r14, [buckets+r2]
    ret r0
"""

HEADER_LOOP = """\
.lambda hdrloop entry=hdrloop
.func hdrloop
    hload r1, LambdaHeader.total_segments
    mov r2, 0
label loop
    bge r2, r1, done
    add r2, r2, 1
    jmp loop
label done
    ret r2
"""


def test_forbid_rejects_on_matching_finding_code(tmp_path, capsys):
    masked = write(tmp_path, "masked.asm", MASKED)
    unproven = write(tmp_path, "unproven.asm", UNPROVEN)
    # Proven offsets are fine; an unprovable one trips --forbid even
    # though it is only warning-grade.
    assert main([masked, "--forbid", "unknown-offset"]) == 0
    assert main([unproven]) == 0
    capsys.readouterr()
    assert main([unproven, "--forbid", "unknown-offset"]) == 1
    captured = capsys.readouterr()
    assert "forbidden finding" in captured.err
    assert "unknown-offset" in captured.err


def test_shipped_examples_have_no_unknown_offsets(capsys):
    """The CI gate: every bundled lambda proves all its offsets."""
    assert main(example_files() + ["--forbid", "unknown-offset",
                                   "--quiet"]) == 0


def test_explain_prints_abstract_state(tmp_path, capsys):
    path = write(tmp_path, "masked.asm", MASKED)
    assert main([path, "--explain", "masked@3", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "masked@3" in out
    assert "r2: range [0, 248]" in out


def test_explain_rejects_bad_specs(tmp_path, capsys):
    path = write(tmp_path, "masked.asm", MASKED)
    assert main([path, "--explain", "masked@99", "--quiet"]) == 1
    assert "no instruction 99" in capsys.readouterr().err
    assert main([path, "--explain", "nonsense", "--quiet"]) == 1
    # A function the program does not define is silently skipped (the
    # target may live in another file on the command line).
    assert main([path, "--explain", "other@0", "--quiet"]) == 0


#: Verified WCET cycles: (before the interval pass, now). The "before"
#: column is the historical record of EXPERIMENTS.md's WCET-tightening
#: table (None: no bound).
WCET_CYCLES = {
    "counter": (164, 161),
    "echo": (6, 6),
    "hash_bucket": (256, 256),
    "seg_walker": (None, 458752),
    "image_transformer": (19674715, 19674715),
    "kv_client": (311, 311),
    "web_server": (8521, 8521),
}


def test_wcet_delta_table(capsys):
    """Every example lambda and standard workload verifies with the
    WCET of the table, never looser than before the interval pass."""
    examples = Path(__file__).resolve().parents[2] / "examples" / "lambdas"
    paths = sorted(str(path) for path in examples.glob("*.asm"))
    assert main([*paths, "--workloads", "--quiet", "--json", "-"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["program"]: r["wcet_cycles"] for r in reports} == {
        name: now for name, (_, now) in WCET_CYCLES.items()
    }
    for before, now in WCET_CYCLES.values():
        assert before is None or now <= before


def test_wcet_delta_to_stdout(tmp_path, capsys):
    """The pre-interval comparison table (--wcet-delta) is gone."""
    loop = write(tmp_path, "hdrloop.asm", HEADER_LOOP)
    with pytest.raises(SystemExit) as excinfo:
        main([loop, "--wcet-delta", "-", "--quiet"])
    assert excinfo.value.code == 2
    assert "--wcet-delta" in capsys.readouterr().err

"""Standalone lint CLI: ``python -m repro.isa.verify <file.asm> ...``.

Verifies lambda assembly files (and, with ``--workloads``, every
built-in benchmark program) and prints one report per program. Exits
non-zero when any program has error-grade findings (or, with
``--strict``, any warnings; or, with ``--forbid CODE``, any finding
with that code). ``--explain FUNC@IDX`` dumps the abstract state
(value ranges and constants) the analyses proved at a program point.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple

from ..asm import AsmError, assemble
from ..program import LambdaProgram
from .analyses import NAC, constant_states
from .intervals import ANY, interval_states
from .report import VerifierReport
from .verifier import VerifyOptions, verify_program


def _load_asm(path: str) -> LambdaProgram:
    return assemble(Path(path).read_text())


def _explain_point(program: LambdaProgram, spec: str) -> int:
    """Print the abstract state before ``FUNC@IDX`` in ``program``."""
    func_name, _, index_text = spec.partition("@")
    try:
        index = int(index_text)
    except ValueError:
        print(f"--explain expects FUNC@IDX, got {spec!r}", file=sys.stderr)
        return 1
    function = program.functions.get(func_name)
    if function is None:
        return 0  # Not this program; another target may match.
    if not 0 <= index < len(function.body):
        print(f"{program.name}: {func_name} has no instruction {index}",
              file=sys.stderr)
        return 1
    consts = constant_states(function)
    ranges = interval_states(function, cfg=consts.cfg, program=program)
    instruction = function.body[index]
    print(f"{program.name}: {func_name}@{index}: {instruction!r}")
    state = ranges.before(index)
    const_state = consts.before(index)
    if state is None:
        print("  unreachable (no abstract state)")
        return 0
    for reg in sorted(state):
        value = state[reg]
        const = const_state.get(reg, NAC) if const_state else NAC
        parts = []
        if const is not NAC:
            parts.append(f"const {const!r}")
        if value is not ANY:
            parts.append(f"range {value}")
        if not parts:
            parts.append("unknown (any value)")
        print(f"  {reg}: {'; '.join(parts)}")
    return 0


def _workload_programs() -> List[Tuple[str, LambdaProgram]]:
    from ...workloads.intrinsics import install_intrinsics
    from ...workloads.registry import standard_workloads

    install_intrinsics()
    return [
        (name, spec.nic_program())
        for name, spec in sorted(standard_workloads().items())
    ]


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.isa.verify",
        description="Statically verify lambda IR programs.",
    )
    parser.add_argument("files", nargs="*", metavar="FILE.asm",
                        help="assembly files to verify")
    parser.add_argument("--workloads", action="store_true",
                        help="also verify every built-in workload program")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="write all reports as JSON to PATH "
                             "('-' for stdout)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too")
    parser.add_argument("--quiet", action="store_true",
                        help="only print failing programs")
    parser.add_argument("--forbid", metavar="CODE", action="append",
                        default=[],
                        help="exit non-zero if any finding has this code "
                             "(repeatable), regardless of severity")
    parser.add_argument("--explain", metavar="FUNC@IDX",
                        help="print the abstract state (ranges, constants) "
                             "before the given program point")
    args = parser.parse_args(argv)

    if not args.files and not args.workloads:
        parser.error("nothing to verify (pass files and/or --workloads)")

    reports: List[VerifierReport] = []
    load_failures = 0
    targets: List[Tuple[str, LambdaProgram]] = []
    for path in args.files:
        try:
            targets.append((path, _load_asm(path)))
        except (OSError, AsmError, ValueError) as exc:
            print(f"{path}: failed to load: {exc}", file=sys.stderr)
            load_failures += 1
    if args.workloads:
        targets.extend(_workload_programs())

    failed = load_failures
    forbidden = set(args.forbid)
    for label, program in targets:
        report = verify_program(program, VerifyOptions())
        reports.append(report)
        hit = [f for f in report.findings if f.code in forbidden]
        bad = not report.ok or (args.strict and report.warnings) or hit
        if bad:
            failed += 1
        if bad or not args.quiet:
            print(report.summary())
        for finding in hit:
            print(f"{report.program}: forbidden finding: {finding}",
                  file=sys.stderr)
        if args.explain:
            failed += _explain_point(program, args.explain)

    if args.json_path:
        payload = json.dumps([r.to_dict() for r in reports], indent=2)
        if args.json_path == "-":
            print(payload)
        else:
            Path(args.json_path).write_text(payload + "\n")

    total = len(reports)
    ok = sum(1 for r in reports if r.ok)
    print(f"verified {total} program(s): {ok} ok, {total - ok} rejected",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

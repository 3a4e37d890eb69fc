"""``python -m repro.isa.jit_cli``: print the JIT's generated source.

A module of its own: ``repro.isa`` imports :mod:`repro.isa.jit`, so
running that module with ``-m`` would import it twice.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..workloads.registry import standard_workloads
from .asm import assemble
from .jit import JitLoweringError, JitProgram
from .program import LambdaProgram


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.isa.jit_cli``: inspect generated source.

    Dumps the JIT's generated Python for an assembled lambda file or a
    registered workload — the ``--dump-source`` debugging path.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.isa.jit_cli",
        description="dump the JIT's generated Python source for a lambda",
    )
    parser.add_argument("files", nargs="*",
                        help=".asm lambda files to assemble and compile")
    parser.add_argument("--workload", action="append", default=[],
                        help="registered workload name (repeatable); "
                             "'all' for every registered workload")
    parser.add_argument("--dump-source", action="store_true", default=True,
                        help="print generated source (default; kept "
                             "explicit for scripts)")
    args = parser.parse_args(argv)

    programs: List[LambdaProgram] = []
    if args.files:
        for path in args.files:
            with open(path, "r", encoding="utf-8") as handle:
                programs.append(assemble(handle.read(), name=path))
    names = args.workload
    if names:
        registry = standard_workloads()
        if "all" in names:
            names = sorted(registry)
        for name in names:
            programs.append(registry[name].nic_program())
    if not programs:
        parser.error("nothing to compile: pass .asm files or --workload")

    for program in programs:
        try:
            compiled = JitProgram(program)
        except JitLoweringError as error:
            print(f"# {program.name}: fallback to interpreter ({error})")
            continue
        print(compiled.source)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

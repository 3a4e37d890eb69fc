"""CLI: ``python -m repro.experiments [names...] [--fast] [--trace out.json]``.

Regenerates the requested experiments (default: all) and prints the
paper-vs-measured reports. With ``--trace PATH``, every selected
experiment whose report carries spans also writes a Perfetto-loadable
Chrome trace to PATH and the flat span records to ``PATH`` with a
``.spans.jsonl`` suffix; when several reports carry spans each gets
its own pair of files, suffixed with the experiment name.
"""

import dataclasses
import sys

from . import ALL_EXPERIMENTS, DEFAULT_CONFIG, FAST_CONFIG


def _parse_args(argv):
    fast = False
    trace_path = None
    names = []
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == "--fast":
            fast = True
        elif arg == "--trace":
            if index + 1 >= len(argv):
                raise ValueError("--trace requires a path argument")
            index += 1
            trace_path = argv[index]
        elif arg.startswith("--trace="):
            trace_path = arg.split("=", 1)[1]
        elif arg.startswith("-"):
            raise ValueError(f"unknown option {arg!r}")
        else:
            names.append(arg)
        index += 1
    return names, fast, trace_path


def _trace_paths(base: str, name: str, multiple: bool):
    stem = base[:-5] if base.endswith(".json") else base
    if multiple:
        stem = f"{stem}.{name}"
    return f"{stem}.json", f"{stem}.spans.jsonl"


def main(argv) -> int:
    try:
        names, fast, trace_path = _parse_args(argv)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    config = FAST_CONFIG if fast else DEFAULT_CONFIG
    if trace_path:
        config = dataclasses.replace(config, trace=True)
    selected = names or list(ALL_EXPERIMENTS)
    traced = []
    for name in selected:
        report = ALL_EXPERIMENTS[name](config)
        print(report.format())
        print()
        if trace_path and report.trace is not None:
            traced.append((name, report.trace))
    if trace_path:
        if not traced:
            print("--trace: none of the selected experiments emit traces",
                  file=sys.stderr)
            return 2
        for name, collection in traced:
            chrome, jsonl = _trace_paths(trace_path, name, len(traced) > 1)
            collection.write_chrome(chrome)
            collection.write_jsonl(jsonl)
            print(f"wrote {collection.n_spans} spans for {name}: "
                  f"{chrome} + {jsonl}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

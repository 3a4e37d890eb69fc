"""Script entry point: ``python3 bench/run.py [options]`` from the
repository root is ``python -m bench [options]``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())

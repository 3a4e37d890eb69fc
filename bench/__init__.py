"""Host-time benchmark of the λ-NIC simulator (see bench/README.md).

Importing the package puts the repository's ``src/`` first on
``sys.path``, so ``python -m bench`` and ``python3 bench/run.py`` need
no ``PYTHONPATH`` and always measure the simulator of the checkout they
sit in, never an installed copy.
"""

import sys
from pathlib import Path

#: The repository root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

if not (ROOT / "src" / "repro").is_dir():
    raise ImportError(f"{ROOT / 'src' / 'repro'} not found: the benchmark "
                      "runs the simulator from its own checkout")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

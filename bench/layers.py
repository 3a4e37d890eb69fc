"""Attribute a cProfile run's host time to the ``repro`` packages.

A function defined under ``src/repro/<package>/`` belongs to that
package's layer, and one defined under ``bench/`` (the benchmark's own
load generator) to ``other``. Builtins, the standard library and
third-party code own nothing: their self time is split over their
callers in proportion to the self time each caller edge recorded,
walking up until an owned function is reached. Time that never reaches
one (call cycles) is charged to ``other``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import Counter
from typing import Dict, Optional

import repro

#: Layers reported on their own; any other ``repro`` package (compiler,
#: core, raft, ...) folds into ``other``.
LAYERS = ("sim", "net", "transport", "hw", "isa", "serverless", "host",
          "kvcache", "obs", "workloads")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def module_of(filename: str) -> Optional[str]:
    """``'hw/memo.py'`` for a file of the repro package, else None."""
    if not filename.startswith(_REPRO_DIR):
        return None
    return filename[len(_REPRO_DIR):].replace(os.sep, "/")


def layer_of(module: str) -> str:
    package = module.split("/", 1)[0]
    return package if package in LAYERS and "/" in module else "other"


class Profile:
    """Self time by repro module, with unowned time pushed to callers."""

    def __init__(self, profile: cProfile.Profile) -> None:
        self._stats = pstats.Stats(profile).stats
        self.total_s = sum(entry[2] for entry in self._stats.values())
        self._owners: Dict[tuple, Counter] = {}
        self.module_s: Counter = Counter()
        for func, entry in self._stats.items():
            for owner, weight in self._owner_mix(func, frozenset()).items():
                self.module_s[owner] += entry[2] * weight

    def _owner_mix(self, func: tuple, visiting: frozenset) -> Counter:
        """Owning modules of ``func``'s self time, as weights summing to 1."""
        module = module_of(func[0])
        if module is not None:
            return Counter({module: 1.0})
        if func[0].startswith(_BENCH_DIR):
            return Counter({"other": 1.0})
        if func in self._owners:
            return self._owners[func]
        callers = {caller: edge for caller, edge in self._stats[func][4].items()
                   if caller != func and caller not in visiting}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
        total = sum(weights.values())
        mix: Counter = Counter()
        if total <= 0:
            mix["other"] = 1.0
        else:
            for caller, weight in weights.items():
                inner = self._owner_mix(caller, visiting | {func})
                for owner, share in inner.items():
                    mix[owner] += share * weight / total
        self._owners[func] = mix
        return mix

    def layer_s(self) -> Dict[str, float]:
        """Self seconds per layer (every layer present, plus ``other``)."""
        out = dict.fromkeys(LAYERS + ("other",), 0.0)
        for module, seconds in self.module_s.items():
            out[layer_of(module)] += seconds
        return out

    def inclusive_s(self, prefix: str) -> float:
        """Host seconds spent inside modules starting with ``prefix``:
        the cumulative time of every call that enters them from a repro
        module outside them."""
        total = 0.0
        for func, entry in self._stats.items():
            module = module_of(func[0])
            if module is None or not module.startswith(prefix):
                continue
            for caller, edge in entry[4].items():
                outer = module_of(caller[0])
                if outer is not None and not outer.startswith(prefix):
                    total += edge[3]
        return total

    def function_s(self, module: str, name: str) -> float:
        """Cumulative seconds of one function (all calls)."""
        return sum(entry[3] for func, entry in self._stats.items()
                   if func[2] == name and module_of(func[0]) == module)

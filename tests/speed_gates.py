"""Wall-clock speed gate for the lambda engines.

The JIT runs the web-server lambda at least ``MIN_JIT_SPEEDUP`` times
faster than the reference interpreter, and never on its interpreter
fallback. The ratio is the median of several warm rounds so that one
slow round on a loaded host does not decide the outcome.

End-to-end simulator speed is measured by ``python3 bench/run.py``;
these gates only check that the fast tiers keep paying for themselves.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from repro.isa import Interpreter, JitInterpreter
from repro.workloads import standard_workloads

#: The JIT must beat the reference interpreter by at least this factor.
MIN_JIT_SPEEDUP = 6.0


def webserver_inputs(n: int) -> List[Tuple[Dict, Dict]]:
    """Deterministic request stream for the web-server lambda."""
    return [
        (
            {"LambdaHeader": {"wid": 1, "request_id": i, "seq": 0,
                              "is_response": 0}},
            {"has_LambdaHeader": 1, "ingress_port": i % 4},
        )
        for i in range(n)
    ]


def fresh_memory(program) -> Dict[str, bytearray]:
    return {obj.name: bytearray(obj.size_bytes)
            for obj in program.objects.values()}


def _seconds(engine, program, inputs) -> float:
    """Wall-clock seconds to run every input through ``engine``."""
    memory = fresh_memory(program)
    run = engine.run
    started = time.perf_counter()
    for headers, meta in inputs:
        run(program, headers={k: dict(v) for k, v in headers.items()},
            meta=dict(meta), memory=memory)
    return time.perf_counter() - started


def engine_rates(requests: int, rounds: int) -> Dict[str, float]:
    """Web-server executions per second on both engine tiers.

    The JIT is warmed once so its one-time compile is not billed.
    """
    program = standard_workloads()["web_server"].nic_factory()
    inputs = webserver_inputs(requests)
    reference = Interpreter()
    jit = JitInterpreter()
    _seconds(jit, program, inputs[:1])
    reference_s = statistics.median(
        _seconds(reference, program, inputs) for _ in range(rounds))
    jit_s = statistics.median(
        _seconds(jit, program, inputs) for _ in range(rounds))
    return {
        "reference_exec_per_s": requests / reference_s,
        "jit_exec_per_s": requests / jit_s,
        "jit_speedup": reference_s / jit_s,
        "jit_fallbacks": jit.stats.fallbacks,
    }


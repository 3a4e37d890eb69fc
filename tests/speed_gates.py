"""Wall-clock speed gates for the lambda engines.

Two ratios, each the median of several warm rounds so that one slow
round on a loaded host does not decide the outcome:

* the JIT runs the web-server lambda at least ``MIN_JIT_SPEEDUP`` times
  faster than the reference interpreter, and never on its interpreter
  fallback;
* replaying a memoised pure execution (the KV-client lookup path) beats
  executing it on the JIT.

End-to-end simulator speed is measured by ``python3 bench/run.py``;
these gates only check that the fast tiers keep paying for themselves.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from repro.hw.memo import ExecutionMemoCache, make_key
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


def memo_rates(requests: int, rounds: int) -> Dict[str, float]:
    """Memo replay rate of one repeated pure KV-client request.

    The lookup path never writes persistent memory, so the first
    request executes and every repeat is a replay.
    """
    program = standard_workloads()["kv_client"].nic_factory()
    jit = JitInterpreter()
    memo = ExecutionMemoCache(max_entries=64)
    memory = fresh_memory(program)
    headers = {"LambdaHeader": {"wid": 2, "request_id": 7, "seq": 0,
                                "is_response": 0}}
    meta = {"has_LambdaHeader": 1, "ingress_port": 0}

    def serve_once() -> None:
        h = {k: dict(v) for k, v in headers.items()}
        m = dict(meta)
        key = make_key(program, program.entry, h, m, payload_digest=b"")
        if memo.get(key) is not None:
            return
        result, wrote = jit.execute(program, headers=h, meta=m,
                                    memory=memory)
        if wrote:
            memo.invalidate()
        else:
            memo.put(key, result)

    def one_round() -> float:
        started = time.perf_counter()
        for _ in range(requests):
            serve_once()
        return time.perf_counter() - started

    serve_once()  # populate (also warms the compile cache)
    elapsed = statistics.median(one_round() for _ in range(rounds))
    return {
        "memo_replay_per_s": requests / elapsed,
        "memo_hit_rate": memo.stats.hit_rate(),
    }

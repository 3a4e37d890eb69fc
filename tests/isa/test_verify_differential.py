"""Static WCET vs dynamic execution: the bound must actually bound.

For every registered workload the verifier's worst-case cycle estimate
must upper-bound the reference interpreter's observed cycles on fuzzed
request streams — and a verifier-approved program must never trip the
runtime's isolation checks or step limit.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import ExecutionError, Interpreter, IsolationError
from repro.isa.verify import verify_program
from tests.isa.test_jit import all_workload_programs, fresh_memory

_PROGRAMS = all_workload_programs()
_REPORTS = {}


def report_for(key):
    if key not in _REPORTS:
        _REPORTS[key] = verify_program(_PROGRAMS[key])
    return _REPORTS[key]


def request_streams():
    """Hypothesis strategy mirroring the JIT suite's fuzz inputs."""
    headers = st.fixed_dictionaries({
        "LambdaHeader": st.fixed_dictionaries({
            "wid": st.integers(1, 5),
            "request_id": st.integers(0, (1 << 16) - 1),
            "seq": st.integers(0, 7),
            "is_response": st.integers(0, 1),
            "total_segments": st.integers(1, 4),
        })
    })
    meta = st.fixed_dictionaries({
        "has_LambdaHeader": st.just(1),
        "ingress_port": st.integers(0, 3),
        "service_response": st.integers(0, 1),
        "service_status": st.integers(0, 1),
        "rdma_len": st.sampled_from([0, 1024, 4096]),
    })
    return st.lists(st.tuples(headers, meta), min_size=1, max_size=4)


@pytest.mark.parametrize("key", sorted(_PROGRAMS))
def test_workloads_are_verifier_approved(key):
    report = report_for(key)
    assert report.ok, f"{key} rejected: {report.errors}"
    assert report.wcet_cycles is not None, f"{key} has no WCET bound"


@pytest.mark.parametrize("key", sorted(_PROGRAMS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=st.data())
def test_static_wcet_bounds_observed_cycles(key, stream):
    program = _PROGRAMS[key]
    report = report_for(key)
    interpreter = Interpreter()
    memory = fresh_memory(program)
    for headers, meta in stream.draw(request_streams()):
        try:
            result = interpreter.run(
                program, headers=headers, meta=meta, memory=memory
            )
        except IsolationError as error:  # pragma: no cover - must not happen
            pytest.fail(f"approved program {key} raised IsolationError: "
                        f"{error}")
        except ExecutionError as error:  # pragma: no cover - must not happen
            assert "step limit" not in str(error), \
                f"approved program {key} hit the step limit"
            raise
        assert result.cycles <= report.wcet_cycles, (
            f"{key}: observed {result.cycles} cycles > "
            f"static WCET {report.wcet_cycles}"
        )


def test_wcet_is_tight_for_the_builtin_workloads():
    """The worst fuzzed input actually reaches the static bound.

    Not a soundness requirement — but if the bound drifts far above
    anything observable, the admission SLO check loses its meaning, so
    pin the bounds to the observed worst case for the shipped workloads.
    """
    import random

    from tests.isa.test_jit import fuzz_inputs

    for key in ("std:web_server", "std:kv_client"):
        program = _PROGRAMS[key]
        report = report_for(key)
        interpreter = Interpreter()
        worst = 0
        for headers, meta in fuzz_inputs(random.Random(7), 200):
            result = interpreter.run(
                program, headers=headers, meta=meta,
                memory=fresh_memory(program)
            )
            worst = max(worst, result.cycles)
        assert worst == report.wcet_cycles

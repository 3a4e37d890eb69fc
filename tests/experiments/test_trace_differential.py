"""Differential tests: tracing must not perturb the simulation.

The tracer's contract is that it never schedules events, consumes
randomness, or mutates packet routing — so a traced run and an
untraced run of the same seeded scenario must be *byte-identical* in
every observable output (exact float latencies, event count, final
sim time, per-component counters). Each parametrised case exercises a
different execution path: both engine tiers (the default JIT and the
reference interpreter), the host (bare-metal) backend, and the
RDMA/memcached path.
"""

import pytest

from repro.serverless import Testbed, closed_loop
from repro.workloads import standard_workloads

CASES = [
    ("jit", "web_server", "lambda-nic", {}),
    ("jit-explicit", "web_server", "lambda-nic", {"engine": "jit"}),
    ("interpreter", "web_server", "lambda-nic", {"engine": "interpreter"}),
    ("bare-metal-host", "web_server", "bare-metal", {}),
    ("rdma-kv", "kv_client", "lambda-nic", {}),
]


def _run_fingerprint(workload: str, backend: str, nic_kwargs: dict,
                     with_tracing: bool) -> str:
    """Every observable output of one run, rendered exactly (repr)."""
    tb = Testbed(seed=1234, n_workers=2, with_tracing=with_tracing,
                 nic_kwargs=dict(nic_kwargs))
    tb.add_backend(backend)
    spec = standard_workloads()[workload]

    def scenario(env):
        yield tb.manager.deploy(spec, backend)
        result = yield closed_loop(
            tb.env, tb.gateway, spec.name,
            n_requests=10, concurrency=2,
            payload_bytes=spec.request_bytes if spec.uses_rdma else None,
        )
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    load = process.value

    lines = [
        f"completed={load.completed!r} failures={load.failures!r}",
        f"latencies={[f'{x!r}' for x in load.latencies]}",
        f"now={tb.env.now!r}",
    ]
    for nic in tb.nics:
        stats = nic.stats
        lines.append(
            f"nic={nic.name} served={stats.requests_served!r} "
            f"responses={stats.responses_sent!r} "
            f"cycles={stats.total_cycles!r} busy={stats.busy_seconds!r} "
            f"rdma={stats.rdma_segments!r}/{stats.rdma_messages!r} "
            f"per_lambda={sorted(stats.per_lambda_requests.items())!r} "
            f"latencies={[f'{x!r}' for x in stats.latencies]}"
        )
    for kind, servers in sorted(tb._host_servers.items()):
        for server in servers:
            stats = server.stats
            lines.append(
                f"host={server.name} served={stats.requests_served!r} "
                f"responses={stats.responses_sent!r} "
                f"cpu_busy={server.cpu.stats.busy_seconds!r} "
                f"switches={server.cpu.stats.context_switches!r} "
                f"latencies={[f'{x!r}' for x in stats.latencies]}"
            )
    return "\n".join(lines)


@pytest.mark.parametrize("name,workload,backend,nic_kwargs", CASES,
                         ids=[case[0] for case in CASES])
def test_traced_run_is_byte_identical(name, workload, backend, nic_kwargs):
    untraced = _run_fingerprint(workload, backend, nic_kwargs, False)
    traced = _run_fingerprint(workload, backend, nic_kwargs, True)
    assert traced == untraced
    # Sanity: the fingerprint is non-trivial.
    assert "completed=10" in untraced


def test_engine_tiers_are_byte_identical_end_to_end():
    """Both engine tiers yield the same simulation, exactly — the
    cycle-exactness proof lifted to the whole testbed."""
    fingerprints = {
        engine: _run_fingerprint("web_server", "lambda-nic",
                                 {"engine": engine}, False)
        for engine in ("interpreter", "jit")
    }
    assert fingerprints["jit"] == fingerprints["interpreter"]


def test_traced_run_actually_traces():
    """Guard against the differential test passing vacuously."""
    tb = Testbed(seed=1, n_workers=1, with_tracing=True)
    tb.add_lambda_nic_backend()
    spec = standard_workloads()["web_server"]

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        result = yield closed_loop(tb.env, tb.gateway, spec.name,
                                   n_requests=2, concurrency=1)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    names = {span.name for span in tb.tracer.spans}
    assert {"gateway.request", "net.link", "net.switch",
            "nic.serve"} <= names

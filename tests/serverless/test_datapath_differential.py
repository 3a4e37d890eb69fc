"""Differential oracle for the callback request datapath.

``repro`` runs each request's gateway attempts, NIC serve passes, NPU
threads, host stack stages, interpreter locks and CPU threads as
timeouts plus callbacks over deque-and-counter servers;
``tests/serverless/legacy_datapath.py`` keeps the generator-process
implementation of the same model. Both run the same random scenario:
an open loop of requests at random instants against one or two NIC or
host workers, with retries, hedges, deadlines, shedding and a retry
budget drawn at random, and a host crash, a NIC failure, a migration
hold and a mirror at random instants, traced or not.

Arrivals and faults fall at continuous random instants and host service
times are random, so no two unrelated stages share an instant (DESIGN.md
§8 lists the same-instant orders the callback datapath keeps). The two
must agree exactly on every request's outcome (its latency, or the
cause it failed with), on every metric in the registry, and on the
trace's span list (each span's trace, name path, node, start, end and
tags), read once the requests still inside a server have finished. In
a traced run each request a host took in ends its ``host.handle`` span
exactly once, with a verdict.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serverless import GatewayTimeout, OverloadConfig, Testbed
from repro.workloads import standard_workloads
from tests.serverless.legacy_datapath import legacy_datapath

#: The lambdas each backend serves in a scenario, and how often each
#: is requested: one NIC request in twenty is a 1 MiB image, which
#: holds the gateway's link for about a millisecond.
LAMBDAS = {"lambda-nic": {"web_server": 10, "kv_client": 9,
                          "image_transformer": 1},
           "bare-metal": {"web_server": 1, "kv_client": 1},
           "container": {"web_server": 1}}

#: One core of two threads per NIC.
SMALL_NIC = dict(n_cores=1, threads_per_core=2, cores_per_island=1,
                 clock_hz=2e7)

overloads = st.one_of(st.none(), st.builds(
    OverloadConfig,
    deadline_seconds=st.sampled_from([None, 2e-3, 2e-2]),
    retry_budget_ratio=st.sampled_from([None, 0.0, 0.2]),
    shed_target_seconds=st.sampled_from([None, 2e-5, 1e-4]),
    backend_shed_target_seconds=st.sampled_from([None, 2e-5, 1e-4]),
    shed_interval_seconds=st.sampled_from([1e-4, 1e-3, 0.1]),
    hedge_quantile=st.sampled_from([None, 50.0, 95.0]),
    hedge_min_samples=st.just(3),
))

scenarios = st.fixed_dictionaries({
    "backend": st.sampled_from(sorted(LAMBDAS)),
    "n_workers": st.integers(min_value=1, max_value=2),
    #: The testbed's NICs, or one slow core of two threads per NIC, so
    #: NPU threads queue, expire at their dequeue and feed the shedder.
    "nic_kwargs": st.sampled_from([None, SMALL_NIC]),
    "requests": st.integers(min_value=1, max_value=60),
    #: Mean gap between arrivals (s): from overload to idle.
    "gap": st.sampled_from([5e-6, 2e-5, 2e-4, 2e-3]),
    "request_timeout": st.sampled_from([3e-4, 2e-3, 0.05]),
    "max_retries": st.integers(min_value=0, max_value=3),
    "overload": overloads,
    #: (kind, start, length) as fractions of the arrival span.
    "faults": st.lists(st.tuples(
        st.sampled_from(["crash", "nic_fail", "hold", "mirror"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.5)), max_size=2),
    "trace": st.booleans(),
    "seed": st.integers(min_value=0, max_value=2 ** 16),
})


def run(scenario) -> dict:
    """Run ``scenario`` on a fresh testbed; returns what it observed."""
    backend = scenario["backend"]
    tb = Testbed(seed=scenario["seed"], n_workers=scenario["n_workers"],
                 with_tracing=scenario["trace"],
                 gateway_kwargs=dict(
                     request_timeout=scenario["request_timeout"],
                     max_retries=scenario["max_retries"],
                     backoff_base=1e-4, backoff_max=1e-3),
                 nic_kwargs=scenario["nic_kwargs"],
                 overload=scenario["overload"])
    tb.add_backend(backend)
    handle_ends = count_handle_ends(tb)
    specs = standard_workloads()
    weights = LAMBDAS[backend]
    names = sorted(weights)
    rng = tb.rng.stream("differential")
    outcomes = []

    def one(env, index, name):
        issued = env.now
        try:
            outcome = yield tb.gateway.request(
                name, payload_bytes=(specs[name].request_bytes
                                     if specs[name].uses_rdma else None))
            outcomes.append((index, "ok", outcome.latency, outcome.retries,
                             env.now - issued))
        except GatewayTimeout as error:
            outcomes.append((index, error.reason, env.now - issued))

    def fault(env, kind, at, length):
        yield env.timeout(at)
        if kind == "crash" and backend != "lambda-nic":
            server = tb.host_servers(backend)[0]
            server.crash()
            yield env.timeout(length)
            yield server.restart(reboot_seconds=length)
        elif kind == "nic_fail" and backend == "lambda-nic":
            nic = tb.nics[0]
            nic.fail()
            yield env.timeout(length)
            nic.restore()
        elif kind == "hold":
            tb.gateway.hold_route("web_server")
            yield env.timeout(length)
            tb.gateway.release_route("web_server")
        elif kind == "mirror":
            route = tb.gateway.route_for("web_server")
            tb.gateway.mirror_route("web_server", route.wid, route.targets,
                                    route.rdma_qp)
            yield env.timeout(length)
            tb.gateway.clear_mirror("web_server")

    def body(env):
        for name in names:
            yield tb.manager.deploy(specs[name], backend)
        arrivals, at = [], 0.0
        for index in range(scenario["requests"]):
            at += rng.expovariate(1.0 / scenario["gap"])
            arrivals.append((at, index, rng.choices(
                names, [weights[name] for name in names])[0]))
        span = at
        for kind, start, length in scenario["faults"]:
            env.process(fault(env, kind, start * span + rng.random() * 1e-6,
                              length * span))
        issued, epoch = [], env.now
        for at, index, name in arrivals:
            yield env.timeout(epoch + at - env.now)
            issued.append(env.process(one(env, index, name)))
        yield env.all_of(issued)

    tb.run(until=tb.env.process(body(tb.env)))
    # Let the requests still inside a server finish: run until no event
    # is left. An overloaded host can hold its queue for seconds.
    tb.run()
    return {
        "outcomes": sorted(outcomes),
        "failures": Counter(o[1] for o in outcomes if o[1] != "ok"),
        "metrics": metrics_of(tb),
        "spans": span_lines(tb),
        "handle_ends": [(handle_ends[span.span_id], span.tags.get("verdict"))
                        for span in (tb.tracer.spans if tb.tracer else ())
                        if span.name == "host.handle"],
    }


def count_handle_ends(tb) -> Counter:
    """Counts, by span id, the ends of every ``host.handle`` span."""
    ends = Counter()
    if tb.tracer is not None:
        end = tb.tracer.end

        def counted(span, tags=None):
            if span is not None and span.name == "host.handle":
                ends[span.span_id] += 1
            end(span, tags)
        tb.tracer.end = counted
    return ends


def metrics_of(tb) -> dict:
    """Every counter's and gauge's labelled values, every histogram's
    observations in order."""
    out = {}
    for name, metric in tb.metrics.scrape().items():
        if hasattr(metric, "raw"):
            out[name] = sorted((tuple(sorted(labels)), tuple(series.values))
                               for labels, series in metric._series.items())
        else:
            out[name] = sorted((tuple(sorted(labels.items())), value)
                               for labels, value in metric.items())
    return out


def span_lines(tb) -> list:
    """Each span as (trace, name path, node, start, end, tags), sorted."""
    if tb.tracer is None:
        return []
    spans = tb.tracer.spans
    by_id = {span.span_id: span for span in spans}

    def path(span):
        names = []
        while span is not None:
            names.append(span.name)
            span = by_id.get(span.parent_id) if span.parent_id else None
        return "/".join(reversed(names))

    return sorted((span.trace_id, path(span), span.node, span.start,
                   span.end, repr(sorted(span.tags.items())))
                  for span in spans)


def scenario(backend, gap, overload, nic_kwargs=None, faults=(),
             request_timeout=2e-3, n_workers=2, seed=3) -> dict:
    return {"backend": backend, "n_workers": n_workers,
            "nic_kwargs": nic_kwargs, "requests": 60, "gap": gap,
            "request_timeout": request_timeout, "max_retries": 2,
            "overload": overload, "faults": list(faults), "trace": True,
            "seed": seed}


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios)
# Each feature at least once: the gateway's shedder, ...
@example(scenario=scenario("lambda-nic", 5e-6, OverloadConfig(
    shed_target_seconds=2e-5, shed_interval_seconds=1e-4)))
# ... the NIC's shedder and expiries at arrival, ...
@example(scenario=scenario("lambda-nic", 2e-5, OverloadConfig(
    deadline_seconds=2e-2, backend_shed_target_seconds=2e-5,
    shed_interval_seconds=1e-4), nic_kwargs=SMALL_NIC, n_workers=1,
    request_timeout=0.05))
# ... expiries at the NPU thread grant, hedges, the retry budget, a
# mirror and a NIC failure, ...
@example(scenario=scenario("lambda-nic", 1e-4, OverloadConfig(
    deadline_seconds=2e-3, retry_budget_ratio=0.2, hedge_quantile=50.0,
    hedge_min_samples=3), nic_kwargs=SMALL_NIC,
    faults=[("mirror", 0.2, 0.3), ("nic_fail", 0.5, 0.2)]))
# ... and a host crash, a hold and the host's shedder.
@example(scenario=scenario("bare-metal", 2e-4, OverloadConfig(
    deadline_seconds=2e-2, backend_shed_target_seconds=2e-5,
    shed_interval_seconds=1e-3),
    faults=[("crash", 0.3, 0.2), ("hold", 0.6, 0.1)], seed=9))
def test_callback_datapath_matches_the_process_datapath(scenario):
    with legacy_datapath():
        expected = run(scenario)
    actual = run(scenario)
    assert actual["outcomes"] == expected["outcomes"]
    assert actual["failures"] == expected["failures"]
    assert actual["metrics"] == expected["metrics"]
    assert actual["spans"] == expected["spans"]
    # Every request a host took in ended once, with its verdict.
    for observed in (expected, actual):
        assert all(ends == 1 and verdict is not None
                   for ends, verdict in observed["handle_ends"])

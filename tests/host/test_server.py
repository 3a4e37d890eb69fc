"""Tests for the host server backend datapath."""

import pytest

from repro.host import (
    BareMetalRuntime,
    ContainerRuntime,
    HostServer,
    ServiceTimeout,
)
from repro.net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Network,
    Packet,
    RpcHeader,
    UDPHeader,
)
from repro.obs import Tracer
from repro.sim import Environment, SimulationError


def lambda_packet(wid, request_id=1, src="client", dst="worker"):
    return Packet(
        src, dst,
        HeaderStack([
            EthernetHeader(), IPv4Header(), UDPHeader(),
            LambdaHeader(wid=wid, request_id=request_id),
        ]),
        payload_bytes=64,
    )


def simple_handler(ctx):
    yield ctx.compute(100e-6)
    ctx.response_bytes = 200
    ctx.response_meta["ok"] = 1


def make_setup(runtime=None, **deploy_kwargs):
    env = Environment()
    network = Network(env)
    client = network.add_node("client")
    worker_node = network.add_node("worker")
    server = HostServer(env, worker_node)
    server.deploy(
        "web", wid=1, handler=simple_handler,
        runtime=runtime or BareMetalRuntime(), **deploy_kwargs,
    )
    return env, network, client, server


def test_request_response_roundtrip():
    env, network, client, server = make_setup()
    responses = []
    client.attach(lambda p: responses.append((p, env.now)))
    client.send(lambda_packet(wid=1, request_id=5))
    env.run()
    assert len(responses) == 1
    response, at = responses[0]
    assert response.headers.require("LambdaHeader").is_response
    assert response.meta["lambda_meta"]["ok"] == 1
    assert response.payload_bytes == 200
    # Host path: kernel + dispatch + compute -> hundreds of microseconds.
    assert 100e-6 < at < 5e-3


def test_container_slower_than_bare_metal():
    def run(runtime):
        env, network, client, server = make_setup(runtime=runtime)
        times = []
        client.attach(lambda p: times.append(env.now))
        client.send(lambda_packet(wid=1))
        env.run()
        return times[0]

    assert run(ContainerRuntime()) > 5 * run(BareMetalRuntime())


def test_unknown_wid_dropped():
    env, network, client, server = make_setup()
    client.attach(lambda p: None)
    client.send(lambda_packet(wid=99))
    env.run()
    assert server.stats.dropped_unknown == 1
    assert server.stats.requests_served == 0


def test_cold_deployment_drops_until_started():
    env, network, client, server = make_setup(warm=False)
    responses = []
    client.attach(lambda p: responses.append(p))

    def scenario(env):
        client.send(lambda_packet(wid=1))
        yield env.timeout(1.0)
        yield server.start("web")
        client.send(lambda_packet(wid=1))

    env.process(scenario(env))
    env.run()
    assert server.stats.dropped_cold == 1
    assert len(responses) == 1


def test_startup_time_depends_on_runtime():
    env, network, client, server = make_setup(warm=False)
    start = server.start("web")
    env.run(until=start)
    assert 3.0 < env.now < 10.0  # bare-metal startup window


def test_duplicate_deploy_rejected():
    env, network, client, server = make_setup()
    with pytest.raises(ValueError):
        server.deploy("web", wid=7, handler=simple_handler,
                      runtime=BareMetalRuntime())
    with pytest.raises(ValueError):
        server.deploy("other", wid=1, handler=simple_handler,
                      runtime=BareMetalRuntime())


def test_undeploy_frees_memory():
    env, network, client, server = make_setup()
    used = server.memory.used_bytes
    assert used > 0
    server.undeploy("web")
    assert server.memory.used_bytes == 0


def test_max_workers_serialises_requests():
    env = Environment()
    network = Network(env)
    client = network.add_node("client")
    worker_node = network.add_node("worker")
    server = HostServer(env, worker_node)

    def slow_handler(ctx):
        yield ctx.compute(1e-3)

    server.deploy("slow", wid=1, handler=slow_handler,
                  runtime=BareMetalRuntime(), max_workers=1)
    times = []
    client.attach(lambda p: times.append(env.now))
    for index in range(3):
        client.send(lambda_packet(wid=1, request_id=index))
    env.run()
    assert len(times) == 3
    # Strictly serialised: ~1 ms apart.
    assert times[1] - times[0] > 0.9e-3
    assert times[2] - times[1] > 0.9e-3


def test_call_service_roundtrip():
    env = Environment()
    network = Network(env)
    client = network.add_node("client")
    worker_node = network.add_node("worker")
    cache_node = network.add_node("cache")
    server = HostServer(env, worker_node)

    def cache_service(packet):
        reply = Packet(
            "cache", packet.src,
            HeaderStack([
                EthernetHeader(), IPv4Header(), UDPHeader(),
                LambdaHeader(
                    request_id=packet.headers.require("LambdaHeader").request_id,
                    is_response=True,
                ),
                RpcHeader(method="resp", status=0),
            ]),
            payload_bytes=100,
        )
        cache_node.send(reply)

    cache_node.attach(cache_service)

    def kv_handler(ctx):
        response = yield ctx.call("cache", method="GET", key="user1")
        ctx.response_meta["cache_status"] = \
            response.headers.require("RpcHeader").status
        yield ctx.compute(50e-6)

    server.deploy("kv", wid=2, handler=kv_handler, runtime=BareMetalRuntime())
    responses = []
    client.attach(lambda p: responses.append(p))
    client.send(lambda_packet(wid=2))
    env.run()
    assert len(responses) == 1
    assert responses[0].meta["lambda_meta"]["cache_status"] == 0
    assert cache_node.rx_packets == 1


def test_call_service_times_out_and_raises():
    env = Environment()
    network = Network(env)
    client = network.add_node("client")
    worker_node = network.add_node("worker")
    dead_node = network.add_node("dead")
    dead_node.attach(lambda p: None)  # Never replies.
    server = HostServer(env, worker_node)
    outcomes = []

    def kv_handler(ctx):
        try:
            yield ctx.call("dead", timeout=0.01, retries=2)
        except ServiceTimeout:
            outcomes.append("timeout")
        yield ctx.compute(10e-6)

    server.deploy("kv", wid=2, handler=kv_handler, runtime=BareMetalRuntime())
    responses = []
    client.attach(responses.append)
    client.send(lambda_packet(wid=2))
    env.run()  # The failed call was defused: the kernel raises nothing.
    assert outcomes == ["timeout"]
    assert dead_node.rx_packets == 3  # initial + 2 retries
    # The handler caught the error, went on and answered.
    assert len(responses) == 1
    assert server.stats.handler_errors == 0


def test_call_service_retries_on_loss_then_succeeds():
    env = Environment()
    network = Network(env)
    client = network.add_node("client")
    worker_node = network.add_node("worker")
    flaky_node = network.add_node("flaky")
    server = HostServer(env, worker_node)
    seen = []

    def flaky_service(packet):
        seen.append(packet)
        if len(seen) < 2:
            return  # Drop the first request.
        reply = Packet(
            "flaky", packet.src,
            HeaderStack([
                EthernetHeader(), IPv4Header(), UDPHeader(),
                LambdaHeader(
                    request_id=packet.headers.require("LambdaHeader").request_id,
                    is_response=True,
                ),
            ]),
            payload_bytes=50,
        )
        flaky_node.send(reply)

    flaky_node.attach(flaky_service)

    def handler(ctx):
        yield ctx.call("flaky", timeout=0.01)
        ctx.response_meta["done"] = 1

    server.deploy("kv", wid=2, handler=handler, runtime=BareMetalRuntime())
    responses = []
    client.attach(lambda p: responses.append(p))
    client.send(lambda_packet(wid=2))
    env.run()
    assert responses[0].meta["lambda_meta"]["done"] == 1
    assert len(seen) == 2


# -- the handler driver: generators run with no process of their own ------


def traced_setup(handler, **deploy_kwargs):
    """A traced server running ``handler``; returns (env, server,
    client, responses)."""
    env = Environment()
    env.tracer = Tracer(env)
    network = Network(env)
    client = network.add_node("client")
    server = HostServer(env, network.add_node("worker"))
    server.deploy("fn", wid=1, handler=handler, runtime=BareMetalRuntime(),
                  **deploy_kwargs)
    responses = []
    client.attach(responses.append)
    return env, server, client, responses


def send_traced(env, client, request_id=1):
    packet = lambda_packet(wid=1, request_id=request_id)
    root = env.tracer.begin("client", trace_id=env.tracer.new_trace())
    Tracer.stamp_packet(packet, root)
    client.send(packet)


def handle_verdicts(env):
    return [(span.tags.get("verdict"), span.end is not None)
            for span in env.tracer.spans if span.name == "host.handle"]


def test_failed_event_is_raised_at_the_yield_and_defused():
    seen = []

    def handler(ctx):
        failed = ctx.env.event()
        failed.fail(KeyError("gone"))
        try:
            yield failed
        except KeyError as error:
            seen.append((ctx.env.now, error.args))
        yield ctx.compute(10e-6)

    env, server, client, responses = traced_setup(handler)
    send_traced(env, client)
    env.run()
    assert len(seen) == 1 and seen[0][1] == ("gone",)
    assert len(responses) == 1
    assert server.stats.handler_errors == 0
    assert handle_verdicts(env) == [("ok", True)]


def test_raising_handler_counts_an_error_and_answers_nothing():
    def handler(ctx):
        yield ctx.compute(10e-6)
        raise RuntimeError("lambda bug")

    env, server, client, responses = traced_setup(handler, max_workers=1)
    send_traced(env, client, request_id=1)
    send_traced(env, client, request_id=2)
    env.run()
    assert responses == []
    assert server.stats.handler_errors == 2
    assert server.stats.requests_served == 0
    # Each failure released the worker slot: the second request ran.
    assert handle_verdicts(env) == [("handler_error", True)] * 2
    handler_spans = [span for span in env.tracer.spans
                     if span.name == "host.handler"]
    assert [span.tags.get("error") for span in handler_spans] == [1, 1]


def test_handler_error_after_a_crash_is_not_counted():
    """An exception provoked by a crash mid-request is the machine's
    fault: it counts only if the epoch has not moved since arrival."""
    def handler(ctx):
        yield ctx.compute(1e-3)
        raise RuntimeError("lost its state")

    env, server, client, responses = traced_setup(handler)
    send_traced(env, client)
    env.run(until=500e-6)  # Inside the handler's compute.
    server.crash()
    env.run()
    assert server.stats.handler_errors == 0
    assert server.stats.crashes == 1
    assert responses == []
    assert handle_verdicts(env) == [("handler_error", True)]


def test_non_exception_error_propagates_out_of_run():
    class Halt(BaseException):
        pass

    def handler(ctx):
        yield ctx.compute(10e-6)
        raise Halt()

    env, server, client, responses = traced_setup(handler, max_workers=1)
    send_traced(env, client)
    with pytest.raises(Halt):
        env.run()
    assert server.stats.handler_errors == 0
    assert server._by_wid[1].semaphore.busy == 0


def test_bad_yield_ends_in_handler_error():
    def handler(ctx):
        yield 42

    errors = []
    env, server, client, responses = traced_setup(handler)
    handled = server._handled
    server._handled = lambda h, error: errors.append(error) or \
        handled(h, error)
    send_traced(env, client)
    env.run()
    assert responses == []
    assert server.stats.handler_errors == 1
    assert handle_verdicts(env) == [("handler_error", True)]
    [error] = errors
    assert isinstance(error, SimulationError)
    assert "invalid target 42" in str(error)


def test_compute_returns_a_request_not_an_event():
    """``ctx.compute`` builds no event; the ``yield`` evaluates to the
    CPU time charged (the dispatch already paid the thread's context
    switch)."""
    charged = []

    def handler(ctx):
        request = ctx.compute(100e-6)
        assert not hasattr(request, "callbacks")
        charged.append((yield request))
        charged.append((yield ctx.compute(50e-6, gil=False)))

    env, server, client, responses = traced_setup(handler)
    send_traced(env, client)
    env.run()
    assert charged == [pytest.approx(100e-6), pytest.approx(50e-6)]
    assert server.cpu.stats.context_switches == 1
    assert len(responses) == 1

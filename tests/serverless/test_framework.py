"""Integration tests: testbed, manager, gateway, backends, loadgen."""

import pytest

from repro.serverless import (
    GatewayTimeout,
    Testbed,
    closed_loop,
    open_loop,
    round_robin_closed_loop,
)
from repro.workloads import (
    image_transformer_spec,
    kv_client_spec,
    standard_workloads,
    web_server_spec,
)


def deploy_and(tb, kinds_specs, body):
    """Deploy (spec, kind) pairs then run body(env) as a process."""

    def scenario(env):
        for spec, kind in kinds_specs:
            yield tb.manager.deploy(spec, kind)
        result = yield from body(env)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    return process.value


def test_nic_backend_serves_web_requests():
    tb = Testbed(seed=2)
    tb.add_lambda_nic_backend()

    def body(env):
        result = yield closed_loop(tb.env, tb.gateway, "web_server",
                                   n_requests=20)
        return result

    result = deploy_and(tb, [(web_server_spec(), "lambda-nic")], body)
    assert result.completed == 20
    assert result.failures == 0
    assert result.mean_latency < 50e-6


def test_bare_metal_backend_serves_web_requests():
    tb = Testbed(seed=2)
    tb.add_bare_metal_backend()

    def body(env):
        result = yield closed_loop(tb.env, tb.gateway, "web_server",
                                   n_requests=20)
        return result

    result = deploy_and(tb, [(web_server_spec(), "bare-metal")], body)
    assert result.completed == 20
    assert 50e-6 < result.mean_latency < 2e-3


def test_container_slowest():
    means = {}
    for kind in ["lambda-nic", "bare-metal", "container"]:
        tb = Testbed(seed=2)
        tb.add_backend(kind)

        def body(env, tb=tb):
            result = yield closed_loop(tb.env, tb.gateway, "web_server",
                                       n_requests=20)
            return result

        means[kind] = deploy_and(tb, [(web_server_spec(), kind)], body).mean_latency
    assert means["lambda-nic"] < means["bare-metal"] < means["container"]
    assert means["container"] / means["lambda-nic"] > 100


def test_kv_workload_on_nic_uses_memcached():
    tb = Testbed(seed=3)
    tb.add_lambda_nic_backend()

    def body(env):
        result = yield closed_loop(tb.env, tb.gateway, "kv_client",
                                   n_requests=10)
        return result

    result = deploy_and(tb, [(kv_client_spec(), "lambda-nic")], body)
    assert result.completed == 10
    assert tb.memcached.stats.gets == 10


def test_image_workload_rdma_on_nic():
    tb = Testbed(seed=3)
    tb.add_lambda_nic_backend()
    spec = image_transformer_spec(width=64, height=64)

    def body(env):
        result = yield closed_loop(
            tb.env, tb.gateway, "image_transformer", n_requests=3,
            payload_bytes=spec.request_bytes,
        )
        return result

    result = deploy_and(tb, [(spec, "lambda-nic")], body)
    assert result.completed == 3
    total_segments = sum(nic.stats.rdma_segments for nic in tb.nics)
    assert total_segments == 3 * (spec.request_bytes // 4096)


def test_deployment_records_table4_shape():
    """Startup: bare-metal < lambda-nic < container (Table 4)."""
    startups = {}
    for kind in ["lambda-nic", "bare-metal", "container"]:
        tb = Testbed(seed=4)
        tb.add_backend(kind)

        def body(env, tb=tb):
            yield env.timeout(0)
            return None

        deploy_and(tb, [(image_transformer_spec(), kind)], body)
        record = tb.manager.deployments["image_transformer"]
        startups[kind] = record.startup_seconds
    assert startups["bare-metal"] < startups["lambda-nic"] < startups["container"]
    assert 3 < startups["bare-metal"] < 8
    assert 15 < startups["lambda-nic"] < 25
    assert 25 < startups["container"] < 40


def test_duplicate_deployment_rejected():
    tb = Testbed(seed=5)
    tb.add_lambda_nic_backend()

    def scenario(env):
        yield tb.manager.deploy(web_server_spec(), "lambda-nic")
        with pytest.raises(ValueError):
            yield tb.manager.deploy(web_server_spec(), "lambda-nic")

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)


def test_unknown_backend_rejected():
    tb = Testbed(seed=5)
    with pytest.raises(KeyError):
        tb.manager.backend("quantum")
    with pytest.raises(ValueError):
        tb.add_backend("quantum")


def test_round_robin_contention_driver():
    tb = Testbed(seed=6)
    tb.add_lambda_nic_backend()
    specs = [web_server_spec(f"web{index}") for index in range(3)]

    def body(env):
        results = yield round_robin_closed_loop(
            tb.env, tb.gateway, [spec.name for spec in specs],
            n_requests=30, concurrency=3,
        )
        return results

    results = deploy_and(tb, [(spec, "lambda-nic") for spec in specs], body)
    assert results["__all__"].completed == 30
    for spec in specs:
        assert results[spec.name].completed == 10


def test_open_loop_generator():
    tb = Testbed(seed=7)
    tb.add_lambda_nic_backend()

    def body(env):
        result = yield open_loop(
            tb.env, tb.gateway, "web_server", rate_rps=2000,
            duration=0.05, rng=tb.rng.stream("load"),
        )
        return result

    result = deploy_and(tb, [(web_server_spec(), "lambda-nic")], body)
    assert 40 < result.completed < 220  # ~100 expected
    assert result.failures == 0


def test_gateway_timeout_on_black_hole():
    tb = Testbed(seed=8, gateway_kwargs={"request_timeout": 0.01,
                                         "max_retries": 1})
    sink = tb.network.add_node("sink")
    sink.attach(lambda p: None)
    tb.gateway.set_route("dead", wid=42, targets=["sink"])

    def scenario(env):
        with pytest.raises(GatewayTimeout):
            yield tb.gateway.request("dead")

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    assert tb.gateway.failures_total.total == 1


def test_etcd_placement_sync():
    tb = Testbed(seed=9, with_etcd=True)
    tb.add_lambda_nic_backend()

    def scenario(env):
        yield tb.etcd_cluster.wait_for_leader()
        yield tb.manager.deploy(web_server_spec(), "lambda-nic")
        placement = yield tb.manager.placement("web_server")
        assert placement["backend"] == "lambda-nic"
        assert placement["targets"]

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)


def test_gateway_metrics_recorded():
    tb = Testbed(seed=10)
    tb.add_lambda_nic_backend()

    def body(env):
        result = yield closed_loop(tb.env, tb.gateway, "web_server",
                                   n_requests=5)
        return result

    deploy_and(tb, [(web_server_spec(), "lambda-nic")], body)
    histogram = tb.metrics.histogram("gateway_request_seconds")
    assert histogram.count(labels={"workload": "web_server"}) == 5


def test_undeploy_lambda_nic_reflashes_without_workload():
    tb = Testbed(seed=11)
    tb.add_lambda_nic_backend()
    web_a = web_server_spec("web_a")
    web_b = web_server_spec("web_b")

    def scenario(env):
        yield tb.manager.deploy(web_a, "lambda-nic")
        yield tb.manager.deploy(web_b, "lambda-nic")
        yield tb.manager.undeploy("web_a")
        # web_b still serves; web_a is gone from routes and firmware.
        result = yield closed_loop(tb.env, tb.gateway, "web_b", n_requests=5)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    assert process.value.completed == 5
    with pytest.raises(KeyError):
        tb.gateway.route_for("web_a")
    assert "web_a" not in tb.nic_runtime.workloads
    assert "web_a" not in tb.nics[0].firmware.lambda_ids
    with pytest.raises(KeyError):
        tb.gateway.route_for("web_a")


def test_undeploy_last_nic_lambda_leaves_bare_nics():
    tb = Testbed(seed=12, n_workers=1)
    tb.add_lambda_nic_backend()

    def scenario(env):
        yield tb.manager.deploy(web_server_spec(), "lambda-nic")
        yield tb.manager.undeploy("web_server")

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    assert tb.nics[0].firmware is None
    assert tb.manager.deployments == {}


def test_undeploy_host_backend_frees_memory():
    tb = Testbed(seed=13, n_workers=1)
    tb.add_container_backend()

    def scenario(env):
        yield tb.manager.deploy(web_server_spec(), "container")
        used = tb.host_servers("container")[0].memory.used_bytes
        assert used > 0
        yield tb.manager.undeploy("web_server")

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    assert tb.host_servers("container")[0].memory.used_bytes == 0


def test_undeploy_unknown_workload_raises():
    tb = Testbed(seed=14)
    tb.add_lambda_nic_backend()

    def scenario(env):
        with pytest.raises(KeyError):
            yield tb.manager.undeploy("ghost")

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)


def test_monitoring_wired_into_testbed():
    """One registry is the testbed's whole scrape surface: the gateway,
    the manager and every NIC count into it."""
    tb = Testbed(seed=15, n_workers=1)
    tb.add_lambda_nic_backend()

    def scenario(env):
        yield tb.manager.deploy(web_server_spec(), "lambda-nic")
        result = yield closed_loop(tb.env, tb.gateway, "web_server",
                                   n_requests=30, think_time=0.2)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    assert process.value.failures == 0
    assert tb.gateway.metrics is tb.manager.metrics is tb.metrics
    assert tb.nic("m2-nic").stats.registry is tb.metrics
    scraped = tb.metrics.scrape()
    assert scraped["gateway_requests_total"].value(
        {"workload": "web_server"}) == 30
    assert scraped["nic_requests_served_total"].value(
        {"node": "m2-nic"}) == 30
    assert scraped["gateway_request_seconds"].count(
        {"workload": "web_server"}) == 30

"""Failure-injection integration tests across the whole stack."""

import pytest

from repro.serverless import GatewayTimeout, Testbed, closed_loop
from repro.workloads import (
    image_transformer_spec,
    kv_client_spec,
    web_server_spec,
)


def test_gateway_retry_recovers_from_packet_loss():
    """5% packet loss: the weakly-consistent sender retransmits and
    every request eventually completes."""
    tb = Testbed(seed=31, n_workers=1,
                 gateway_kwargs={"request_timeout": 0.02, "max_retries": 6})
    # Make the whole fabric lossy.
    tb.network.drop_probability = 0.05
    tb.network.rng = tb.rng.stream("loss")
    for link in tb.network._links.values():
        link._ab.drop_probability = 0.05
        link._ab.rng = tb.network.rng
        link._ba.drop_probability = 0.05
        link._ba.rng = tb.network.rng
    tb.add_lambda_nic_backend()
    spec = web_server_spec()

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        # New nodes (the NIC) were cabled after we patched links; patch
        # again so their links are lossy too.
        for link in tb.network._links.values():
            link._ab.drop_probability = 0.05
            link._ab.rng = tb.network.rng
            link._ba.drop_probability = 0.05
            link._ba.rng = tb.network.rng
        result = yield closed_loop(tb.env, tb.gateway, spec.name,
                                   n_requests=60)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    result = process.value
    assert result.completed + result.failures == 60
    assert result.completed >= 55  # retries recover nearly everything
    retried = [lat for lat in result.latencies if lat > 0.02]
    assert retried, "some requests must have gone through a retry"


def test_memcached_outage_host_backend_degrades_gracefully():
    """With memcached black-holed, kv requests fail without killing the
    worker, and the web workload keeps serving."""
    tb = Testbed(seed=32, n_workers=1,
                 gateway_kwargs={"request_timeout": 0.5, "max_retries": 0})
    tb.memcached.node.attach(lambda p: None)  # black hole
    tb.add_bare_metal_backend()
    kv = kv_client_spec()
    web = web_server_spec()
    outcomes = {"kv_failures": 0}

    def scenario(env):
        yield tb.manager.deploy(kv, "bare-metal")
        yield tb.manager.deploy(web, "bare-metal")
        for _ in range(3):
            try:
                yield tb.gateway.request(kv.name)
            except GatewayTimeout:
                outcomes["kv_failures"] += 1
        result = yield closed_loop(tb.env, tb.gateway, web.name,
                                   n_requests=10)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    web_result = process.value
    assert outcomes["kv_failures"] == 3
    server = tb.host_servers("bare-metal")[0]
    assert server.stats.handler_errors == 3  # ServiceTimeout contained
    assert web_result.completed == 10  # worker survived


def test_firmware_swap_under_load_drops_then_recovers():
    """Deploying a second lambda swaps firmware; in-flight traffic is
    dropped during the window (the §7 limitation) and service resumes."""
    tb = Testbed(seed=33, n_workers=1,
                 gateway_kwargs={"request_timeout": 0.1, "max_retries": 0})
    tb.add_lambda_nic_backend()
    web = web_server_spec("web_a")
    web2 = web_server_spec("web_b")

    def scenario(env):
        yield tb.manager.deploy(web, "lambda-nic")
        results = {"during": 0, "after": 0}

        # Start the second deployment (compile + swap takes ~20 s).
        deploy_proc = tb.manager.deploy(web2, "lambda-nic")
        yield env.timeout(18.5)  # inside the swap window

        for _ in range(3):
            try:
                yield tb.gateway.request("web_a")
                results["during"] += 1
            except GatewayTimeout:
                pass
        yield deploy_proc
        for _ in range(3):
            yield tb.gateway.request("web_a")
            results["after"] += 1
        for _ in range(3):
            yield tb.gateway.request("web_b")
        return results

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    results = process.value
    nic = tb.nics[0]
    assert results["after"] == 3
    assert nic.stats.dropped_during_swap >= 1
    assert results["during"] < 3


def test_slow_backend_does_not_block_gateway_for_others():
    """A slow (container) workload must not head-of-line-block a fast
    λ-NIC workload behind the same gateway."""
    tb = Testbed(seed=34)
    tb.add_lambda_nic_backend()
    tb.add_container_backend()
    fast = web_server_spec("fast_web")
    slow = web_server_spec("slow_web")

    def scenario(env):
        yield tb.manager.deploy(fast, "lambda-nic")
        yield tb.manager.deploy(slow, "container")
        slow_requests = [tb.gateway.request("slow_web") for _ in range(5)]
        fast_result = yield closed_loop(tb.env, tb.gateway, "fast_web",
                                        n_requests=20)
        yield tb.env.all_of(slow_requests)
        return fast_result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    fast_result = process.value
    # Fast requests stayed microsecond-scale despite the slow neighbours.
    assert fast_result.mean_latency < 200e-6


def test_rdma_message_cut_short_is_evicted_by_the_next_one():
    """A link cut strands part of an RDMA write in a NIC's reorder
    buffer; the gateway's retry goes to another NIC with a new request
    id. The next message from the gateway to that NIC evicts it."""
    tb = Testbed(seed=1)
    tb.add_lambda_nic_backend()
    spec = image_transformer_spec()

    def cut(env):
        yield env.timeout(100e-6)
        tb.network.set_link_state("m2-nic", False)
        yield env.timeout(50e-6)
        tb.network.set_link_state("m2-nic", True)

    def scenario(env):
        yield tb.manager.deploy(spec, "lambda-nic")
        env.process(cut(env))
        first = yield tb.gateway.request(
            spec.name, payload_bytes=spec.request_bytes)
        assert first.retries == 1
        stranded = tb.nic("m2-nic")._reorder
        assert stranded.in_flight == 1
        result = yield closed_loop(env, tb.gateway, spec.name,
                                   n_requests=len(tb.nics),
                                   payload_bytes=spec.request_bytes)
        return result

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    assert process.value.completed == len(tb.nics)
    assert [nic._reorder.in_flight for nic in tb.nics] == [0] * len(tb.nics)
    assert tb.nic("m2-nic").stats.rdma_messages == 1
    assert [nic.stats.rdma_evicted for nic in tb.nics] == [1, 0, 0, 0]

"""Tests for the λ-NIC core runtime and Match+Lambda abstraction."""

import pytest

from repro.core import LambdaNicRuntime, MatchLambdaWorkload, RdmaBinding
from repro.hw import SmartNIC
from repro.net import Network
from repro.serverless.gateway import Route
from repro.sim import Environment, RngRegistry
from repro.workloads import image_transformer_nic, web_server_nic


def make_fleet(n_nics=2):
    env = Environment()
    rng = RngRegistry(seed=1)
    network = Network(env)
    nics = []
    for index in range(n_nics):
        node = network.add_node(f"nic{index}")
        nics.append(SmartNIC(env, node, n_cores=4, threads_per_core=2,
                             rng=rng.stream(f"nic{index}")))
    return env, network, nics


def test_register_assigns_wids():
    env, network, nics = make_fleet()
    runtime = LambdaNicRuntime(env, nics)
    wid1 = runtime.register(MatchLambdaWorkload(web_server_nic("a")))
    wid2 = runtime.register(MatchLambdaWorkload(web_server_nic("b")))
    assert wid1 != wid2
    assert runtime.workloads["a"].wid == wid1


def test_duplicate_registration_rejected():
    env, network, nics = make_fleet()
    runtime = LambdaNicRuntime(env, nics)
    runtime.register(MatchLambdaWorkload(web_server_nic("a")))
    with pytest.raises(ValueError):
        runtime.register(MatchLambdaWorkload(web_server_nic("a")))


def test_deploy_instant_installs_everywhere():
    env, network, nics = make_fleet(n_nics=3)
    runtime = LambdaNicRuntime(env, nics)
    runtime.register(MatchLambdaWorkload(web_server_nic("web")))
    firmware = runtime.deploy_instant()
    for nic in nics:
        assert nic.firmware is firmware


def test_deploy_with_swap_takes_time():
    env, network, nics = make_fleet()
    runtime = LambdaNicRuntime(env, nics)
    runtime.register(MatchLambdaWorkload(web_server_nic("web")))
    process = runtime.deploy()
    env.run(until=process)
    assert env.now == pytest.approx(nics[0].firmware_swap_seconds)
    assert all(nic.firmware is not None for nic in nics)


def test_rdma_binding_applied_on_deploy():
    env, network, nics = make_fleet()
    runtime = LambdaNicRuntime(env, nics)
    workload = MatchLambdaWorkload(
        image_transformer_nic("img", width=16, height=16, tile_blocks=2,
                              block_pad=1),
        rdma=RdmaBinding(object_name="image", qp=7),
    )
    runtime.register(workload)
    runtime.deploy_instant()
    assert runtime.workloads["img"].rdma.qp == 7
    for nic in nics:
        assert nic._rdma_bindings[7] == ("img", "img.image")


def test_rdma_binding_validated():
    workload = MatchLambdaWorkload(
        web_server_nic("web"),
        rdma=RdmaBinding(object_name="nonexistent"),
    )
    with pytest.raises(ValueError):
        workload.validate()


def test_target_round_robin():
    """Requests spread over the fleet through the gateway route's
    round robin, one NIC per request in turn."""
    env, network, nics = make_fleet(n_nics=3)
    runtime = LambdaNicRuntime(env, nics)
    wid = runtime.register(MatchLambdaWorkload(web_server_nic("web")))
    route = Route("web", wid, [nic.name for nic in nics])
    targets = [route.next_target() for _ in range(6)]
    assert len(set(targets[:3])) == 3
    assert targets[:3] == targets[3:]


def test_unknown_workload_queries_raise():
    env, network, nics = make_fleet()
    runtime = LambdaNicRuntime(env, nics)
    with pytest.raises(KeyError):
        runtime.unregister("ghost")
    assert "ghost" not in runtime.workloads


def test_runtime_requires_nics():
    env = Environment()
    with pytest.raises(ValueError):
        LambdaNicRuntime(env, [])


def test_workload_headers_discovery():
    workload = MatchLambdaWorkload(web_server_nic("web"))
    assert "LambdaHeader" in workload.headers()


def test_incremental_deploy_preserves_old_lambdas():
    env, network, nics = make_fleet()
    runtime = LambdaNicRuntime(env, nics)
    runtime.register(MatchLambdaWorkload(web_server_nic("first")))
    runtime.deploy_instant()
    first_wid = runtime.workloads["first"].wid
    runtime.register(MatchLambdaWorkload(web_server_nic("second")))
    firmware = runtime.deploy_instant()
    assert firmware.lambda_ids["first"] == first_wid
    assert firmware.lambda_ids["second"] != first_wid

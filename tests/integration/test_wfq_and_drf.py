"""Integration: the join-shortest-queue scheduler on a SmartNIC serving
several lambdas, within the NIC's thread bound and around failed cores."""

from repro.compiler import CompilationUnit, compile_unit
from repro.hw import ShortestQueueScheduler, SmartNIC
from repro.net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Network,
    Packet,
    UDPHeader,
)
from repro.sim import Environment
from repro.workloads import web_server_nic


def lambda_packet(wid, request_id):
    return Packet(
        "client", "nic",
        HeaderStack([
            EthernetHeader(), IPv4Header(), UDPHeader(),
            LambdaHeader(wid=wid, request_id=request_id),
        ]),
        payload_bytes=64,
    )


def make_nic(n_cores, threads_per_core, cores_per_island=8):
    env = Environment()
    network = Network(env)
    client = network.add_node("client")
    nic = SmartNIC(env, network.add_node("nic"), n_cores=n_cores,
                   threads_per_core=threads_per_core,
                   cores_per_island=cores_per_island,
                   scheduler=ShortestQueueScheduler())
    unit = CompilationUnit()
    # 4 KiB pages: each request outlasts the gap between arrivals.
    unit.add_lambda(web_server_nic("a", pages=8, page_bytes=4096), wid=1)
    unit.add_lambda(web_server_nic("b", pages=8, page_bytes=4096), wid=2)
    nic.install_firmware(compile_unit(unit))
    responses = []
    client.attach(responses.append)
    return env, nic, client, responses


def test_wfq_scheduler_on_smartnic_serves_all():
    """JSQ never picks a core of a failed island, and uses it again once
    the island is restored."""
    env, nic, client, responses = make_nic(n_cores=4, threads_per_core=2,
                                           cores_per_island=2)
    nic.fail_island(0)
    for index in range(12):
        client.send(lambda_packet(wid=1 + index % 2, request_id=index))
    env.run()
    assert len(responses) == 12
    assert [core.stats.requests for core in nic.cores] == [0, 0, 6, 6]

    nic.restore_island(0)
    for index in range(12, 24):
        client.send(lambda_packet(wid=1 + index % 2, request_id=index))
    env.run()
    assert len(responses) == 24
    assert all(core.stats.requests > 0 for core in nic.cores[:2])
    assert nic.stats.per_lambda_requests == {"a": 12, "b": 12}


def test_drf_weights_feed_wfq():
    """A burst past the NIC's thread count: busy threads never exceed it,
    the rest queue (and the queue-delay estimate says so), and every
    request is answered once the queues drain."""
    env, nic, client, responses = make_nic(n_cores=4, threads_per_core=2)
    peaks = {"busy": 0, "delay": 0.0}

    def sample(event):
        peaks["busy"] = max(peaks["busy"], nic.busy_threads)
        peaks["delay"] = max(peaks["delay"], nic.queue_delay_estimate())
        if len(responses) < 20:
            env.timeout_at(env.now + 1e-7, None, sample)

    env.timeout_at(1e-7, None, sample)
    for index in range(20):
        client.send(lambda_packet(wid=1 + index % 2, request_id=index))
    env.run()
    assert len(responses) == 20
    assert peaks["busy"] == nic.total_threads == 8
    assert peaks["delay"] > 0.0
    assert nic.busy_threads == 0
    assert nic.queue_delay_estimate() == 0.0

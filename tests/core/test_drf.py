"""Sharing one SmartNIC between lambdas: the join-shortest-queue
scheduler on a NIC that serves every installed lambda, and the NIC's
per-resource bounds (NPU threads, region memory, instruction store).

Weighted sharing between tenants (DRF/WFQ, paper §4.2.1-D1) is the
paper's future work and is not modelled.
"""

import pytest

from repro.compiler import CompilationUnit, CompileError, compile_unit
from repro.compiler.codegen import check_resources
from repro.hw import ShortestQueueScheduler, SmartNIC
from repro.isa import Function, LambdaProgram, Op, ins
from repro.isa.verify import (
    MAX_INSTRUCTIONS_PER_CORE,
    VerifyOptions,
    verify_program,
)
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

#: 4 KiB pages make a request run ~16 µs on an NPU thread, longer than
#: the ~0.8 µs between back-to-back arrivals, so a burst overlaps.
HEAVY = {"pages": 8, "page_bytes": 4096}
LIGHT = {"pages": 8, "page_bytes": 64}


def lambda_packet(wid, request_id):
    return Packet(
        "client", "nic",
        HeaderStack([
            EthernetHeader(), IPv4Header(), UDPHeader(),
            LambdaHeader(wid=wid, request_id=request_id),
        ]),
        payload_bytes=64,
    )


def make_nic(lambdas, n_cores=4, threads_per_core=2, **nic_kwargs):
    """A JSQ-scheduled NIC with ``lambdas`` ({name: page kwargs}, wids
    1, 2, ... in order) installed; returns (env, nic, client, responses)."""
    env = Environment()
    network = Network(env)
    client = network.add_node("client")
    nic = SmartNIC(env, network.add_node("nic"), n_cores=n_cores,
                   threads_per_core=threads_per_core,
                   scheduler=ShortestQueueScheduler(), **nic_kwargs)
    if lambdas:
        unit = CompilationUnit()
        for wid, (name, pages) in enumerate(lambdas.items(), start=1):
            unit.add_lambda(web_server_nic(name, **pages), wid=wid)
        nic.install_firmware(compile_unit(unit))
    responses = []
    client.attach(lambda p: responses.append(
        (env.now, p.headers.require("LambdaHeader").request_id)))
    return env, nic, client, responses


def watch_threads(env, nic, until, step=1e-7):
    """Sample (busy threads, queued requests) every ``step`` seconds."""
    samples = []

    def sample(event):
        samples.append((nic.busy_threads,
                        sum(core.queue_depth for core in nic.cores)))
        if env.now < until:
            env.timeout_at(env.now + step, None, sample)

    env.timeout_at(step, None, sample)
    return samples


def test_classic_drf_example():
    """Two lambdas share the NIC: every request of each is answered and
    JSQ spreads the burst evenly over the cores."""
    env, nic, client, responses = make_nic({"a": HEAVY, "b": HEAVY})
    for index in range(30):
        client.send(lambda_packet(wid=1 + index % 2, request_id=index))
    env.run()
    assert sorted(rid for _, rid in responses) == list(range(30))
    assert nic.stats.per_lambda_requests == {"a": 15, "b": 15}
    per_core = [core.stats.requests for core in nic.cores]
    assert sum(per_core) == 30
    assert max(per_core) - min(per_core) <= 1


def test_single_user_gets_everything():
    """One lambda alone may use every thread of every core."""
    env, nic, client, responses = make_nic({"only": HEAVY})
    samples = watch_threads(env, nic, until=2e-5)
    for index in range(8):
        client.send(lambda_packet(wid=1, request_id=index))
    env.run()
    assert len(responses) == 8
    assert max(busy for busy, _ in samples) == nic.total_threads == 8
    assert all(core.stats.requests == 2 for core in nic.cores)


def test_weighted_drf_favours_heavier_user():
    """A long-running lambda holds its core to completion; JSQ sends the
    light requests that follow to the other core."""
    env, nic, client, responses = make_nic(
        {"heavy": HEAVY, "light": LIGHT}, n_cores=2, threads_per_core=1)
    client.send(lambda_packet(wid=1, request_id=0))
    for index in range(1, 6):
        client.send(lambda_packet(wid=2, request_id=index))
    env.run()
    assert [core.stats.requests for core in nic.cores] == [1, 5]
    # The heavy request answers last, after every light one.
    assert [rid for _, rid in responses][-1] == 0


def test_max_tasks_cap():
    """A core runs at most ``threads_per_core`` requests at once; the
    rest wait in its run queue and are served in turn."""
    env, nic, client, responses = make_nic({"a": HEAVY}, n_cores=1,
                                           threads_per_core=2)
    samples = watch_threads(env, nic, until=5e-5)
    for index in range(6):
        client.send(lambda_packet(wid=1, request_id=index))
    env.run()
    assert [rid for _, rid in responses] == list(range(6))
    assert max(busy for busy, _ in samples) == 2
    assert max(queued for _, queued in samples) >= 3
    assert nic.busy_threads == 0 and nic.cores[0].queue_depth == 0
    # Two at a time: each pair finishes one service time after the last.
    times = [at for at, _ in responses]
    service = times[2] - times[0]
    assert times[4] - times[2] == pytest.approx(service, rel=0.1)


def test_no_users_empty_allocation():
    """With no firmware installed the NIC runs nothing: lambda packets
    are counted as dropped and no core is used."""
    env, nic, client, responses = make_nic({})
    for index in range(3):
        client.send(lambda_packet(wid=1, request_id=index))
    env.run()
    assert responses == []
    assert nic.stats.dropped_no_firmware == 3
    assert all(core.stats.requests == 0 for core in nic.cores)
    assert nic.memory.total_used_bytes == 0


def test_validation():
    env = Environment()
    network = Network(env)
    with pytest.raises(ValueError, match="requires an rng"):
        SmartNIC(env, network.add_node("n1"))
    with pytest.raises(ValueError, match="unknown engine"):
        SmartNIC(env, network.add_node("n2"),
                 scheduler=ShortestQueueScheduler(), engine="turbo")
    nic = SmartNIC(env, network.add_node("n3"), n_cores=16,
                   scheduler=ShortestQueueScheduler())
    assert len(nic.islands) == 2
    with pytest.raises(ValueError):
        nic.fail_island(2)


def test_allocation_never_exceeds_capacity():
    """Installing firmware accounts its code and objects into the NIC's
    memory regions, within each region's capacity, and a reinstall
    replaces the previous accounting."""
    env, nic, client, responses = make_nic({"a": HEAVY, "b": LIGHT})
    firmware = nic.firmware
    used = dict(nic.memory.used)
    by_region = {}
    for obj in firmware.program.objects.values():
        by_region[obj.region] = by_region.get(obj.region, 0) \
            + obj.size_bytes
    for region in nic.memory.capacities:
        expected = by_region.get(region, 0)
        if region.name == "IMEM":
            expected += firmware.code_bytes
        assert used[region] == expected
        assert 0.0 <= nic.memory.utilization(region) <= 1.0
    nic.install_firmware(firmware)
    assert nic.memory.used == used


def test_wfq_weights_sum_to_one():
    """Composed firmware fits the 16 K instruction store; the verifier
    flags a program that does not."""
    unit = CompilationUnit()
    unit.add_lambda(web_server_nic("a", **HEAVY), wid=1)
    unit.add_lambda(web_server_nic("b", **LIGHT), wid=2)
    firmware = compile_unit(unit)
    count = firmware.verifier_report.instruction_count
    assert 0 < count <= MAX_INSTRUCTIONS_PER_CORE == 16 * 1024
    report = verify_program(firmware.program,
                            VerifyOptions(max_instructions=count - 1))
    assert "instr-overflow" in {finding.code for finding in report.errors}


def test_wfq_weights_default_when_unallocated():
    """Firmware one instruction past the store is refused at compile
    time, so it never reaches a NIC."""
    body = [ins(Op.NOP)] * MAX_INSTRUCTIONS_PER_CORE + [ins(Op.RET)]
    program = LambdaProgram("big", [Function("big", body)])
    with pytest.raises(CompileError, match="instr-overflow"):
        check_resources(program)
    report = verify_program(program)
    assert report.instruction_count == MAX_INSTRUCTIONS_PER_CORE + 1
    assert "instr-overflow" in {finding.code for finding in report.errors}
    fitting = LambdaProgram("fits", [Function("fits", body[1:])])
    assert check_resources(fitting).ok

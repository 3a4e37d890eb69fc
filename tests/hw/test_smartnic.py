"""End-to-end tests for the SmartNIC datapath."""

import pytest

import repro.isa.jit as jit_module
from repro.compiler import CompilationUnit, compile_unit
from repro.hw import SmartNIC, UniformRandomScheduler
from repro.isa import AccessMode, ProgramBuilder
from repro.net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    Network,
    Packet,
    RdmaHeader,
    UDPHeader,
)
from repro.sim import Environment, RngRegistry


def echo_lambda(name="echo"):
    """A lambda that echoes the request id and replies with 100 bytes."""
    builder = ProgramBuilder(name)
    fn = builder.function(name)
    fn.hload("r1", "LambdaHeader", "request_id")
    fn.mstore("echoed", "r1")
    fn.mstore("response_bytes", 100)
    fn.forward()
    builder.close(fn)
    return builder.build()


def rdma_lambda(name="img"):
    """A lambda whose data arrives via RDMA into a 4 KiB buffer."""
    builder = ProgramBuilder(name)
    builder.object("image", 4096, AccessMode.READ_WRITE)
    fn = builder.function(name)
    fn.mload("r1", "rdma_len")
    fn.load("r2", "image", 0)
    fn.mstore("first_word", "r2")
    fn.mstore("response_bytes", 64)
    fn.forward()
    builder.close(fn)
    return builder.build()


def make_setup(lambdas=None, host_handler=None, **nic_kwargs):
    env = Environment()
    rng = RngRegistry(seed=7)
    network = Network(env)
    client = network.add_node("client")
    nic_node = network.add_node("nic")
    nic = SmartNIC(
        env, nic_node, n_cores=4, threads_per_core=2,
        rng=rng.stream("nic"), host_handler=host_handler, **nic_kwargs,
    )
    unit = CompilationUnit()
    for index, program in enumerate(lambdas or [echo_lambda()]):
        unit.add_lambda(program, wid=index + 1)
    firmware = compile_unit(unit)
    nic.install_firmware(firmware)
    return env, network, client, nic, firmware


def lambda_packet(wid, request_id=1, payload_bytes=64, src="client", dst="nic"):
    return Packet(
        src, dst,
        HeaderStack([
            EthernetHeader(), IPv4Header(), UDPHeader(),
            LambdaHeader(wid=wid, request_id=request_id),
        ]),
        payload_bytes=payload_bytes,
    )


def test_request_gets_response():
    env, network, client, nic, firmware = make_setup()
    responses = []
    client.attach(lambda p: responses.append((p, env.now)))
    client.send(lambda_packet(wid=1, request_id=42))
    env.run()
    assert len(responses) == 1
    response, at = responses[0]
    assert response.headers.require("LambdaHeader").is_response
    assert response.meta["lambda_meta"]["echoed"] == 42
    assert nic.stats.requests_served == 1
    # Microsecond-scale end-to-end latency on the 10G testbed.
    assert 1e-6 < at < 50e-6


def test_jit_is_looked_up_once_per_install():
    """Each execution counts a compile-cache hit, but the staleness guard
    runs once per install; installing a program whose body was replaced
    recompiles it."""
    env, network, client, nic, firmware = make_setup()
    client.attach(lambda packet: None)
    cycles = []
    for request_id in (1, 2, 3):
        before = nic.stats.total_cycles
        client.send(lambda_packet(wid=1, request_id=request_id))
        env.run()
        cycles.append(nic.stats.total_cycles - before)
    stats = nic.engine.stats
    assert (stats.misses, stats.hits) == (1, 2)
    # The registry gauges read the engine's totals.
    assert nic.stats.compile_cache_stats() == {
        "jit": {"hits": 2, "misses": 1, "fallbacks": 0}}
    function = firmware.program.functions["echo"]
    function.body = function.body[:1] + function.body  # one more HLOAD
    nic.install_firmware(firmware)
    before = nic.stats.total_cycles
    client.send(lambda_packet(wid=1, request_id=4))
    env.run()
    assert (stats.misses, stats.hits) == (2, 2)
    assert nic.stats.compile_cache_stats()["jit"]["misses"] == 2
    assert nic.stats.total_cycles - before > cycles[0] == cycles[-1]


def test_unknown_wid_goes_to_host():
    host_packets = []
    env, network, client, nic, firmware = make_setup(
        host_handler=lambda p: host_packets.append(p)
    )
    client.attach(lambda p: None)
    client.send(lambda_packet(wid=99))
    env.run()
    assert len(host_packets) == 1
    assert nic.stats.sent_to_host == 1
    assert nic.stats.requests_served == 0


def test_no_firmware_drops():
    env = Environment()
    rng = RngRegistry(seed=1)
    network = Network(env)
    client = network.add_node("client")
    nic_node = network.add_node("nic")
    nic = SmartNIC(env, nic_node, n_cores=2, rng=rng.stream("nic"))
    client.attach(lambda p: None)
    client.send(lambda_packet(wid=1))
    env.run()
    assert nic.stats.dropped_no_firmware == 1


def test_firmware_swap_drops_during_downtime():
    env, network, client, nic, firmware = make_setup()
    client.attach(lambda p: None)

    def exercise(env):
        nic.load_firmware(firmware, swap=True)  # starts downtime
        yield env.timeout(0.1)  # well inside the 2 s swap window
        client.send(lambda_packet(wid=1))
        yield env.timeout(5.0)  # swap done
        client.send(lambda_packet(wid=1))

    env.process(exercise(env))
    env.run()
    assert nic.stats.dropped_during_swap == 1
    assert nic.stats.requests_served == 1
    assert nic.stats.swap_downtime_seconds == pytest.approx(2.0)


def test_many_concurrent_requests_all_served():
    env, network, client, nic, firmware = make_setup()
    responses = []
    client.attach(lambda p: responses.append(env.now))
    for index in range(50):
        client.send(lambda_packet(wid=1, request_id=index))
    env.run()
    assert len(responses) == 50
    assert nic.stats.requests_served == 50


def test_per_lambda_request_accounting():
    env, network, client, nic, firmware = make_setup(
        lambdas=[echo_lambda("a"), echo_lambda("b")]
    )
    client.attach(lambda p: None)
    for _ in range(3):
        client.send(lambda_packet(wid=1))
    client.send(lambda_packet(wid=2))
    env.run()
    assert nic.stats.per_lambda_requests == {"a": 3, "b": 1}


def test_rdma_multi_packet_reassembly():
    env, network, client, nic, firmware = make_setup(lambdas=[rdma_lambda()])
    nic.bind_rdma(qp=5, lambda_name="img", object_name="img.image")
    responses = []
    client.attach(lambda p: responses.append(p))

    total = 4
    payload = b"\x07" * 1000
    for seq in [2, 0, 3, 1]:  # deliberately out of order
        packet = Packet(
            "client", "nic",
            HeaderStack([
                EthernetHeader(), IPv4Header(), UDPHeader(),
                LambdaHeader(wid=1, request_id=9, seq=seq, total_segments=total),
                RdmaHeader(opcode="WRITE", qp=5, length=1000),
            ]),
            payload=payload,
            payload_bytes=1000,
        )
        client.send(packet)
    env.run()
    assert nic.stats.rdma_segments == 4
    assert nic.stats.rdma_messages == 1
    assert len(responses) == 1
    meta = responses[0].meta["lambda_meta"]
    assert meta["rdma_len"] == 4000
    # The lambda read the first word of the RDMA-written buffer.
    assert meta["first_word"] == int.from_bytes(b"\x07" * 8, "little")


def test_rdma_dma_mixes_bytes_and_zero_segments_and_clips_to_the_object():
    """Segments without bytes write zeros; a short or empty ``bytes``
    payload advances the offset by its own length (or its wire size
    when empty, writing nothing); the message is clipped to the 4 KiB
    object."""
    env, network, client, nic, firmware = make_setup(lambdas=[rdma_lambda()])
    nic.bind_rdma(qp=5, lambda_name="img", object_name="img.image")
    client.attach(lambda p: None)
    memory = nic.lambda_memory("img.image")
    memory[:] = b"\xff" * len(memory)
    segments = [(b"\x01" * 1000, 1000), (None, 700), (None, 300),
                (b"\x02" * 300, 1000), (b"", 200), (None, 900),
                (b"\x03" * 1000, 1000), (None, 2000), (b"\x04" * 50, 50)]
    for seq, (payload, payload_bytes) in enumerate(segments):
        client.send(Packet(
            "client", "nic",
            HeaderStack([
                EthernetHeader(), IPv4Header(), UDPHeader(),
                LambdaHeader(wid=1, request_id=3, seq=seq,
                             total_segments=len(segments)),
                RdmaHeader(opcode="WRITE", qp=5, length=payload_bytes),
            ]),
            payload=payload, payload_bytes=payload_bytes,
        ))
    env.run()
    assert nic.stats.rdma_messages == 1
    expected = (b"\x01" * 1000 + b"\x00" * 1000 + b"\x02" * 300
                + b"\xff" * 200 + b"\x00" * 900 + b"\x03" * 696)
    assert len(expected) == len(memory) == 4096
    assert bytes(nic.lambda_memory("img.image")) == expected


def test_rdma_incomplete_message_waits():
    env, network, client, nic, firmware = make_setup(lambdas=[rdma_lambda()])
    nic.bind_rdma(qp=5, lambda_name="img", object_name="img.image")
    client.attach(lambda p: None)
    packet = Packet(
        "client", "nic",
        HeaderStack([
            EthernetHeader(), IPv4Header(), UDPHeader(),
            LambdaHeader(wid=1, request_id=1, seq=0, total_segments=3),
            RdmaHeader(qp=5, length=100),
        ]),
        payload=b"x" * 100, payload_bytes=100,
    )
    client.send(packet)
    env.run()
    assert nic.stats.rdma_segments == 1
    assert nic.stats.rdma_messages == 0


def test_bind_rdma_validates():
    env, network, client, nic, firmware = make_setup(lambdas=[rdma_lambda()])
    with pytest.raises(KeyError):
        nic.bind_rdma(qp=1, lambda_name="img", object_name="nope")


def test_nic_memory_accounted_on_install():
    env, network, client, nic, firmware = make_setup(lambdas=[rdma_lambda()])
    assert nic.memory.total_used_bytes >= 4096


def test_utilization_counters():
    env, network, client, nic, firmware = make_setup()
    client.attach(lambda p: None)
    client.send(lambda_packet(wid=1))
    env.run()
    assert nic.stats.total_cycles > 0
    assert nic.stats.busy_seconds > 0
    assert len(nic.stats.latencies) == 1


def kv_lambda(name="kv"):
    """Two-phase kv client: emit a memcached call, reply on response."""
    from repro.isa import ProgramBuilder

    builder = ProgramBuilder(name)
    fn = builder.function(name)
    fn.mload("r1", "service_response")
    done = fn.fresh_label("done")
    fn.bne("r1", 0, done)
    # Phase 1: issue the memcached GET and wait.
    fn.mstore("emit_dst", "memcached")
    fn.mstore("emit_method", "GET")
    fn.mstore("emit_bytes", 64)
    fn.emit_packet()
    fn.drop()
    fn.label(done)
    # Phase 2: service responded; reply to the client.
    fn.mstore("response_bytes", 128)
    fn.forward()
    builder.close(fn)
    return builder.build()


def test_kv_lambda_service_call_roundtrip():
    env, network, client, nic, firmware = make_setup(lambdas=[kv_lambda()])
    responses = []
    client.attach(lambda p: responses.append(p))

    # A memcached stand-in: echo responses with is_response=1.
    memcached = network.add_node("memcached")

    def serve_kv(packet):
        reply = Packet(
            "memcached", packet.src,
            HeaderStack([
                EthernetHeader(), IPv4Header(), UDPHeader(),
                LambdaHeader(
                    wid=packet.headers.require("LambdaHeader").wid,
                    request_id=packet.headers.require("LambdaHeader").request_id,
                    is_response=True,
                ),
            ]),
            payload_bytes=100,
        )
        memcached.send(reply)

    memcached.attach(serve_kv)

    client.send(lambda_packet(wid=1, request_id=77))
    env.run()
    assert len(responses) == 1
    assert responses[0].headers.require("LambdaHeader").is_response
    assert memcached.rx_packets == 1
    assert nic.stats.requests_served == 1


def test_hitless_firmware_update_serves_during_flash():
    """§7: hitless updates keep the old firmware serving (no drops)."""
    env, network, client, nic, firmware = make_setup()
    responses = []
    client.attach(lambda p: responses.append(p))

    def exercise(env):
        nic.load_firmware(firmware, swap=True, hitless=True)
        yield env.timeout(0.1)  # mid-flash
        client.send(lambda_packet(wid=1))
        yield env.timeout(5.0)
        client.send(lambda_packet(wid=1))

    env.process(exercise(env))
    env.run()
    assert nic.stats.dropped_during_swap == 0
    assert len(responses) == 2


# -- state epoch: every persistent-memory write moves the fence ------------


def kv_store_lambda(name="kvstore", slots=64):
    """A stateful GET/SET store keyed on the request id.

    ``seq`` selects the operation (0 = GET, 1 = SET) and
    ``total_segments`` carries the value on SETs, so everything rides on
    existing LambdaHeader fields.
    """
    builder = ProgramBuilder(name)
    builder.object("store", slots * 8, AccessMode.READ_WRITE)
    fn = builder.function(name)
    fn.hload("r1", "LambdaHeader", "seq")
    fn.hload("r2", "LambdaHeader", "request_id")
    fn.band("r3", "r2", slots - 1)
    fn.mul("r4", "r3", 8)
    put = fn.fresh_label("put")
    fn.beq("r1", 1, put)
    fn.load("r5", "store", "r4")
    fn.mstore("value", "r5")
    fn.mstore("response_bytes", 64)
    fn.forward()
    fn.label(put)
    fn.hload("r6", "LambdaHeader", "total_segments")
    fn.store("store", "r4", "r6")
    fn.mstore("stored", "r6")
    fn.mstore("response_bytes", 64)
    fn.forward()
    builder.close(fn)
    return builder.build()


def kv_packet(request_id, seq=0, value=1):
    return Packet(
        "client", "nic",
        HeaderStack([
            EthernetHeader(), IPv4Header(), UDPHeader(),
            LambdaHeader(wid=1, request_id=request_id, seq=seq,
                         total_segments=value),
        ]),
        payload_bytes=64,
    )


def test_pure_executions_leave_state_epoch():
    env, network, client, nic, firmware = make_setup()
    responses = []
    client.attach(lambda p: responses.append(p))
    epoch = nic.state_epoch
    for _ in range(5):
        client.send(lambda_packet(wid=1, request_id=42))
    env.run()
    assert len(responses) == 5
    assert all(p.meta["lambda_meta"]["echoed"] == 42 for p in responses)
    assert nic.stats.requests_served == 5
    assert nic.state_epoch == epoch


def test_impure_executions_bump_state_epoch():
    """GET / SET / GET on the same key: the SET's store moves the epoch
    and the GET after it observes the write."""
    env, network, client, nic, firmware = make_setup(
        lambdas=[kv_store_lambda()])
    responses = []
    client.attach(lambda p: responses.append(p))
    epochs = []

    def exercise(env):
        for seq, value in ((0, 1), (1, 777), (0, 1)):
            client.send(kv_packet(request_id=5, seq=seq, value=value))
            yield env.timeout(1e-3)
            epochs.append(nic.state_epoch)

    start = nic.state_epoch
    env.process(exercise(env))
    env.run()
    metas = [p.meta["lambda_meta"] for p in responses]
    assert metas[0]["value"] == 0
    assert metas[1]["stored"] == 777
    assert metas[2]["value"] == 777
    assert epochs == [start, start + 1, start + 1]


def test_rdma_write_bumps_state_epoch():
    env, network, client, nic, firmware = make_setup(lambdas=[rdma_lambda()])
    nic.bind_rdma(qp=5, lambda_name="img", object_name="img.image")
    responses = []
    client.attach(lambda p: responses.append(p))
    epochs = []

    def exercise(env):
        client.send(lambda_packet(wid=1, request_id=1))
        yield env.timeout(1e-3)
        epochs.append(nic.state_epoch)
        client.send(Packet(                      # RDMA write into image
            "client", "nic",
            HeaderStack([
                EthernetHeader(), IPv4Header(), UDPHeader(),
                LambdaHeader(wid=1, request_id=9, seq=0, total_segments=1),
                RdmaHeader(opcode="WRITE", qp=5, length=1000),
            ]),
            payload=b"\x07" * 1000, payload_bytes=1000,
        ))
        yield env.timeout(1e-3)
        epochs.append(nic.state_epoch)
        client.send(lambda_packet(wid=1, request_id=1))
        yield env.timeout(1e-3)
        epochs.append(nic.state_epoch)

    env.process(exercise(env))
    env.run()
    words = [p.meta["lambda_meta"]["first_word"] for p in responses]
    assert words[0] == 0
    assert words[-1] == int.from_bytes(b"\x07" * 8, "little")
    # The DMA moved the epoch once; the lambda's loads moved it never.
    assert epochs == [epochs[0], epochs[0] + 1, epochs[0] + 1]


def test_lambda_memory_access_bumps_state_epoch():
    env, network, client, nic, firmware = make_setup(lambdas=[rdma_lambda()])
    epoch = nic.state_epoch
    nic.lambda_memory("img.image")[0] = 9
    assert nic.state_epoch == epoch + 1


def test_firmware_install_bumps_state_epoch():
    env, network, client, nic, firmware = make_setup()
    epoch = nic.state_epoch
    nic.install_firmware(firmware)
    assert nic.state_epoch == epoch + 1


def _drive(n=30, **nic_kwargs):
    env, network, client, nic, firmware = make_setup(
        lambdas=[kv_store_lambda()], **nic_kwargs
    )
    responses = []
    client.attach(lambda p: responses.append((env.now, p)))

    def exercise(env):
        for index in range(n):
            seq = 1 if index % 3 == 0 else 0
            client.send(kv_packet(request_id=index % 8, seq=seq,
                                  value=index))
            yield env.timeout(2e-6)

    env.process(exercise(env))
    env.run()
    return nic, [(at, p.meta["lambda_meta"]) for at, p in responses]


def test_jit_matches_reference_engine_end_to_end():
    """Same packet stream on both engine tiers, identical simulation,
    and the same epoch: both count exactly the SETs as writes."""
    ref_nic, reference = _drive(engine="interpreter")
    jit_nic, jitted = _drive(engine="jit")
    assert reference == jitted
    assert ref_nic.stats.requests_served == jit_nic.stats.requests_served
    assert ref_nic.stats.latencies == jit_nic.stats.latencies
    assert ref_nic.stats.total_cycles == jit_nic.stats.total_cycles
    # The install, then the 10 SETs.
    assert ref_nic.state_epoch == jit_nic.state_epoch == 1 + 10


def test_jit_fallback_matches_reference_and_bumps_state_epoch(monkeypatch):
    """A program the JIT cannot lower runs on the reference interpreter:
    the simulation is unchanged and, since the interpreter reports
    writes exactly, the state epoch moves as on the interpreter tier."""
    ref_nic, reference = _drive(engine="interpreter")

    def explode(program):
        raise jit_module.JitLoweringError("forced for test")

    monkeypatch.setattr(jit_module, "JitProgram", explode)
    nic, fallback = _drive(engine="jit")
    assert fallback == reference
    assert nic.stats.latencies == ref_nic.stats.latencies
    assert nic.stats.total_cycles == ref_nic.stats.total_cycles
    assert nic.engine.last_tier == "interpreter"
    assert nic.engine.stats.fallbacks == 1
    assert nic.state_epoch == ref_nic.state_epoch == 1 + 10  # install + SETs


@pytest.mark.parametrize("engine", ["fast" "path", "JIT"])
def test_unknown_engine_is_rejected(engine):
    """The retired pre-decoded tier and other unknown names are refused,
    and the error names the two valid tiers."""
    with pytest.raises(ValueError, match=r"\('interpreter', 'jit'\)"):
        make_setup(engine=engine)

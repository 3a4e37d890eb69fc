"""Execution memo cache: hits, invalidation, and engine parity on-NIC.

The memo cache may only ever change wall-clock speed, never simulated
results. These tests drive real packet streams through the SmartNIC and
check both sides of that contract: identical pure requests replay from
cache, while any write to persistent lambda memory — by an execution,
by RDMA, or by direct test access — prevents stale replays.
"""

import pytest

from repro.compiler import CompilationUnit, compile_unit
from repro.hw import ExecutionMemoCache, SmartNIC
from repro.hw.memo import make_key
from repro.isa import AccessMode, ExecutionResult, ProgramBuilder
import repro.isa.jit as jit_module
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
    """Pure lambda: writes only per-request metadata."""
    builder = ProgramBuilder(name)
    fn = builder.function(name)
    fn.hload("r1", "LambdaHeader", "request_id")
    fn.mstore("echoed", "r1")
    fn.mstore("response_bytes", 100)
    fn.forward()
    builder.close(fn)
    return builder.build()


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


def peek_lambda(name="img"):
    """Pure lambda that reads the first word of an RDMA-fed buffer."""
    builder = ProgramBuilder(name)
    builder.object("image", 4096, AccessMode.READ_WRITE)
    fn = builder.function(name)
    fn.load("r2", "image", 0)
    fn.mstore("first_word", "r2")
    fn.mstore("response_bytes", 64)
    fn.forward()
    builder.close(fn)
    return builder.build()


def make_setup(lambdas=None, **nic_kwargs):
    env = Environment()
    rng = RngRegistry(seed=7)
    network = Network(env)
    client = network.add_node("client")
    nic_node = network.add_node("nic")
    nic = SmartNIC(env, nic_node, n_cores=4, threads_per_core=2,
                   rng=rng.stream("nic"), **nic_kwargs)
    unit = CompilationUnit()
    for index, program in enumerate(lambdas or [echo_lambda()]):
        unit.add_lambda(program, wid=index + 1)
    nic.install_firmware(compile_unit(unit))
    return env, network, client, nic


def request(wid=1, request_id=1, seq=0, total_segments=1, payload=None,
            payload_bytes=64):
    return Packet(
        "client", "nic",
        HeaderStack([
            EthernetHeader(), IPv4Header(), UDPHeader(),
            LambdaHeader(wid=wid, request_id=request_id, seq=seq,
                         total_segments=total_segments),
        ]),
        payload=payload,
        payload_bytes=payload_bytes,
    )


# -- NIC-level behaviour -----------------------------------------------------


def test_identical_pure_requests_hit_the_cache():
    env, network, client, nic = make_setup()
    responses = []
    client.attach(lambda p: responses.append(p))
    for _ in range(5):
        client.send(request(request_id=42))
    env.run()
    assert len(responses) == 5
    assert all(p.meta["lambda_meta"]["echoed"] == 42 for p in responses)
    assert nic.stats.requests_served == 5
    assert nic.memo.stats.hits == 4
    assert nic.memo.stats.misses == 1


def test_distinct_requests_miss():
    env, network, client, nic = make_setup()
    client.attach(lambda p: None)
    for request_id in range(5):
        client.send(request(request_id=request_id))
    env.run()
    assert nic.memo.stats.hits == 0
    assert nic.memo.stats.misses == 5


def test_memo_disabled_still_serves():
    env, network, client, nic = make_setup(enable_memo=False)
    responses = []
    client.attach(lambda p: responses.append(p))
    for _ in range(3):
        client.send(request(request_id=42))
    env.run()
    assert nic.memo is None
    assert len(responses) == 3
    assert all(p.meta["lambda_meta"]["echoed"] == 42 for p in responses)


def test_stateful_writes_are_never_cached_and_never_stale():
    """GET / SET / GET on the same key must observe the write."""
    env, network, client, nic = make_setup(lambdas=[kv_store_lambda()])
    responses = []
    client.attach(lambda p: responses.append(p))

    def exercise(env):
        client.send(request(request_id=5, seq=0))               # GET -> 0
        yield env.timeout(1e-3)
        client.send(request(request_id=5, seq=0))               # GET (cached)
        yield env.timeout(1e-3)
        client.send(request(request_id=5, seq=1, total_segments=777))  # SET
        yield env.timeout(1e-3)
        client.send(request(request_id=5, seq=0))               # GET -> 777
        yield env.timeout(1e-3)
        client.send(request(request_id=5, seq=0))               # GET (cached)

    env.process(exercise(env))
    env.run()
    metas = [p.meta["lambda_meta"] for p in responses]
    assert metas[0]["value"] == 0
    assert metas[1]["value"] == 0
    assert metas[2]["stored"] == 777
    assert metas[3]["value"] == 777
    assert metas[4]["value"] == 777
    # The second GET of each epoch replayed; the SET flushed the cache.
    assert nic.memo.stats.hits == 2
    assert nic.memo.stats.invalidations >= 1


def test_rdma_write_invalidates_cached_reads():
    env, network, client, nic = make_setup(lambdas=[peek_lambda()])
    nic.bind_rdma(qp=5, lambda_name="img", object_name="img.image")
    responses = []
    client.attach(lambda p: responses.append(p))

    def exercise(env):
        client.send(request(request_id=1))       # first_word == 0, cached
        yield env.timeout(1e-3)
        client.send(request(request_id=1))       # replayed
        yield env.timeout(1e-3)
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
        client.send(request(request_id=1))       # must see the new bytes

    env.process(exercise(env))
    env.run()
    words = [p.meta["lambda_meta"]["first_word"] for p in responses
             if "first_word" in p.meta["lambda_meta"]]
    assert words[0] == 0 and words[1] == 0
    assert words[-1] == int.from_bytes(b"\x07" * 8, "little")


def test_lambda_memory_access_invalidates():
    env, network, client, nic = make_setup(lambdas=[peek_lambda()])
    client.attach(lambda p: None)
    client.send(request(request_id=1))
    env.run()
    assert len(nic.memo) == 1
    before = nic.memo.stats.invalidations
    nic.lambda_memory("img.image")[0] = 9
    assert nic.memo.stats.invalidations == before + 1
    assert len(nic.memo) == 0


def test_firmware_reinstall_invalidates():
    env, network, client, nic = make_setup()
    client.attach(lambda p: None)
    client.send(request(request_id=1))
    env.run()
    assert len(nic.memo) == 1
    unit = CompilationUnit()
    unit.add_lambda(echo_lambda(), wid=1)
    nic.install_firmware(compile_unit(unit))
    assert len(nic.memo) == 0


def _drive(nic_kwargs, n=30):
    env, network, client, nic = make_setup(
        lambdas=[kv_store_lambda()], **nic_kwargs
    )
    responses = []
    client.attach(lambda p: responses.append((env.now, p)))

    def exercise(env):
        for index in range(n):
            seq = 1 if index % 3 == 0 else 0
            client.send(request(request_id=index % 8, seq=seq,
                                total_segments=index))
            yield env.timeout(2e-6)

    env.process(exercise(env))
    env.run()
    return nic, [(at, p.meta["lambda_meta"]) for at, p in responses]


def test_fast_path_and_memo_match_reference_engine_end_to_end():
    """Same packet stream, three engine configs, identical simulation."""
    reference = _drive({"engine": "interpreter"})
    fast = _drive({"engine": "jit", "enable_memo": False})
    memoized = _drive({"engine": "jit", "enable_memo": True})
    assert reference[1] == fast[1] == memoized[1]
    ref_nic, fast_nic, memo_nic = reference[0], fast[0], memoized[0]
    assert (ref_nic.stats.requests_served == fast_nic.stats.requests_served
            == memo_nic.stats.requests_served)
    assert ref_nic.stats.latencies == fast_nic.stats.latencies \
        == memo_nic.stats.latencies
    assert ref_nic.stats.total_cycles == fast_nic.stats.total_cycles \
        == memo_nic.stats.total_cycles


def test_jit_fallback_matches_reference_and_is_never_memoised(monkeypatch):
    """A program the JIT cannot lower runs on the reference interpreter:
    the simulation is unchanged and, since the interpreter does not
    track writes, no result is ever stored in the memo."""
    reference = _drive({"engine": "interpreter"})

    def explode(program):
        raise jit_module.JitLoweringError("forced for test")

    monkeypatch.setattr(jit_module, "JitProgram", explode)
    fallback = _drive({"engine": "jit", "enable_memo": True})
    assert fallback[1] == reference[1]
    ref_nic, nic = reference[0], fallback[0]
    assert nic.stats.latencies == ref_nic.stats.latencies
    assert nic.stats.total_cycles == ref_nic.stats.total_cycles
    assert nic.engine.last_tier == "interpreter"
    assert nic.engine.stats.fallbacks == 1
    assert len(nic.memo) == 0
    assert nic.memo.stats.hits == 0


@pytest.mark.parametrize("engine", ["fast" "path", "JIT"])
def test_unknown_engine_is_rejected(engine):
    """The retired pre-decoded tier and other unknown names are refused,
    and the error names the two valid tiers."""
    with pytest.raises(ValueError, match=r"\('interpreter', 'jit'\)"):
        make_setup(engine=engine)


# -- cache unit behaviour ----------------------------------------------------


def _result(value):
    return ExecutionResult(
        verdict="forward", return_value=value, cycles=10,
        instructions_executed=5, meta={"value": value},
    )


def test_lru_eviction():
    cache = ExecutionMemoCache(max_entries=2)
    cache.put(("a",), _result(1))
    cache.put(("b",), _result(2))
    assert cache.get(("a",)) is not None  # refresh "a"
    cache.put(("c",), _result(3))        # evicts "b"
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) is not None
    assert cache.get(("c",)) is not None
    assert cache.stats.evictions == 1


def test_uncacheable_key_is_none():
    program = echo_lambda()
    key = make_key(program, program.entry,
                   {"H": {"field": set()}}, {}, b"")
    assert key is None
    cache = ExecutionMemoCache()
    assert cache.get(key) is None
    cache.put(key, _result(1))
    assert len(cache) == 0
    assert cache.stats.uncacheable == 1


def test_key_distinguishes_all_inputs():
    program = echo_lambda()
    base = make_key(program, program.entry, {"H": {"f": 1}},
                    {"m": 2}, b"digest")
    assert base == make_key(program, program.entry, {"H": {"f": 1}},
                            {"m": 2}, b"digest")
    assert base != make_key(program, program.entry, {"H": {"f": 9}},
                            {"m": 2}, b"digest")
    assert base != make_key(program, program.entry, {"H": {"f": 1}},
                            {"m": 9}, b"digest")
    assert base != make_key(program, program.entry, {"H": {"f": 1}},
                            {"m": 2}, b"other")
    assert base != make_key(program, "other_entry", {"H": {"f": 1}},
                            {"m": 2}, b"digest")


def test_replayed_results_are_isolated_copies():
    cache = ExecutionMemoCache()
    cache.put(("k",), _result(1))
    first = cache.get(("k",))
    first.meta["value"] = 999
    second = cache.get(("k",))
    assert second.meta["value"] == 1


def test_invalidate_clears_everything():
    cache = ExecutionMemoCache()
    cache.put(("a",), _result(1))
    cache.put(("b",), _result(2))
    cache.invalidate()
    assert len(cache) == 0
    assert cache.get(("a",)) is None
    assert cache.stats.invalidations == 1


def test_max_entries_validated():
    with pytest.raises(ValueError):
        ExecutionMemoCache(max_entries=0)

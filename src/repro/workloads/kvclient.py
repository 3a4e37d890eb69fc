"""The key-value client benchmark workload (paper §6.2b).

Queries user data from memcached (SET/GET), customises the result, and
replies. On λ-NIC this is a two-phase, event-driven lambda: phase 1
emits the memcached RPC and parks; the NIC resumes the lambda when the
service responds (§4.2.1-D3), and phase 2 replies to the client.
"""

from __future__ import annotations

from ..isa import LambdaProgram, ProgramBuilder
from .common import build_gen_request_helper, emit_pad
from . import intrinsics  # noqa: F401

#: Key space and per-key customisation block size.
DEFAULT_KEYS = 64
KEY_BLOCK_PAD = 25
#: Response size returned to the client after customisation.
KV_RESPONSE_BYTES = 128
#: Host handler: the memcached node it calls, the value size of a SET,
#: its mean CPU time around the call, and the sigma of that time's
#: lognormal jitter.
MEMCACHED_SERVER = "memcached"
HOST_VALUE_BYTES = 64
HOST_CPU_SECONDS = 40e-6
HOST_SIGMA = 0.35


def kv_client_nic(
    name: str = "kv_client",
    method: str = "GET",
    keys: int = DEFAULT_KEYS,
    block_pad: int = KEY_BLOCK_PAD,
) -> LambdaProgram:
    """Build the NIC kv-client lambda (``method`` = GET or SET)."""
    if keys & (keys - 1):
        raise ValueError("keys must be a power of two")
    if method not in ("GET", "SET"):
        raise ValueError("method must be GET or SET")
    builder = ProgramBuilder(name)
    builder.scratch("r6", "r7")  # pad filler registers; nobody reads them

    gen = builder.function("gen_memcached_request")
    build_gen_request_helper(gen)
    builder.close(gen)

    fn = builder.function(name)
    # Phase selector: has the external service already responded?
    fn.mload("r1", "service_response")
    respond = fn.fresh_label("respond")
    fn.bne("r1", 0, respond)

    # -- Phase 1: pick the key, generate the memcached RPC, park. -----
    fn.hload("r2", "LambdaHeader", "request_id")
    fn.band("r3", "r2", keys - 1)
    key_labels = [f"{name}_key{index}" for index in range(keys)]
    for index, label in enumerate(key_labels):
        fn.beq("r3", index, label)
    fn.drop()  # unreachable guard
    issue = fn.fresh_label("issue")
    for index, label in enumerate(key_labels):
        fn.label(label)
        fn.mov("r4", index)
        fn.mstore("emit_key", "r4")
        emit_pad(fn, block_pad)  # per-key customisation logic
        fn.jmp(issue)
    fn.label(issue)
    fn.mstore("emit_method", method)
    fn.call("gen_memcached_request")
    fn.drop()  # Wait for the service response event.

    # -- Phase 2: service responded; customise and reply. -------------
    fn.label(respond)
    fn.mload("r8", "service_status")
    ok = fn.fresh_label("ok")
    fn.beq("r8", 0, ok)
    # Miss/error: short error reply.
    fn.hstore("LambdaHeader", "is_response", 1)
    fn.mstore("response_bytes", 32)
    fn.forward()
    fn.label(ok)
    emit_pad(fn, 24)  # response customisation
    fn.hstore("LambdaHeader", "is_response", 1)
    fn.mstore("response_bytes", KV_RESPONSE_BYTES)
    fn.forward()
    builder.close(fn)
    return builder.build()


def kv_client_host(method: str = "GET", rng=None):
    """Host handler: memcached round trip plus customisation compute."""

    def handler(ctx):
        key = f"user{ctx.request_id % DEFAULT_KEYS}"
        pre = HOST_CPU_SECONDS / 2
        post = HOST_CPU_SECONDS / 2
        if rng is not None:
            jitter = rng.lognormvariate(0.0, HOST_SIGMA)
            pre *= jitter
            post *= jitter
        yield ctx.compute(pre)
        response = yield ctx.call(
            MEMCACHED_SERVER, method=method, key=key,
            request_bytes=HOST_VALUE_BYTES if method == "SET" else 64,
        )
        status = response.headers.require("RpcHeader").status
        yield ctx.compute(post)
        ctx.response_bytes = KV_RESPONSE_BYTES if status == 0 else 32
        ctx.response_meta["status"] = status

    return handler

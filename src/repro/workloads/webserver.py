"""The web-server benchmark workload (paper §6.2a, Listing 2).

Returns static text/HTML content selected by the request. Two forms:

* :func:`web_server_nic` — the Micro-C/IR lambda for λ-NIC: picks a
  page by request id, copies it from the content store into the
  transmit buffer, and replies through the shared reply helper.
* :func:`web_server_host` — the equivalent host handler for the
  container and bare-metal backends.
"""

from __future__ import annotations

from ..isa import AccessMode, LambdaProgram, Op, ProgramBuilder
from .common import build_reply_helper, emit_pad
from . import intrinsics  # noqa: F401  (registers intrinsics on import)

#: Default content layout: 64 pages of 1400 B (one MTU-ish page each).
DEFAULT_PAGES = 64
DEFAULT_PAGE_BYTES = 1400
#: Per-page routing-block padding (bounds checks, content-type logic).
PAGE_BLOCK_PAD = 19


def web_server_nic(
    name: str = "web_server",
    pages: int = DEFAULT_PAGES,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    block_pad: int = PAGE_BLOCK_PAD,
) -> LambdaProgram:
    """Build the NIC lambda. ``pages`` must be a power of two."""
    if pages & (pages - 1):
        raise ValueError("pages must be a power of two")
    builder = ProgramBuilder(name)
    builder.scratch("r6", "r7")  # pad filler registers; nobody reads them
    builder.object("content", pages * page_bytes, AccessMode.READ)
    builder.object("txbuf", page_bytes, AccessMode.READ_WRITE, hot=True)
    builder.object("stats", 64, AccessMode.READ_WRITE, hot=True)

    reply = builder.function("reply_static")
    build_reply_helper(reply)
    builder.close(reply)

    fn = builder.function(name)
    fn.hload("r1", "LambdaHeader", "request_id")
    fn.band("r3", "r1", pages - 1)  # page index
    # Hit counter in hot memory (flat until stratified).
    fn.load("r9", "stats", 0)
    fn.add("r9", "r9", 1)
    fn.store("stats", 0, "r9")
    # Routing: if-chain over pages (the compiled form of the URL map).
    labels = [f"{name}_page{index}" for index in range(pages)]
    for index, label in enumerate(labels):
        fn.beq("r3", index, label)
    # Unknown page: empty 404 reply.
    fn.mov("r5", 64)
    fn.call("reply_static")
    fn.forward()
    for index, label in enumerate(labels):
        fn.label(label)
        fn.mov("r4", index * page_bytes)
        emit_pad(fn, block_pad)
        fn.memcpy("txbuf", 0, "content", "r4", page_bytes)
        fn.emit(Op.INTRINSIC, "reply_from_memory", ("mem", "txbuf", 0), page_bytes)
        fn.mov("r5", page_bytes)
        fn.call("reply_static")
        fn.forward()
    builder.close(fn)
    return builder.build()


def populate_content(memory: bytearray, pages: int = DEFAULT_PAGES,
                     page_bytes: int = DEFAULT_PAGE_BYTES) -> None:
    """Fill a content object with distinguishable per-page bytes."""
    for page in range(pages):
        start = page * page_bytes
        memory[start:start + page_bytes] = bytes([page % 251] * page_bytes)


def web_server_host(
    page_bytes: int = DEFAULT_PAGE_BYTES,
    cpu_seconds: float = 150e-6,
    rng=None,
    sigma: float = 0.35,
):
    """Host handler: render/serve one page of content."""

    def handler(ctx):
        service = cpu_seconds
        if rng is not None:
            service *= rng.lognormvariate(0.0, sigma)
        yield ctx.compute(service)
        ctx.response_bytes = page_bytes
        ctx.response_meta["page"] = ctx.request_id % DEFAULT_PAGES

    return handler

"""The image-transformer benchmark workload (paper §6.2c).

Transforms RGBA images to grayscale. Images span multiple packets and
arrive in NIC memory over RDMA (paper D3); an event RPC then triggers
the lambda, which runs the transform and acknowledges. On host backends
the image arrives as request payload and is processed on the CPU.
"""

from __future__ import annotations

import numpy as np

from ..isa import AccessMode, LambdaProgram, Op, ProgramBuilder
from .common import build_reply_helper, emit_pad
from . import intrinsics  # noqa: F401

#: Default image geometry: 512x512 RGBA = 1 MiB per image (the paper's
#: data-intensive workload scale: ~1 MiB images, ~30-100 ms transforms).
DEFAULT_WIDTH = 512
DEFAULT_HEIGHT = 512
#: Unrolled tile-dispatch blocks in the compiled lambda.
TILE_BLOCKS = 96
TILE_BLOCK_PAD = 18
#: Bytes of the acknowledgement sent back after a transform.
ACK_BYTES = 256

#: Host-side per-pixel compute cost (partially vectorised runtime),
#: and the sigma of its lognormal jitter.
HOST_SECONDS_PER_PIXEL = 0.36e-6
HOST_SIGMA = 0.15


def image_bytes(width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT) -> int:
    return width * height * 4


def image_transformer_nic(
    name: str = "image_transformer",
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    tile_blocks: int = TILE_BLOCKS,
    block_pad: int = TILE_BLOCK_PAD,
) -> LambdaProgram:
    """Build the NIC lambda: grayscale over an RDMA-filled buffer."""
    pixels = width * height
    builder = ProgramBuilder(name)
    builder.scratch("r6", "r7")  # pad filler registers; nobody reads them
    builder.object("image", image_bytes(width, height), AccessMode.READ_WRITE)
    builder.object("tile_table", max(8, tile_blocks) * 8,
                   AccessMode.READ_WRITE, hot=True)

    reply = builder.function("reply_static")
    build_reply_helper(reply)
    builder.close(reply)

    fn = builder.function(name)
    fn.mload("r1", "rdma_len")
    have_data = fn.fresh_label("have_data")
    fn.bne("r1", 0, have_data)
    # No RDMA payload: reject.
    fn.hstore("LambdaHeader", "is_response", 1)
    fn.mstore("response_bytes", 32)
    fn.forward()
    fn.label(have_data)
    # Format dispatch (RGBA / BGRA / RGB / padded rows ...).
    formats = 8
    fn.hload("r2", "LambdaHeader", "seq")
    fn.band("r2", "r2", formats - 1)
    fmt_done = fn.fresh_label("fmt_done")
    fmt_labels = [fn.fresh_label(f"fmt{index}") for index in range(formats)]
    for index, label in enumerate(fmt_labels):
        fn.beq("r2", index, label)
    fn.jmp(fmt_done)
    for label in fmt_labels:
        fn.label(label)
        emit_pad(fn, 6)
        fn.jmp(fmt_done)
    fn.label(fmt_done)
    # Unrolled tile table setup: offsets of each processing tile.
    tile_pixels = max(1, pixels // tile_blocks)
    for tile in range(tile_blocks):
        fn.mov("r4", tile * tile_pixels * 4)
        fn.store("tile_table", tile * 8, "r4")
        emit_pad(fn, block_pad)
    # The transform itself (hardware-assisted bulk op).
    fn.emit(Op.INTRINSIC, "grayscale", ("mem", "image", 0), pixels)
    fn.mov("r5", ACK_BYTES)
    fn.call("reply_static")
    fn.forward()
    builder.close(fn)
    return builder.build()


def make_rgba_image(width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT,
                    seed: int = 0) -> bytes:
    """A synthetic RGBA image with deterministic content."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=width * height * 4, dtype=np.uint16) \
        .astype(np.uint8).tobytes()


def grayscale_reference(rgba: bytes) -> bytes:
    """NumPy reference transform for verifying the NIC intrinsic."""
    array = np.frombuffer(rgba, dtype=np.uint8).reshape(-1, 4).astype(np.uint16)
    return ((array[:, 0] + array[:, 1] + array[:, 2]) // 3) \
        .astype(np.uint8).tobytes()


def image_transformer_host(
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    rng=None,
):
    """Host handler: per-pixel transform on the CPU."""
    pixels = width * height

    def handler(ctx):
        service = pixels * HOST_SECONDS_PER_PIXEL
        if rng is not None:
            service *= rng.lognormvariate(0.0, HOST_SIGMA)
        yield ctx.compute(service, gil=False)
        ctx.response_bytes = ACK_BYTES
        ctx.response_meta["pixels"] = pixels

    return handler

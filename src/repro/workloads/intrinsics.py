"""Bulk intrinsics used by the benchmark lambdas.

NPU cores expose hardware-assisted bulk operations; in the IR these are
``Op.INTRINSIC`` instructions whose semantics live here. Each intrinsic
mutates the machine state and returns the extra cycles it costs, so the
cost model scales with data size while the interpreter executes a
single IR instruction.
"""

from __future__ import annotations

import math

import numpy as np

from ..isa import REGION_ACCESS_CYCLES, register_intrinsic
from ..isa.interpreter import Machine

#: NPU cycles per pixel for the RGBA->grayscale transform: three loads,
#: two adds, a shift, and a store on a scalar RISC core.
GRAYSCALE_CYCLES_PER_PIXEL = 75


def _object_region(machine: Machine, name: str):
    return machine.program.object(name).region


def reply_from_memory(machine: Machine, args) -> int:
    """Copy ``length`` bytes of an object into the response payload.

    args: (("mem", obj, offset), length)
    """
    memref, length = args
    _, obj, offset = memref
    offset = machine.read(offset)
    length = machine.read(length)
    data = machine.memory[obj]
    if offset + length > len(data):
        length = max(0, len(data) - offset)
    machine.response_payload = bytes(data[offset:offset + length])
    bursts = max(1, math.ceil(length / 64))  # 64 B DMA bursts
    return bursts * REGION_ACCESS_CYCLES[_object_region(machine, obj)]


def grayscale(machine: Machine, args) -> int:
    """RGBA -> grayscale in place over an image object.

    args: (("mem", obj, 0), n_pixels). The gray plane is written back
    into the first quarter of the buffer.
    """
    memref, n_pixels = args
    _, obj, _ = memref
    n_pixels = machine.read(n_pixels)
    buffer = machine.memory[obj]
    usable = min(n_pixels, len(buffer) // 4)
    if usable > 0:
        # Work in place: one uint16 temporary per call. Copying the RGBA
        # image (1 MiB at 512x512) on every request made host time swing
        # with the C allocator's heap-trim state.
        pixels = np.frombuffer(buffer, dtype=np.uint8, count=usable * 4)
        gray = np.add(pixels[0::4], pixels[1::4], dtype=np.uint16)
        gray += pixels[2::4]
        gray //= 3
        pixels[:usable] = gray
    return usable * GRAYSCALE_CYCLES_PER_PIXEL


def checksum(machine: Machine, args) -> int:
    """Ones-complement-style checksum over an object (cost model only)."""
    memref, length = args
    _, obj, _ = memref
    length = machine.read(length)
    data = machine.memory[obj]
    usable = min(length, len(data))
    total = int(np.frombuffer(
        bytes(data[:usable]).ljust((usable + 1) // 2 * 2, b"\x00"),
        dtype=np.uint16,
    ).sum()) & 0xFFFF
    machine.meta["checksum"] = total
    bursts = max(1, math.ceil(usable / 64))
    return bursts * REGION_ACCESS_CYCLES[_object_region(machine, obj)] // 4


# -- static cost models (the verifier's WCET estimator) ---------------------
#
# Each model receives ``(program, args, reader)`` where ``reader``
# returns an operand's statically-known value or None, and must return
# an upper bound on the cycles the runtime implementation above charges.
# All three runtime costs are clamped by the object size, so "length
# unknown" still has a finite worst case.


def _static_object(program, memref):
    _, obj, _ = memref
    return program.object(obj)


def reply_from_memory_wcet(program, args, reader) -> int:
    memref, length = args
    obj = _static_object(program, memref)
    n = reader(length)
    offset = reader(memref[2])
    if isinstance(n, int) and isinstance(offset, int):
        n = min(max(n, 0), max(0, obj.size_bytes - offset))
    else:
        n = obj.size_bytes  # Runtime clamps to the object.
    bursts = max(1, math.ceil(n / 64))
    return bursts * REGION_ACCESS_CYCLES[obj.region]


def grayscale_wcet(program, args, reader) -> int:
    memref, n_pixels = args
    obj = _static_object(program, memref)
    n = reader(n_pixels)
    ceiling = obj.size_bytes // 4
    usable = min(max(n, 0), ceiling) if isinstance(n, int) else ceiling
    return usable * GRAYSCALE_CYCLES_PER_PIXEL


def checksum_wcet(program, args, reader) -> int:
    memref, length = args
    obj = _static_object(program, memref)
    n = reader(length)
    usable = min(max(n, 0), obj.size_bytes) if isinstance(n, int) \
        else obj.size_bytes
    bursts = max(1, math.ceil(usable / 64))
    return bursts * REGION_ACCESS_CYCLES[obj.region] // 4


def install_intrinsics() -> None:
    """Idempotently register all workload intrinsics.

    Effect declarations matter for the NIC's state epoch:
    ``reply_from_memory`` and ``checksum`` only read objects (their
    outputs land in per-request state), while ``grayscale`` rewrites
    the image buffer in place and therefore marks its executions as
    stateful. The ``wcet`` models give the static verifier a sound
    cycle bound for each.
    """
    register_intrinsic("reply_from_memory", reply_from_memory,
                       writes_memory=False, wcet=reply_from_memory_wcet)
    register_intrinsic("grayscale", grayscale, writes_memory=True,
                       wcet=grayscale_wcet)
    register_intrinsic("checksum", checksum, writes_memory=False,
                       wcet=checksum_wcet)


install_intrinsics()

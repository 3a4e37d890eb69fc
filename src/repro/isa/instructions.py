"""The λ-NIC lambda instruction set.

Lambdas are written in a restricted C-like language (Micro-C in the
paper); here they are authored against a small RISC-like IR that plays
the role of the NPU's compiled form. The IR is concrete enough to

* count instructions (Figure 9's optimizer-effectiveness metric),
* execute lambdas for real in the NPU model (run-to-completion), and
* charge per-instruction cycle costs including the memory hierarchy.

Operand conventions
-------------------
* ``"rN"`` strings name one of 16 general-purpose registers.
* plain ints/floats are immediates.
* ``("mem", object_name, offset_operand)`` references a named memory
  object (offset may itself be a register or immediate).
* ``("hdr", header_name, field)`` references a parsed header field.
* ``("meta", key)`` references per-packet metadata (match_data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Tuple


class Region(str, Enum):
    """Memory regions of the abstract machine / Netronome hierarchy."""

    FLAT = "flat"      # Virtual flat address space (pre-stratification).
    LOCAL = "local"    # Per-core local memory.
    CTM = "ctm"        # Cluster target memory (per island).
    IMEM = "imem"      # Internal on-chip SRAM (shared).
    EMEM = "emem"      # External DRAM (shared).

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Region.{self.name}"


#: Access latency in NPU cycles for a word-sized access per region.
#: FLAT accesses additionally pay the software address-resolution cost
#: (the ``resolve`` instruction) until memory stratification places the
#: object into a concrete region.
REGION_ACCESS_CYCLES = {
    Region.FLAT: 120,   # Pessimistic: treated as EMEM until placed.
    Region.LOCAL: 3,
    Region.CTM: 50,
    Region.IMEM: 180,
    Region.EMEM: 300,
}

#: Capacity of each region on the modelled Agilio CX (bytes).
REGION_CAPACITY_BYTES = {
    Region.LOCAL: 16 * 1024,          # per core
    Region.CTM: 256 * 1024,           # per island
    Region.IMEM: 8 * 1024 * 1024,     # shared
    Region.EMEM: 2 * 1024 * 1024 * 1024,  # 2 GiB on-board DRAM
}


class Op(str, Enum):
    """Opcodes."""

    # ALU
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MOV = "mov"
    MIN = "min"
    MAX = "max"
    # Control flow
    JMP = "jmp"
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    CALL = "call"
    RET = "ret"
    HALT = "halt"
    LABEL = "label"  # pseudo-instruction marking a branch target
    NOP = "nop"
    # Memory
    RESOLVE = "resolve"  # flat-address -> physical-address computation
    LOAD = "load"
    STORE = "store"
    LOADD = "loadd"      # direct (stratified) load: resolve folded in
    STORED = "stored"    # direct (stratified) store
    MEMCPY = "memcpy"
    # Headers / metadata / packet
    HLOAD = "hload"
    HSTORE = "hstore"
    MLOAD = "mload"
    MSTORE = "mstore"
    EMIT = "emit"
    FORWARD = "forward"
    DROP = "drop"
    TO_HOST = "to_host"
    # Specialised hardware assists
    HASH = "hash"
    CRC = "crc"
    #: Bulk data-parallel helper (e.g. pixel transform); semantics are
    #: supplied by the interpreter's intrinsic registry and the cycle
    #: cost scales with the data size the intrinsic reports.
    INTRINSIC = "intrinsic"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Op.{self.name}"


#: Base cycle cost per opcode (memory ops add the region access cost).
BASE_CYCLES = {
    Op.ADD: 1, Op.SUB: 1, Op.MUL: 4, Op.AND: 1, Op.OR: 1, Op.XOR: 1,
    Op.SHL: 1, Op.SHR: 1, Op.MOV: 1, Op.MIN: 1, Op.MAX: 1,
    Op.JMP: 1, Op.BEQ: 1, Op.BNE: 1, Op.BLT: 1, Op.BGE: 1,
    Op.CALL: 3, Op.RET: 3, Op.HALT: 1, Op.LABEL: 0, Op.NOP: 1,
    Op.RESOLVE: 2, Op.LOAD: 1, Op.STORE: 1, Op.LOADD: 1, Op.STORED: 1,
    Op.MEMCPY: 4,
    Op.HLOAD: 1, Op.HSTORE: 1, Op.MLOAD: 1, Op.MSTORE: 1,
    Op.EMIT: 8, Op.FORWARD: 2, Op.DROP: 1, Op.TO_HOST: 4,
    Op.HASH: 6, Op.CRC: 6, Op.INTRINSIC: 4,
}

#: Word accesses: op -> (position of the memory reference, is a write).
WORD_ACCESS = {Op.LOAD: (-1, False), Op.LOADD: (-1, False),
               Op.STORE: (-2, True), Op.STORED: (0, True)}

#: Bytes of instruction store that one IR instruction occupies. The
#: Netronome ME instruction word is 64 bits wide.
INSTRUCTION_BYTES = 8


@dataclass(frozen=True)
class Instruction:
    """A single IR instruction: opcode plus operand tuple."""

    op: Op
    args: Tuple[Any, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.op, Op):
            raise TypeError(f"op must be an Op, got {self.op!r}")

    @property
    def is_real(self) -> bool:
        """True if this occupies instruction store (labels do not)."""
        return self.op is not Op.LABEL

    def __repr__(self) -> str:
        rendered = ", ".join(_render_operand(arg) for arg in self.args)
        return f"{self.op.value} {rendered}".rstrip()


def _render_operand(arg: Any) -> str:
    if isinstance(arg, tuple):
        kind = arg[0]
        if kind == "mem":
            return f"[{arg[1]}+{_render_operand(arg[2])}]"
        if kind == "hdr":
            return f"{arg[1]}.{arg[2]}"
        if kind == "meta":
            return f"meta.{arg[1]}"
        return repr(arg)
    if isinstance(arg, Region):
        return arg.value
    return str(arg)


def ins(op: Op, *args: Any) -> Instruction:
    """Shorthand constructor used by the builder and tests."""
    return Instruction(op, tuple(args))


def is_register(operand: Any) -> bool:
    """True for operands naming one of the 16 GPRs (``"r0"``–``"r15"``)."""
    return (
        isinstance(operand, str)
        and len(operand) >= 2
        and operand[0] == "r"
        and operand[1:].isdigit()
        and 0 <= int(operand[1:]) < 16
    )


def is_mem_ref(operand: Any) -> bool:
    return isinstance(operand, tuple) and len(operand) == 3 and operand[0] == "mem"

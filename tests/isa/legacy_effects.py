"""The per-analysis operand decoding the verifier used before every
analysis read one decoded form per function (:mod:`repro.isa.verify.cfg`).

Kept only as the reference for ``tests/isa/test_decoded_effects.py``:
the decoded uses and defs of every instruction must equal what these
functions compute from the operands.
"""

from typing import Any, FrozenSet, Iterator, List

from repro.isa.instructions import Instruction, Op, is_mem_ref, is_register

_DEF_OPS = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
    Op.MOV, Op.MIN, Op.MAX,
    Op.RESOLVE, Op.LOAD, Op.LOADD, Op.HLOAD, Op.MLOAD, Op.HASH, Op.CRC,
})

_NAME_OPS = frozenset({Op.JMP, Op.CALL, Op.LABEL})

_BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})


def _operand_registers(operand: Any) -> Iterator[str]:
    if is_register(operand):
        yield operand
    elif is_mem_ref(operand):
        yield from _operand_registers(operand[2])


def instruction_defs(instruction: Instruction) -> FrozenSet[str]:
    """Registers this instruction writes (CALL handled by summaries)."""
    op = instruction.op
    if op in _DEF_OPS and instruction.args and is_register(instruction.args[0]):
        return frozenset((instruction.args[0],))
    if op is Op.RET and instruction.args:
        return frozenset(("r0",))
    return frozenset()


def instruction_uses(instruction: Instruction) -> FrozenSet[str]:
    """Registers this instruction reads (CALL handled by summaries)."""
    op = instruction.op
    if op in _NAME_OPS:
        return frozenset()
    regs: List[str] = []
    for position, arg in enumerate(instruction.args):
        if position == 0 and op in _DEF_OPS:
            continue  # The destination slot.
        if op in _BRANCH_OPS and position == len(instruction.args) - 1:
            continue  # The label operand.
        regs.extend(_operand_registers(arg))
    return frozenset(regs)

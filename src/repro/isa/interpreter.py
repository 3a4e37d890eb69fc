"""Executable semantics for lambda programs.

The interpreter runs a :class:`~repro.isa.program.LambdaProgram` against
a parsed packet (header fields + match metadata) and produces a
:class:`ExecutionResult` that includes the exact cycle count — the NPU
model turns cycles into simulated time. Memory objects are real
bytearrays, so lambdas like the web server genuinely move bytes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .instructions import (
    BASE_CYCLES,
    Instruction,
    Op,
    REGION_ACCESS_CYCLES,
    Region,
    is_register,
)
from .program import LambdaProgram


class ExecutionError(Exception):
    """Raised for runtime faults inside a lambda (bad operand, OOB, …)."""


class IsolationError(ExecutionError):
    """A lambda touched memory outside its own objects (paper §4.2.1-D2)."""


#: Packet verdicts a lambda can end with.
VERDICT_FORWARD = "forward"
VERDICT_DROP = "drop"
VERDICT_TO_HOST = "to_host"
VERDICT_FALLTHROUGH = "fallthrough"  # returned without a packet op

#: Hard cap so buggy lambdas cannot hang the simulation.
DEFAULT_STEP_LIMIT = 2_000_000

#: Bytes moved per DMA burst by bulk operations (memcpy, intrinsics).
BULK_BURST_BYTES = 64


@dataclass
class EmittedPacket:
    """Record of an ``emit`` executed by the lambda."""

    headers: Dict[str, Dict[str, Any]]
    meta: Dict[str, Any]
    payload: bytes = b""


@dataclass
class ExecutionResult:
    """Outcome of one lambda invocation."""

    verdict: str
    return_value: Any
    cycles: int
    instructions_executed: int
    region_accesses: Dict[Region, int] = field(default_factory=dict)
    emitted: List[EmittedPacket] = field(default_factory=list)
    headers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    response_payload: bytes = b""

    def time_seconds(self, clock_hz: float) -> float:
        """Wall-clock duration of this execution at ``clock_hz``."""
        return self.cycles / clock_hz


#: An intrinsic receives (machine, args) and returns extra cycles.
IntrinsicFn = Callable[["Machine", Tuple[Any, ...]], int]

_INTRINSICS: Dict[str, IntrinsicFn] = {}

#: Effect declarations: does the intrinsic mutate persistent memory
#: objects? Anything that does (or is undeclared) makes the enclosing
#: execution stateful, which the NIC's memo cache must treat as an
#: invalidation point. Per-request state (``meta``, headers, the
#: response payload) does not count — it is captured in the result.
_INTRINSIC_WRITES_MEMORY: Dict[str, bool] = {}

#: Static worst-case cost models for the verifier's WCET estimator. A
#: model receives ``(program, args, reader)`` where ``reader(operand)``
#: returns the operand's statically-known value or None, and must return
#: an upper bound on the cycles the intrinsic charges at runtime.
IntrinsicWcetFn = Callable[[Any, Tuple[Any, ...], Callable[[Any], Any]], int]

_INTRINSIC_WCET: Dict[str, IntrinsicWcetFn] = {}


def register_intrinsic(name: str, fn: IntrinsicFn,
                       writes_memory: bool = True,
                       wcet: Optional[IntrinsicWcetFn] = None) -> None:
    """Register a bulk operation usable via ``Op.INTRINSIC``.

    ``writes_memory`` declares whether the intrinsic mutates persistent
    memory objects; the conservative default keeps undeclared intrinsics
    safe for the execution memo cache (their runs are never memoised).
    ``wcet`` optionally supplies a static cost model for the verifier;
    without one, programs using the intrinsic get no WCET bound.
    """
    _INTRINSICS[name] = fn
    _INTRINSIC_WRITES_MEMORY[name] = writes_memory
    if wcet is not None:
        _INTRINSIC_WCET[name] = wcet
    else:
        _INTRINSIC_WCET.pop(name, None)


def intrinsic_registered(name: str) -> bool:
    return name in _INTRINSICS


def intrinsic_writes_memory(name: str) -> bool:
    """Declared memory effect of an intrinsic (unknown => True)."""
    return _INTRINSIC_WRITES_MEMORY.get(name, True)


def intrinsic_wcet(name: str) -> Optional[IntrinsicWcetFn]:
    """The registered static cost model of an intrinsic, if any."""
    return _INTRINSIC_WCET.get(name)


class Machine:
    """Mutable execution state for one lambda invocation.

    Besides registers, packet state and memory it carries the run's
    accounting — cycles, executed instructions, region accesses, the
    verdict and return value, the step limit, and whether persistent
    memory was written — so both engines drive the same object.
    """

    def __init__(
        self,
        program: LambdaProgram,
        headers: Optional[Dict[str, Dict[str, Any]]] = None,
        meta: Optional[Dict[str, Any]] = None,
        memory: Optional[Dict[str, bytearray]] = None,
        step_limit: int = DEFAULT_STEP_LIMIT,
    ) -> None:
        self.program = program
        self.registers: Dict[str, int] = {f"r{i}": 0 for i in range(16)}
        self.headers = headers if headers is not None else {}
        self.meta = meta if meta is not None else {}
        # Persistent memory may be passed in (global objects persist
        # across runs, paper §4.1); otherwise allocate fresh zeroed
        # objects of the declared sizes.
        if memory is None:
            memory = {
                obj.name: bytearray(obj.size_bytes)
                for obj in program.objects.values()
            }
        self.memory = memory
        self.response_payload: bytes = b""
        self.emitted: List[EmittedPacket] = []
        self.cycles = 0
        self.executed = 0
        self.region_accesses: Dict[Region, int] = {}
        self.verdict = VERDICT_FALLTHROUGH
        self.return_value: Any = None
        self.step_limit = step_limit
        #: Set by stores, memcpy and memory-writing intrinsics; the
        #: memo cache treats such executions as invalidation points.
        self.wrote_memory = False

    def result(self) -> ExecutionResult:
        return ExecutionResult(
            verdict=self.verdict,
            return_value=self.return_value,
            cycles=self.cycles,
            instructions_executed=self.executed,
            region_accesses=self.region_accesses,
            emitted=self.emitted,
            headers=self.headers,
            meta=self.meta,
            response_payload=self.response_payload,
        )

    def step_limit_exceeded(self) -> None:
        raise ExecutionError(
            f"step limit {self.step_limit} exceeded in "
            f"{self.program.name!r} (runaway lambda?)"
        )

    # -- operand access ----------------------------------------------------

    def read(self, operand: Any) -> Any:
        if is_register(operand):
            return self.registers[operand]
        if isinstance(operand, (int, float)):
            return operand
        if isinstance(operand, str):
            # Non-register strings are literal values (e.g. route names
            # stored into metadata by lowered table actions).
            return operand
        if isinstance(operand, tuple):
            kind = operand[0]
            if kind == "hdr":
                return self.read_header(operand[1], operand[2])
            if kind == "meta":
                return self.meta.get(operand[1], 0)
        raise ExecutionError(f"cannot read operand {operand!r}")

    def write_register(self, operand: Any, value: Any) -> None:
        if not is_register(operand):
            raise ExecutionError(f"destination {operand!r} is not a register")
        self.registers[operand] = value

    def read_header(self, header: str, field_name: str) -> Any:
        try:
            return self.headers[header][field_name]
        except KeyError:
            raise ExecutionError(
                f"header field {header}.{field_name} not present"
            ) from None

    def write_header(self, header: str, field_name: str, value: Any) -> None:
        self.headers.setdefault(header, {})[field_name] = value

    # -- memory ------------------------------------------------------------

    def charge_access(self, obj: str, words: int = 1) -> None:
        """Bill ``words`` accesses to the region holding object ``obj``."""
        region = self.program.object(obj).region
        self.region_accesses[region] = \
            self.region_accesses.get(region, 0) + words
        self.cycles += REGION_ACCESS_CYCLES[region] * words

    def _object_bytes(self, name: str) -> bytearray:
        try:
            return self.memory[name]
        except KeyError:
            raise IsolationError(
                f"lambda {self.program.name!r} accessed foreign object {name!r}"
            ) from None

    def load_word(self, obj: str, offset: int) -> int:
        data = self._object_bytes(obj)
        if offset < 0 or offset + 8 > len(data) + 7:
            raise ExecutionError(f"load out of bounds: {obj}[{offset}]")
        chunk = bytes(data[offset:offset + 8])
        return int.from_bytes(chunk.ljust(8, b"\x00"), "little")

    def store_word(self, obj: str, offset: int, value: int) -> None:
        data = self._object_bytes(obj)
        if offset < 0 or offset >= len(data):
            raise ExecutionError(f"store out of bounds: {obj}[{offset}]")
        width = min(8, len(data) - offset)
        data[offset:offset + width] = (value & (2 ** (8 * width) - 1)).to_bytes(
            width, "little"
        )


def hash32(kind: str, value: Any) -> int:
    """The 32-bit result of ``HASH``/``CRC`` (``kind``) over ``value``.

    CRC-32 of the operand's repr: unlike the built-in ``hash``, which
    salts strings per process, it is the same in every run.
    """
    return zlib.crc32(repr((kind, value)).encode())


def execute_straightline(m: Machine, instruction: Instruction) -> None:
    """Reference semantics for one instruction that is not control flow.

    Charges region accesses and intrinsic cycles to ``m``; the caller
    does the step check and bills the opcode's base cycles first.
    """
    op = instruction.op
    args = instruction.args
    if op in _ALU_OPS:
        a = m.read(args[1])
        b = m.read(args[2]) if len(args) > 2 else None
        m.write_register(args[0], _ALU_OPS[op](a, b))
    elif op is Op.MOV:
        m.write_register(args[0], m.read(args[1]))
    elif op is Op.NOP:
        pass
    elif op is Op.RESOLVE:
        _, obj, offset = args[1]
        m.write_register(args[0], ("addr", obj, m.read(offset)))
    elif op in (Op.LOAD, Op.LOADD):
        _, obj, offset = args[-1]
        offset_value = m.read(offset)
        m.charge_access(obj)
        m.write_register(args[0], m.load_word(obj, offset_value))
    elif op in (Op.STORE, Op.STORED):
        _, obj, offset = args[-2] if op is Op.STORE else args[0]
        offset_value = m.read(offset)
        m.charge_access(obj)
        m.store_word(obj, offset_value, m.read(args[-1]))
        m.wrote_memory = True
    elif op is Op.MEMCPY:
        (_, dst_obj, dst_off), (_, src_obj, src_off), length = args
        n = m.read(length)
        dst_off_v = m.read(dst_off)
        src_off_v = m.read(src_off)
        # Bulk copies go through the DMA engine in 64 B bursts, paying
        # one access charge per burst rather than per word.
        bursts = max(1, math.ceil(n / BULK_BURST_BYTES))
        m.charge_access(src_obj, bursts)
        m.charge_access(dst_obj, bursts)
        src_bytes = m._object_bytes(src_obj)
        dst_bytes = m._object_bytes(dst_obj)
        if src_off_v + n > len(src_bytes) or dst_off_v + n > len(dst_bytes):
            raise ExecutionError("memcpy out of bounds")
        dst_bytes[dst_off_v:dst_off_v + n] = src_bytes[src_off_v:src_off_v + n]
        m.wrote_memory = True
    elif op is Op.HLOAD:
        _, header, field_name = args[1]
        m.write_register(args[0], m.read_header(header, field_name))
    elif op is Op.HSTORE:
        _, header, field_name = args[0]
        m.write_header(header, field_name, m.read(args[1]))
    elif op is Op.MLOAD:
        m.write_register(args[0], m.meta.get(args[1][1], 0))
    elif op is Op.MSTORE:
        m.meta[args[0][1]] = m.read(args[1])
    elif op is Op.EMIT:
        m.emitted.append(
            EmittedPacket(
                headers={k: dict(v) for k, v in m.headers.items()},
                meta=dict(m.meta),
                payload=m.response_payload,
            )
        )
    elif op in (Op.HASH, Op.CRC):
        m.write_register(args[0], hash32(op.value, m.read(args[1])))
    elif op is Op.INTRINSIC:
        name = args[0]
        fn = _INTRINSICS.get(name)
        if fn is None:
            raise ExecutionError(f"unknown intrinsic {name!r}")
        m.cycles += fn(m, args[1:])
        if intrinsic_writes_memory(name):
            m.wrote_memory = True
    else:
        raise ExecutionError(f"unhandled opcode {op!r}")


class Interpreter:
    """Executes lambda programs to completion with cycle accounting."""

    def __init__(self, clock_hz: float = 633e6,
                 step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        self.clock_hz = clock_hz
        self.step_limit = step_limit

    def run(
        self,
        program: LambdaProgram,
        headers: Optional[Dict[str, Dict[str, Any]]] = None,
        meta: Optional[Dict[str, Any]] = None,
        memory: Optional[Dict[str, bytearray]] = None,
        entry: Optional[str] = None,
    ) -> ExecutionResult:
        m = Machine(program, headers, meta, memory, self.step_limit)
        function = program.function(entry or program.entry)

        # Call stack of (function, labels, pc).
        frame = [function, function.labels(), 0]
        stack: List[list] = []

        while True:
            function, labels, pc = frame
            if pc >= len(function.body):
                # Fell off the end of a function: implicit return.
                if stack:
                    frame = stack.pop()
                    continue
                break
            if m.executed >= m.step_limit:
                m.step_limit_exceeded()
            instruction = function.body[pc]
            frame[2] = pc + 1
            op = instruction.op
            args = instruction.args
            if op is Op.LABEL:
                continue
            m.executed += 1
            m.cycles += BASE_CYCLES[op]

            if op is Op.JMP:
                frame[2] = labels[args[0]]
            elif op in _BRANCH_OPS:
                if _BRANCH_OPS[op](m.read(args[0]), m.read(args[1])):
                    frame[2] = labels[args[2]]
            elif op is Op.CALL:
                stack.append(frame)
                callee = program.function(args[0])
                frame = [callee, callee.labels(), 0]
            elif op is Op.RET:
                if args:
                    m.return_value = m.read(args[0])
                    m.registers["r0"] = m.return_value
                if not stack:
                    break
                frame = stack.pop()
            elif op is Op.HALT:
                break
            elif op in _VERDICT_OPS:
                m.verdict = _VERDICT_OPS[op]
                break
            else:
                execute_straightline(m, instruction)

        return m.result()


_ALU_OPS = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: a * b,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << b,
    Op.SHR: lambda a, b: a >> b,
    Op.MIN: lambda a, b: min(a, b),
    Op.MAX: lambda a, b: max(a, b),
}

_BRANCH_OPS = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: a < b,
    Op.BGE: lambda a, b: a >= b,
}

_VERDICT_OPS = {
    Op.FORWARD: VERDICT_FORWARD,
    Op.DROP: VERDICT_DROP,
    Op.TO_HOST: VERDICT_TO_HOST,
}

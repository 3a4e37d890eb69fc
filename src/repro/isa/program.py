"""Lambda programs: functions, memory objects, and whole-program metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from .instructions import INSTRUCTION_BYTES, Instruction, Op, Region

#: What :meth:`LambdaProgram.validate` says of each dangling reference.
_UNDEFINED = {"call": "calls undefined",
              "label": "jumps to undefined label",
              "object": "references undefined object"}


class AccessMode(str, Enum):
    """Declared access pattern of a memory object (paper §4, point 2)."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"


@dataclass
class MemoryObject:
    """A named object in the lambda's flat virtual address space.

    ``hot`` is the user pragma from the paper (§4.2.1-D2): a hint that
    the object is accessed frequently and deserves close memory.
    ``region`` starts FLAT; memory stratification assigns a real region.
    """

    name: str
    size_bytes: int
    access: AccessMode = AccessMode.READ_WRITE
    hot: bool = False
    region: Region = Region.FLAT

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"object {self.name!r} must have positive size")


@dataclass
class Function:
    """A named sequence of instructions (a lambda body or helper)."""

    name: str
    body: List[Instruction] = field(default_factory=list)
    _decoded: Any = field(default=None, init=False, repr=False,
                          compare=False)

    @property
    def decoded(self):
        """This body's :class:`~repro.isa.verify.DecodedFunction`, built
        on first use and kept for the life of the body list: assigning a
        new ``body`` gets a new form. Never edit a decoded body in place.
        """
        decoded = self._decoded
        if decoded is None or decoded.body is not self.body:
            from .verify.cfg import DecodedFunction

            decoded = self._decoded = DecodedFunction(self)
        return decoded

    @property
    def instruction_count(self) -> int:
        """Real instructions only (labels are assembler fictions)."""
        body = self.body
        return len(body) - [instruction.op for instruction in body].count(
            Op.LABEL)


class LambdaProgram:
    """One lambda: an entry function, helpers, and memory objects.

    This is the compiled form of one Micro-C top-level function
    (Listing 1/2 in the paper) together with its global objects.
    """

    def __init__(
        self,
        name: str,
        functions: Optional[Iterable[Function]] = None,
        objects: Optional[Iterable[MemoryObject]] = None,
        entry: Optional[str] = None,
        headers_used: Optional[Iterable[str]] = None,
        scratch_registers: Optional[Iterable[str]] = None,
    ) -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        for function in functions or ():
            self.add_function(function)
        self.objects: Dict[str, MemoryObject] = {}
        for obj in objects or ():
            self.add_object(obj)
        self.entry = entry or name
        #: Header types this lambda touches; used by the framework to
        #: auto-generate the parser (paper contribution #3).
        self.headers_used: List[str] = list(headers_used or [])
        #: Registers the author declares as scratch: their values are
        #: never meaningful across reads, so the static verifier skips
        #: dead-store/uninitialized-read findings for them (e.g. the
        #: filler registers of coalescable padding).
        self.scratch_registers: FrozenSet[str] = frozenset(
            scratch_registers or ()
        )
        #: Set by :meth:`validate` (the builder, the assembler and the
        #: compiler validate what they build), cleared by additions.
        self.validated = False

    def add_function(self, function: Function) -> None:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        self.validated = False

    def add_object(self, obj: MemoryObject) -> None:
        if obj.name in self.objects:
            raise ValueError(f"duplicate object {obj.name!r}")
        self.objects[obj.name] = obj
        self.validated = False

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"{self.name!r} has no function {name!r}") from None

    def object(self, name: str) -> MemoryObject:
        try:
            return self.objects[name]
        except KeyError:
            raise KeyError(f"{self.name!r} has no object {name!r}") from None

    @property
    def instruction_count(self) -> int:
        return sum(f.instruction_count for f in self.functions.values())

    @property
    def code_bytes(self) -> int:
        return self.instruction_count * INSTRUCTION_BYTES

    @property
    def data_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self.objects.values())

    def copy(self) -> "LambdaProgram":
        """Deep copy (instructions are immutable and shared)."""
        clone = LambdaProgram(self.name, entry=self.entry,
                              headers_used=list(self.headers_used),
                              scratch_registers=self.scratch_registers)
        for function in self.functions.values():
            clone.add_function(Function(function.name, list(function.body)))
        for obj in self.objects.values():
            clone.add_object(
                MemoryObject(obj.name, obj.size_bytes, obj.access, obj.hot, obj.region)
            )
        return clone

    def validate(self) -> None:
        """Check intra-program references (calls, labels, objects).

        A program that passed is not checked again.
        """
        if self.validated:
            return
        if self.entry not in self.functions:
            raise ValueError(f"entry function {self.entry!r} not defined")
        for function in self.functions.values():
            decoded = function.decoded
            known = {"call": self.functions, "label": decoded.labels,
                     "object": self.objects}
            for kind, name, _ in decoded.references:
                if name not in known[kind]:
                    raise ValueError(
                        f"{function.name!r} {_UNDEFINED[kind]} {name!r}")
        self.validated = True

    def __repr__(self) -> str:
        return (
            f"<LambdaProgram {self.name!r} funcs={len(self.functions)} "
            f"instrs={self.instruction_count} objects={len(self.objects)}>"
        )

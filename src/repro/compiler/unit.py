"""Compilation units: lambdas + dispatch metadata -> one firmware program.

The workload manager pairs Micro-C lambdas with the P4 match stage into
a single Match+Lambda program (paper §4.1). Here that composition is a
:class:`CompilationUnit`: the set of lambda programs, their assigned
workload IDs, and routing info. ``build_program`` materialises the
whole-firmware :class:`~repro.isa.program.LambdaProgram` — parser, match
dispatch, and namespaced lambda code — which every NPU core runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..isa import Function, Instruction, LambdaProgram, Op, ins
from ..isa.analysis import headers_used as analyse_headers
from ..p4 import build_dispatch_pipeline, lower_control

#: Name of the composed firmware entry point.
FIRMWARE_ENTRY = "main"
#: Namespace separator for lambda-private functions and objects.
SEP = "."


class CompileError(Exception):
    """Raised when composition or resource checks fail."""


def qualify(lambda_name: str, inner: str) -> str:
    return f"{lambda_name}{SEP}{inner}"


def rewrite_instruction(
    instruction: Instruction,
    function_map: Dict[str, str],
    object_map: Dict[str, str],
) -> Instruction:
    """Rename call targets and memory-object references."""
    if instruction.op is Op.CALL:
        target = instruction.args[0]
        if target in function_map:
            return ins(Op.CALL, function_map[target], *instruction.args[1:])
        return instruction
    new_args: List[Any] = []
    changed = False
    for arg in instruction.args:
        if isinstance(arg, tuple) and len(arg) == 3 and arg[0] == "mem":
            mapped = object_map.get(arg[1])
            if mapped is not None:
                new_args.append(("mem", mapped, arg[2]))
                changed = True
                continue
        new_args.append(arg)
    if not changed:
        return instruction
    return Instruction(instruction.op, tuple(new_args))


def rewrite_function(
    function: Function,
    new_name: str,
    function_map: Dict[str, str],
    object_map: Dict[str, str],
) -> Function:
    body = [
        rewrite_instruction(instruction, function_map, object_map)
        for instruction in function.body
    ]
    return Function(new_name, body)


@dataclass
class CompilationUnit:
    """Everything needed to build (and rebuild) the firmware program."""

    lambdas: Dict[str, LambdaProgram] = field(default_factory=dict)
    lambda_ids: Dict[str, int] = field(default_factory=dict)
    route_ports: Dict[str, str] = field(default_factory=dict)
    #: Functions hoisted out of individual lambdas by coalescing.
    shared_functions: Dict[str, Function] = field(default_factory=dict)
    #: Pass flags toggled by the optimisation pipeline.
    merged_routes: bool = False
    if_else_tables: bool = False
    prune_parser: bool = False
    #: (firmware, its liveness) a pass built from the unit as it returns
    #: it; ``compile_unit`` takes it instead of building again.
    built: Optional[Tuple[LambdaProgram, Any]] = field(
        default=None, repr=False, compare=False)
    #: (lambda, function) -> (body, function map, object map, the
    #: namespaced Function): a body no pass replaced since the last
    #: build is not rewritten again. Not copied: each compile starts
    #: from a copy, so rewrites are shared only within one compile.
    _rewritten: Dict[Tuple[str, str], tuple] = field(
        default_factory=dict, repr=False, compare=False)

    def add_lambda(
        self,
        program: LambdaProgram,
        wid: int,
        route_port: str = "p0",
    ) -> None:
        if program.name in self.lambdas:
            raise CompileError(f"duplicate lambda {program.name!r}")
        if wid in self.lambda_ids.values():
            raise CompileError(f"duplicate workload id {wid}")
        program.validate()
        self.lambdas[program.name] = program.copy()
        self.lambda_ids[program.name] = wid
        self.route_ports[program.name] = route_port

    # -- composition -------------------------------------------------------

    def headers_used(self) -> List[str]:
        used = set()
        for program in self.lambdas.values():
            used |= analyse_headers(program)
        return sorted(used)

    def build_pipeline(self):
        headers = self.headers_used() if self.prune_parser else None
        if headers is None:
            # Unpruned: parse the full canonical application chain.
            headers = ["RpcHeader", "RdmaHeader", "ServerHdr"]
        return build_dispatch_pipeline(
            self.lambda_ids,
            headers_used=headers,
            route_ports=self.route_ports,
            merged_routes=self.merged_routes,
        )

    def build_program(self) -> LambdaProgram:
        """Materialise the composed firmware program."""
        if not self.lambdas:
            raise CompileError("no lambdas to compile")
        pipeline = self.build_pipeline()
        scratch = frozenset().union(
            *(program.scratch_registers for program in self.lambdas.values())
        )
        firmware = LambdaProgram("firmware", entry=FIRMWARE_ENTRY,
                                 scratch_registers=scratch)

        # Entry: parse, then dispatch. Dispatch ends with a packet verdict.
        firmware.add_function(
            Function(
                FIRMWARE_ENTRY,
                [
                    ins(Op.CALL, "parse"),
                    ins(Op.CALL, "match_dispatch"),
                    ins(Op.TO_HOST),
                ],
            )
        )
        if self.prune_parser:
            # Optimised: one shared parser covering only used headers.
            firmware.add_function(pipeline.parser.generate_function("parse"))
        else:
            # Naive composition: each new lambda ships its own parse
            # stage (paper §5.1); "parse" simply runs them all.
            calls = []
            for lambda_name in self.lambdas:
                per_lambda = pipeline.parser.generate_function(
                    f"parse_{lambda_name}"
                )
                firmware.add_function(per_lambda)
                calls.append(ins(Op.CALL, f"parse_{lambda_name}"))
            calls.append(ins(Op.RET))
            firmware.add_function(Function("parse", calls))
        firmware.add_function(
            lower_control(
                pipeline.control,
                name="match_dispatch",
                use_if_else_tables=self.if_else_tables,
            )
        )

        for shared_name, shared in self.shared_functions.items():
            firmware.add_function(Function(shared_name, list(shared.body)))

        for lambda_name, program in self.lambdas.items():
            function_map = {
                inner: qualify(lambda_name, inner)
                for inner in program.functions
                if inner != program.entry
            }
            object_map = {
                inner: qualify(lambda_name, inner) for inner in program.objects
            }
            for inner_name, function in program.functions.items():
                key = (lambda_name, inner_name)
                cached = self._rewritten.get(key)
                if cached is None or cached[0] is not function.body \
                        or cached[1] != function_map \
                        or cached[2] != object_map:
                    public = (
                        lambda_name
                        if inner_name == program.entry
                        else function_map[inner_name]
                    )
                    cached = self._rewritten[key] = (
                        function.body, function_map, object_map,
                        rewrite_function(function, public, function_map,
                                         object_map))
                firmware.add_function(cached[3])
            for obj in program.objects.values():
                namespaced = obj.__class__(
                    qualify(lambda_name, obj.name),
                    obj.size_bytes,
                    obj.access,
                    obj.hot,
                    obj.region,
                )
                firmware.add_object(namespaced)

        firmware.validate()
        return firmware

    def copy(self) -> "CompilationUnit":
        clone = CompilationUnit(
            lambdas={name: program.copy() for name, program in self.lambdas.items()},
            lambda_ids=dict(self.lambda_ids),
            route_ports=dict(self.route_ports),
            shared_functions={
                name: Function(name, list(function.body))
                for name, function in self.shared_functions.items()
            },
            merged_routes=self.merged_routes,
            if_else_tables=self.if_else_tables,
            prune_parser=self.prune_parser,
        )
        return clone

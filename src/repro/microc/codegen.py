"""Code generation: Micro-C AST -> lambda IR.

The mapping is deliberately direct (one AST node -> a few NPU
instructions) because that is what the restricted language is *for*:

* locals live in registers (r8-r13 — at most six, a documented
  restriction of the target);
* expression temporaries use r1-r7;
* globals are flat-memory objects; indexed access requires word
  (``uint64_t``/``int``) arrays — byte buffers move via ``memcpy`` and
  intrinsics, as on the real NPU;
* there is no division, recursion, or floating point (paper §3.1b).

Builtins: ``forward() drop() to_host() emit() reply(n) hash(x)
memcpy(dst, src, n) memcpy(dst, doff, src, soff, n)`` plus any
registered interpreter intrinsic called as ``name(object, arg...)``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Union

from ..isa import (
    AccessMode,
    LambdaProgram,
    Op,
    ProgramBuilder,
    intrinsic_registered,
)
from ..isa.builder import FunctionBuilder
from .ast import (
    Assign,
    BinOp,
    Call,
    ExprStatement,
    GlobalArray,
    HeaderField,
    If,
    Index,
    MetaField,
    Node,
    Number,
    Program,
    Return,
    TYPE_BYTES,
    Var,
    VarDecl,
    While,
)
from .errors import CodegenError
from .parser import parse

Operand = Union[str, int]

_BINOPS = {
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL,
    "&": Op.AND, "|": Op.OR, "^": Op.XOR,
    "<<": Op.SHL, ">>": Op.SHR,
}

#: Branch emitted for the *false* path of each relational operator.
#: ``beq/bne/blt/bge`` compare (a, b); for > and <= we swap operands.
_FALSE_BRANCH = {
    "==": ("bne", False),
    "!=": ("beq", False),
    "<": ("bge", False),
    ">=": ("blt", False),
    ">": ("bge", True),   # a > b  false when b >= a
    "<=": ("blt", True),  # a <= b false when b < a
}

LOCAL_REGISTERS = ["r8", "r9", "r10", "r11", "r12", "r13"]
TEMP_REGISTERS = ["r1", "r2", "r3", "r4", "r5", "r6", "r7"]


class _FunctionCodegen:
    """Generates IR for one function body."""

    def __init__(self, compiler: "Compiler", fn: FunctionBuilder) -> None:
        self.compiler = compiler
        self.fn = fn
        self.locals: Dict[str, str] = {}
        self.free_temps: List[str] = list(reversed(TEMP_REGISTERS))
        self.labels = itertools.count(1)

    # -- register management -------------------------------------------

    def acquire_temp(self) -> str:
        if not self.free_temps:
            raise CodegenError(
                "expression too deep: out of temporary registers"
            )
        return self.free_temps.pop()

    def release(self, operand: Operand) -> None:
        if isinstance(operand, str) and operand in TEMP_REGISTERS and \
                operand not in self.free_temps:
            self.free_temps.append(operand)

    def fresh_label(self, hint: str) -> str:
        return f"{self.fn.name}_{hint}{next(self.labels)}"

    # -- statements --------------------------------------------------------

    def gen_body(self, statements: List[Node]) -> None:
        for statement in statements:
            self.gen_statement(statement)

    def gen_statement(self, statement: Node) -> None:
        if isinstance(statement, VarDecl):
            if statement.name in self.locals:
                raise CodegenError(f"duplicate local {statement.name!r}")
            if len(self.locals) >= len(LOCAL_REGISTERS):
                raise CodegenError(
                    f"too many locals (max {len(LOCAL_REGISTERS)}): "
                    "NPU threads have a fixed register file"
                )
            register = LOCAL_REGISTERS[len(self.locals)]
            self.locals[statement.name] = register
            if statement.value is not None:
                value = self.gen_expr(statement.value)
                self.fn.mov(register, value)
                self.release(value)
        elif isinstance(statement, Assign):
            self.gen_assign(statement)
        elif isinstance(statement, If):
            self.gen_if(statement)
        elif isinstance(statement, While):
            self.gen_while(statement)
        elif isinstance(statement, Return):
            if statement.value is None:
                self.fn.ret()
            else:
                value = self.gen_expr(statement.value)
                self.fn.ret(value)
                self.release(value)
        elif isinstance(statement, ExprStatement):
            value = self.gen_expr(statement.expr, allow_void=True)
            self.release(value)
        else:  # pragma: no cover - parser produces no other nodes
            raise CodegenError(f"cannot generate {statement!r}")

    def gen_assign(self, statement: Assign) -> None:
        target = statement.target
        if isinstance(target, Var):
            register = self.locals.get(target.name)
            if register is None:
                raise CodegenError(
                    f"assignment to undeclared variable {target.name!r}"
                )
            value = self.gen_expr(statement.value)
            self.fn.mov(register, value)
            self.release(value)
        elif isinstance(target, HeaderField):
            value = self.gen_expr(statement.value)
            self.fn.hstore(target.header, target.field_name, value)
            self.release(value)
        elif isinstance(target, MetaField):
            value = self.gen_expr(statement.value)
            self.fn.mstore(target.key, value)
            self.release(value)
        elif isinstance(target, Index):
            offset = self.gen_word_offset(target)
            value = self.gen_expr(statement.value)
            self.fn.store(target.array, offset, value)
            self.release(offset)
            self.release(value)
        else:  # pragma: no cover
            raise CodegenError(f"invalid assignment target {target!r}")

    def gen_condition_false_branch(self, op: str, left: Node, right: Node,
                                   label: str) -> None:
        a = self.gen_expr(left)
        b = self.gen_expr(right)
        mnemonic, swap = _FALSE_BRANCH[op]
        first, second = (b, a) if swap else (a, b)
        getattr(self.fn, mnemonic)(first, second, label)
        self.release(a)
        self.release(b)

    def gen_if(self, statement: If) -> None:
        orelse = self.fresh_label("else")
        end = self.fresh_label("endif")
        self.gen_condition_false_branch(
            statement.op, statement.left, statement.right, orelse
        )
        self.gen_body(statement.then)
        self.fn.jmp(end)
        self.fn.label(orelse)
        self.gen_body(statement.orelse)
        self.fn.label(end)

    def gen_while(self, statement: While) -> None:
        top = self.fresh_label("loop")
        end = self.fresh_label("endloop")
        self.fn.label(top)
        self.gen_condition_false_branch(
            statement.op, statement.left, statement.right, end
        )
        self.gen_body(statement.body)
        self.fn.jmp(top)
        self.fn.label(end)

    # -- expressions --------------------------------------------------------------

    def gen_expr(self, node: Node, allow_void: bool = False) -> Operand:
        if isinstance(node, Number):
            return node.value
        if isinstance(node, Var):
            register = self.locals.get(node.name)
            if register is None:
                raise CodegenError(f"undeclared variable {node.name!r}")
            return register
        if isinstance(node, HeaderField):
            temp = self.acquire_temp()
            self.fn.hload(temp, node.header, node.field_name)
            return temp
        if isinstance(node, MetaField):
            temp = self.acquire_temp()
            self.fn.mload(temp, node.key)
            return temp
        if isinstance(node, Index):
            offset = self.gen_word_offset(node)
            temp = self.acquire_temp()
            self.fn.load(temp, node.array, offset)
            self.release(offset)
            return temp
        if isinstance(node, BinOp):
            return self.gen_binop(node)
        if isinstance(node, Call):
            return self.compiler.gen_call(self, node, allow_void)
        raise CodegenError(f"cannot evaluate {node!r}")  # pragma: no cover

    def gen_binop(self, node: BinOp) -> Operand:
        if node.op in ("/", "%"):
            raise CodegenError(
                "NPU cores have no divide unit; rewrite with shifts/masks "
                "(paper §3.1b)"
            )
        op = _BINOPS[node.op]
        left = self.gen_expr(node.left)
        right = self.gen_expr(node.right)
        # Constant folding for the trivial case.
        if isinstance(left, int) and isinstance(right, int):
            import operator as _operator

            fold = {
                Op.ADD: _operator.add, Op.SUB: _operator.sub,
                Op.MUL: _operator.mul, Op.AND: _operator.and_,
                Op.OR: _operator.or_, Op.XOR: _operator.xor,
                Op.SHL: _operator.lshift, Op.SHR: _operator.rshift,
            }
            return fold[op](left, right)
        destination = left if isinstance(left, str) and \
            left in TEMP_REGISTERS else self.acquire_temp()
        self.fn.emit(op, destination, left, right)
        if destination is not left:
            self.release(left)
        self.release(right)
        return destination

    def gen_word_offset(self, node: Index) -> Operand:
        """Byte offset of a word-array element (index * 8)."""
        array = self.compiler.globals.get(node.array)
        if array is None:
            raise CodegenError(f"unknown global object {node.array!r}")
        if TYPE_BYTES[array.type_name] != 8:
            raise CodegenError(
                f"indexed access to {node.array!r} requires a word array "
                "(uint64_t/int); move byte buffers with memcpy/intrinsics"
            )
        index = self.gen_expr(node.index)
        if isinstance(index, int):
            return index * 8
        destination = index if index in TEMP_REGISTERS else self.acquire_temp()
        self.fn.shl(destination, index, 3)
        return destination


class Compiler:
    """Compiles a Micro-C program into a :class:`LambdaProgram`."""

    BUILTINS = {"forward", "drop", "to_host", "emit", "reply", "hash",
                "memcpy"}

    def __init__(self, program: Program, name: Optional[str] = None) -> None:
        if not program.functions:
            raise CodegenError("program defines no functions")
        self.ast = program
        self.name = name or program.functions[0].name
        self.globals: Dict[str, GlobalArray] = {
            declaration.name: declaration for declaration in program.globals
        }
        self.function_names: Set[str] = {
            function.name for function in program.functions
        }

    def compile(self) -> LambdaProgram:
        self._reject_recursion()
        builder = ProgramBuilder(self.name, entry=self.name)
        for declaration in self.ast.globals:
            builder.object(
                declaration.name,
                declaration.size_bytes,
                AccessMode.READ if declaration.read_only
                else AccessMode.READ_WRITE,
                hot=declaration.hot,
            )
        for function in self.ast.functions:
            fn = builder.function(function.name)
            codegen = _FunctionCodegen(self, fn)
            codegen.gen_body(function.body)
            fn.ret()  # implicit return for fall-through paths
            builder.close(fn)
        return builder.build()

    def _reject_recursion(self) -> None:
        graph: Dict[str, Set[str]] = {}
        for function in self.ast.functions:
            callees: Set[str] = set()
            _collect_calls(function.body, callees)
            graph[function.name] = callees & self.function_names

        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(node: str) -> None:
            if node in done:
                return
            if node in visiting:
                raise CodegenError(
                    f"recursion through {node!r} is not supported on NPU "
                    "targets (paper §3.1b)"
                )
            visiting.add(node)
            for callee in graph.get(node, ()):
                visit(callee)
            visiting.discard(node)
            done.add(node)

        for name in graph:
            visit(name)

    # -- calls ------------------------------------------------------------------

    def gen_call(self, codegen: _FunctionCodegen, node: Call,
                 allow_void: bool) -> Operand:
        name = node.name
        fn = codegen.fn
        if name in self.function_names:
            if node.args:
                raise CodegenError(
                    "user functions take no arguments; pass state via "
                    "globals/headers/meta"
                )
            fn.call(name)
            temp = codegen.acquire_temp()
            fn.mov(temp, "r0")
            return temp
        if name == "forward":
            fn.forward()
            return 0
        if name == "drop":
            fn.drop()
            return 0
        if name == "to_host":
            fn.to_host()
            return 0
        if name == "emit":
            fn.emit_packet()
            return 0
        if name == "reply":
            if len(node.args) != 1:
                raise CodegenError("reply(n) takes the response size")
            size = codegen.gen_expr(node.args[0])
            fn.hstore("LambdaHeader", "is_response", 1)
            fn.mstore("response_bytes", size)
            codegen.release(size)
            fn.forward()
            return 0
        if name == "hash":
            if len(node.args) != 1:
                raise CodegenError("hash(x) takes one argument")
            value = codegen.gen_expr(node.args[0])
            temp = codegen.acquire_temp()
            fn.hash(temp, value)
            codegen.release(value)
            return temp
        if name == "memcpy":
            return self._gen_memcpy(codegen, node)
        if intrinsic_registered(name):
            return self._gen_intrinsic(codegen, node)
        raise CodegenError(f"unknown function or builtin {name!r}")

    def _object_arg(self, node: Node, what: str) -> str:
        if not isinstance(node, Var) or node.name not in self.globals:
            raise CodegenError(f"{what} must name a global object")
        return node.name

    def _gen_memcpy(self, codegen: _FunctionCodegen, node: Call) -> Operand:
        fn = codegen.fn
        if len(node.args) == 3:
            dst = self._object_arg(node.args[0], "memcpy destination")
            src = self._object_arg(node.args[1], "memcpy source")
            length = codegen.gen_expr(node.args[2])
            fn.memcpy(dst, 0, src, 0, length)
            codegen.release(length)
            return 0
        if len(node.args) == 5:
            dst = self._object_arg(node.args[0], "memcpy destination")
            dst_off = codegen.gen_expr(node.args[1])
            src = self._object_arg(node.args[2], "memcpy source")
            src_off = codegen.gen_expr(node.args[3])
            length = codegen.gen_expr(node.args[4])
            fn.memcpy(dst, dst_off, src, src_off, length)
            for operand in (dst_off, src_off, length):
                codegen.release(operand)
            return 0
        raise CodegenError(
            "memcpy takes (dst, src, n) or (dst, doff, src, soff, n)"
        )

    def _gen_intrinsic(self, codegen: _FunctionCodegen, node: Call) -> Operand:
        fn = codegen.fn
        args: List[object] = [node.name]
        for argument in node.args:
            if isinstance(argument, Var) and argument.name in self.globals:
                args.append(("mem", argument.name, 0))
            else:
                args.append(codegen.gen_expr(argument))
        fn.emit(Op.INTRINSIC, *args)
        for operand in args[1:]:
            if isinstance(operand, str):
                codegen.release(operand)
        return 0


def _collect_calls(statements: List[Node], into: Set[str]) -> None:
    for statement in statements:
        for child in _walk(statement):
            if isinstance(child, Call):
                into.add(child.name)


def _walk(node: Node):
    yield node
    for value in vars(node).values():
        if isinstance(value, Node):
            yield from _walk(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield from _walk(item)


def compile_microc(source: str, name: Optional[str] = None) -> LambdaProgram:
    """Compile Micro-C source text into a deployable lambda program."""
    return Compiler(parse(source), name=name).compile()

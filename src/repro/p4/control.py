"""Control blocks: the ingress logic of a Match+Lambda program.

This is the small AST behind Listing 3 in the paper::

    control ingress {
        if (valid(lambda_hdr)) {
            if (lambda_hdr.wId == WEB_SERVER_ID) { apply(web_server); ... }
            else { ... }
        } else { apply(send_pkt_to_host); }
    }

The compiler lowers the AST to NPU instructions (see
:mod:`repro.p4.lowering`); that code is what the NIC runs.
:meth:`ControlBlock.execute` interprets the AST directly: it is the
reference the lowering tests compare the NPU code against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .tables import Table

#: Verdicts produced by direct execution.
CTRL_FORWARD = "forward"
CTRL_DROP = "drop"
CTRL_TO_HOST = "to_host"
CTRL_FALLTHROUGH = "fallthrough"


class Statement:
    """Base class for control statements."""


@dataclass
class IfValid(Statement):
    """Branch on header presence (``valid(hdr)`` in P4)."""

    header: str
    then: List[Statement] = field(default_factory=list)
    orelse: List[Statement] = field(default_factory=list)


@dataclass
class IfFieldEq(Statement):
    """Branch on an exact header-field comparison."""

    header: str
    field_name: str
    value: Any
    then: List[Statement] = field(default_factory=list)
    orelse: List[Statement] = field(default_factory=list)


@dataclass
class ApplyTable(Statement):
    """Apply a match-action table."""

    table: Table


@dataclass
class InvokeLambda(Statement):
    """Call a lambda entry function, then forward its response."""

    name: str


@dataclass
class SendToHost(Statement):
    """Punt the packet to the host OS network stack."""


@dataclass
class Forward(Statement):
    """Forward (emit the response) immediately."""


@dataclass
class Drop(Statement):
    """Discard the packet."""


class ControlBlock:
    """An ordered list of statements with direct-execution semantics."""

    def __init__(self, statements: Optional[List[Statement]] = None,
                 name: str = "ingress") -> None:
        self.name = name
        self.statements = statements or []

    def execute(
        self,
        headers: Dict[str, Dict[str, Any]],
        meta: Dict[str, Any],
        invoke: Callable[[str], str],
    ) -> str:
        """Run the control logic; ``invoke(name)`` runs a lambda and
        returns its verdict. Returns the final packet verdict."""
        return self._run(self.statements, headers, meta, invoke)

    def _run(self, statements, headers, meta, invoke) -> str:
        for statement in statements:
            if isinstance(statement, IfValid):
                branch = (
                    statement.then
                    if statement.header in headers
                    else statement.orelse
                )
                verdict = self._run(branch, headers, meta, invoke)
                if verdict != CTRL_FALLTHROUGH:
                    return verdict
            elif isinstance(statement, IfFieldEq):
                header = headers.get(statement.header, {})
                hit = header.get(statement.field_name) == statement.value
                branch = statement.then if hit else statement.orelse
                verdict = self._run(branch, headers, meta, invoke)
                if verdict != CTRL_FALLTHROUGH:
                    return verdict
            elif isinstance(statement, ApplyTable):
                statement.table.lookup(headers, meta)
            elif isinstance(statement, InvokeLambda):
                verdict = invoke(statement.name)
                if verdict in (CTRL_DROP, CTRL_TO_HOST):
                    return verdict
                return CTRL_FORWARD
            elif isinstance(statement, SendToHost):
                return CTRL_TO_HOST
            elif isinstance(statement, Forward):
                return CTRL_FORWARD
            elif isinstance(statement, Drop):
                return CTRL_DROP
            else:
                raise TypeError(f"unknown statement {statement!r}")
        return CTRL_FALLTHROUGH

    def tables(self) -> List[Table]:
        """All tables applied anywhere in the block."""
        found: List[Table] = []

        def walk(statements):
            for statement in statements:
                if isinstance(statement, ApplyTable):
                    found.append(statement.table)
                elif isinstance(statement, (IfValid, IfFieldEq)):
                    walk(statement.then)
                    walk(statement.orelse)

        walk(self.statements)
        return found

    def invoked_lambdas(self) -> List[str]:
        """Names of lambdas reachable from this control block."""
        found: List[str] = []

        def walk(statements):
            for statement in statements:
                if isinstance(statement, InvokeLambda):
                    found.append(statement.name)
                elif isinstance(statement, (IfValid, IfFieldEq)):
                    walk(statement.then)
                    walk(statement.orelse)

        walk(self.statements)
        return found

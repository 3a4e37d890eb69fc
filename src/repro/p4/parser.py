"""P4-style packet parsers.

A :class:`ParserSpec` is a chain of extract states. λ-NIC auto-generates
the parser from the headers each lambda actually uses (paper
contribution #3), so developers never write packet-processing logic.

Parsing has two faces here:

* ``parse(packet)`` — structural: turn a simulated packet's header stack
  into the ``headers``/``meta`` dicts lambdas operate on.
* ``generate_function()`` — costing: the equivalent NPU instruction
  sequence, which is linked into the firmware so instruction counts and
  cycle charges include parsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..isa import Function, Op, ins
from ..net.headers import header_class
from ..net.packet import Packet

#: Canonical outer-to-inner order for auto-generated parsers.
CANONICAL_ORDER = [
    "EthernetHeader",
    "IPv4Header",
    "UDPHeader",
    "TCPHeader",
    "LambdaHeader",
    "RpcHeader",
    "RdmaHeader",
    "ServerHdr",
]

#: IR instructions charged per extracted header (guard + extract cost).
_EXTRACT_PROLOGUE = 2   # mload has_X + beq
_EXTRACT_COST = 9       # modelled per-field shift/mask extraction work


@dataclass
class ParserState:
    """One extract state in the parser graph."""

    header: str
    #: Headers that may follow this one (None = accept afterwards).
    next_headers: Sequence[str] = ()

    def __post_init__(self) -> None:
        header_class(self.header)  # validate eagerly


class ParserSpec:
    """An ordered chain of parser states."""

    def __init__(self, states: Optional[List[ParserState]] = None) -> None:
        self.states = states or []

    @property
    def headers(self) -> List[str]:
        return [state.header for state in self.states]

    def parse(self, packet: Packet) -> Dict[str, Dict[str, Any]]:
        """Extract declared headers from ``packet`` into field dicts."""
        extracted: Dict[str, Dict[str, Any]] = {}
        for state in self.states:
            header = packet.headers.get(state.header)
            if header is None:
                continue
            extracted[state.header] = {
                name: getattr(header, name) for name in header.field_names()
            }
        return extracted

    def valid_meta(self, packet: Packet) -> Dict[str, Any]:
        """``has_X``/``valid_X`` metadata the firmware branches on."""
        meta: Dict[str, Any] = {}
        for state in self.states:
            present = 1 if state.header in packet.headers else 0
            meta[f"has_{state.header}"] = present
        return meta

    def generate_function(self, name: str = "parse") -> Function:
        """The NPU instruction sequence equivalent of this parser."""
        body = []
        for state in self.states:
            skip = f"{name}_skip_{state.header}"
            body.append(ins(Op.MLOAD, "r12", ("meta", f"has_{state.header}")))
            body.append(ins(Op.BEQ, "r12", 0, skip))
            # Extraction cost: shift/mask work per header.
            for _ in range(_EXTRACT_COST - 1):
                body.append(ins(Op.NOP))
            body.append(ins(Op.MSTORE, ("meta", f"valid_{state.header}"), 1))
            body.append(ins(Op.LABEL, skip))
        body.append(ins(Op.RET))
        return Function(name, body)

    @property
    def instruction_count(self) -> int:
        per_header = _EXTRACT_PROLOGUE + _EXTRACT_COST
        return len(self.states) * per_header + 1  # + ret

    def __repr__(self) -> str:
        return f"<ParserSpec {'->'.join(self.headers)}>"


def generate_parser(headers_used: Sequence[str]) -> ParserSpec:
    """Auto-generate a parser covering exactly the headers lambdas use.

    The base L2-L4 chain is always parsed (the NIC must route); inner
    application headers are included only when some lambda touches them
    — this is what "match reduction" later shrinks further.
    """
    base = {"EthernetHeader", "IPv4Header", "UDPHeader", "LambdaHeader"}
    wanted = base | set(headers_used)
    unknown = wanted - set(CANONICAL_ORDER)
    if unknown:
        raise KeyError(f"no parser support for headers: {sorted(unknown)}")
    ordered = [name for name in CANONICAL_ORDER if name in wanted]
    states = [
        ParserState(name, next_headers=ordered[index + 1:index + 2])
        for index, name in enumerate(ordered)
    ]
    return ParserSpec(states)

"""Mini-P4: parsers, match-action tables, control blocks, lowering."""

from .control import (
    ApplyTable,
    CTRL_DROP,
    CTRL_FALLTHROUGH,
    CTRL_FORWARD,
    CTRL_TO_HOST,
    ControlBlock,
    Drop,
    Forward,
    IfFieldEq,
    IfValid,
    InvokeLambda,
    SendToHost,
    Statement,
)
from .lowering import lower_control, lower_table_if_else, lower_table_naive
from .parser import CANONICAL_ORDER, ParserSpec, ParserState, generate_parser
from .pipeline import (
    P4Pipeline,
    build_dispatch_pipeline,
    make_route_table,
    merge_route_tables,
)
from .tables import Action, KeyField, P4Error, Table, TableEntry

__all__ = [
    "Action",
    "ApplyTable",
    "CANONICAL_ORDER",
    "CTRL_DROP",
    "CTRL_FALLTHROUGH",
    "CTRL_FORWARD",
    "CTRL_TO_HOST",
    "ControlBlock",
    "Drop",
    "Forward",
    "IfFieldEq",
    "IfValid",
    "InvokeLambda",
    "KeyField",
    "P4Error",
    "P4Pipeline",
    "ParserSpec",
    "ParserState",
    "SendToHost",
    "Statement",
    "Table",
    "TableEntry",
    "build_dispatch_pipeline",
    "generate_parser",
    "lower_control",
    "lower_table_if_else",
    "lower_table_naive",
    "make_route_table",
    "merge_route_tables",
]

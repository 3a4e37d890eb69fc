"""The Match+Lambda programming abstraction (paper §4.1).

A :class:`MatchLambdaWorkload` is what a developer hands to λ-NIC: the
lambda program (the compiled Micro-C function), plus declarative
dispatch information — the framework assigns the workload ID, generates
the match rule and the parser, and handles placement. Developers never
write packet-processing logic (paper contributions #1 and #3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..isa import LambdaProgram
from ..isa.analysis import headers_used


@dataclass
class RdmaBinding:
    """Declares that a workload's input arrives via RDMA writes."""

    object_name: str
    qp: int = 1


@dataclass
class MatchLambdaWorkload:
    """One lambda paired with its (auto-generated) match stage."""

    program: LambdaProgram
    #: Assigned by the workload manager at registration time.
    wid: Optional[int] = None
    route_port: str = "p0"
    rdma: Optional[RdmaBinding] = None

    @property
    def name(self) -> str:
        return self.program.name

    def headers(self) -> set:
        """Headers the lambda touches — drives parser generation."""
        return headers_used(self.program)

    def validate(self) -> None:
        self.program.validate()
        if self.rdma is not None and \
                self.rdma.object_name not in self.program.objects:
            raise ValueError(
                f"rdma binding references unknown object "
                f"{self.rdma.object_name!r}"
            )

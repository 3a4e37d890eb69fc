"""λ-NIC framework core: the Match+Lambda abstraction and NIC runtime."""

from .matchlambda import MatchLambdaWorkload, RdmaBinding
from .runtime import LambdaNicRuntime

__all__ = [
    "LambdaNicRuntime",
    "MatchLambdaWorkload",
    "RdmaBinding",
]

"""A generic worklist dataflow framework over :class:`~.cfg.CFG`.

A :class:`DataflowProblem` declares a direction, a meet operator, a
per-block transfer function, and a per-block *boundary* contribution.
:func:`solve` iterates to a fixpoint with a worklist seeded in reverse
postorder (forward) or postorder (backward), which converges in a
handful of passes on reducible CFGs.

States are opaque to the framework. ``None`` is reserved to mean "no
information yet" (the analysis top / unreached); transfer functions
never see ``None`` and must not mutate their input state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .cfg import CFG, BasicBlock

FORWARD = "forward"
BACKWARD = "backward"

#: Hard cap on worklist pops, as a multiple of block count. Monotone
#: transfer functions over finite lattices converge far below this; the
#: cap turns a non-monotone (buggy) problem into a loud failure instead
#: of a hang.
_MAX_VISITS_PER_BLOCK = 256


class FixpointError(RuntimeError):
    """The worklist failed to converge (non-monotone transfer?)."""


class DataflowProblem:
    """Base class for dataflow analyses."""

    #: ``FORWARD`` or ``BACKWARD``.
    direction: str = FORWARD

    #: After this many in-state updates of one block, :meth:`widen` is
    #: applied to accelerate convergence. 0 disables widening (finite
    #: lattices converge on their own).
    widen_after: int = 0

    def boundary(self, cfg: CFG, block: BasicBlock) -> Optional[Any]:
        """Extra state met into ``block``'s confluence, or None.

        Forward problems typically return the entry state for the entry
        block; backward problems return the exit state for exit blocks.
        """
        return None

    def meet(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer(self, cfg: CFG, block: BasicBlock, state: Any) -> Any:
        """Push ``state`` through ``block`` (input side -> output side)."""
        raise NotImplementedError

    def widen(self, old: Any, new: Any) -> Any:
        """Accelerated join for infinite-height lattices (``old ∇ new``).

        Only called once a block's in-state has been updated
        :attr:`widen_after` times; must return an upper bound of both
        arguments that cannot ascend forever.
        """
        return new

    def edge(self, cfg: CFG, source: BasicBlock, target_bid: int,
             state: Any) -> Optional[Any]:
        """Refine ``source``'s out-state along the edge to ``target_bid``.

        Forward problems only. Returning ``None`` marks the edge
        *infeasible* (e.g. a branch whose condition the analysis proves
        can never take it), which is treated like an unreached source.
        """
        return state


@dataclass
class DataflowResult:
    """Fixpoint states per block.

    For forward problems ``in_states`` is the state at block entry and
    ``out_states`` at block exit; for backward problems ``in_states``
    is the state *before* the block in execution order (the analysis
    result at block entry) and ``out_states`` the state after it.
    A ``None`` state means the block was never reached by the analysis.
    """

    in_states: Dict[int, Any] = field(default_factory=dict)
    out_states: Dict[int, Any] = field(default_factory=dict)
    #: Number of worklist visits until the fixpoint — bounded for any
    #: monotone problem (the property tests assert this).
    iterations: int = 0

    def before(self, bid: int) -> Any:
        return self.in_states.get(bid)

    def after(self, bid: int) -> Any:
        return self.out_states.get(bid)


def solve(cfg: CFG, problem: DataflowProblem) -> DataflowResult:
    """Run ``problem`` over ``cfg`` to a fixpoint."""
    result = DataflowResult()
    blocks = cfg.blocks
    if not blocks:
        return result
    forward = problem.direction == FORWARD

    in_states: Dict[int, Any] = {block.bid: None for block in blocks}
    out_states: Dict[int, Any] = {block.bid: None for block in blocks}

    order = cfg.reverse_postorder() if forward else cfg.postorder()
    work = deque(order)
    queued = set(order)
    visits = 0
    limit = _MAX_VISITS_PER_BLOCK * max(1, len(blocks))
    updates: Dict[int, int] = {}

    while work:
        visits += 1
        if visits > limit:
            raise FixpointError(
                f"dataflow did not converge after {visits} visits on "
                f"{len(blocks)} blocks (function "
                f"{cfg.name!r})"
            )
        bid = work.popleft()
        queued.discard(bid)
        block = blocks[bid]

        sources = block.preds if forward else block.succs
        acc = problem.boundary(cfg, block)
        for src in sources:
            src_state = out_states[src] if forward else in_states[src]
            if src_state is None:
                continue
            if forward:
                src_state = problem.edge(cfg, blocks[src], bid, src_state)
                if src_state is None:
                    continue  # Infeasible edge.
            acc = src_state if acc is None else problem.meet(acc, src_state)
        if acc is None:
            continue  # Unreached so far.

        if forward:
            if acc == in_states[bid] and out_states[bid] is not None:
                continue
            if problem.widen_after:
                count = updates.get(bid, 0) + 1
                updates[bid] = count
                if count > problem.widen_after and in_states[bid] is not None:
                    acc = problem.widen(in_states[bid], acc)
                    if acc == in_states[bid] and out_states[bid] is not None:
                        continue
            in_states[bid] = acc
            new_out = problem.transfer(cfg, block, acc)
            if new_out != out_states[bid]:
                out_states[bid] = new_out
                for succ in block.succs:
                    if succ not in queued:
                        work.append(succ)
                        queued.add(succ)
        else:
            if acc == out_states[bid] and in_states[bid] is not None:
                continue
            out_states[bid] = acc
            new_in = problem.transfer(cfg, block, acc)
            if new_in != in_states[bid]:
                in_states[bid] = new_in
                for pred in block.preds:
                    if pred not in queued:
                        work.append(pred)
                        queued.add(pred)

    result.in_states = in_states
    result.out_states = out_states
    result.iterations = visits
    return result

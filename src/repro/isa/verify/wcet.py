"""Loop-bound inference and worst-case execution-time estimation.

The cost model is the interpreter's own
(:data:`~repro.isa.instructions.BASE_CYCLES` per op,
:data:`~repro.isa.instructions.REGION_ACCESS_CYCLES` per memory access,
64 B DMA bursts for bulk ops), so a static bound is directly comparable
to — and must dominate — any dynamic
:attr:`~repro.isa.interpreter.ExecutionResult.cycles` observation.

Method:

* **acyclic** CFGs get the exact longest-path bound (dynamic
  programming over postorder);
* **cyclic** CFGs need loop bounds. For every natural loop the analysis
  looks for a *counted-loop* shape: a conditional branch with one
  successor outside the loop comparing a register against a
  loop-invariant operand, where that register has exactly one
  ``add``/``sub`` self-update with a constant stride inside the loop
  (and no call in the loop can clobber it). The interval analysis
  (:mod:`.intervals`) supplies the stride (a point), the counter's
  range on loop entry and the limit's range at the test; the trip count
  is maximised over the range corners (sound because the first-exit
  iteration is monotone in both endpoints for a fixed stride), plus one
  iteration of slack for test-order ambiguity. With point ranges this
  is the closed form of a counted loop; wider ranges bound loops whose
  limit comes from a declared header field, e.g. ``hload``-ed lengths;
* bounded loops yield the sound (if loose) product bound
  ``sum(block_cost x prod(enclosing loop bounds))``. When the loop
  nesting is proper the analysis also computes a *path-sensitive*
  collapse — each loop region is reduced to ``full_iterations x
  longest-single-iteration-path + longest-exit-path`` over a DAG with
  inner loops collapsed to summary nodes — and reports
  ``min(product, collapsed)``. An unbounded loop is an error and the
  WCET is unknown;
* calls add the callee's WCET (call graph processed callees-first;
  recursion is an error);
* intrinsics use their registered static cost model
  (``register_intrinsic(..., wcet=...)``); an intrinsic without one
  leaves the WCET unknown with a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..instructions import (
    BASE_CYCLES,
    Instruction,
    Op,
    REGION_ACCESS_CYCLES,
    WORD_ACCESS,
    is_mem_ref,
)
from ..interpreter import BULK_BURST_BYTES, intrinsic_wcet
from ..program import LambdaProgram
from .analyses import may_write_registers
from .cfg import ALL_MASK, BRANCH_OPS, CALL, CFG, BasicBlock, register_bit
from .intervals import Interval, IntervalStates, interval_states
from .report import Finding, Severity


@dataclass
class LoopInfo:
    """One natural loop (back edges merged by header)."""

    header: int
    blocks: FrozenSet[int]
    back_edges: List[Tuple[int, int]] = field(default_factory=list)
    #: Maximum iterations of the loop body, or None if not inferred.
    bound: Optional[int] = None
    #: The induction register the bound was derived from.
    counter: Optional[str] = None
    #: Body index of the exit-test branch used for the bound.
    exit_index: Optional[int] = None
    #: Interval-derived cap on *complete* iterations (executions of the
    #: counter update), when the update runs on every iteration. May be
    #: tighter than ``bound - 1``; used by the path-sensitive collapse.
    body_trips: Optional[int] = None

    @property
    def bounded(self) -> bool:
        return self.bound is not None


@dataclass
class WcetResult:
    """Static worst-case cycles for a whole program."""

    program: str
    #: WCET of one invocation from the entry; None when unknown.
    total_cycles: Optional[int] = None
    function_cycles: Dict[str, Optional[int]] = field(default_factory=dict)
    loops: Dict[str, List[LoopInfo]] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    #: Per-function bound method: "longest-path" (acyclic, exact),
    #: "loop-product", "path-sensitive-loops", or "unknown".
    function_method: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Loop detection and bound inference
# ---------------------------------------------------------------------------


def find_loops(
    cfg: CFG,
    program: Optional[LambdaProgram] = None,
    ranges: Optional[IntervalStates] = None,
) -> List[LoopInfo]:
    """Natural loops of ``cfg`` with inferred bounds where possible.

    ``ranges`` (an :func:`~.intervals.interval_states` result) is
    computed from ``program`` when not supplied.
    """
    back_edges = cfg.back_edges()
    if not back_edges:
        return []
    if ranges is None:
        ranges = interval_states(program.functions[cfg.name], program=program)
    by_header: Dict[int, LoopInfo] = {}
    for source, header in back_edges:
        info = by_header.get(header)
        body = cfg.natural_loop(source, header)
        if info is None:
            by_header[header] = LoopInfo(
                header=header, blocks=frozenset(body),
                back_edges=[(source, header)],
            )
        else:
            info.blocks = info.blocks | frozenset(body)
            info.back_edges.append((source, header))
    loops = [by_header[h] for h in sorted(by_header)]
    for loop in loops:
        _infer_bound(cfg, loop, program, ranges)
    return loops


#: Exit-predicate kinds over the counter value v and a limit L.
_NEGATE = {"lt": "ge", "ge": "lt", "gt": "le", "le": "gt",
           "eq": "ne", "ne": "eq"}
_BRANCH_KIND = {Op.BEQ: "eq", Op.BNE: "ne", Op.BLT: "lt", Op.BGE: "ge"}
_SWAP = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le",
         "eq": "eq", "ne": "ne"}


def _infer_bound(cfg: CFG, loop: LoopInfo,
                 program: Optional[LambdaProgram],
                 ranges: IntervalStates) -> None:
    # (bound, counter, index)
    best: Optional[Tuple[int, str, int]] = None
    for bid in sorted(loop.blocks):
        block = cfg.block(bid)
        term = block.terminator
        if term is None or term.op not in BRANCH_OPS:
            continue
        exit_kind = _exit_kind(loop, block)
        if exit_kind is None:
            continue
        index = block.instructions[-1][0]
        candidate = _interval_bound(cfg, loop, term, exit_kind, index,
                                    program, ranges)
        if candidate is None:
            continue
        bound, counter = candidate
        if best is None or bound < best[0]:
            best = (bound, counter, index)
    if best is not None:
        loop.bound, loop.counter, loop.exit_index = best
        loop.body_trips = _body_trips(cfg, loop, program, ranges)


def _exit_kind(loop: LoopInfo, block: BasicBlock) -> Optional[bool]:
    """True: loop exits when the branch is taken; False: on fallthrough.

    None when neither successor leaves the loop (not an exit test).
    """
    if block.taken is not None and block.taken not in loop.blocks:
        return True
    if block.fallthrough is not None and block.fallthrough not in loop.blocks:
        return False
    return None


def _unique_update(
    cfg: CFG,
    loop: LoopInfo,
    counter: str,
    ranges: IntervalStates,
    program: Optional[LambdaProgram],
) -> Optional[Tuple[int, int, int]]:
    """``(stride, body_index, bid)`` of ``counter``'s single in-loop update."""
    found: Optional[Tuple[int, int, int]] = None
    bit = register_bit(counter)
    for bid in loop.blocks:
        for index, instruction in cfg.block(bid).instructions:
            if not _writes(cfg, index, instruction, program) & bit:
                continue
            if found is not None or cfg.kinds[index] & CALL:
                return None  # A second update or a clobbering call.
            step = _step_of(instruction, counter, ranges, index)
            if step is None or step == 0:
                return None
            found = (step, index, bid)
    return found


def _step_of(instruction: Instruction, counter: str,
             ranges: IntervalStates, index: int) -> Optional[int]:
    op = instruction.op
    args = instruction.args
    if op not in (Op.ADD, Op.SUB) or args[0] != counter:
        return None
    if args[1] == counter:
        stride = ranges.point_before(index, args[2])
    elif op is Op.ADD and args[2] == counter:
        stride = ranges.point_before(index, args[1])
    else:
        return None
    if stride is None:
        return None
    return -stride if op is Op.SUB else stride


def _first_exit(kind: str, init: int, step: int, limit: int) -> Optional[int]:
    """Smallest k >= 1 with the exit predicate true of ``init + k*step``."""
    first = init + step
    if kind == "ne":
        return 1 if first != limit else 2  # step != 0, so k=2 differs.
    if kind == "eq":
        delta = limit - init
        if delta % step == 0 and delta // step >= 1:
            return delta // step
        return None
    if kind in ("lt", "le"):
        hit = first < limit if kind == "lt" else first <= limit
        if hit:
            return 1
        if step >= 0:
            return None  # Moving away from the exit region.
        if kind == "lt":
            k = math.floor((init - limit) / -step) + 1
        else:
            k = math.ceil((init - limit) / -step)
        return max(int(k), 1)
    # gt / ge
    hit = first > limit if kind == "gt" else first >= limit
    if hit:
        return 1
    if step <= 0:
        return None
    if kind == "gt":
        k = math.floor((limit - init) / step) + 1
    else:
        k = math.ceil((limit - init) / step)
    return max(int(k), 1)


# ---------------------------------------------------------------------------
# Interval-derived loop bounds
# ---------------------------------------------------------------------------


def _interval_bound(
    cfg: CFG,
    loop: LoopInfo,
    term: Instruction,
    exits_on_true: bool,
    test_index: int,
    program: Optional[LambdaProgram],
    ranges: IntervalStates,
) -> Optional[Tuple[int, str]]:
    """Counted-loop bound with the init/limit given by intervals.

    Sound only when the limit operand is loop-invariant (seeded header /
    metadata reads are invariant by construction — any store to them
    unseeds the range program-wide) and every range corner yields a
    finite first-exit iteration.
    """
    a, b = term.args[0], term.args[1]
    kind0 = _BRANCH_KIND[term.op]
    best: Optional[Tuple[int, str]] = None
    for counter, limit, kind in ((a, b, kind0), (b, a, _SWAP[kind0])):
        if not register_bit(counter):
            continue
        update = _unique_update(cfg, loop, counter, ranges, program)
        if update is None:
            continue
        step = update[0]
        if not _loop_invariant(cfg, loop, limit, program):
            continue
        limit_iv = ranges.range_before(test_index, limit)
        if limit_iv is None or not limit_iv.is_finite:
            continue
        init_iv = _entry_range(cfg, loop, counter, ranges)
        if init_iv is None or not init_iv.is_finite:
            continue
        if not exits_on_true:
            kind = _NEGATE[kind]
        trips = _corner_trips(kind, init_iv, step, limit_iv)
        if trips is None:
            continue
        # +1 slack: the test may observe the counter before or after
        # the update depending on loop shape; one extra body iteration
        # covers both orders.
        candidate = (trips + 1, counter)
        if best is None or candidate[0] < best[0]:
            best = candidate
    return best


def _loop_invariant(cfg: CFG, loop: LoopInfo, operand: Any,
                    program: Optional[LambdaProgram]) -> bool:
    """True when ``operand``'s value cannot change inside ``loop``.

    Literals are trivially invariant; header/metadata references only
    carry an interval when nothing in the program stores to them, so
    they are invariant whenever a range exists. A register must have no
    in-loop definition and no in-loop call that may clobber it.
    """
    bit = register_bit(operand)
    return not bit or not any(
        _writes(cfg, index, instruction, program) & bit
        for bid in loop.blocks
        for index, instruction in cfg.block(bid).instructions)


def _writes(cfg: CFG, index: int, instruction: Instruction,
            program: Optional[LambdaProgram]) -> int:
    """Registers instruction ``index`` may write (a call: its callee's)."""
    if not cfg.kinds[index] & CALL:
        return cfg.defs[index]
    return ALL_MASK if program is None \
        else may_write_registers(program, instruction.args[0])


def _entry_range(cfg: CFG, loop: LoopInfo, counter: str,
                 ranges: IntervalStates) -> Optional[Interval]:
    """Joined interval of ``counter`` over all loop-entry edges."""
    joined: Optional[Interval] = None
    header = cfg.block(loop.header)
    for pred in header.preds:
        if pred in loop.blocks:
            continue  # Back edge or in-loop path.
        state = ranges.result.after(pred)
        if state is None:
            continue  # Unreachable predecessor.
        value = state.get(counter)
        if not isinstance(value, Interval):
            return None
        joined = value if joined is None else joined.join(value)
    return joined


def _corner_trips(kind: str, init: Interval, step: int,
                  limit: Interval) -> Optional[int]:
    """Max first-exit iteration over the init/limit range corners.

    For lt/le/gt/ge the first-exit index is monotone in both the initial
    value and the limit (fixed stride), so the maximum over the four
    corners bounds every concrete pair. ``ne`` exits within two
    iterations for any fixed limit (a strictly monotone counter can
    equal it at most once); ``eq`` needs both ends pinned exactly.
    """
    if kind == "ne":
        if init.is_constant and limit.is_constant:
            return _first_exit("ne", init.lo, step, limit.lo)
        return 2
    if kind == "eq":
        if init.is_constant and limit.is_constant:
            return _first_exit("eq", init.lo, step, limit.lo)
        return None
    trips: List[int] = []
    for start in {init.lo, init.hi}:
        for lim in {limit.lo, limit.hi}:
            k = _first_exit(kind, start, step, lim)
            if k is None:
                return None  # Some corner never exits: unbounded.
            trips.append(k)
    return max(trips)


def _body_trips(cfg: CFG, loop: LoopInfo,
                program: Optional[LambdaProgram],
                ranges: IntervalStates) -> Optional[int]:
    """Interval-derived cap on executions of the counter update.

    Each update observes a distinct counter value (the unique update is
    the counter's only in-loop definition, so consecutive observations
    differ by exactly the stride); all observations lie in the counter's
    fixpoint interval at the update, so at most
    ``(hi - lo) // |stride| + 1`` updates can run. This caps *complete*
    iterations only when the update executes on every path from the
    header to a back edge.
    """
    if loop.counter is None:
        return None
    update = _unique_update(cfg, loop, loop.counter, ranges, program)
    if update is None:
        return None
    step, index, bid = update
    if not _on_every_iteration(cfg, loop, bid):
        return None
    observed = ranges.range_before(index, loop.counter)
    if observed is None or not observed.is_finite:
        return None
    return (observed.hi - observed.lo) // abs(step) + 1


def _on_every_iteration(cfg: CFG, loop: LoopInfo, update_bid: int) -> bool:
    """True when every header-to-back-edge path passes ``update_bid``."""
    if update_bid == loop.header:
        return True
    sources = {source for source, _header in loop.back_edges}
    if loop.header in sources:
        return False  # Self-edge iteration skips the update block.
    if sources == {update_bid}:
        return True
    # Flood-fill the loop from the header with the update block removed;
    # any back-edge source still reachable has an update-free iteration.
    seen: Set[int] = set()
    stack = [loop.header]
    while stack:
        bid = stack.pop()
        for succ in cfg.block(bid).succs:
            if (succ == update_bid or succ == loop.header
                    or succ not in loop.blocks or succ in seen):
                continue
            seen.add(succ)
            stack.append(succ)
    return not (sources & seen)


# ---------------------------------------------------------------------------
# WCET estimation
# ---------------------------------------------------------------------------


def _instruction_wcet(
    program: LambdaProgram,
    instruction: Instruction,
    index: int,
    ranges: IntervalStates,
    callee_wcet: Dict[str, Optional[int]],
    findings: List[Finding],
    function_name: str,
) -> Optional[int]:
    op = instruction.op
    cycles = BASE_CYCLES[op]
    if op in WORD_ACCESS:
        memref = instruction.args[WORD_ACCESS[op][0]]
        obj = program.objects.get(memref[1]) if is_mem_ref(memref) else None
        if obj is not None:
            cycles += REGION_ACCESS_CYCLES[obj.region]
        return cycles
    if op is Op.MEMCPY:
        dst_ref, src_ref, length = instruction.args
        n = ranges.point_before(index, length)
        dst = program.objects.get(dst_ref[1]) if is_mem_ref(dst_ref) else None
        src = program.objects.get(src_ref[1]) if is_mem_ref(src_ref) else None
        if n is None:
            sizes = [o.size_bytes for o in (dst, src) if o is not None]
            n = min(sizes) if sizes else BULK_BURST_BYTES
            # A proven upper range on the length can only tighten the
            # object-size fallback (longer copies fault, not cost).
            length_iv = ranges.range_before(index, length)
            if length_iv is not None and length_iv.hi is not None:
                n = min(n, max(length_iv.hi, 0))
        bursts = max(1, math.ceil(max(n, 0) / BULK_BURST_BYTES))
        for obj in (src, dst):
            if obj is not None:
                cycles += bursts * REGION_ACCESS_CYCLES[obj.region]
        return cycles
    if op is Op.INTRINSIC:
        name = instruction.args[0]
        model = intrinsic_wcet(name)
        if model is None:
            findings.append(Finding(
                severity=Severity.WARNING,
                code="no-wcet-model",
                message=f"intrinsic {name!r} has no static cost model; "
                        "WCET is unknown",
                function=function_name,
                index=index,
                instruction=repr(instruction),
            ))
            return None
        reader = lambda operand: ranges.point_before(index, operand)  # noqa: E731
        try:
            return cycles + int(model(program, instruction.args[1:], reader))
        except Exception as exc:
            findings.append(Finding(
                severity=Severity.WARNING,
                code="no-wcet-model",
                message=f"cost model for intrinsic {name!r} failed: {exc}",
                function=function_name,
                index=index,
                instruction=repr(instruction),
            ))
            return None
    if op is Op.CALL:
        callee = callee_wcet.get(instruction.args[0])
        if callee is None:
            return None
        return cycles + callee
    return cycles


def _function_wcet(
    program: LambdaProgram,
    name: str,
    cfg: CFG,
    ranges: IntervalStates,
    callee_wcet: Dict[str, Optional[int]],
    findings: List[Finding],
) -> Tuple[Optional[int], List[LoopInfo], str]:
    reachable = cfg.reachable()
    if not reachable:
        return 0, [], "longest-path"
    block_cost: Dict[int, Optional[int]] = {}
    for bid in reachable:
        total: Optional[int] = 0
        for index, instruction in cfg.block(bid).instructions:
            cost = _instruction_wcet(program, instruction, index, ranges,
                                     callee_wcet, findings, name)
            if cost is None:
                total = None
                break
            total += cost
        block_cost[bid] = total

    loops = find_loops(cfg, program, ranges)
    for loop in loops:
        if loop.bound is None:
            anchor = loop.exit_index
            if anchor is None:
                header_block = cfg.block(loop.header)
                anchor = header_block.instructions[0][0] \
                    if header_block.instructions else None
            findings.append(Finding(
                severity=Severity.ERROR,
                code="unbounded-loop",
                message=(
                    f"cannot bound loop with header block {loop.header} "
                    f"(no counted-loop exit test found)"
                ),
                function=name,
                index=anchor,
            ))

    if any(block_cost[bid] is None for bid in reachable):
        return None, loops, "unknown"

    if not loops:
        # Exact longest path over the acyclic reachable subgraph.
        memo: Dict[int, int] = {}
        for bid in cfg.postorder():  # Successors visited before bid.
            succ_max = max(
                (memo[s] for s in cfg.block(bid).succs if s in memo),
                default=0,
            )
            memo[bid] = block_cost[bid] + succ_max
        return memo.get(cfg.entry, 0), loops, "longest-path"

    if any(loop.bound is None for loop in loops):
        return None, loops, "unknown"

    total = 0
    for bid in reachable:
        multiplier = 1
        for loop in loops:
            if bid in loop.blocks:
                multiplier *= loop.bound
        total += block_cost[bid] * multiplier

    collapsed = _collapsed_wcet(cfg, reachable, block_cost, loops)
    if collapsed is not None and collapsed < total:
        return collapsed, loops, "path-sensitive-loops"
    return total, loops, "loop-product"


# ---------------------------------------------------------------------------
# Path-sensitive loop collapse
# ---------------------------------------------------------------------------


def _collapsed_wcet(
    cfg: CFG,
    reachable: Set[int],
    block_cost: Dict[int, Optional[int]],
    loops: List[LoopInfo],
) -> Optional[int]:
    """Longest path with each loop collapsed to a summary node.

    Bottom-up over a properly nested loop forest: a loop region becomes
    a DAG (back edges to the header removed, inner loops already
    collapsed) and is summarised as ``full_iterations x longest
    header-rooted path + longest path ending at an exit``, where
    ``full_iterations = min(bound - 1, body_trips)``. Unlike the product
    bound this charges only one path per iteration, so branchy loop
    bodies stop paying for both sides of every branch. Returns None when
    the nesting is improper or a region is not reducible to a DAG — the
    caller keeps the product bound.
    """
    for i, a in enumerate(loops):
        for b in loops[i + 1:]:
            overlap = a.blocks & b.blocks
            if not overlap:
                continue
            if a.blocks == b.blocks or not (
                    a.blocks < b.blocks or b.blocks < a.blocks):
                return None  # Shared or improperly nested bodies.

    children: Dict[int, List[LoopInfo]] = {loop.header: [] for loop in loops}
    top: List[LoopInfo] = []
    for loop in loops:
        enclosing = [outer for outer in loops
                     if outer is not loop and loop.blocks < outer.blocks]
        if enclosing:
            parent = min(enclosing, key=lambda outer: len(outer.blocks))
            children[parent.header].append(loop)
        else:
            top.append(loop)

    totals: Dict[int, Optional[int]] = {}

    def loop_total(loop: LoopInfo) -> Optional[int]:
        cached = totals.get(loop.header)
        if cached is not None or loop.header in totals:
            return cached
        value = _region_longest(
            cfg, loop.blocks, loop.header, children[loop.header],
            block_cost, loop_total, loop=loop,
        )
        totals[loop.header] = value
        return value

    return _region_longest(cfg, frozenset(reachable), cfg.entry, top,
                           block_cost, loop_total, loop=None)


def _region_longest(
    cfg: CFG,
    region: FrozenSet[int],
    start: int,
    inner: List[LoopInfo],
    block_cost: Dict[int, Optional[int]],
    loop_total: Callable[[LoopInfo], Optional[int]],
    loop: Optional[LoopInfo],
) -> Optional[int]:
    """Longest-path cost of ``region`` with ``inner`` loops collapsed.

    With ``loop`` set the region is that loop's body: edges back to the
    header are dropped and the summary ``cap x iter_max + exit_max`` is
    returned; otherwise the plain longest path from ``start``.
    """
    # Natural-loop bodies can pull in unreachable predecessor blocks;
    # only costed (reachable) blocks participate.
    region = frozenset(bid for bid in region if bid in block_cost)
    if start not in region:
        return None
    node_of: Dict[int, Tuple[str, int]] = {}
    for child in inner:
        for bid in child.blocks:
            node_of[bid] = ("loop", child.header)
    for bid in region:
        node_of.setdefault(bid, ("block", bid))
    if node_of.get(start) != ("block", start):
        return None  # Start swallowed by a child region: give up.

    cost: Dict[Tuple[str, int], int] = {}
    for child in inner:
        child_total = loop_total(child)
        if child_total is None:
            return None
        cost[("loop", child.header)] = child_total
    for bid in region:
        node = node_of[bid]
        if node[0] == "block":
            cost[node] = block_cost[bid]  # type: ignore[assignment]

    edges: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}
    exits: Set[Tuple[str, int]] = set()
    for bid in region:
        node = node_of[bid]
        block = cfg.block(bid)
        if block.is_exit:
            exits.add(node)
        for succ in block.succs:
            if succ not in region:
                exits.add(node)
                continue
            if loop is not None and succ == start:
                continue  # Iteration back edge.
            succ_node = node_of[succ]
            if succ_node != node:
                edges.setdefault(node, set()).add(succ_node)

    order = _topo_order(set(cost), edges)
    if order is None:
        return None  # Residual cycle (irreducible region).

    start_node = ("block", start)
    dist: Dict[Tuple[str, int], int] = {start_node: cost[start_node]}
    for node in order:
        base = dist.get(node)
        if base is None:
            continue
        for succ_node in edges.get(node, ()):
            candidate = base + cost[succ_node]
            if candidate > dist.get(succ_node, candidate - 1):
                dist[succ_node] = candidate

    if loop is None:
        return max(dist.values(), default=0)
    iter_max = max(dist.values(), default=0)
    exit_costs = [dist[node] for node in exits if node in dist]
    exit_max = max(exit_costs) if exit_costs else iter_max
    cap = loop.bound - 1 if loop.bound is not None else None
    if cap is None:
        return None
    if loop.body_trips is not None:
        cap = min(cap, loop.body_trips)
    return max(cap, 0) * iter_max + exit_max


def _topo_order(
    nodes: Set[Tuple[str, int]],
    edges: Dict[Tuple[str, int], Set[Tuple[str, int]]],
) -> Optional[List[Tuple[str, int]]]:
    indegree = {node: 0 for node in nodes}
    for _source, targets in edges.items():
        for target in targets:
            indegree[target] += 1
    ready = [node for node in nodes if indegree[node] == 0]
    order: List[Tuple[str, int]] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for target in edges.get(node, ()):
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    if len(order) != len(nodes):
        return None
    return order


def estimate_wcet(
    program: LambdaProgram,
    entry: Optional[str] = None,
    ranges: Optional[Dict[str, IntervalStates]] = None,
) -> WcetResult:
    """Static WCET of one invocation of ``program`` from its entry.

    ``ranges`` may supply precomputed per-function interval states;
    missing entries are computed on demand.
    """
    entry = entry or program.entry
    result = WcetResult(program=program.name)
    ranges = ranges or {}

    # Callees-first order over the call graph; recursion is an error.
    # A depth-first walk with an explicit stack: a recursive closure
    # would be a reference cycle holding the program and the result
    # until the cyclic collector ran.
    order: List[str] = []
    state: Dict[str, int] = {}  # 1 = on stack, 2 = done
    functions = program.functions
    cycles_of = result.function_cycles
    # Frames are [name, callee iterator, ok]; ok turns False when a
    # recursion cycle goes through the frame's function.
    stack: List[list] = []
    if entry in functions:
        state[entry] = 1
        stack.append([entry, iter(functions[entry].decoded.callees()), True])
    while stack:
        frame = stack[-1]
        for callee in frame[1]:
            if callee not in functions:
                continue  # Structural validation reports the bad call.
            mark = state.get(callee)
            if mark == 2:
                continue
            if mark == 1:
                frame[2] = False
                if callee not in cycles_of:
                    cycles_of[callee] = None
                continue
            state[callee] = 1
            stack.append([callee, iter(functions[callee].decoded.callees()),
                          True])
            break
        else:
            stack.pop()
            name, _, ok = frame
            state[name] = 2
            order.append(name)
            if not ok:
                result.findings.append(Finding(
                    severity=Severity.ERROR,
                    code="recursion",
                    message=f"recursive call cycle through {name!r}; "
                            "WCET is unbounded",
                    function=name,
                ))
                cycles_of[name] = None
                if stack:
                    stack[-1][2] = False

    for name in order:
        if result.function_cycles.get(name, 0) is None:
            continue  # Part of a recursion cycle.
        states = ranges.get(name) \
            or interval_states(program.functions[name], program=program)
        cycles, loops, method = _function_wcet(
            program, name, states.cfg, states,
            result.function_cycles, result.findings,
        )
        result.function_cycles[name] = cycles
        result.function_method[name] = method
        if loops:
            result.loops[name] = loops

    result.total_cycles = result.function_cycles.get(entry)
    return result

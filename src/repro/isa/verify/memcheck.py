"""Memory-bounds and isolation checks against declared regions.

Every memory operand names a declared :class:`~repro.isa.program.MemoryObject`
(structural validation catches foreign objects — the runtime
``IsolationError``). On top of that, this module proves what it can
about *offsets* using constant propagation:

* a constant offset outside the object is an **error** (the interpreter
  would raise at runtime — the verifier catches it before flashing);
* a store into a declared read-only object is an **error** (the
  ``AccessMode`` contract; the isolation the paper's §4.2.1-D2 pragma
  system promises);
* an offset constant propagation cannot pin is handed to the interval
  analysis (:mod:`.intervals`): a range proven inside the object is
  recorded as an **info**-grade ``proven-offset`` finding (e.g. a
  hash-masked index), a range proven fully outside is an **error**, and
  only a genuinely unbounded or straddling range remains a **warning**;
* per-region data footprints beyond the modelled NIC's capacity are
  **errors**.

The bounds mirror :meth:`Machine.load_word` / :meth:`Machine.store_word`
exactly: word accesses are legal at offsets ``[0, size-1]`` (partial
words are clamped), and ``memcpy`` requires ``offset + n <= size`` on
both sides.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..instructions import Op, REGION_CAPACITY_BYTES, Region, is_mem_ref
from ..program import AccessMode, LambdaProgram, MemoryObject
from .analyses import ConstantStates, NAC, constant_states
from .intervals import Interval, IntervalStates, interval_states
from .report import Finding, Severity


def _finding(severity: Severity, code: str, message: str, function: str,
             index: int, instruction: Any) -> Finding:
    return Finding(
        severity=severity,
        code=code,
        message=message,
        function=function,
        index=index,
        instruction=repr(instruction),
    )


def _word_access(
    findings: List[Finding],
    program: LambdaProgram,
    function: str,
    index: int,
    instruction: Any,
    memref: Tuple[str, str, Any],
    offset_value: Any,
    is_write: bool,
    offset_range: Optional[Interval] = None,
) -> None:
    obj = program.objects.get(memref[1])
    if obj is None:
        return  # Structural validation reports undefined objects.
    kind = "store" if is_write else "load"
    if is_write and obj.access is AccessMode.READ:
        findings.append(_finding(
            Severity.ERROR, "readonly-store",
            f"store into read-only object {obj.name!r}",
            function, index, instruction,
        ))
    if not is_write and obj.access is AccessMode.WRITE:
        findings.append(_finding(
            Severity.WARNING, "writeonly-load",
            f"load from write-only object {obj.name!r}",
            function, index, instruction,
        ))
    if offset_value is NAC:
        size = obj.size_bytes
        r = offset_range
        if r is not None and r.lo is not None and r.hi is not None \
                and r.lo >= 0 and r.hi < size:
            findings.append(_finding(
                Severity.INFO, "proven-offset",
                f"{kind} offset into {obj.name!r} proven in {r} "
                f"(object size {size} B)",
                function, index, instruction,
            ))
            return
        if r is not None and ((r.lo is not None and r.lo >= size)
                              or (r.hi is not None and r.hi < 0)):
            findings.append(_finding(
                Severity.ERROR, f"oob-{kind}",
                f"{kind} offset into {obj.name!r} proven in {r}, entirely "
                f"outside the object (size {size} B)",
                function, index, instruction,
            ))
            return
        detail = f"; best known range {r}" if r is not None \
            and (r.lo is not None or r.hi is not None) else ""
        findings.append(_finding(
            Severity.WARNING, "unknown-offset",
            f"cannot bound {kind} offset into {obj.name!r} "
            f"({obj.size_bytes} B){detail}",
            function, index, instruction,
        ))
        return
    if not isinstance(offset_value, int):
        findings.append(_finding(
            Severity.ERROR, f"oob-{kind}",
            f"non-integer {kind} offset {offset_value!r} into {obj.name!r}",
            function, index, instruction,
        ))
        return
    if offset_value < 0 or offset_value >= obj.size_bytes:
        findings.append(_finding(
            Severity.ERROR, f"oob-{kind}",
            f"{kind} at {obj.name}[{offset_value}] is outside the object "
            f"(size {obj.size_bytes} B)",
            function, index, instruction,
        ))


def _memcpy_side(
    findings: List[Finding],
    program: LambdaProgram,
    function: str,
    index: int,
    instruction: Any,
    memref: Tuple[str, str, Any],
    offset_value: Any,
    length_value: Any,
    is_write: bool,
    offset_range: Optional[Interval] = None,
    length_range: Optional[Interval] = None,
) -> None:
    obj = program.objects.get(memref[1])
    if obj is None:
        return
    if is_write and obj.access is AccessMode.READ:
        findings.append(_finding(
            Severity.ERROR, "readonly-store",
            f"memcpy writes read-only object {obj.name!r}",
            function, index, instruction,
        ))
    if offset_value is NAC or length_value is NAC:
        size = obj.size_bytes
        ro, rn = offset_range, length_range
        if isinstance(offset_value, int):
            ro = Interval(offset_value, offset_value)
        if isinstance(length_value, int):
            rn = Interval(length_value, length_value)
        if ro is not None and rn is not None \
                and ro.lo is not None and ro.lo >= 0 \
                and rn.lo is not None and rn.lo >= 0 \
                and ro.hi is not None and rn.hi is not None \
                and ro.hi + rn.hi <= size:
            findings.append(_finding(
                Severity.INFO, "proven-offset",
                f"memcpy range in {obj.name!r} proven within "
                f"[{ro.lo}, {ro.hi + rn.hi}] (object size {size} B)",
                function, index, instruction,
            ))
            return
        if ro is not None and rn is not None and (
                (ro.lo is not None and rn.lo is not None
                 and ro.lo + rn.lo > size)
                or (ro.hi is not None and ro.hi < 0)):
            findings.append(_finding(
                Severity.ERROR, "oob-memcpy",
                f"memcpy range in {obj.name!r} proven out of bounds "
                f"(offset {ro}, length {rn}, object size {size} B)",
                function, index, instruction,
            ))
            return
        findings.append(_finding(
            Severity.WARNING, "unknown-offset",
            f"cannot bound memcpy range in {obj.name!r}",
            function, index, instruction,
        ))
        return
    if not isinstance(offset_value, int) or not isinstance(length_value, int):
        return
    if offset_value < 0 or offset_value + length_value > obj.size_bytes:
        findings.append(_finding(
            Severity.ERROR, "oob-memcpy",
            f"memcpy range {obj.name}[{offset_value}:"
            f"{offset_value + length_value}] exceeds the object "
            f"(size {obj.size_bytes} B)",
            function, index, instruction,
        ))


def region_footprint(program: LambdaProgram) -> Dict[str, int]:
    """Data bytes per region (region value -> bytes)."""
    footprint: Dict[str, int] = {}
    for obj in program.objects.values():
        key = obj.region.value
        footprint[key] = footprint.get(key, 0) + obj.size_bytes
    return footprint


def check_memory(
    program: LambdaProgram,
    consts: Optional[Dict[str, ConstantStates]] = None,
    ranges: Optional[Dict[str, IntervalStates]] = None,
) -> List[Finding]:
    """All memory-safety findings for ``program``.

    ``consts`` and ``ranges`` may supply precomputed per-function
    constant / interval states (keyed by function name) to avoid
    re-solving; missing entries are computed on demand.
    """
    findings: List[Finding] = []
    consts = dict(consts) if consts else {}
    ranges = dict(ranges) if ranges else {}

    for name, function in program.functions.items():
        analysis = consts.get(name)
        if analysis is None:
            analysis = constant_states(function)
            consts[name] = analysis
        intervals = ranges.get(name)
        if intervals is None:
            intervals = interval_states(function, cfg=analysis.cfg,
                                        program=program)
            ranges[name] = intervals
        range_of = intervals.range_before

        for index, instruction in enumerate(function.body):
            op = instruction.op
            if op in (Op.LOAD, Op.LOADD):
                memref = instruction.args[-1]
                if is_mem_ref(memref):
                    offset = analysis.value_before(index, memref[2])
                    _word_access(findings, program, name, index, instruction,
                                 memref, offset, is_write=False,
                                 offset_range=range_of(index, memref[2]))
            elif op in (Op.STORE, Op.STORED):
                memref = instruction.args[-2] if op is Op.STORE \
                    else instruction.args[0]
                if is_mem_ref(memref):
                    offset = analysis.value_before(index, memref[2])
                    _word_access(findings, program, name, index, instruction,
                                 memref, offset, is_write=True,
                                 offset_range=range_of(index, memref[2]))
            elif op is Op.MEMCPY:
                dst_ref, src_ref, length = instruction.args
                length_value = analysis.value_before(index, length)
                length_range = range_of(index, length)
                if is_mem_ref(dst_ref):
                    dst_off = analysis.value_before(index, dst_ref[2])
                    _memcpy_side(findings, program, name, index, instruction,
                                 dst_ref, dst_off, length_value, is_write=True,
                                 offset_range=range_of(index, dst_ref[2]),
                                 length_range=length_range)
                if is_mem_ref(src_ref):
                    src_off = analysis.value_before(index, src_ref[2])
                    _memcpy_side(findings, program, name, index, instruction,
                                 src_ref, src_off, length_value,
                                 is_write=False,
                                 offset_range=range_of(index, src_ref[2]),
                                 length_range=length_range)
            elif op is Op.INTRINSIC:
                _check_intrinsic(findings, program, name, index, instruction)

    for obj in program.objects.values():
        if obj.size_bytes > _region_capacity(obj.region):
            findings.append(Finding(
                severity=Severity.ERROR,
                code="region-capacity",
                message=(
                    f"object {obj.name!r} ({obj.size_bytes} B) exceeds "
                    f"{obj.region.value} capacity"
                ),
                function=None,
            ))
    for region, capacity in REGION_CAPACITY_BYTES.items():
        used = sum(
            obj.size_bytes for obj in program.objects.values()
            if obj.region is region
        )
        if used > capacity:
            findings.append(Finding(
                severity=Severity.ERROR,
                code="region-capacity",
                message=(
                    f"{used} B placed in {region.value} exceeds its "
                    f"{capacity} B capacity"
                ),
                function=None,
            ))
    return findings


def _region_capacity(region: Region) -> int:
    # FLAT objects have not been placed yet; they ultimately cannot
    # exceed the largest backing store (EMEM).
    return REGION_CAPACITY_BYTES.get(region,
                                     REGION_CAPACITY_BYTES[Region.EMEM])


def _check_intrinsic(
    findings: List[Finding],
    program: LambdaProgram,
    function: str,
    index: int,
    instruction: Any,
) -> None:
    from ..interpreter import intrinsic_writes_memory

    name = instruction.args[0]
    for arg in instruction.args[1:]:
        if not is_mem_ref(arg):
            continue
        obj = program.objects.get(arg[1])
        if obj is None:
            continue
        if intrinsic_writes_memory(name) and obj.access is AccessMode.READ:
            findings.append(_finding(
                Severity.ERROR, "readonly-store",
                f"intrinsic {name!r} may write read-only object "
                f"{obj.name!r}",
                function, index, instruction,
            ))

"""Memory-bounds and isolation checks against declared regions.

Every memory operand names a declared :class:`~repro.isa.program.MemoryObject`
(structural validation catches foreign objects — the runtime
``IsolationError``). On top of that, this module proves what it can
about *offsets* using the interval analysis (:mod:`.intervals`):

* an offset range entirely outside the object is an **error** (the
  interpreter would raise at runtime — the verifier catches it before
  flashing);
* a range proven inside the object is fine: a constant (point) offset
  needs no comment, a wider range is recorded as an **info**-grade
  ``proven-offset`` finding (e.g. a hash-masked index);
* a genuinely unbounded or straddling range is a **warning**;
* a store into a declared read-only object is an **error** (the
  ``AccessMode`` contract; the isolation the paper's §4.2.1-D2 pragma
  system promises);
* per-region data footprints beyond the modelled NIC's capacity are
  **errors**.

The bounds mirror :meth:`Machine.load_word` / :meth:`Machine.store_word`
exactly: word accesses are legal at offsets ``[0, size-1]`` (partial
words are clamped), and ``memcpy`` requires ``offset + n <= size`` on
both sides.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..instructions import (
    Op, REGION_CAPACITY_BYTES, WORD_ACCESS, Region, is_mem_ref)
from ..program import AccessMode, LambdaProgram
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
    offset: Optional[Interval],
    is_write: bool,
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
    size = obj.size_bytes
    r = offset
    if r is not None and r.is_constant:
        if not 0 <= r.lo < size:
            findings.append(_finding(
                Severity.ERROR, f"oob-{kind}",
                f"{kind} at {obj.name}[{r.lo}] is outside the object "
                f"(size {size} B)",
                function, index, instruction,
            ))
        return
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
        f"({size} B){detail}",
        function, index, instruction,
    ))


def _memcpy_side(
    findings: List[Finding],
    program: LambdaProgram,
    function: str,
    index: int,
    instruction: Any,
    memref: Tuple[str, str, Any],
    ro: Optional[Interval],
    rn: Optional[Interval],
    is_write: bool,
) -> None:
    """Check one side of a copy: offset range ``ro``, length range ``rn``."""
    obj = program.objects.get(memref[1])
    if obj is None:
        return
    if is_write and obj.access is AccessMode.READ:
        findings.append(_finding(
            Severity.ERROR, "readonly-store",
            f"memcpy writes read-only object {obj.name!r}",
            function, index, instruction,
        ))
    size = obj.size_bytes
    if ro is not None and rn is not None \
            and ro.is_constant and rn.is_constant:
        if ro.lo < 0 or ro.lo + rn.lo > size:
            findings.append(_finding(
                Severity.ERROR, "oob-memcpy",
                f"memcpy range {obj.name}[{ro.lo}:{ro.lo + rn.lo}] "
                f"exceeds the object (size {size} B)",
                function, index, instruction,
            ))
        return
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


def region_footprint(program: LambdaProgram) -> Dict[str, int]:
    """Data bytes per region (region value -> bytes)."""
    footprint: Dict[str, int] = {}
    for obj in program.objects.values():
        key = obj.region.value
        footprint[key] = footprint.get(key, 0) + obj.size_bytes
    return footprint


def check_memory(
    program: LambdaProgram,
    ranges: Optional[Dict[str, IntervalStates]] = None,
) -> List[Finding]:
    """All memory-safety findings for ``program``.

    ``ranges`` may supply precomputed per-function interval states
    (keyed by function name) to avoid re-solving; missing entries are
    computed on demand.
    """
    findings: List[Finding] = []
    ranges = ranges or {}

    for name, function in program.functions.items():
        intervals = ranges.get(name) \
            or interval_states(function, program=program)
        range_of = intervals.range_before

        for index, instruction in enumerate(function.body):
            op = instruction.op
            if op in WORD_ACCESS:
                position, is_write = WORD_ACCESS[op]
                memref = instruction.args[position]
                if is_mem_ref(memref):
                    _word_access(findings, program, name, index, instruction,
                                 memref, range_of(index, memref[2]),
                                 is_write=is_write)
            elif op is Op.MEMCPY:
                dst_ref, src_ref, length = instruction.args
                length_range = range_of(index, length)
                for ref, is_write in ((dst_ref, True), (src_ref, False)):
                    if is_mem_ref(ref):
                        _memcpy_side(findings, program, name, index,
                                     instruction, ref, range_of(index, ref[2]),
                                     length_range, is_write=is_write)
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

"""The Match+Lambda compiler: composition, optimisation passes, codegen."""

from ..isa.verify.verifier import MAX_INSTRUCTIONS_PER_CORE
from .codegen import (
    FIRMWARE_BASE_BYTES,
    Firmware,
    NIC_MEMORY_BYTES,
    OptimizationReport,
    StageCount,
    check_resources,
    compile_unit,
    region_layout,
)
from .passes import (
    CTM_MAX_BYTES,
    EXTENDED_PASSES,
    IMEM_MAX_BYTES,
    LOCAL_MAX_BYTES,
    STANDARD_PASSES,
    dead_code_elimination,
    dead_store_elimination,
    lambda_coalescing,
    match_reduction,
    memory_stratification,
)
from .unit import (
    CompilationUnit,
    CompileError,
    FIRMWARE_ENTRY,
    qualify,
    rewrite_function,
    rewrite_instruction,
)

__all__ = [
    "CTM_MAX_BYTES",
    "CompilationUnit",
    "CompileError",
    "EXTENDED_PASSES",
    "FIRMWARE_BASE_BYTES",
    "FIRMWARE_ENTRY",
    "Firmware",
    "IMEM_MAX_BYTES",
    "LOCAL_MAX_BYTES",
    "MAX_INSTRUCTIONS_PER_CORE",
    "NIC_MEMORY_BYTES",
    "OptimizationReport",
    "STANDARD_PASSES",
    "StageCount",
    "check_resources",
    "compile_unit",
    "dead_code_elimination",
    "dead_store_elimination",
    "lambda_coalescing",
    "match_reduction",
    "memory_stratification",
    "qualify",
    "region_layout",
    "rewrite_function",
    "rewrite_instruction",
]

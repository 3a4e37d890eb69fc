"""Table 4: workload size and startup time (§6.4).

Deploys the image transformer on each backend through the full
pipeline (package, upload, download, boot/flash) and reports the
deployable-artifact size and the measured startup time.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..serverless import Testbed
from ..workloads import image_transformer_spec
from .calibration import BACKENDS, DEFAULT_CONFIG, ExperimentConfig, PAPER_TABLE4
from .harness import Cell, ExperimentReport, deploy, mib, run_scenario


def run_cell(backend: str, config: ExperimentConfig) -> Cell:
    tb = Testbed(seed=config.seed, n_workers=1)
    tb.add_backend(backend)
    spec = image_transformer_spec()

    (record,) = run_scenario(tb, lambda env: deploy(tb, [spec], backend))
    return Cell(
        workload="image_transformer",
        backend=backend,
        extra={
            "size_mib": mib(record.result.package_bytes),
            "startup_s": record.startup_seconds,
            "total_s": record.total_seconds,
        },
    )


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Regenerate Table 4."""
    config = config or DEFAULT_CONFIG
    cells: Dict[str, Cell] = {
        backend: run_cell(backend, config) for backend in BACKENDS
    }
    rows = []
    for metric, key in [("Workload size (MiB)", "size_mib"),
                        ("Startup time (s)", "startup_s")]:
        row = [metric]
        for backend in BACKENDS:
            measured = cells[backend].extra[key]
            paper = PAPER_TABLE4[backend][key]
            row.append(f"{measured:.1f} (paper {paper})")
        rows.append(row)
    return ExperimentReport(
        experiment="Table 4",
        title="factors affecting startup times (image transformer)",
        headers=["metric"] + BACKENDS,
        rows=rows,
        cells=cells,
    )

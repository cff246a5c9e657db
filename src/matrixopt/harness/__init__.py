"""Benchmark orchestration, CLI, and report emission."""

from .manifest import (
    METHOD_NAMES,
    RunRecord,
    run_manifest,
    run_method,
    write_csv,
)
from .plotting import emit_convergence_plot

__all__ = [
    "METHOD_NAMES",
    "RunRecord",
    "emit_convergence_plot",
    "run_manifest",
    "run_method",
    "write_csv",
]

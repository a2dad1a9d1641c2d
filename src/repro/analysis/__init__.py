"""Static verification and lint framework for compiled PUMA programs.

Layers (see ``docs/analysis.md``):

* :mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow` — per-stream
  control-flow graphs and word-precise register dataflow;
* :mod:`repro.analysis.commgraph` — NoC flows and shared-memory traffic;
* :mod:`repro.analysis.depgraph` — the reusable static dependence graph,
  including the :class:`ExecutionTape` cross-check the engine runs;
* :mod:`repro.analysis.checks` — the checker suite (see
  :data:`~repro.analysis.checks.CHECK_CATALOG`);
* :mod:`repro.analysis.verifier` — entry points wired into
  ``CompilerOptions.verify`` and ``cli lint``.
"""

from repro.analysis.checks import CHECK_CATALOG, run_all
from repro.analysis.depgraph import StaticDependenceGraph
from repro.analysis.diagnostics import (
    ANALYZER_VERSION,
    AnalysisReport,
    Diagnostic,
    Location,
    Severity,
    program_digest,
)
from repro.analysis.verifier import (
    VerificationError,
    analyze_program,
    verify_program,
)

__all__ = [
    "ANALYZER_VERSION",
    "AnalysisReport",
    "CHECK_CATALOG",
    "Diagnostic",
    "Location",
    "Severity",
    "StaticDependenceGraph",
    "VerificationError",
    "analyze_program",
    "program_digest",
    "run_all",
    "verify_program",
]

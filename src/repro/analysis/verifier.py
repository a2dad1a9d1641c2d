"""Entry points: analyze a compiled program, or verify-and-raise.

``analyze_program`` builds the dependence graph, runs every checker, and
packages an :class:`~repro.analysis.diagnostics.AnalysisReport` of the
program (its clean bill digests the encoded instruction streams, on
demand).  ``verify_program`` is the compiler gate
(``CompilerOptions.verify``): same analysis, but error-severity findings
raise :class:`VerificationError`.
"""

from __future__ import annotations

from repro.analysis.checks import run_all
from repro.analysis.depgraph import StaticDependenceGraph
from repro.analysis.diagnostics import AnalysisReport
from repro.arch.config import PumaConfig
from repro.isa.program import NodeProgram


class VerificationError(RuntimeError):
    """A compiled program failed static verification with errors.

    Carries the full :class:`AnalysisReport` so callers can inspect or
    render every finding, not just the first.
    """

    def __init__(self, report: AnalysisReport) -> None:
        self.report = report
        errors = report.errors
        shown = "\n".join(str(d) for d in errors[:5])
        more = len(errors) - 5
        if more > 0:
            shown += f"\n... and {more} more"
        super().__init__(
            f"program {report.program_name!r} failed static verification "
            f"({report.summary()}):\n{shown}")


def analyze_program(program: NodeProgram,
                    config: PumaConfig) -> AnalysisReport:
    """Run the full checker suite; never raises on findings."""
    graph = StaticDependenceGraph.from_program(program, config)
    return AnalysisReport(
        diagnostics=run_all(graph),
        program_name=program.name,
        program=program)


def verify_program(program: NodeProgram,
                   config: PumaConfig) -> AnalysisReport:
    """Analyze and gate: raise :class:`VerificationError` on any error."""
    report = analyze_program(program, config)
    if report.has_errors:
        raise VerificationError(report)
    return report

"""PUMAsim: event-driven functional + timing + energy simulation.

Three execution paths share the functional semantics:

* :class:`Simulator` — the event-driven interpreter (agents, blocking
  protocol, NoC events);
* :mod:`repro.sim.tape` — the trace-replay fast path: record the resolved
  schedule of one interpreter run, replay it as a flat tape of pre-bound
  numpy operations (see :class:`TapeRecorder` / :class:`TapeReplayer`);
* :mod:`repro.sim.tapeopt` — the tape optimizer: compile a recorded tape
  into a shorter plan (dead stores and register writes eliminated,
  store→load forwarding, adjacent ops fused, independent MVMs batched over
  their programmed boxes) replayed by :class:`OptimizedReplayer`, bitwise
  identical to the tape it came from.
"""

from repro.sim.simulator import SimulationDeadlock, Simulator
from repro.sim.stats import SimulationStats
from repro.sim.tape import (
    ExecutionTape,
    TapeRecorder,
    TapeReplayer,
    TapeValidationError,
    find_unsupported_op,
)
from repro.sim.tapeopt import (
    OptimizationReport,
    OptimizedReplayer,
    OptimizedTape,
    TapeOptimizationError,
    optimize_tape,
)
from repro.sim.trace import TraceEntry, TraceRecorder

__all__ = [
    "Simulator",
    "SimulationDeadlock",
    "SimulationStats",
    "TraceEntry",
    "TraceRecorder",
    "ExecutionTape",
    "TapeRecorder",
    "TapeReplayer",
    "TapeValidationError",
    "find_unsupported_op",
    "OptimizationReport",
    "OptimizedReplayer",
    "OptimizedTape",
    "TapeOptimizationError",
    "optimize_tape",
]

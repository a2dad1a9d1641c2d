"""PUMAsim: event-driven functional + timing + energy simulation.

Two executors share the functional semantics, and one kernel per op:

* :class:`Simulator` — the event-driven interpreter (agents, blocking
  protocol, NoC events);
* :class:`TapeReplayer` (:mod:`repro.sim.tape`) — the trace-replay fast
  path: record the resolved schedule of one interpreter run
  (:class:`TapeRecorder`), then replay a *plan* of it as a flat list of
  pre-bound numpy operations.  The plain tape is the identity plan;
  :mod:`repro.sim.tapeopt` compiles a recorded tape into a shorter one
  (dead stores and register writes eliminated, store→load forwarding,
  adjacent ops fused, independent MVMs batched over their programmed
  boxes), served once it matched the recording run bitwise.

Both call the VFU kernel table for ALU ops and
:meth:`repro.arch.mvmu.MVMU.rescale` after every MVM product, so
interpreter == replay == optimized holds by construction.
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
    "OptimizedTape",
    "TapeOptimizationError",
    "optimize_tape",
]

"""Continuous batching: cohorts share one node, joining at step boundaries.

Fixed-window batching makes every rider wait for the batch to *form*;
continuous batching (the key scheduling trick of modern LLM serving)
lets requests join and leave the active batch at recorded step
boundaries instead.  The tape binder (:mod:`repro.sim.tape`) makes this
an *argument choice*: every bound step is ``step(rows, flows)`` over
``array[rows, start:stop]``, so the replayer the engine builds for a
whole-batch run (``rows = slice(None)``) serves groups of lanes
("cohorts") just as well — each cohort passes its own lane-index array
and its own NoC flow dict, and cohorts sit at *different positions* of
the same op list on one shared node without observing each other
(:class:`~repro.sim.tape.TapeReplayer` says why that isolation is
exact).  The op list is whatever the engine bound: the tape's optimized
plan (:mod:`repro.sim.tapeopt`, checked when the tape was recorded), or
the plain tape when that plan was refuted.  Each lane's value trajectory
is identical to a sequential single-request replay — bitwise,
regardless of which cohorts share the node or where segment boundaries
fall (``tests/test_scheduler_properties.py``, ``tests/test_replay.py``,
``tests/test_serve_stress.py``).

**Step boundaries.**  A cohort may only join while no other cohort is
mid-segment, so boundary granularity sets refill latency, not
correctness.  Boundaries are derived from the bound plan: after the last
op that *reads* each program input's memory region — the points where a
sequence workload has consumed one conceptual input chunk — plus the end
of the plan.  A plan with one segment *is* whole-batch serving:
:class:`~repro.serve.server.WholeBatchExecutor` is that one-cohort,
one-segment case with the same two methods, which is why the server
runs one loop.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.isa.program import NodeProgram
from repro.serve.types import RunResult
from repro.sim.tapeopt import OptimizedReplayer, _mem_effects

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import InferenceEngine


class ContinuousUnsupported(RuntimeError):
    """This engine cannot serve continuous batches.

    Raised at server start for interpreter-mode engines, ``seed=None``
    engines, and RANDOM-op programs — exactly the tape-replay blockers:
    continuous batching *is* tape replay over a lane selection.
    """


def segment_boundaries(plan: Sequence, program: NodeProgram
                       ) -> tuple[int, ...]:
    """Join points: after the last read of each input's memory region.

    ``plan`` is what a replayer's ops were bound from (tape steps or
    optimized plan ops).  Returns ascending end-exclusive op indices;
    the final entry is always ``len(plan)``.  Boundary placement affects
    only how soon a freed lane can be refilled — per-lane outputs are
    invariant to it (lane isolation), which the property suite asserts
    by comparing against sequential references across cohort layouts.
    """
    regions = [(tile_id, addr, addr + length)
               for (tile_id, addr, length) in program.input_layout.values()]
    last_read: dict[int, int] = {}
    for index, op in enumerate(plan):
        for tile_id, kind, lo, width in _mem_effects(op):
            if kind != "r":
                continue
            for slot, (region_tile, start, stop) in enumerate(regions):
                if tile_id == region_tile and lo < stop and lo + width > start:
                    last_read[slot] = index
    total = len(plan)
    cuts = sorted({index + 1 for index in last_read.values()} - {total})
    return tuple(cuts) + (total,)


class Cohort:
    """A group of lanes advancing through the plan in lockstep.

    Attributes:
        lanes: the node lane indices this cohort occupies.
        tag: opaque caller payload (the server parks its pending-request
            records here).
        position: next segment index to execute.
        flows: this cohort's private per-``(destination, fifo)`` NoC
            payload queues.
    """

    __slots__ = ("lanes", "tag", "position", "flows")

    def __init__(self, lanes: np.ndarray, tag: Any) -> None:
        self.lanes = lanes
        self.tag = tag
        self.position = 0
        self.flows: dict[tuple, deque] = defaultdict(deque)

    def __len__(self) -> int:
        return int(self.lanes.size)


class ContinuousBatcher:
    """One shared node serving multiple in-flight cohorts of lanes.

    Built once at server start around a replayer the engine binds for it
    (:meth:`~repro.engine.InferenceEngine.private_replayer`); the serve
    loop then alternates ``start_cohort`` (fill free lanes from the
    queue) and ``tick`` (advance every active cohort one segment;
    collect finished cohorts and their results).

    Args:
        engine: the serving engine; must be tape-replayable (anything
            :meth:`~repro.engine.InferenceEngine.warm` can tape).
        max_lanes: node batch width = most requests in flight at once.
    """

    def __init__(self, engine: "InferenceEngine", max_lanes: int) -> None:
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        blocker = engine._replay_blocker()
        if blocker is not None:
            raise ContinuousUnsupported(
                f"continuous batching requires tape replay: {blocker}")
        replayer = engine.private_replayer(max_lanes)
        if replayer is None:  # pragma: no cover - the recording was rejected
            raise ContinuousUnsupported("no execution tape was recorded")
        self.engine = engine
        self.replayer = replayer
        self.tape = replayer.tape
        self.program = engine.program
        self.max_lanes = max_lanes
        self.execution = ("optimized"
                          if isinstance(replayer, OptimizedReplayer)
                          else "replay")
        self.boundaries = segment_boundaries(replayer.plan, self.program)
        self._free = list(range(max_lanes))
        self._cohorts: list[Cohort] = []

    # -- occupancy ---------------------------------------------------------

    @property
    def free_lanes(self) -> int:
        return len(self._free)

    def busy(self) -> bool:
        return bool(self._cohorts)

    def cohorts(self) -> list[Cohort]:
        """The active cohorts (crash handling fails their riders)."""
        return list(self._cohorts)

    # -- lifecycle of one cohort -------------------------------------------

    def start_cohort(self, rows: list[dict[str, np.ndarray]],
                     tag: Any = None) -> Cohort:
        """Admit ``rows`` (float input dicts, one per request) as a cohort.

        Everything that can reject the rows happens before a lane is
        claimed; the claimed lanes then get the per-run initialisation
        a fresh replay would perform, and the quantized inputs.
        """
        count = len(rows)
        if count == 0:
            raise ValueError("cannot start an empty cohort")
        if count > len(self._free):
            raise ValueError(f"{count} requests need {count} lanes; "
                             f"only {len(self._free)} free")
        stacked = {}
        for name, (_tile, _addr, length) in self.program.input_layout.items():
            stacked[name] = np.stack([np.asarray(row[name], dtype=np.float64)
                                      for row in rows])
            if stacked[name].shape != (count, length):
                raise ValueError(
                    f"input {name!r} expects {length} values per request, "
                    f"got shape {stacked[name].shape}")
        words = self.engine.quantize_inputs(stacked)
        lanes = np.asarray(self._free[:count], dtype=np.intp)
        del self._free[:count]
        self.replayer.begin(lanes)
        for name, values in words.items():
            self.replayer.write_input(name, values, lanes)
        cohort = Cohort(lanes, tag)
        self._cohorts.append(cohort)
        return cohort

    def tick(self) -> list[tuple[Cohort, RunResult | Exception]]:
        """Advance every active cohort one segment; return the finishers.

        Each finished entry is ``(cohort, result)`` — ``result`` a
        ``len(cohort)``-lane :class:`RunResult` read off the cohort's
        lanes (or the exception that building it raised: those riders'
        outcome, nobody else's).  Finished cohorts' lanes return to the
        free pool before this call returns, so the caller can refill
        them ahead of the next tick.
        """
        finished: list[tuple[Cohort, RunResult | Exception]] = []
        ops = self.replayer.ops
        for cohort in list(self._cohorts):
            start = (0 if cohort.position == 0
                     else self.boundaries[cohort.position - 1])
            for op in ops[start:self.boundaries[cohort.position]]:
                op(cohort.lanes, cohort.flows)
            cohort.position += 1
            if cohort.position == len(self.boundaries):
                self._cohorts.remove(cohort)
                self._free.extend(int(lane) for lane in cohort.lanes)
                self._free.sort()
                finished.append((cohort, self._result(cohort)))
        return finished

    def _result(self, cohort: Cohort) -> RunResult | Exception:
        try:
            words = {name: self.replayer.read_output(name, cohort.lanes)
                     for name in self.program.output_layout}
            # Timing stats are batch-size dependent: derived by a shadow
            # simulation on first use, cached on the tape afterwards.
            stats = self.engine._stats_for_batch(self.tape, len(cohort))
            return RunResult(words=words, fmt=self.engine.fmt, stats=stats,
                             batch=len(cohort), execution=self.execution)
        except Exception as error:  # noqa: BLE001 - these riders' outcome
            return error

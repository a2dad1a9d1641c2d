"""The typed result of the serving API.

:class:`RunResult` is everything a run produced: the fixed-point output
words exactly as they left the accelerator, dequantized float views,
the :class:`~repro.sim.stats.SimulationStats` of the pass, and
latency/energy summaries amortized over the batch.

``RunResult`` is also a read-only :class:`~collections.abc.Mapping` over
the *fixed-point* outputs, so code written against the original raw-dict
contract (``engine.run_batch(inputs)["out"]``) keeps working unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.fixedpoint import FixedPointFormat
from repro.sim.stats import SimulationStats


@dataclass(eq=False)
class RunResult(Mapping):
    """The complete result of one engine run (batched or single).

    Attributes:
        words: fixed-point output words by name, ``(length,)`` for a
            single inference or ``(batch, length)`` for a batched pass —
            bitwise what the simulator produced.
        fmt: the datapath fixed-point format (for the float views).
        stats: simulation statistics of the pass that produced this
            result — a private copy per pass, so mutating it never reaches
            the tape's cached stats or another pass's result.  For a
            request served out of a coalesced batch, these are the stats
            of the *whole* batch pass (shared by its lanes).
        batch: number of inferences in the pass.
        lane_stats: per-lane stats when the run used the sequential
            reference path (one single-input simulation per row);
            ``None`` for SIMD-over-batch passes.
        shard_stats: per-shard stats when the run was modelled across
            replica nodes (:class:`repro.serve.sharding.ShardedEngine`),
            in shard order — each the single-engine stats of that
            shard's pass; ``stats`` is then the *merged* view (cycles =
            max over the concurrent shards, energy and instruction/stall
            counters summed, ``busy_cycles`` the busiest replica's).
            ``None`` for unsharded passes.
        execution: which execution path produced the result —
            ``"optimized"`` (an ``OptimizedReplayer`` ran the tape's
            fused plan, :mod:`repro.sim.tapeopt`), ``"replay"`` (plain
            trace replay, :mod:`repro.sim.tape`: ``execution_mode=
            "replay"``, or a plan refuted at recording) or
            ``"interpreter"`` (event-driven simulation); ``None`` when
            unknown (e.g. merged across shards that took different paths).
            Purely observational: all paths are bitwise identical.

    Mapping protocol: iterating/indexing a ``RunResult`` reads ``words``,
    preserving the legacy raw-dict contract bit for bit.

    Example::

        result = engine.predict({"x": x_float})   # (batch, 64) floats
        result.outputs["out"]                     # floats, (batch, 14)
        result["out"]                             # raw fixed-point words
        result.cycles_per_inference               # batch-amortized latency
        result.lane(3).output()                   # request 3's own view
        result.execution                          # "optimized"/"interpreter"
    """

    words: dict[str, np.ndarray]
    fmt: FixedPointFormat
    stats: SimulationStats
    batch: int = 1
    lane_stats: tuple[SimulationStats, ...] | None = field(
        default=None, repr=False)
    shard_stats: tuple[SimulationStats, ...] | None = field(
        default=None, repr=False)
    execution: str | None = field(default=None, repr=False)

    # -- mapping over the fixed-point words (legacy contract) -------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self.words[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    # -- float views -------------------------------------------------------

    @cached_property
    def outputs(self) -> dict[str, np.ndarray]:
        """Dequantized float outputs by name (same shapes as ``words``)."""
        return {name: self.fmt.dequantize(values)
                for name, values in self.words.items()}

    def output(self, name: str | None = None) -> np.ndarray:
        """One float output; ``name`` may be omitted for single-output
        models."""
        if name is None:
            if len(self.words) != 1:
                raise ValueError(
                    f"model has {len(self.words)} outputs "
                    f"({sorted(self.words)}); pass a name")
            name = next(iter(self.words))
        return self.outputs[name]

    # -- latency / energy summaries ---------------------------------------

    @property
    def cycles(self) -> int:
        """End-to-end simulated cycles of the pass."""
        return self.stats.cycles

    @property
    def latency_ns(self) -> float:
        """Simulated wall time of the pass in nanoseconds."""
        return self.stats.time_ns

    @property
    def latency_s(self) -> float:
        return self.stats.time_s

    @property
    def energy_j(self) -> float:
        """Total energy of the pass in joules."""
        return self.stats.total_energy_j

    @property
    def cycles_per_inference(self) -> float:
        """Batch-amortized latency (the Fig 11c/d quantity)."""
        return self.stats.cycles / self.batch

    @property
    def energy_per_inference_j(self) -> float:
        """Batch-amortized energy per inference."""
        return self.stats.total_energy_j / self.batch

    # -- slicing -----------------------------------------------------------

    def lane(self, index: int) -> "RunResult":
        """Per-request view of one batch lane.

        Returns a :class:`RunResult` whose outputs are the 1-D row of
        ``index`` (broadcast 1-D outputs are shared).  ``stats`` and
        ``batch`` still describe the coalesced pass the lane rode in —
        per-lane stats do not exist for a SIMD-over-batch execution.
        """
        words = {name: (w if w.ndim == 1 else w[index])
                 for name, w in self.words.items()}
        return RunResult(words=words, fmt=self.fmt, stats=self.stats,
                         batch=self.batch, execution=self.execution)

    # -- presentation ------------------------------------------------------

    def summary(self, precision: int = 4) -> str:
        """Human-readable result: float outputs, then cycle/energy stats."""
        lines = [f"batch {self.batch}: "
                 f"{self.cycles_per_inference:.0f} cycles/inference, "
                 f"{self.energy_per_inference_j * 1e9:.3f} nJ/inference"]
        for name, values in self.outputs.items():
            lines.append(f"{name} = "
                         f"{np.array2string(values, precision=precision)}")
        lines.append("")
        lines.append(self.stats.summary())
        return "\n".join(lines)

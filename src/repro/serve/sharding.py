"""Sharded engine: the *model* of one batch spread over replica nodes.

PUMA's throughput story (Fig 11c/d) is spatial replication: many nodes
each hold a copy of the programmed weights and serve a slice of the
traffic.  :class:`ShardedEngine` models that node group: a
``(batch, length)`` request is split into ``num_shards`` lane subsets,
each shard runs as its own SIMD-over-batch pass, and the per-shard
results are merged into one :class:`~repro.serve.types.RunResult` whose
words are **bitwise identical** to a single-engine ``run_batch`` (the
engine's batched==sequential guarantee makes every lane independent of
its batch-mates).

The shard passes run back to back on the one engine, on the caller's
thread: a replica would share the primary's compilation, programmed
crossbars and batch-generic tape, and stats do not depend on input
values, so a shard pass on the primary *is* a replica's pass.
``num_shards`` buys a modelled quantity, not host parallelism — host
CPUs are spent by fleet workers (``PumaFleet(num_workers=N)``);
``docs/serving.md`` has the measurements behind that split.

Merged stats model the replicas running concurrently (:func:`merge_stats`:
cycles = max over shards, energy and counters summed); per-shard stats
ride on ``RunResult.shard_stats`` and ``result.lane(i)`` works exactly as
for an unsharded run.

Known limit (inherited from the batch engine): workloads using the
stochastic RANDOM op draw per-lane noise, so their sharded outputs are
reproducible but not lane-comparable to a differently-sharded run.

Usage::

    engine = InferenceEngine(model, seed=0)
    sharded = ShardedEngine(engine, num_shards=4)
    result = sharded.predict({"x": x})      # (64, n) floats
    assert result.shard_stats is not None
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.serve.types import RunResult
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine import InferenceEngine


def shard_lanes(batch: int, num_shards: int) -> list[np.ndarray]:
    """Assign batch lanes to shards; returns one index array per shard.

    Consecutive lane runs whose sizes differ by at most one
    (``np.array_split``), with the shard count clamped to the batch size:
    a 4-way engine given a 2-lane batch forms 2 shards, so every
    returned array is non-empty and together they partition
    ``range(batch)``.

    >>> [lanes.tolist() for lanes in shard_lanes(5, 2)]
    [[0, 1, 2], [3, 4]]
    >>> [lanes.tolist() for lanes in shard_lanes(2, 4)]  # clamped: no empties
    [[0], [1]]
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return list(np.array_split(np.arange(batch), min(num_shards, batch)))


def split_batch(inputs: Mapping[str, np.ndarray],
                lane_sets: Sequence[np.ndarray]
                ) -> list[dict[str, np.ndarray]]:
    """Slice a batched input dict into per-shard input dicts.

    ``(batch, length)`` inputs are split by lane; 1-D inputs (broadcast
    conditioning vectors) are passed to every shard unchanged.
    """
    arrays = {name: np.asarray(values) for name, values in inputs.items()}
    return [{name: arr[lanes] if arr.ndim == 2 else arr
             for name, arr in arrays.items()}
            for lanes in lane_sets]


def merge_stats(shard_stats: Sequence[SimulationStats]) -> SimulationStats:
    """Merge per-shard stats as concurrently-running replicas.

    Cycles take the max (the batch completes with the slowest shard);
    energy, instruction counts, stall counts, and NoC traffic sum (each
    replica really executed its pass).  ``busy_cycles`` is an occupancy,
    not a count, and same-named agents on different replicas are
    different cores: the merged view keeps, per agent, the max over
    shards — the busiest replica's occupancy — so ``utilization()`` stays
    within ``[0, 1]``; per-replica truth is on ``RunResult.shard_stats``.
    ``cycle_ns`` must agree across shards.
    """
    if not shard_stats:
        raise ValueError("merge_stats needs at least one shard")
    merged = SimulationStats(cycle_ns=shard_stats[0].cycle_ns)
    merged.cycles = max(s.cycles for s in shard_stats)
    for stats in shard_stats:
        if stats.cycle_ns != merged.cycle_ns:
            raise ValueError("shards ran at different cycle periods")
        merged.energy.merge(stats.energy)
        for total, counts in (
                (merged.dynamic_instructions, stats.dynamic_instructions),
                (merged.words_by_opcode, stats.words_by_opcode),
                (merged.stall_events, stats.stall_events)):
            for key, count in counts.items():
                total[key] = total.get(key, 0) + count
        for agent, cycles in stats.busy_cycles.items():
            merged.busy_cycles[agent] = max(
                merged.busy_cycles.get(agent, 0), cycles)
        merged.noc_flit_hops += stats.noc_flit_hops
        merged.noc_packets += stats.noc_packets
        merged.offchip_words += stats.offchip_words
    return merged


def merge_results(shard_results: Sequence[RunResult],
                  lane_sets: Sequence[np.ndarray],
                  batch: int) -> RunResult:
    """Stitch per-shard results back into one batch-ordered result.

    Lane ``lane_sets[s][j]`` of the merged words is row *j* of shard *s*
    — bitwise, no re-quantization.  Stats are merged per
    :func:`merge_stats`; the shards' own stats ride along on
    ``shard_stats``.
    """
    if len(shard_results) != len(lane_sets):
        raise ValueError(
            f"{len(shard_results)} results for {len(lane_sets)} shards")
    first = shard_results[0]
    words: dict[str, np.ndarray] = {}
    for name in first.words:
        rows = np.atleast_2d(np.asarray(first.words[name]))
        out = np.empty((batch, rows.shape[-1]), dtype=rows.dtype)
        for lanes, result in zip(lane_sets, shard_results):
            out[lanes] = np.atleast_2d(np.asarray(result.words[name]))
        words[name] = out
    executions = {r.execution for r in shard_results}
    return RunResult(
        words=words, fmt=first.fmt,
        stats=merge_stats([r.stats for r in shard_results]),
        batch=batch,
        shard_stats=tuple(r.stats for r in shard_results),
        execution=executions.pop() if len(executions) == 1 else None)


class ShardedEngine:
    """One engine modelling ``num_shards`` replicas serving a batch.

    Args:
        engine: the :class:`~repro.engine.InferenceEngine` every shard
            pass runs on.  Its model, config, crossbar model, and seed are
            what a replica node would be programmed with.
        num_shards: replica count a batch is split across.  Batches
            smaller than this form fewer shards; ``num_shards=1`` (or a
            1-lane batch) behaves exactly like the plain engine.
    """

    def __init__(self, engine: "InferenceEngine", *,
                 num_shards: int = 2) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if engine.seed is None:
            # seed=None asks every programming pass for fresh entropy, so
            # each shard pass would see *different* noisy crossbars and the
            # merged result could not equal the single-engine pass.
            raise ValueError(
                "ShardedEngine requires a seeded engine (seed is None): "
                "replicas must program identical crossbars for the merged "
                "result to be bitwise identical to the unsharded run")
        self.engine = engine
        self.num_shards = num_shards

    def predict(self, inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Float-first sharded inference (mirrors ``InferenceEngine``)."""
        return self.run_batch(self.engine.quantize_inputs(inputs))

    def run_batch(self, inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Shard, run each shard pass in order, merge — bitwise == unsharded.

        Output words equal ``self.engine.run_batch(inputs)`` bit for bit;
        ``stats`` follows the sharded-merge rules (:func:`merge_stats`)
        and ``shard_stats`` carries each shard's own pass.  A failing
        shard pass raises the engine's own exception.
        """
        self.engine._check_names(inputs)
        batch = self.engine._infer_batch(inputs)
        lane_sets = shard_lanes(batch, self.num_shards)
        if len(lane_sets) == 1:
            return self.engine.run_batch(inputs)
        return merge_results(
            [self.engine.run_batch(shard)
             for shard in split_batch(inputs, lane_sets)],
            lane_sets, batch)

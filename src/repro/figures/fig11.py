"""Figure 11: energy and latency vs CPU/GPU platforms.

(a) inference energy normalized to PUMA (batch 1);
(b) inference latency normalized to PUMA (batch 1);
(c) batch energy savings compared to Haswell (batches 16..128);
(d) batch throughput normalized to Haswell.

The Table 5 networks are too large to push through the detailed functional
simulator, so (c)/(d) use the analytic pipeline model for both sides of the
comparison.  :func:`measured_batch_rows` grounds those analytic batch rows
with *real* batched executions: the compilable Figure-4 MLP runs through
:class:`repro.engine.InferenceEngine` at every batch size, SIMD-over-batch
on the detailed simulator, and the table reports measured per-inference
cycle/energy amortization alongside a bitwise check against sequential
single-input runs.  :func:`sharded_batch_rows` extends the story past one
node: the same batch modelled across replica nodes
(:class:`repro.serve.ShardedEngine`), with merged cycles (max over the
concurrent shards) and the bitwise check against the unsharded pass.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.baselines import PLATFORMS, estimate
from repro.figures.common import format_table
from repro.perf import estimate_puma
from repro.workloads.registry import TABLE5_BENCHMARKS, benchmark

BATCH_SIZES = (16, 32, 64, 128)
MEASURED_BATCH_SIZES = (1, 16, 64)
BENCHES = tuple(TABLE5_BENCHMARKS)


@lru_cache(maxsize=8)
def _puma(name: str, batch: int = 1):
    return estimate_puma(benchmark(name), batch=batch)


@lru_cache(maxsize=64)
def _platform(name: str, platform: str, batch: int = 1):
    return estimate(benchmark(name), PLATFORMS[platform], batch=batch)


def energy_rows() -> list[dict]:
    """Fig 11(a): per-inference energy normalized to PUMA (higher = PUMA
    saves more)."""
    rows = []
    for bench in BENCHES:
        puma = _puma(bench)
        row: dict = {"Benchmark": bench}
        for platform in PLATFORMS:
            ratio = (_platform(bench, platform).energy_per_inference_j
                     / puma.energy_per_inference_j)
            row[platform] = round(ratio, 2)
        rows.append(row)
    return rows


def latency_rows() -> list[dict]:
    """Fig 11(b): latency normalized to PUMA (values < 1 mean the platform
    beats PUMA — the MLP-on-GPU case the paper highlights)."""
    rows = []
    for bench in BENCHES:
        puma = _puma(bench)
        row: dict = {"Benchmark": bench}
        for platform in PLATFORMS:
            ratio = (_platform(bench, platform).latency_per_inference_s
                     / puma.latency_per_inference_s)
            row[platform] = round(ratio, 3)
        rows.append(row)
    return rows


def batch_energy_rows() -> list[dict]:
    """Fig 11(c): PUMA batch energy savings relative to Haswell."""
    rows = []
    for bench in BENCHES:
        row: dict = {"Benchmark": bench}
        for batch in BATCH_SIZES:
            haswell = _platform(bench, "Haswell", batch)
            puma = _puma(bench, batch)
            row[f"B{batch}"] = round(
                haswell.energy_per_inference_j
                / puma.energy_per_inference_j, 1)
        rows.append(row)
    return rows


def batch_throughput_rows() -> list[dict]:
    """Fig 11(d): PUMA batch throughput normalized to Haswell."""
    rows = []
    for bench in BENCHES:
        row: dict = {"Benchmark": bench}
        for batch in BATCH_SIZES:
            haswell = _platform(bench, "Haswell", batch)
            puma = _puma(bench, batch)
            row[f"B{batch}"] = round(
                puma.throughput_ips / haswell.throughput_ips, 1)
        rows.append(row)
    return rows


def measured_batch_rows(batch_sizes: tuple[int, ...] = MEASURED_BATCH_SIZES,
                        dims: list[int] | None = None,
                        seed: int = 0) -> list[dict]:
    """Real batched inference on the detailed simulator (MLP proxy).

    One row per batch size: simulated cycles and energy for the whole
    batch, the per-inference amortization relative to the first (smallest)
    measured batch size, and whether the batched outputs are bitwise
    identical to sequential single-input runs (they must be — the engine's
    core guarantee).
    """
    from repro.engine import InferenceEngine
    from repro.workloads.mlp import FIGURE4_MLP_DIMS, build_mlp_model

    dims = dims if dims is not None else list(FIGURE4_MLP_DIMS)
    engine = InferenceEngine(build_mlp_model(dims, seed=seed), seed=seed)
    rng = np.random.default_rng(seed)
    rows = []
    base_cycles_per_inf = base_energy_per_inf = None
    for batch in batch_sizes:
        x = engine.quantize(rng.normal(0.0, 0.5, size=(batch, dims[0])))
        batched = engine.run_batch({"x": x})
        stats = batched.stats
        cycles_per_inf = batched.cycles_per_inference
        energy_per_inf = batched.energy_per_inference_j
        if base_cycles_per_inf is None:
            base_cycles_per_inf = cycles_per_inf
            base_energy_per_inf = energy_per_inf
        sequential = engine.run_sequential({"x": x})
        exact = all(np.array_equal(batched[name], sequential[name])
                    for name in batched)
        rows.append({
            "Batch": batch,
            "Cycles": stats.cycles,
            "Cycles/inf": round(cycles_per_inf, 1),
            "Energy/inf (uJ)": round(energy_per_inf * 1e6, 3),
            "Cycle amortization": round(
                base_cycles_per_inf / cycles_per_inf, 2),
            "Energy amortization": round(
                base_energy_per_inf / energy_per_inf, 2),
            "Bitwise==sequential": exact,
        })
    return rows


def sharded_batch_rows(batch: int = 64,
                       shard_counts: tuple[int, ...] = (1, 2, 4),
                       dims: list[int] | None = None,
                       seed: int = 0) -> list[dict]:
    """Fig 11 (sharded): one batch modelled across replica nodes.

    The PUMA throughput story scales past one node by replication: each
    replica holds a copy of the programmed weights and serves a slice of
    the batch (:class:`repro.serve.ShardedEngine`).  One row per shard
    count: the merged cycle count (max over the concurrent shards), the
    modelled speedup over the unsharded pass, and the bitwise check
    against the single-engine run — the sharding layer's core guarantee.
    """
    from repro.engine import InferenceEngine
    from repro.serve import ShardedEngine
    from repro.workloads.mlp import FIGURE4_MLP_DIMS, build_mlp_model

    dims = dims if dims is not None else list(FIGURE4_MLP_DIMS)
    engine = InferenceEngine(build_mlp_model(dims, seed=seed), seed=seed)
    rng = np.random.default_rng(seed)
    x = engine.quantize(rng.normal(0.0, 0.5, size=(batch, dims[0])))
    single = engine.run_batch({"x": x})
    rows = []
    for shards in shard_counts:
        if shards == 1:
            # One shard is the unsharded pass by construction — reuse it
            # rather than re-simulating the whole batch.
            result = single
        else:
            result = ShardedEngine(
                engine, num_shards=shards).run_batch({"x": x})
        exact = all(np.array_equal(single[name], result[name])
                    for name in single)
        rows.append({
            "Shards": shards,
            "Cycles (max/shard)": result.cycles,
            "Cycles/inf": round(result.cycles_per_inference, 1),
            "Modelled speedup": round(single.cycles / result.cycles, 2),
            "Energy/inf (uJ)": round(
                result.energy_per_inference_j * 1e6, 3),
            "Bitwise==unsharded": exact,
        })
    return rows


def puma_absolute_rows() -> list[dict]:
    """The PUMA-side absolute numbers behind the figure."""
    rows = []
    for bench in BENCHES:
        puma = _puma(bench)
        rows.append({
            "Benchmark": bench,
            "Latency (ms)": round(puma.latency_s * 1e3, 3),
            "Energy (mJ)": round(puma.energy_j * 1e3, 3),
            "MVMUs": puma.mvmus_used,
            "Nodes": puma.nodes_used,
        })
    return rows


def render() -> str:
    parts = [
        format_table(energy_rows(),
                     title="Figure 11(a): inference energy normalized to "
                           "PUMA (batch 1, higher = PUMA better)"),
        format_table(latency_rows(),
                     title="Figure 11(b): inference latency normalized to "
                           "PUMA (batch 1, >1 = PUMA faster)"),
        format_table(batch_energy_rows(),
                     title="Figure 11(c): batch energy savings vs Haswell"),
        format_table(batch_throughput_rows(),
                     title="Figure 11(d): batch throughput vs Haswell"),
        format_table(measured_batch_rows(),
                     title="Figure 11 (measured): real batched runs of the "
                           "Figure-4 MLP on the detailed simulator"),
        format_table(sharded_batch_rows(),
                     title="Figure 11 (sharded): batch 64 fanned out "
                           "across engine replicas (cycles = max over "
                           "concurrent shards)"),
        format_table(puma_absolute_rows(),
                     title="PUMA absolute estimates (batch 1)"),
    ]
    return "\n\n".join(parts)

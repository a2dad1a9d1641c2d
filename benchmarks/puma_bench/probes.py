"""Layer probes: one model driven through each layer's public functions.

``cold_run`` is the paper user's loop (recompile, reprogram,
resimulate) and is both the ``sim_cold_sweep`` op and, with a span log,
the source of the ``compiler`` / ``analysis`` / ``arch`` /
``sim.simulator`` / ``energy`` / ``node`` metrics on every workload.
``engine_probes`` and ``store_probes`` time the replay, optimizer,
engine and artifact-store entry points of a tapeable model.

Every probe returns a flat ``{metric name: value}`` dict; callers sum
or average across the workload's models.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro import InferenceEngine
from repro.analysis import StaticDependenceGraph, verify_program
from repro.engine import clear_compile_cache, clear_tape_caches
from repro.sim.tapeopt import optimize_tape

from puma_bench.measure import SpanLog, median, now
from puma_bench.models import CONFIG, ModelCase
from puma_bench.pool import InputPool

COLD_SPANS = ("compile", "verify", "program", "interpret")


def cold_run(case: ModelCase, inputs: dict, spans: SpanLog | None = None,
             rid: int | None = None):
    """Clear the caches, then compile -> verify -> program -> interpret.

    Untraced, the verifier runs inside the compile call
    (``verify=True``), as a user would run it.  Traced, the same two
    steps are called separately so each gets its own span.  Returns
    ``(compiled, result, diagnostics)``; ``diagnostics`` is ``None``
    untraced.
    """
    clear_compile_cache()
    clear_tape_caches()
    diagnostics = None
    if spans is None:
        compiled = case.compile(True)
        engine = case.engine("interpret", compiled)
        engine.warm()
        return compiled, engine.predict(inputs), diagnostics
    t0 = now()
    compiled = case.compile(False)
    t1 = now()
    diagnostics = len(verify_program(compiled.program, CONFIG).diagnostics)
    t2 = now()
    engine = case.engine("interpret", compiled)
    engine.warm()
    t3 = now()
    result = engine.predict(inputs)
    t4 = now()
    for name, start, end in zip(COLD_SPANS, (t0, t1, t2, t3),
                                (t1, t2, t3, t4)):
        spans.span(name, start, end, parent=f"cold:{case.name}", rid=rid)
    return compiled, result, diagnostics


def cold_metrics(spans: SpanLog, last: dict) -> dict[str, float]:
    """Fold traced cold runs into the compile-to-interpret layer metrics.

    Times are the median over sweeps (spans sharing a ``rid``) of each
    step summed over the models; counts come from ``last``, the
    ``cold_run`` return values of one sweep keyed by model name
    (simulated statistics do not vary between sweeps).
    """
    by_sweep: dict[int, dict[str, float]] = {}
    for name, start, end, parent, rid in spans.spans:
        if name in COLD_SPANS and parent.startswith("cold:"):
            steps = by_sweep.setdefault(rid, dict.fromkeys(COLD_SPANS, 0.0))
            steps[name] += (end - start) * 1e3
    step_ms = {name: median([steps[name] for steps in by_sweep.values()])
               for name in COLD_SPANS}
    programs = [compiled.program for compiled, _r, _d in last.values()]
    stats = [result.stats for _c, result, _d in last.values()]
    dynamic = sum(s.total_instructions for s in stats)
    return {
        "compiler.compile_ms": step_ms["compile"],
        "compiler.static_instructions":
            sum(program.total_instructions() for program in programs),
        "compiler.mvmus_used": sum(len(p.weights) for p in programs),
        "analysis.verify_ms": step_ms["verify"],
        "analysis.diagnostics": sum(d for _c, _r, d in last.values()),
        "arch.program_ms": step_ms["program"],
        "arch.busy_cycles": sum(sum(s.busy_cycles.values()) for s in stats),
        "sim.simulator.interpret_ms": step_ms["interpret"],
        "sim.simulator.instr_per_host_s":
            dynamic / (step_ms["interpret"] / 1e3),
        "sim.simulator.dynamic_instructions": dynamic,
        "sim.simulator.stall_events":
            sum(sum(s.stall_events.values()) for s in stats),
        "energy.mvm_nj": sum(s.energy.mvm for s in stats) * 1e9,
        "energy.non_mvm_nj":
            sum(s.energy.total - s.energy.mvm for s in stats) * 1e9,
        "node.noc_flit_hops": sum(s.noc_flit_hops for s in stats),
        "node.noc_packets": sum(s.noc_packets for s in stats),
    }


def cold_probe(cases: list[ModelCase], pools: dict[str, InputPool],
               spans: SpanLog, sweeps: int) -> dict[str, float]:
    """``sweeps`` traced cold runs over ``cases``, folded into metrics."""
    log = SpanLog()
    for rid in range(sweeps):
        last = {case.name: cold_run(case, pools[case.name].arrays[0],
                                    log, rid)
                for case in cases}
    spans.spans.extend(log.spans)
    return cold_metrics(log, last)


def _median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = now()
        call()
        times.append((now() - t0) * 1e3)
    return median(times)


def optimized_replay_ms(engine: InferenceEngine, quantized: dict,
                        repeats: int) -> dict[int, float]:
    """Median ``run_batch`` time per batch size on the optimized plan."""
    engine.warm(batch=16)
    times = {}
    for batch, inputs in quantized.items():
        first = engine.run_batch(inputs)     # derives stats, bitwise probe
        if first.execution != "optimized":
            raise AssertionError(
                f"batch {batch} ran {first.execution!r}, not the "
                f"optimized plan")
        times[batch] = _median_ms(lambda: engine.run_batch(inputs), repeats)
    return times


def quantized_batches(pool: InputPool, batches) -> dict[int, dict]:
    quantize = CONFIG.core.fixed_point.quantize
    return {batch: {name: quantize(rows[:batch] if batch > 1 else rows[0])
                    for name, rows in pool.matrix.items()}
            for batch in batches}


def engine_probes(case: ModelCase, pool: InputPool,
                  repeats: int) -> dict[str, float]:
    """Tape record/replay, the optimizer, and the engine's own steps.

    Uses a ``"replay"`` engine for the plain tape and an ``"auto"``
    engine for the optimized plan; ``optimize_tape`` is also called
    directly so its cost is seen apart from the first optimized run.
    """
    metrics: dict[str, float] = {}
    floats = {batch: {name: rows[:batch] if batch > 1 else rows[0]
                      for name, rows in pool.matrix.items()}
              for batch in (1, 16)}
    quantized = quantized_batches(pool, (1, 16, 64))

    replay = case.engine("replay")
    replay.warm()
    t0 = now()
    replay.warm(batch=16)
    metrics["sim.tape.record_ms"] = (now() - t0) * 1e3
    for batch in (1, 16):
        replay.run_batch(quantized[batch])      # derive stats, bind
        metrics[f"sim.tape.replay_b{batch}_ms"] = _median_ms(
            lambda: replay.run_batch(quantized[batch]), repeats)

    tape = next(iter(replay.compiled.execution_tapes.values()))
    graph = StaticDependenceGraph.from_program(replay.program, CONFIG)
    t0 = now()
    report = optimize_tape(tape, graph).report
    metrics["sim.tapeopt.optimize_ms"] = (now() - t0) * 1e3
    metrics["sim.tapeopt.source_steps"] = report.source_steps
    metrics["sim.tapeopt.plan_ops"] = report.plan_ops
    metrics["sim.tapeopt.mvm_groups"] = report.mvm_groups

    auto = case.engine("auto")
    for batch, ms in optimized_replay_ms(auto, quantized, repeats).items():
        metrics[f"sim.tapeopt.replay_b{batch}_ms"] = ms
    for batch in (1, 16):
        metrics[f"engine.predict_b{batch}_ms"] = _median_ms(
            lambda: auto.predict(floats[batch]), repeats)
    words = auto.run_batch(quantized[1]).words
    metrics["engine.validate_ms"] = _median_ms(
        lambda: auto.validate_request(floats[1]), repeats)
    metrics["engine.quantize_ms"] = _median_ms(
        lambda: [auto.quantize(values) for values in floats[1].values()],
        repeats)
    metrics["engine.dequantize_ms"] = _median_ms(
        lambda: [auto.dequantize(values) for values in words.values()],
        repeats)
    return metrics


def store_probes(case: ModelCase, work_dir: Path,
                 pool: InputPool) -> dict[str, float]:
    """``save_artifacts`` / ``from_artifacts`` round trip, checked bitwise."""
    engine = case.engine("auto")
    engine.warm(batch=16)
    target = Path(work_dir) / f"probe-{case.name}"
    t0 = now()
    saved = engine.save_artifacts(target)
    save_ms = (now() - t0) * 1e3
    t0 = now()
    loaded = InferenceEngine.from_artifacts(saved)
    load_ms = (now() - t0) * 1e3
    if not pool.matches(0, loaded.predict(pool.arrays[0]).words):
        raise AssertionError(f"{case.name}: artifact-loaded engine "
                             f"differs from the reference")
    size = sum(f.stat().st_size for f in saved.rglob("*") if f.is_file())
    shutil.rmtree(saved)
    return {"store.save_ms": save_ms, "store.load_ms": load_ms,
            "store.artifact_bytes": float(size)}

"""One run of one workload: set-up, warm-up, five timed segments.

``run_timed`` produces the seven end-to-end metrics with the span log
off.  ``run_traced`` is a separate run that peels the stack from its
outermost public entry point inwards and produces the per-layer
metrics.  Both return a *record*: a JSON-able dict that ``cli`` prints,
writes to ``--out`` and that ``compare`` reads back.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from puma_bench.fleet import FleetHttpClosed2, FleetQueueOpen250
from puma_bench.loadgen import Phase
from puma_bench.measure import (
    REPO_ROOT,
    SEGMENTS,
    SpanLog,
    cpu_seconds,
    host_record,
    median,
    now,
    peak_rss_mb,
    percentile,
)
from puma_bench.server import ServerLstmClosed64
from puma_bench.sweep import SimColdSweep
from puma_bench.workload import Workload

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FleetHttpClosed2, FleetQueueOpen250,
                              ServerLstmClosed64, SimColdSweep)}
SCHEMA = "puma_bench/1"
# Set-up is repeated and its median reported, so that a single slow
# spawn or page-cache miss does not read as a set-up regression.
SETUPS = 3
TRACE_OVERHEAD_LIMIT = 0.10
SPAN_COVERAGE_LIMIT = 0.05


class InvalidRun(RuntimeError):
    """The run measured a cold or saturated system; it reports nothing."""


def declared() -> dict:
    """``BENCHMARK.json``: the names and units this harness must print."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _metric(values, unit: str) -> dict:
    """A per-segment metric: the median, with min and max as spread."""
    return {"value": median(values), "unit": unit,
            "min": min(values), "max": max(values)}


def _single(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit, "min": value, "max": value}


def _record(workload: Workload, seconds: float, trace: int,
            started: float) -> dict:
    return {"schema": SCHEMA, "workload": workload.name,
            "loop": workload.loop, "seed": workload.seed,
            "seconds": seconds, "trace": trace, "smoke": workload.smoke,
            "started_unix": started, "host": host_record()}


async def run_timed(workload: Workload, seconds: float,
                    process_started: float) -> dict:
    """Set-up (x3), warm-up, five timed segments, validity checks."""
    record = _record(workload, seconds, 0, time.time())
    workload.prepare()
    prepared = now()
    setup_times = []
    try:
        for attempt in range(1 if workload.smoke else SETUPS):
            if attempt:
                await workload.teardown()
            # Each set-up starts from a collected heap: what the previous
            # one left as cyclic garbage otherwise decides peak memory.
            gc.collect()
            t0 = now()
            await workload.setup()
            setup_times.append(now() - t0)
        pids = workload.worker_pids()
        first_op_after = now() - process_started
        gc.collect()
        gc.freeze()     # the harness's own garbage is not the system's
        phases: list[Phase] = []
        cpu_s: list[float] = []
        warm = True
        counters = await workload.counters()
        for _ in range(SEGMENTS):
            cpu_before = cpu_seconds(pids)
            phases.append(await workload.segment(seconds / SEGMENTS))
            cpu_s.append(cpu_seconds(pids) - cpu_before)
            after = await workload.counters()
            warm = warm and after == counters
            counters = after
        rss_mb = peak_rss_mb(pids)
    finally:
        gc.unfreeze()
        await workload.teardown()

    # A system that cannot keep up trips the rule in every segment.  One
    # tripped segment is a stall at its end: the record shows it, and the
    # median over segments is not moved by it.
    saturated = sum(phase.saturated for phase in phases) > 1
    attempted = sum(phase.attempted for phase in phases)
    ok = sum(phase.ok for phase in phases)
    cycles, energy_nj = workload.modelled()
    record.update({
        "warm": warm, "saturated": saturated,
        "attempted": attempted, "failed": attempted - ok,
        "phases": [workload.warmup.line()]
        + [f"segment {k}: {phase.line()}"
           for k, phase in enumerate(phases, 1)],
        "setup_times_s": setup_times,
        "reference_s": prepared - process_started,
        "process_to_first_op_s": first_op_after,
        "counters": counters,
    })
    if not workload.smoke:
        if not warm:
            raise InvalidRun(f"{workload.name}: warm=false -- a tape or "
                             f"compile counter moved inside a timed "
                             f"segment: {counters}")
        if saturated:
            raise InvalidRun(f"{workload.name}: saturated -- the open loop "
                             f"fell behind its schedule")
    served = [phase for phase in phases if phase.ok]
    if not served:
        raise InvalidRun(f"{workload.name}: no op succeeded: "
                         f"{phases[0].first_failure}")
    record["metrics"] = {
        "setup_s": _metric(setup_times, "s"),
        "latency_p50_ms": _metric(
            [percentile(p.latencies_ms(), 50) for p in served], "ms"),
        "throughput_ops_s": _metric(
            [p.ok / p.wall_s for p in served], "ops/s"),
        "correct_share": _single(ok / attempted, "ratio"),
        "modelled_cycles": _single(cycles, "cycles"),
        "modelled_energy_nj": _single(energy_nj, "nJ"),
        "peak_rss_mb": _single(rss_mb, "MB"),
    }
    # Demoted from the end-to-end set (see README, "Demoted metrics"):
    # printed and recorded by every timed run, bounded by nothing.
    record["diagnostics"] = {
        "client.latency_p95_ms": _metric(
            [percentile(p.latencies_ms(), 95) for p in served], "ms"),
        "client.cpu_ms_per_op": _metric(
            [cpu * 1e3 / p.ok for cpu, p in zip(cpu_s, phases) if p.ok],
            "ms"),
    }
    return record


async def run_traced(workload: Workload, seconds: float,
                     out_dir: Path) -> dict:
    """One set-up, then the peel; writes the span log to ``out_dir``."""
    record = _record(workload, seconds, 1, time.time())
    spans = SpanLog()
    workload.prepare()
    try:
        await workload.setup()
        report = await workload.trace(seconds, spans)
    finally:
        await workload.teardown()
    attempted = sum(phase.attempted for phase in report.phases)
    ok = sum(phase.ok for phase in report.phases)
    overhead = report.traced_p50_ms / report.untraced_p50_ms - 1.0
    report.metrics["client.trace_overhead_share"] = overhead
    latencies = report.outer.latencies_ms()
    report.metrics["client.latency_p95_ms"] = percentile(latencies, 95)
    report.metrics["client.latency_p99_ms"] = percentile(latencies, 99)
    report.metrics["client.cpu_ms_per_op"] = \
        report.outer_cpu_s * 1e3 / report.outer.ok
    units = {entry["name"]: entry["unit"]
             for entry in declared()["per_layer"]}
    unknown = sorted(set(report.metrics) - set(units))
    if unknown:
        raise AssertionError(f"{workload.name} measured per-layer metrics "
                             f"BENCHMARK.json does not declare: {unknown}")
    # A layer this workload never enters reads 0 and is listed as such.
    not_exercised = sorted(set(units) - set(report.metrics))
    parts_ms = sum(ms for _step, ms in report.parts)
    record.update({
        "attempted": attempted, "failed": attempted - ok,
        "phases": [workload.warmup.line()]
        + [phase.line() for phase in report.phases],
        "waterfall": report.waterfall, "parts": report.parts,
        "untraced_p50_ms": report.untraced_p50_ms,
        "traced_p50_ms": report.traced_p50_ms,
        "trace_overhead_share": overhead,
        "trace_overhead_ok": abs(overhead) <= TRACE_OVERHEAD_LIMIT,
        "span_coverage_ok": (not report.parts or abs(
            parts_ms / report.traced_p50_ms - 1.0) <= SPAN_COVERAGE_LIMIT),
        "not_exercised": not_exercised,
        "metrics": {name: _single(float(report.metrics.get(name, 0.0)),
                                  unit)
                    for name, unit in units.items()},
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    span_path = out_dir / (f"{workload.name}-seed{workload.seed}-"
                           f"{int(record['started_unix'] * 1e3)}.spans.jsonl")
    spans.write(span_path)
    record["span_log"] = str(span_path)
    return record

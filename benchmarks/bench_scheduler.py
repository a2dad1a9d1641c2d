"""Latency-aware scheduling: EDF + continuous batching vs fixed-window FIFO.

PUMA inference is control-uniform, so a serving layer can reorder and
re-batch requests freely without changing any output bit — which makes
scheduling pure win: the only question is *which* requests wait.  This
benchmark replays one seeded mixed-priority arrival trace against two
otherwise-identical ``PumaServer`` configurations:

* **fifo** — arrival order, fixed ``batch_window_s`` hold (the
  pre-scheduler behavior, kept as the baseline);
* **edf** — priority-then-earliest-deadline order with the
  deadline-pressure early close (the PR 10 scheduler).

and asserts, always (machine-independent):

* **bitwise** — every served request equals the sequential
  single-request ``engine.predict`` reference bit for bit, under both
  policies and under continuous batching;
* **conservation** — ``admitted == dispatched + shed + drained`` with an
  empty queue at the end, for every server driven here;
* **zero drops** — the trace's deadlines are loose enough that both
  policies must serve everything.

and, gated on >= 2 usable CPUs (it is a wall-clock measurement):

* **p99 improvement** — the deadline-carrying (priority 1) cohort's p99
  latency under EDF beats the FIFO baseline.  Under a burst that
  overfills the batch window, FIFO drains urgent requests wherever they
  landed in arrival order while EDF lifts them into the first batches.

Results land in ``BENCH_PR10.json`` (uploaded by CI's scheduler smoke
job alongside the other ``BENCH_PR*.json`` artifacts).

Run:  pytest benchmarks/bench_scheduler.py -q
"""

import asyncio
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.engine import InferenceEngine
from repro.serve import PumaServer
from repro.workloads.lstm import build_lstm_model
from repro.workloads.mlp import build_mlp_model

DIMS = [96, 128, 32]
MAX_BATCH = 8
BATCH_WINDOW_S = 0.02
NUM_BURSTS = 3
BURST_SIZE = 24          # 3x the batch size: urgent order matters
BURST_GAP_S = 0.15
URGENT_FRACTION = 0.25
URGENT_DEADLINE_S = 5.0  # loose: completion is asserted, not attainment

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _record(section: str, payload: dict) -> None:
    """Merge one section into BENCH_PR10.json (tests run in any order)."""
    data = {}
    if BENCH_PATH.exists():
        data = json.loads(BENCH_PATH.read_text())
    data.setdefault("benchmark", "latency_aware_scheduler")
    data["python"] = platform.python_version()
    data["machine"] = platform.machine()
    data["usable_cpus"] = _usable_cpus()
    data[section] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {BENCH_PATH} [{section}]")


@dataclass(frozen=True)
class _Request:
    at_s: float
    seed: int
    priority: int
    deadline_s: float | None


def _mixed_trace(seed: int = 11) -> list[_Request]:
    """Seeded bursts with a deadline-carrying urgent cohort mixed in."""
    rng = np.random.default_rng(seed)
    trace: list[_Request] = []
    for burst in range(NUM_BURSTS):
        start = burst * BURST_GAP_S
        for index in range(BURST_SIZE):
            urgent = bool(rng.random() < URGENT_FRACTION)
            trace.append(_Request(
                at_s=start + float(rng.uniform(0.0, 0.002)),
                seed=seed * 100_003 + burst * 1_000 + index,
                priority=1 if urgent else 0,
                deadline_s=URGENT_DEADLINE_S if urgent else None))
    return sorted(trace, key=lambda r: r.at_s)


def _request_inputs(engine: InferenceEngine, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-1.0, 1.0, size=length)
            for name, (_tile, _addr, length)
            in sorted(engine.program.input_layout.items())}


async def _replay(server: PumaServer, engine: InferenceEngine,
                  trace: list[_Request],
                  references: dict[int, dict]) -> dict:
    """Fire the trace open-loop; per-cohort latencies + bitwise verdict."""
    latencies: dict[int, list[float]] = {0: [], 1: []}
    mismatches: list[int] = []
    errors: list[str] = []
    start = time.monotonic()

    async def fire(index: int, request: _Request) -> None:
        delay = request.at_s - (time.monotonic() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.monotonic()
        try:
            result = await server.submit(
                _request_inputs(engine, request.seed),
                deadline_s=request.deadline_s, priority=request.priority)
        except Exception as error:  # noqa: BLE001 - tallied, then asserted
            errors.append(f"request {index}: {type(error).__name__}: "
                          f"{error}")
            return
        latencies[request.priority].append(time.monotonic() - sent)
        reference = references[request.seed]
        if not all(np.array_equal(np.asarray(result.words[name]).ravel(),
                                  np.asarray(reference[name]).ravel())
                   for name in reference):
            mismatches.append(index)

    await asyncio.gather(*(fire(i, r) for i, r in enumerate(trace)))
    return {"latencies": latencies, "mismatches": mismatches,
            "errors": errors}


async def _drive_policy(policy: str, engine: InferenceEngine,
                        trace: list[_Request],
                        references: dict[int, dict]) -> dict:
    server = PumaServer(engine, max_batch_size=MAX_BATCH,
                        batch_window_s=BATCH_WINDOW_S, scheduler=policy)
    await server.start()
    try:
        outcome = await _replay(server, engine, trace, references)
        stats = server.stats()
    finally:
        await server.stop()
    scheduler = stats["scheduler"]
    conserved = (scheduler["admitted"]
                 == scheduler["dispatched"] + scheduler["shed"]
                 + scheduler["drained"])
    urgent = outcome["latencies"][1]
    background = outcome["latencies"][0]
    return {
        "policy": policy,
        "served": len(urgent) + len(background),
        "errors": outcome["errors"],
        "mismatches": outcome["mismatches"],
        "conserved": conserved,
        "scheduler": scheduler,
        "urgent_p50_ms": float(np.percentile(urgent, 50)) * 1e3,
        "urgent_p99_ms": float(np.percentile(urgent, 99)) * 1e3,
        "background_p99_ms": float(np.percentile(background, 99)) * 1e3,
    }


def test_edf_vs_fifo_p99(once):
    """Mixed-priority trace: EDF beats FIFO p99 for the urgent cohort."""

    def measure():
        engine = InferenceEngine(build_mlp_model(DIMS, seed=0), seed=0)
        engine.warm()
        trace = _mixed_trace()
        references = {
            request.seed: {
                name: np.asarray(words)
                for name, words in engine.predict(
                    _request_inputs(engine, request.seed)).words.items()}
            for request in trace}
        results = {}
        for policy in ("fifo", "edf"):
            results[policy] = asyncio.run(
                _drive_policy(policy, engine, trace, references))
        return results

    results = once(measure)
    for policy, report in results.items():
        print(f"\n{policy}: urgent p50 {report['urgent_p50_ms']:.1f} ms, "
              f"urgent p99 {report['urgent_p99_ms']:.1f} ms, "
              f"background p99 {report['background_p99_ms']:.1f} ms, "
              f"early closes {report['scheduler']['early_closes']}")
        # Correctness is unconditional: every request served, bitwise
        # equal to the sequential reference, counters conserved.
        assert not report["errors"], report["errors"]
        assert report["served"] == NUM_BURSTS * BURST_SIZE
        assert not report["mismatches"], (
            f"{policy}: requests {report['mismatches']} differ from the "
            f"sequential reference")
        assert report["conserved"], report["scheduler"]

    improvement = (results["fifo"]["urgent_p99_ms"]
                   / results["edf"]["urgent_p99_ms"])
    cpus = _usable_cpus()
    print(f"urgent-cohort p99 improvement (fifo/edf): {improvement:.2f}x "
          f"({cpus} usable CPUs)")
    _record("edf_vs_fifo", {
        "trace": {"bursts": NUM_BURSTS, "burst_size": BURST_SIZE,
                  "urgent_fraction": URGENT_FRACTION,
                  "max_batch_size": MAX_BATCH,
                  "batch_window_s": BATCH_WINDOW_S},
        "policies": results,
        "urgent_p99_improvement": improvement,
    })

    if cpus < 2:
        pytest.skip(f"wall-clock p99 comparison needs >= 2 usable CPUs, "
                    f"have {cpus} (measured {improvement:.2f}x)")
    assert improvement > 1.0, (
        f"EDF urgent p99 ({results['edf']['urgent_p99_ms']:.1f} ms) did "
        f"not beat FIFO ({results['fifo']['urgent_p99_ms']:.1f} ms)")


def test_continuous_batching_bitwise(once):
    """Continuous LSTM serving: lanes join/leave, outputs stay bitwise."""

    def measure():
        # A long sequence: each cohort is in flight across many step
        # boundaries, so staggered arrivals genuinely join mid-flight.
        engine = InferenceEngine(
            build_lstm_model(16, 24, 8, seq_len=8, seed=0), seed=3)
        engine.warm()
        seeds = [7_000 + i for i in range(12)]
        references = {
            seed: {name: np.asarray(words)
                   for name, words in engine.predict(
                       _request_inputs(engine, seed)).words.items()}
            for seed in seeds}

        async def drive():
            server = PumaServer(engine, max_batch_size=4,
                                batch_window_s=0.001, continuous=True)
            await server.start()
            mismatches = []
            executions = set()
            try:
                async def fire(index, seed):
                    # Staggered arrivals: later requests land while
                    # earlier cohorts are mid-flight, so freed lanes
                    # refill at step boundaries instead of waiting for
                    # an empty node.
                    await asyncio.sleep(index * 0.003)
                    result = await server.submit(
                        _request_inputs(engine, seed))
                    executions.add(result.execution)
                    reference = references[seed]
                    if not all(np.array_equal(
                            np.asarray(result.words[name]).ravel(),
                            np.asarray(reference[name]).ravel())
                            for name in reference):
                        mismatches.append(seed)

                await asyncio.gather(*(fire(i, seed)
                                       for i, seed in enumerate(seeds)))
                stats = server.stats()
            finally:
                await server.stop()
            return mismatches, executions, stats

        return asyncio.run(drive())

    mismatches, executions, stats = once(measure)
    scheduler = stats["scheduler"]
    print(f"\ncontinuous LSTM: {scheduler['dispatched']} served, "
          f"{scheduler['refills']} lane refills, "
          f"{stats['batches_formed']} cohorts")
    assert not mismatches, (
        f"continuous lanes differ from sequential reference: {mismatches}")
    assert executions == {"optimized"}
    assert scheduler["admitted"] == 12
    assert (scheduler["admitted"]
            == scheduler["dispatched"] + scheduler["shed"]
            + scheduler["drained"])
    _record("continuous_lstm", {
        "requests": 12,
        "max_lanes": 4,
        "refills": scheduler["refills"],
        "cohorts": stats["batches_formed"],
        "scheduler": scheduler,
    })

"""``sim_cold_sweep``: change something, recompile, resimulate.

One op is one sweep over Figure 4's compilable workloads plus the
control-flow CNN.  For each model the caches are cleared, then the model
is compiled with the verifier on, its crossbars are programmed, and one
input runs through the event-driven interpreter.  The compiler,
``analysis``, crossbar programming and the interpreter do all the work;
the tape and serving layers do none -- so a replay speed-up that adds
cost to ``Simulator._step`` shows here and nowhere else.

Outputs are checked three ways: bitwise against the harness's own
interpreter engine for the seeded inputs, against the float references
in ``repro.workloads`` within tolerance, and -- on a fixed input that
does not depend on ``--seed`` -- bitwise against the snapshot committed
under ``golden/``, together with the simulated statistics.
"""

from __future__ import annotations

import gc
import json
import math

import numpy as np

from puma_bench import probes
from puma_bench.loadgen import OpFailure, Phase, closed_loop
from puma_bench.measure import BENCH_DIR, SpanLog, cpu_seconds, median, now
from puma_bench.models import REFERENCE_ATOL, sweep_cases
from puma_bench.pool import InputPool
from puma_bench.workload import TraceReport, Workload

GOLDEN_PATH = BENCH_DIR / "golden" / "sim_cold_sweep.json"
GOLDEN_INPUT_SEED = 11
SWEEP_POOL = 8
ENERGY_RTOL = 1e-12


def simulated(result) -> dict:
    """The simulated statistics pinned per model (input-independent)."""
    return {"cycles": int(result.cycles),
            "energy_nj": result.stats.total_energy_j * 1e9,
            "dynamic_instructions": int(result.stats.total_instructions)}


def same_simulated(found: dict, golden: dict) -> bool:
    return (found["cycles"] == golden["cycles"]
            and found["dynamic_instructions"]
            == golden["dynamic_instructions"]
            and math.isclose(found["energy_nj"], golden["energy_nj"],
                             rel_tol=ENERGY_RTOL, abs_tol=0.0))


class SimColdSweep(Workload):
    name = "sim_cold_sweep"
    loop = "sequential, 1 op = one sweep over five models"

    def prepare(self) -> None:
        self.cases = sweep_cases()
        self.golden_pools: dict[str, InputPool] = {}
        for ordinal, case in enumerate(self.cases):
            engine = case.engine("interpret")
            # References one lane at a time, exactly as the op runs them
            # (RANDOM-op programs draw their noise per lane).
            self.pools[case.name] = InputPool(
                engine, self.seed, ordinal,
                size=2 if self.smoke else SWEEP_POOL, batched=False)
            self.golden_pools[case.name] = InputPool(
                engine, GOLDEN_INPUT_SEED, ordinal, size=1, batched=False)
            self.check_float_reference(case, engine)
        self.golden = (json.loads(GOLDEN_PATH.read_text())
                       if GOLDEN_PATH.exists() else None)
        self.last: dict[str, tuple] = {}

    def check_float_reference(self, case, engine) -> None:
        """Hold the harness's own references to an independent model."""
        if case.reference is None:
            return
        pool = self.pools[case.name]
        for k, inputs in enumerate(pool.arrays):
            for name, expected in case.reference(inputs).items():
                found = engine.dequantize(pool.words[name][k])
                error = float(np.max(np.abs(found - expected)))
                if error > REFERENCE_ATOL:
                    raise AssertionError(
                        f"{case.name}[{k}].{name}: {error:.3f} from the "
                        f"float reference (tolerance {REFERENCE_ATOL})")

    def golden_snapshot(self) -> dict:
        """What ``--update-golden`` commits: the harness interpreter's
        words and simulated statistics on the fixed golden input."""
        return {
            "input_seed": GOLDEN_INPUT_SEED,
            "models": {
                name: {**simulated(pool.first),
                       "words": {out: words[0].tolist()
                                 for out, words in pool.words.items()}}
                for name, pool in self.golden_pools.items()}}

    def check_golden(self) -> None:
        """One sweep on the golden input against the committed snapshot."""
        if self.golden is None:
            raise AssertionError(
                f"{GOLDEN_PATH} is missing; write it with --update-golden")
        for case in self.cases:
            pool = self.golden_pools[case.name]
            golden = self.golden["models"][case.name]
            _compiled, result, _d = probes.cold_run(case, pool.arrays[0])
            words = {name: np.asarray(values, dtype=np.int64)
                     for name, values in golden["words"].items()}
            if not (set(words) == set(result.words)
                    and all(np.array_equal(result.words[name], words[name])
                            for name in words)):
                raise AssertionError(
                    f"{case.name}: output words differ from the golden "
                    f"snapshot")
            if not same_simulated(simulated(result), golden):
                raise AssertionError(
                    f"{case.name}: simulated statistics "
                    f"{simulated(result)} differ from the golden snapshot")

    async def setup(self) -> None:
        self.check_golden()
        await self.warm_until_quiet()

    async def missing_sizes(self) -> list[tuple[str, int]]:
        return []       # nothing is batched and nothing stays cached

    async def confirm_round(self) -> None:
        self.absorb_warmup(await closed_loop(
            "warm-up", self.op, 1, iter(range(1))))

    async def teardown(self) -> None:
        pass

    async def counters(self) -> dict[str, int]:
        return {}       # every op starts from cleared caches

    async def segment(self, seconds: float) -> Phase:
        return await closed_loop("timed", self.op, 1, self.indices, seconds)

    async def op(self, i: int) -> None:
        # A cold run leaves its node graph as cyclic garbage that only the
        # cycle collector frees.  Left to the collector's own schedule the
        # heap grew to 700-800 MB and sweeps ran up to 3x slower while the
        # kernel faulted pages in, differently on every run; collecting
        # here starts every sweep from the same heap.
        start = now()
        gc.collect()
        if self.spans is not None:
            self.spans.span("collect", start, now(), None, i)
        for case in self.cases:
            pool = self.pools[case.name]
            k = i % pool.size
            found = probes.cold_run(case, pool.arrays[k], self.spans, i)
            self.last[case.name] = found
            result = found[1]
            if not pool.matches(k, result.words):
                raise OpFailure("mismatch", f"{case.name}[{k}] words differ "
                                            f"from the interpreter reference")
            if not same_simulated(simulated(result),
                                  self.golden["models"][case.name]):
                raise OpFailure("mismatch", f"{case.name}: simulated "
                                            f"statistics moved")

    async def trace(self, seconds: float, spans: SpanLog) -> TraceReport:
        report = TraceReport()
        untraced = await self.segment(seconds / 2)
        self.spans = spans
        cpu_before = cpu_seconds()
        try:
            traced = await self.segment(seconds / 2)
        finally:
            self.spans = None
        report.outer, report.outer_cpu_s = traced, cpu_seconds() - cpu_before
        untraced.name = traced.name = "sweep"
        report.phases = [untraced, traced]
        report.untraced_p50_ms = median(untraced.latencies_ms())
        report.traced_p50_ms = median(traced.latencies_ms())
        report.metrics = probes.cold_metrics(spans, self.last)
        report.parts = [(step, report.metrics[name]) for step, name in (
            ("compile_model", "compiler.compile_ms"),
            ("verify_program", "analysis.verify_ms"),
            ("InferenceEngine.warm", "arch.program_ms"),
            ("InferenceEngine.predict", "sim.simulator.interpret_ms"))]
        report.parts.append(("gc.collect (the harness's own)",
                             median(spans.durations_ms("collect"))))
        return report


def write_golden(seed: int) -> None:
    workload = SimColdSweep(seed, smoke=True, work_root=BENCH_DIR / "out")
    workload.prepare()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(workload.golden_snapshot(), indent=1, sort_keys=True)
        + "\n")

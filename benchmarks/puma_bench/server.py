"""``server_lstm_closed64``: one ``PumaServer``, 64 in-process callers.

Engine-dominated: batches are full, optimized replay is most of every
batch cycle, and there is no HTTP and no JSON.  Tape-binder, executor
and scheduler changes show here; plumbing changes must not move it.

One model only.  Two servers sharing a process contended for the
interpreter lock badly enough that identical runs differed by 20%.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import InferenceEngine, PumaServer
from repro.engine import clear_compile_cache, clear_tape_caches
from repro.serve.server import AdmissionError, DeadlineExceeded

from puma_bench import probes
from puma_bench.loadgen import OpFailure, Phase, closed_loop
from puma_bench.measure import SpanLog, cpu_seconds, median, now
from puma_bench.models import (
    CONFIG,
    ENGINE_SEED,
    replay_mlp_case,
    server_case,
)
from puma_bench.pool import POOL_SIZE, STREAM_LENGTH, InputPool
from puma_bench.workload import (
    TraceReport,
    Workload,
    conservation_gap,
    engine_counter_metrics,
    unserved_sizes,
    warm_counters,
)

MAX_BATCH = 16          # PumaServer's default max_batch_size


class ServerLstmClosed64(Workload):
    name = "server_lstm_closed64"
    loop = "closed, 64 asyncio callers in-process"
    callers = 64
    # Segment edges leave partial batches, so every size can appear.
    sizes = range(1, MAX_BATCH + 1)

    def prepare(self) -> None:
        self.case = server_case()
        if self.smoke:      # warm-up coverage is what a smoke run skips
            self.sizes = range(MAX_BATCH, MAX_BATCH + 1)
        self.pool = InputPool(self.case.engine("interpret"), self.seed, 0,
                              size=16 if self.smoke else POOL_SIZE)
        self.pools[self.case.name] = self.pool
        rng = np.random.default_rng([self.seed, 1])
        self.stream_entry = rng.integers(self.pool.size, size=STREAM_LENGTH)
        self.server: PumaServer | None = None
        self.work_dir: Path | None = None
        self.level = "PumaServer.submit"

    async def setup(self) -> None:
        """Cold build -> save_artifacts -> from_artifacts -> serve."""
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                              dir=self.work_root))
        clear_compile_cache()
        clear_tape_caches()
        cold = InferenceEngine(server_case().source, CONFIG,
                               seed=ENGINE_SEED)
        cold.warm(batch=MAX_BATCH)
        loaded = InferenceEngine.from_artifacts(
            cold.save_artifacts(self.work_dir / "artifact"))
        batch = {name: rows[:MAX_BATCH]
                 for name, rows in self.pool.matrix.items()}
        from_cold, from_disk = cold.predict(batch), loaded.predict(batch)
        for name, words in from_cold.words.items():
            if not (np.array_equal(words, from_disk.words[name])
                    and np.array_equal(words,
                                       self.pool.words[name][:MAX_BATCH])):
                raise AssertionError(
                    f"{name}: artifact-loaded, cold-built and interpreter "
                    f"words are not bitwise equal")
        if from_cold.stats != from_disk.stats:
            raise AssertionError("artifact-loaded stats differ from cold")
        self.server = PumaServer(loaded)
        await self.server.start()
        await self.warm_until_quiet()

    async def teardown(self) -> None:
        if self.server is not None:
            await self.server.stop()
            self.server = None
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    async def counters(self) -> dict[str, int]:
        return warm_counters(self.server.stats())

    async def missing_sizes(self) -> list[tuple[str, int]]:
        return [(self.case.name, size) for size
                in unserved_sizes(self.server.stats(), self.sizes)]

    async def burst(self, model: str, size: int) -> None:
        self.absorb_warmup(await closed_loop(
            "warm-up", self.op, size, iter(range(size))))

    async def confirm_round(self) -> None:
        self.absorb_warmup(await self.segment(0.05 if self.smoke else 0.25))

    async def segment(self, seconds: float) -> Phase:
        return await closed_loop("timed", self.op, self.callers,
                                 self.indices, seconds)

    async def op(self, i: int) -> None:
        k = int(self.stream_entry[i % STREAM_LENGTH])
        start = now()
        try:
            result = await self.server.submit(self.pool.arrays[k])
        except (AdmissionError, DeadlineExceeded) as error:
            raise OpFailure("rejected",
                            f"{type(error).__name__}: {error}") from error
        if not self.pool.matches(k, result.words):
            raise OpFailure("mismatch", f"lstm[{k}] words differ from "
                                        f"the interpreter reference")
        if self.spans is not None:
            self.spans.span(self.level, start, now(), None, i)

    # -- the traced run ----------------------------------------------------

    async def engine_level(self, label: str, call, inputs: dict,
                           seconds: float, spans: SpanLog) -> Phase:
        """Full batches straight into the server's engine, back to back."""
        expected = {name: words[:MAX_BATCH]
                    for name, words in self.pool.words.items()}

        async def op(i: int) -> None:
            start = now()
            words = call(inputs).words
            if not all(np.array_equal(words[name], expected[name])
                       for name in expected):
                raise OpFailure("mismatch", f"{label} batch differs")
            spans.span(label, start, now(), None, i)

        return await closed_loop(label, op, 1, iter(range(1 << 30)), seconds)

    async def trace(self, seconds: float, spans: SpanLog) -> TraceReport:
        report = TraceReport()
        metrics = report.metrics
        share = seconds / 4
        untraced = await self.segment(share)
        before = self.server.stats()
        self.spans = spans
        cpu_before = cpu_seconds()
        try:
            outer = await self.segment(share)
        finally:
            self.spans = None
        report.outer, report.outer_cpu_s = outer, cpu_seconds() - cpu_before
        after = self.server.stats()
        outer.name = untraced.name = self.level
        engine = self.server.engine
        floats = {name: rows[:MAX_BATCH]
                  for name, rows in self.pool.matrix.items()}
        quantized = probes.quantized_batches(self.pool, (MAX_BATCH,))
        predict = await self.engine_level(
            "InferenceEngine.predict", engine.predict, floats, share, spans)
        run_batch = await self.engine_level(
            "InferenceEngine.run_batch", engine.run_batch,
            quantized[MAX_BATCH], share, spans)
        report.phases = [untraced, outer, predict, run_batch]
        report.untraced_p50_ms = median(untraced.latencies_ms())
        report.waterfall = [(phase.name, median(phase.latencies_ms()))
                            for phase in (outer, predict, run_batch)]
        report.traced_p50_ms = report.waterfall[0][1]
        predict_ms = report.waterfall[1][1]

        metrics["client.lstm_p50_ms"] = report.traced_p50_ms
        metrics["serve.server.submit_p50_ms"] = report.traced_p50_ms
        batches = after["batches_formed"] - before["batches_formed"]
        lanes = after["lanes_simulated"] - before["lanes_simulated"]
        metrics["serve.server.batches_formed"] = batches
        metrics["serve.server.mean_batch_size"] = lanes / batches
        # Batches here are full, so predict at batch 16 is the engine's
        # part of every batch cycle; the rest is the server's.
        metrics["serve.server.overhead_per_batch_ms"] = \
            outer.wall_s * 1e3 / batches - predict_ms
        metrics["serve.server.engine_busy_share"] = \
            batches * predict_ms / 1e3 / outer.wall_s
        scheduler = after["scheduler"]
        metrics["serve.scheduler.early_closes"] = \
            scheduler["early_closes"] - before["scheduler"]["early_closes"]
        metrics["serve.scheduler.shed"] = \
            scheduler["shed"] - before["scheduler"]["shed"]
        metrics["serve.scheduler.service_ewma_b16_ms"] = \
            scheduler["service_time_ewma_s"][str(MAX_BATCH)] * 1e3
        metrics["serve.scheduler.conservation_gap"] = \
            conservation_gap(scheduler)
        metrics.update(engine_counter_metrics(before, after))

        repeats = 2 if self.smoke else 20
        metrics.update(probes.cold_probe([self.case], self.pools, spans,
                                         2 if self.smoke else 5))
        metrics.update(probes.engine_probes(self.case, self.pool, repeats))
        metrics.update(probes.store_probes(self.case, self.work_dir,
                                           self.pool))
        # bench_replay's MLP, so that model stays visible.
        mlp = replay_mlp_case()
        mlp_pool = InputPool(mlp.engine("interpret"), self.seed, 2,
                             size=16 if self.smoke else 64)
        mlp_ms = probes.optimized_replay_ms(
            mlp.engine("auto"),
            probes.quantized_batches(mlp_pool, (16, 64)), repeats)
        metrics["sim.tapeopt.mlp_replay_b16_ms"] = mlp_ms[16]
        metrics["sim.tapeopt.mlp_replay_b64_ms"] = mlp_ms[64]
        return report

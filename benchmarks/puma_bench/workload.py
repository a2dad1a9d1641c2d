"""The workload protocol and the warm-until-quiet rule they share."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

from puma_bench.loadgen import Phase
from puma_bench.measure import SpanLog
from puma_bench.pool import InputPool

MAX_WARM_ROUNDS = 25


class NotWarm(RuntimeError):
    """Warm-up never reached a state where the counters stopped moving."""


def warm_counters(server_stats: dict) -> dict[str, int]:
    """The warm set out of one ``PumaServer.stats()`` snapshot."""
    tape = server_stats["tape_cache"]
    return {"recordings": tape["recordings"],
            "derived_stats": tape["derived_stats"],
            "optimizer_fallbacks": tape["optimizer_fallbacks"],
            "fallbacks": tape["fallbacks"],
            "compile_misses": server_stats["compile_cache"]["misses"]}


def engine_counter_metrics(before: dict, after: dict) -> dict[str, int]:
    """The ``engine`` counters as deltas between two ``PumaServer.stats()``
    snapshots; every one of them must be 0 over a warm phase."""
    then, now_ = warm_counters(before), warm_counters(after)
    return {"engine.tape_fallbacks": now_["fallbacks"] - then["fallbacks"],
            "engine.optimizer_fallbacks": (now_["optimizer_fallbacks"]
                                           - then["optimizer_fallbacks"]),
            "engine.derived_stats": (now_["derived_stats"]
                                     - then["derived_stats"]),
            "engine.compile_cache_misses": (now_["compile_misses"]
                                            - then["compile_misses"])}


def conservation_gap(scheduler: dict) -> int:
    """admitted - dispatched - shed - drained - queued; must be 0."""
    return (scheduler["admitted"] - scheduler["dispatched"]
            - scheduler["shed"] - scheduler["drained"]
            - scheduler["queue_depth"])


@dataclass
class TraceReport:
    """What a traced run found.

    Attributes:
        metrics: per-layer metric values measured on this workload.
        waterfall: ``(level name, p50 ms)`` from the outermost public
            entry point inwards; a layer's self-time is the difference
            between adjacent levels.
        parts: ``(step name, median ms)`` of spans that add up to the
            op instead of nesting (``sim_cold_sweep``).
        untraced_p50_ms / traced_p50_ms: the outermost level with the
            span log off and on; their ratio is the tracing overhead.
        phases: attempted/ok/failed lines, one per level.
        outer / outer_cpu_s: the outermost level with the span log on,
            and the CPU seconds harness and workers spent in it; the
            runner derives the ``client`` tail and CPU metrics from them.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    waterfall: list[tuple[str, float]] = field(default_factory=list)
    parts: list[tuple[str, float]] = field(default_factory=list)
    untraced_p50_ms: float = 0.0
    traced_p50_ms: float = 0.0
    phases: list[Phase] = field(default_factory=list)
    outer: Phase | None = None
    outer_cpu_s: float = 0.0


class Workload:
    """One named workload: its inputs, its system under test, its load.

    ``prepare`` builds what the *harness* owns (pools, references,
    request stream) and is not part of ``setup_s``.  ``setup`` builds
    the system under test from cold and warms it until quiet; the
    runner calls it several times and reports the median.
    """

    name = ""
    loop = ""

    def __init__(self, seed: int, smoke: bool, work_root: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_root = work_root
        self.pools: dict[str, InputPool] = {}
        self.indices = itertools.count()
        self.warmup = Phase("warm-up")
        self.spans: SpanLog | None = None

    def prepare(self) -> None:
        raise NotImplementedError

    async def setup(self) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        raise NotImplementedError

    async def segment(self, seconds: float) -> Phase:
        raise NotImplementedError

    async def counters(self) -> dict[str, int]:
        """The warm set, read from the program's own stats."""
        raise NotImplementedError

    def worker_pids(self) -> list[int]:
        return []

    async def trace(self, seconds: float, spans: SpanLog) -> TraceReport:
        raise NotImplementedError

    def modelled(self) -> tuple[int, float]:
        """Simulated cycles and nJ: pool entry 0 at batch 1, every model."""
        firsts = [pool.first for pool in self.pools.values()]
        return (sum(first.cycles for first in firsts),
                sum(first.stats.total_energy_j for first in firsts) * 1e9)

    def absorb_warmup(self, phase: Phase) -> None:
        self.warmup.attempted += phase.attempted
        self.warmup.ok += phase.ok
        for kind, count in phase.failures.items():
            self.warmup.failures[kind] += count
        if phase.first_failure and not self.warmup.first_failure:
            self.warmup.first_failure = phase.first_failure

    async def missing_sizes(self) -> list[tuple[str, int]]:
        """(model, batch size) pairs the load can reach but that the
        program has not served yet, read from its own scheduler stats."""
        raise NotImplementedError

    async def burst(self, model: str, size: int) -> None:
        """``size`` simultaneous requests for ``model``."""
        raise NotImplementedError

    async def confirm_round(self) -> None:
        """A short stretch of the workload's own load."""
        raise NotImplementedError

    async def warm_until_quiet(self) -> None:
        """Warm until every reachable batch size has been served, then
        until a round of the workload's own load moves no counter.

        The first appearance of a batch size costs the engine a shadow
        timing simulation and a bitwise probe of the optimized plan
        (tens to hundreds of ms); one of those inside a timed segment
        is a cold measurement.  A burst may be split by the batch
        window, so rounds repeat, aiming only at what is still missing.
        """
        for _ in range(MAX_WARM_ROUNDS):
            missing = await self.missing_sizes()
            if not missing:
                break
            for model, size in missing:
                await self.burst(model, size)
        else:
            raise NotWarm(f"{self.name}: batch sizes never served after "
                          f"{MAX_WARM_ROUNDS} rounds: {missing}")
        counters = await self.counters()
        for _ in range(MAX_WARM_ROUNDS):
            before = counters
            await self.confirm_round()
            counters = await self.counters()
            if counters == before:
                return
        raise NotWarm(f"{self.name}: counters still moving after "
                      f"{MAX_WARM_ROUNDS} confirm rounds: {counters}")


def unserved_sizes(server_stats: dict, sizes) -> list[int]:
    """Sizes in ``sizes`` that one ``PumaServer.stats()`` has not served.

    The scheduler keeps a service-time estimate per batch size it has
    dispatched; a size without one has never run.
    """
    served = server_stats["scheduler"]["service_time_ewma_s"]
    return [size for size in sizes if str(size) not in served]

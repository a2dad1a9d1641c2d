"""Sharded serving: fan one batch out across engine replicas.

PUMA's throughput story (Fig 11c/d) is spatial replication: many nodes
each hold a copy of the programmed weights and serve a slice of the
traffic.  :class:`ShardedEngine` is that data-parallel layer in software:
a ``(batch, length)`` request is split into ``num_shards`` lane subsets,
each shard runs as its own SIMD-over-batch pass on an
:class:`~repro.engine.InferenceEngine` replica — concurrently, on a
thread pool or a pool of forked worker processes — and the per-shard
:class:`~repro.serve.types.RunResult`\\ s are merged back into one result
whose output words are **bitwise identical** to a single-engine
``run_batch`` over the same inputs (lane *i* of the merged result is lane
*i* of the unsharded pass, bit for bit — the engine's batched==sequential
guarantee makes every lane independent of its batch-mates).

Merged statistics model replicas running concurrently:

* ``cycles`` — the **max** over shards (the batch finishes when the
  slowest replica does), so ``cycles_per_inference`` reflects the
  sharded throughput win;
* ``energy`` and the instruction/stall/NoC counters — **summed** over
  shards (every replica really spent them);
* per-shard stats are preserved on ``RunResult.shard_stats`` and lane
  slicing (``result.lane(i)``) works exactly as for an unsharded run.

Replication is cheap: replicas share the process-wide compile cache, the
compiled model's programmed-crossbar state, *and* its execution tapes
(:mod:`repro.sim.tape`) — a replica engine costs neither a compilation
nor a programming pass, and a shard batch size any replica has recorded
replays everywhere (each replica binds its own replayer node; the tape
itself is shared).  Worker processes are forked *after* the primary
engine is warmed, inheriting the caches copy-on-write.

Known limit (inherited from the batch engine, see ROADMAP "Batch
execution semantics"): workloads using the stochastic RANDOM op draw
per-lane noise, so their sharded outputs are reproducible but not
lane-comparable to a differently-sharded run.

Usage::

    engine = InferenceEngine(model, seed=0)
    with ShardedEngine(engine, num_shards=4) as sharded:
        result = sharded.predict({"x": x})      # (64, n) floats
    assert result.shard_stats is not None
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.serve.types import RunResult
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine import InferenceEngine

SHARD_POLICIES = ("contiguous", "interleaved", "proportional")

# Handoff registry for fork-based worker pools: the parent registers its
# engine under a unique token, workers fork and capture it into
# _WORKER_ENGINE via the initializer (initargs carry only the token —
# models and engines are never pickled), and the entry stays registered
# for the pool's whole lifetime so replacement workers respawned by
# multiprocessing.Pool after a crash fork with the engine still in
# place.  close() deregisters.  Distinct tokens keep concurrently-built
# pools from racing on a shared slot.
_FORK_ENGINES: "dict[int, InferenceEngine]" = {}
_fork_tokens = itertools.count()
_WORKER_ENGINE: "InferenceEngine | None" = None


class ShardExecutionError(RuntimeError):
    """A shard's worker raised; carries the failing shard's index."""

    def __init__(self, shard_index: int, num_shards: int,
                 cause: BaseException) -> None:
        super().__init__(
            f"shard {shard_index}/{num_shards} failed: "
            f"{type(cause).__name__}: {cause}")
        self.shard_index = shard_index


def apportion_lanes(batch: int, weights: Sequence[float]) -> list[int]:
    """Split ``batch`` lanes into ``len(weights)`` positive counts.

    Largest-remainder apportionment: every shard gets
    ``floor(batch * w / sum(w))`` lanes, leftovers go to the largest
    fractional parts (ties broken by lower index — deterministic), and
    any shard rounded to zero takes one lane from the largest shard (no
    empty shards; requires ``batch >= len(weights)``).

    >>> apportion_lanes(8, [3.0, 1.0])
    [6, 2]
    >>> apportion_lanes(5, [1.0, 1.0])
    [3, 2]
    >>> apportion_lanes(3, [100.0, 1.0, 1.0])  # no shard starves to zero
    [1, 1, 1]
    """
    k = len(weights)
    if k < 1:
        raise ValueError("need at least one weight")
    if batch < k:
        raise ValueError(f"cannot split {batch} lanes across {k} shards")
    if any(not math.isfinite(w) or w <= 0 for w in weights):
        raise ValueError(f"weights must be positive and finite, "
                         f"got {list(weights)}")
    total = float(sum(weights))
    ideals = [batch * w / total for w in weights]
    counts = [int(math.floor(ideal)) for ideal in ideals]
    leftover = batch - sum(counts)
    by_fraction = sorted(range(k),
                         key=lambda i: (-(ideals[i] - counts[i]), i))
    for i in by_fraction[:leftover]:
        counts[i] += 1
    # A tiny weight can floor to zero lanes; an empty shard would change
    # the merged result's shape bookkeeping, so feed it from the largest.
    for i in range(k):
        while counts[i] == 0:
            donor = max(range(k), key=lambda j: (counts[j], -j))
            counts[donor] -= 1
            counts[i] += 1
    return counts


def shard_lanes(batch: int, num_shards: int,
                policy: str = "contiguous",
                weights: Sequence[float] | None = None) -> list[np.ndarray]:
    """Assign batch lanes to shards; returns one index array per shard.

    The shard count is clamped to the batch size (no empty shards — a
    4-way engine serving a 2-lane micro-batch forms 2 shards), so every
    returned array is non-empty and together they partition
    ``range(batch)``.

    Policies:

    * ``"contiguous"`` — consecutive lane runs (``np.array_split``
      semantics: sizes differ by at most one);
    * ``"interleaved"`` — lane *i* goes to shard ``i % k`` (round-robin);
    * ``"proportional"`` — consecutive lane runs sized proportionally to
      ``weights`` (observed per-replica throughput; see
      :func:`apportion_lanes`).  ``weights=None`` means equal weights —
      identical to ``"contiguous"``.  When the shard count is clamped,
      the first ``k`` weights apply.

    >>> [lanes.tolist() for lanes in shard_lanes(5, 2)]
    [[0, 1, 2], [3, 4]]
    >>> [lanes.tolist() for lanes in shard_lanes(5, 2, "interleaved")]
    [[0, 2, 4], [1, 3]]
    >>> [lanes.tolist() for lanes in shard_lanes(2, 4)]  # clamped: no empties
    [[0], [1]]
    >>> [lanes.tolist()
    ...  for lanes in shard_lanes(8, 2, "proportional", [3.0, 1.0])]
    [[0, 1, 2, 3, 4, 5], [6, 7]]
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if policy not in SHARD_POLICIES:
        raise ValueError(
            f"unknown shard policy {policy!r}; choose from {SHARD_POLICIES}")
    k = min(num_shards, batch)
    lanes = np.arange(batch)
    if policy == "interleaved":
        return [lanes[i::k] for i in range(k)]
    if policy == "proportional" and weights is not None:
        counts = apportion_lanes(batch, list(weights)[:k])
        bounds = np.cumsum(counts)[:-1]
        return list(np.split(lanes, bounds))
    return list(np.array_split(lanes, k))


def split_batch(inputs: Mapping[str, np.ndarray],
                lane_sets: Sequence[np.ndarray]
                ) -> list[dict[str, np.ndarray]]:
    """Slice a batched input dict into per-shard input dicts.

    ``(batch, length)`` inputs are split by lane; 1-D inputs (broadcast
    conditioning vectors) are passed to every shard unchanged.
    """
    shards = []
    for lanes in lane_sets:
        shard: dict[str, np.ndarray] = {}
        for name, values in inputs.items():
            arr = np.asarray(values)
            shard[name] = arr[lanes] if arr.ndim == 2 else arr
        shards.append(shard)
    return shards


def merge_stats(shard_stats: Sequence[SimulationStats]) -> SimulationStats:
    """Merge per-shard stats as concurrently-running replicas.

    Cycles take the max (the batch completes with the slowest shard);
    energy, instruction counts, stall/busy counters, and NoC traffic sum
    (each replica really executed its pass).  ``cycle_ns`` must agree
    across shards — replicas are identically configured by construction.
    """
    if not shard_stats:
        raise ValueError("merge_stats needs at least one shard")
    merged = SimulationStats(cycle_ns=shard_stats[0].cycle_ns)
    merged.cycles = max(s.cycles for s in shard_stats)
    for stats in shard_stats:
        if stats.cycle_ns != merged.cycle_ns:
            raise ValueError("shards ran at different cycle periods")
        merged.energy.merge(stats.energy)
        for opcode, count in stats.dynamic_instructions.items():
            merged.dynamic_instructions[opcode] = (
                merged.dynamic_instructions.get(opcode, 0) + count)
        for opcode, words in stats.words_by_opcode.items():
            merged.words_by_opcode[opcode] = (
                merged.words_by_opcode.get(opcode, 0) + words)
        for agent, count in stats.stall_events.items():
            merged.stall_events[agent] = (
                merged.stall_events.get(agent, 0) + count)
        for agent, cycles in stats.busy_cycles.items():
            merged.busy_cycles[agent] = (
                merged.busy_cycles.get(agent, 0) + cycles)
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


def _init_fork_worker(token: int) -> None:
    """Runs in each forked worker: adopt the parent's engine object."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = _FORK_ENGINES[token]


def _run_shard_in_worker(inputs: dict[str, np.ndarray]
                         ) -> tuple[dict[str, np.ndarray],
                                    SimulationStats, int, str | None, float]:
    """One shard's pass inside a worker process (plain tuples over IPC).

    The elapsed wall time is measured *inside* the worker so the parent's
    throughput tracking sees compute time, not IPC queueing.
    """
    started = time.perf_counter()
    result = _WORKER_ENGINE.run_batch(inputs)
    elapsed = time.perf_counter() - started
    return result.words, result.stats, result.batch, result.execution, elapsed


class ShardedEngine:
    """Data-parallel fan-out of batched inference over engine replicas.

    Args:
        engine: the primary :class:`~repro.engine.InferenceEngine`.  Its
            model, config, crossbar model, and seed define every replica.
        num_shards: replica count a batch is split across.  Batches
            smaller than this form fewer shards; ``num_shards=1`` (or a
            1-lane batch) bypasses the pool entirely and behaves exactly
            like the plain engine.
        shard_policy: lane assignment — ``"contiguous"`` (default),
            ``"interleaved"``, or ``"proportional"`` (contiguous runs
            sized to each shard slot's observed throughput EWMA, lanes
            per second; equal split until every slot has been observed)
            — see :func:`shard_lanes`.  Either way the merged result is
            in original lane order, bitwise identical to the unsharded
            pass: lane *assignment* never affects lane *values*.
        executor: ``"process"`` (forked worker processes — real
            parallelism, the default where ``fork`` exists),
            ``"thread"`` (in-process pool; GIL-bound but dependency-free
            and exception-transparent), or ``"auto"``.
        artifact_dir: persistent artifact store directory
            (:mod:`repro.store`).  Before the pool is built the primary
            engine warm-starts from (or populates) the store, so a
            sharded server in a brand-new process skips compilation,
            crossbar programming, and tape recording.

    The worker pool is created lazily on the first sharded call — after
    warming the primary engine so forked replicas inherit the compiled
    program and programmed-crossbar state copy-on-write — and is shut
    down by :meth:`close` (or leaving the ``with`` block).
    """

    def __init__(self, engine: "InferenceEngine", *,
                 num_shards: int = 2,
                 shard_policy: str = "contiguous",
                 executor: str = "auto",
                 artifact_dir=None) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if shard_policy not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {shard_policy!r}; "
                f"choose from {SHARD_POLICIES}")
        if executor not in ("auto", "thread", "process"):
            raise ValueError(
                f"executor must be 'auto', 'thread', or 'process', "
                f"got {executor!r}")
        if executor == "auto":
            executor = ("process" if "fork" in
                        multiprocessing.get_all_start_methods() else "thread")
        elif executor == "process" and \
                "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "executor='process' requires the fork start method "
                "(unavailable on this platform); use 'thread'")
        if engine.seed is None:
            # seed=None asks every programming pass for fresh entropy, so
            # replicas would program *different* noisy crossbars and the
            # merged result could not equal the single-engine pass.
            raise ValueError(
                "ShardedEngine requires a seeded engine (seed is None): "
                "replicas must program identical crossbars for the merged "
                "result to be bitwise identical to the unsharded run")
        self.engine = engine
        self.num_shards = num_shards
        self.shard_policy = shard_policy
        self.executor = executor
        self.artifact_dir = artifact_dir
        self._pool = None
        self._fork_token: int | None = None
        self._replicas: "list[InferenceEngine]" = []
        # Per shard-slot throughput EWMA (lanes/second).  Slot i is the
        # i-th lane set of every sharded call; thread replicas map slots
        # to replicas 1:1, process pools attribute whichever worker
        # served the slot (workers are symmetric, so this converges on
        # the same signal: how fast slot i's share actually completes).
        self._slot_rate: list[float | None] = [None] * num_shards
        self._rate_alpha = 0.3

    # -- engine facade -----------------------------------------------------

    @property
    def fmt(self):
        return self.engine.fmt

    @property
    def program(self):
        return self.engine.program

    @property
    def compiled(self):
        return self.engine.compiled

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return self.engine.quantize(values)

    def dequantize(self, words: np.ndarray) -> np.ndarray:
        return self.engine.dequantize(words)

    def validate_request(self, inputs: Mapping[str, np.ndarray]) -> None:
        self.engine.validate_request(inputs)

    # -- pool lifecycle ----------------------------------------------------

    def _make_replica(self) -> "InferenceEngine":
        """A replica engine: same compilation (cache hit), same seed."""
        from repro.engine import InferenceEngine

        primary = self.engine
        if primary.model is not None:
            return InferenceEngine(
                primary.model, primary.config, primary.options,
                crossbar_model=primary.crossbar_model, seed=primary.seed,
                execution_mode=primary.execution_mode,
                artifact_dir=primary.artifact_dir)
        return InferenceEngine.from_compiled(
            primary.compiled, primary.config,
            crossbar_model=primary.crossbar_model, seed=primary.seed,
            execution_mode=primary.execution_mode,
            artifact_dir=primary.artifact_dir)

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        # Warm before forking/replicating: children and replicas then
        # share the programmed-crossbar state instead of re-deriving it.
        # With an artifact store configured, warm *through* it — load the
        # on-disk state if a prior process left one, and persist ours
        # otherwise, so replicas in brand-new processes (not just forked
        # children) warm-start too.
        if self.artifact_dir is not None or self.engine.artifact_dir \
                is not None:
            self.engine.ensure_artifacts(self.artifact_dir)
        self.engine.warm()
        if self.executor == "process":
            context = multiprocessing.get_context("fork")
            token = next(_fork_tokens)
            _FORK_ENGINES[token] = self.engine
            try:
                # multiprocessing.Pool forks all workers eagerly; the
                # registry entry outlives them (until close()) so crashed
                # workers can be respawned with the engine still there.
                self._pool = context.Pool(processes=self.num_shards,
                                          initializer=_init_fork_worker,
                                          initargs=(token,))
            except BaseException:
                _FORK_ENGINES.pop(token, None)
                raise
            self._fork_token = token
        else:
            self._replicas = [self._make_replica()
                              for _ in range(self.num_shards)]
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_shards,
                thread_name_prefix="puma-shard")

    def start(self) -> "ShardedEngine":
        """Warm the primary engine and spawn the worker pool eagerly.

        Optional — the first sharded call does this lazily — but servers
        should call it at startup so worker processes fork from the main
        thread, before any event loop or executor threads exist.
        """
        self._ensure_pool()
        return self

    def close(self) -> None:
        """Shut the worker pool down; idempotent, safe after failures."""
        pool, self._pool = self._pool, None
        token, self._fork_token = self._fork_token, None
        self._replicas = []
        try:
            if isinstance(pool, ThreadPoolExecutor):
                pool.shutdown(wait=True)
            elif pool is not None:
                pool.close()
                pool.join()
        finally:
            # Deregister only after join: a worker respawned during the
            # shutdown window must still find the engine.
            if token is not None:
                _FORK_ENGINES.pop(token, None)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- execution ---------------------------------------------------------

    def predict(self, inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Float-first sharded inference (mirrors ``InferenceEngine``)."""
        return self.run_batch(self.engine.quantize_inputs(inputs))

    def run_batch(self, inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Shard, run concurrently, merge — bitwise == unsharded.

        Output words equal ``self.engine.run_batch(inputs)`` bit for bit;
        ``stats`` follows the sharded-merge rules (cycles = max over
        shards, energy/counters summed) and ``shard_stats`` carries each
        shard's own pass.
        """
        self.engine._check_names(inputs)
        batch = self.engine._infer_batch(inputs)
        weights = (self._slot_weights() if self.shard_policy == "proportional"
                   else None)
        lane_sets = shard_lanes(batch, self.num_shards, self.shard_policy,
                                weights)
        if len(lane_sets) == 1:
            return self.engine.run_batch(inputs)
        shard_inputs = split_batch(inputs, lane_sets)
        self._ensure_pool()
        if self.executor == "process":
            shard_results = self._run_shards_process(shard_inputs)
        else:
            shard_results = self._run_shards_thread(shard_inputs)
        return merge_results(shard_results, lane_sets, batch)

    def _collect(self, outcomes: "list[tuple[RunResult | None, BaseException | None]]"
                 ) -> list[RunResult]:
        """Raise the first shard failure (all shards already settled)."""
        for index, (_result, error) in enumerate(outcomes):
            if error is not None:
                raise ShardExecutionError(index, len(outcomes),
                                          error) from error
        return [result for result, _error in outcomes]

    def _run_shards_process(self, shard_inputs: list[dict[str, np.ndarray]]
                            ) -> list[RunResult]:
        handles = [self._pool.apply_async(_run_shard_in_worker, (shard,))
                   for shard in shard_inputs]
        outcomes: list = []
        for slot, handle in enumerate(handles):
            # Settle every shard before raising so no work is left
            # dangling in the pool when an error propagates.
            try:
                words, stats, shard_batch, execution, elapsed = handle.get()
                self._observe_slot(slot, shard_batch, elapsed)
                outcomes.append((RunResult(words=words, fmt=self.engine.fmt,
                                           stats=stats, batch=shard_batch,
                                           execution=execution),
                                 None))
            except Exception as exc:  # noqa: BLE001 - reported per shard
                outcomes.append((None, exc))
        return self._collect(outcomes)

    def _timed_replica_pass(self, replica: "InferenceEngine",
                            shard: dict[str, np.ndarray]
                            ) -> tuple[RunResult, float]:
        started = time.perf_counter()
        result = replica.run_batch(shard)
        return result, time.perf_counter() - started

    def _run_shards_thread(self, shard_inputs: list[dict[str, np.ndarray]]
                           ) -> list[RunResult]:
        futures = [
            self._pool.submit(self._timed_replica_pass,
                              self._replicas[i % len(self._replicas)], shard)
            for i, shard in enumerate(shard_inputs)
        ]
        outcomes: list = []
        for slot, future in enumerate(futures):
            try:
                result, elapsed = future.result()
                self._observe_slot(slot, result.batch, elapsed)
                outcomes.append((result, None))
            except Exception as exc:  # noqa: BLE001 - reported per shard
                outcomes.append((None, exc))
        return self._collect(outcomes)

    # -- throughput tracking -----------------------------------------------

    def _observe_slot(self, slot: int, lanes: int, elapsed: float) -> None:
        """Fold one shard pass into the slot's lanes/second EWMA."""
        if slot >= len(self._slot_rate) or lanes < 1 or elapsed <= 0:
            return
        rate = lanes / elapsed
        previous = self._slot_rate[slot]
        self._slot_rate[slot] = (
            rate if previous is None
            else self._rate_alpha * rate + (1 - self._rate_alpha) * previous)

    def _slot_weights(self) -> list[float]:
        """Current apportionment weights: observed rates, mean for gaps."""
        observed = [r for r in self._slot_rate if r is not None and r > 0]
        fallback = sum(observed) / len(observed) if observed else 1.0
        return [r if r is not None and r > 0 else fallback
                for r in self._slot_rate]

    def shard_throughput(self) -> list[float | None]:
        """Per-slot throughput EWMA (lanes/second); ``None`` = unobserved."""
        return list(self._slot_rate)

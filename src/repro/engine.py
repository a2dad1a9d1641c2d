"""Batched inference engine: compile once, run many inputs SIMD-over-batch.

PUMA's evaluation (Section 7.3, Fig 11c/d) is framed around *batched*
inference: the expensive work — compiling the model and programming the
crossbars — happens once, and many inputs stream through the programmed
hardware.  :class:`InferenceEngine` is the top-level serving interface for
that pattern:

* ``compile_model`` runs once per (model, config, options) triple; the
  resulting :class:`~repro.compiler.compile.CompiledModel` is cached
  process-wide (:func:`compile_cache_info` reports hits/misses), so
  constructing several engines for the same model is cheap;
* :meth:`predict` is the float-first entry point: it validates named float
  inputs against the compiled program's ``input_layout``, quantizes them,
  executes the whole ``(batch, length)`` matrix in a single
  SIMD-over-batch simulator pass, and returns a typed
  :class:`~repro.serve.types.RunResult` carrying float and fixed-point
  output views plus the run's :class:`~repro.sim.stats.SimulationStats`;
* :meth:`run_batch` is the same pass for callers already holding
  fixed-point words; :meth:`run_sequential` is the reference fallback (one
  single-input simulation per row) — batched and sequential results are
  bitwise identical for deterministic programs, for both ideal and noisy
  crossbar models (``tests/test_batched_engine.py`` enforces this);
* steady-state runs take the **trace-replay fast path** by default: the
  first simulation at a given (config, crossbar model, seed) records the
  resolved dynamic schedule as a *batch-generic* execution tape
  (:mod:`repro.sim.tape`) cached on the :class:`CompiledModel`; every
  later run — at any batch size — replays the tape as a flat sequence of
  pre-bound numpy operations, with batch-dependent timing derived by a
  shadow timing simulation when a result's stats are first read.  By
  default the tape is further compiled by the **tape optimizer**
  (:mod:`repro.sim.tapeopt`): dead stores eliminated, store→load pairs
  forwarded to register moves, adjacent same-shape ops fused into wide
  kernels, independent MVMs batched into one stacked matmul — still
  bitwise-identical (the plan is checked once, when the tape is
  recorded, against the recording run's own words; a refuted plan
  leaves the tape on plain replay).
  Every engine is seeded, so its programmed state, tape and artifact
  are functions of (config, device model, seed); programs using the
  stochastic ``RANDOM`` op, the one cache bypass, fall back to the
  interpreter; :func:`tape_cache_info` reports recordings/replays/
  optimized runs/fallbacks, ``execution_mode="replay"`` serves the
  plain tape, and ``execution_mode="interpret"`` disables the fast path
  outright;
* all of the above persists **across processes** through the artifact
  store (:mod:`repro.store`): ``artifact_dir=`` makes the engine
  warm-start from a matching on-disk artifact (compilation + programmed
  crossbars + tapes) at construction time, :meth:`save_artifacts` /
  :meth:`InferenceEngine.from_artifacts` are the explicit save/load
  pair, and :meth:`ensure_artifacts` is the idempotent
  load-or-build-and-save primitive the serving layers use.

For an async front-end with queueing and dynamic micro-batching on top of
this engine, see :class:`repro.serve.PumaServer`.

Quickstart::

    from repro.engine import InferenceEngine
    from repro.workloads.mlp import build_mlp_model

    engine = InferenceEngine(build_mlp_model([64, 150, 150, 14]), seed=0)
    result = engine.predict({"x": x_float})     # (batch, 64) floats in
    y = result.outputs["out"]                   # (batch, 14) floats out
    print(result.cycles_per_inference, result.stats.summary())
"""

from __future__ import annotations

import functools
import numbers
import threading
import weakref
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from repro.arch.config import PumaConfig
from repro.arch.crossbar import CrossbarModel
from repro.compiler.compile import CompiledModel, compile_model
from repro.compiler.frontend import Model
from repro.compiler.options import CompilerOptions
from repro.node.node import Node, NodeProgrammedState
from repro.serve.types import RunResult
from repro.sim.simulator import Simulator
from repro.sim.stats import SimulationStats
from repro.sim.tape import (
    ExecutionTape,
    TapeRecorder,
    TapeReplayer,
    TapeValidationError,
    find_unsupported_op,
)
from repro.sim.tapeopt import (
    OptimizedTape,
    TapeOptimizationError,
    optimize_tape,
)
from repro.store import (
    MANIFEST_NAME,
    ArtifactError,
    LoadedArtifact,
    artifact_key,
    fingerprint_digest,
    fingerprint_value,
    load_artifact,
    model_digest,
    program_digest,
    save_artifact,
)

# Most programmed-crossbar snapshots kept per compiled model (each holds
# every MVMU's matrix + level stack, 160 KB a unit at the Table 3 sizes —
# and 1 MB of conductances on top for a noisy model).
_PROGRAMMED_STATE_CAP = 8
# Execution tapes kept per compiled model (one per distinct
# (config, crossbar model, seed); tapes are batch-generic, so one entry
# serves every batch size — a tape holds the step list plus per-batch
# stats snapshots, small next to a programmed-state entry).
_EXECUTION_TAPE_CAP = 8
# Bound replayers (node + closures over its views) kept per engine, least
# recently used evicted first.  A new or evicted width costs that bind
# alone: the rest is cached on the tape, and stats derive on first read.
_REPLAYER_CAP = 4

EXECUTION_MODES = ("auto", "replay", "interpret")

# model -> {config/options fingerprint -> CompiledModel}.  Weak keys: the
# cache must not keep dead models (and their weight arrays) alive.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[Model, dict[tuple, CompiledModel]]" \
    = weakref.WeakKeyDictionary()
_compile_events = dict.fromkeys(("hits", "misses"), 0)


def _cache_fingerprint(config: PumaConfig,
                       options: CompilerOptions | None) -> tuple:
    """A stable value key for the compile-relevant arguments."""
    return (fingerprint_value(config), fingerprint_value(options))


class CompileCacheInfo(NamedTuple):
    """Process-wide compile-cache statistics (cf. ``functools.lru_cache``).

    ``misses`` counts every lookup not served from memory — whether the
    compilation was then rebuilt by the compiler or loaded from the
    artifact store (:func:`repro.store.store_info` separates the two) —
    so hits + misses always reconciles with lookups.
    """

    hits: int
    misses: int
    entries: int


def compile_cached(model: Model, config: PumaConfig,
                   options: CompilerOptions | None = None, *,
                   loader=None) -> CompiledModel:
    """Compile ``model`` for ``config``, memoized on (model, config, options).

    ``loader`` is an optional miss-path hook: called before the compiler
    on a cache miss, its non-``None`` result (e.g. an artifact-store
    load) is cached in place of a fresh compilation.
    """
    per_model = _COMPILE_CACHE.setdefault(model, {})
    key = _cache_fingerprint(config, options)
    if key in per_model:
        _compile_events["hits"] += 1
    else:
        _compile_events["misses"] += 1
        compiled = loader() if loader is not None else None
        if compiled is None:
            compiled = compile_model(model, config, options)
        per_model[key] = compiled
    return per_model[key]


def compile_cache_info() -> CompileCacheInfo:
    """Hits/misses/live-entry counts of the process-wide compile cache."""
    entries = sum(len(compiled) for compiled in _COMPILE_CACHE.values())
    return CompileCacheInfo(entries=entries, **_compile_events)


def clear_compile_cache() -> None:
    """Drop every cached compilation and reset the hit/miss counters."""
    _COMPILE_CACHE.clear()
    _compile_events.update(dict.fromkeys(_compile_events, 0))


# -- execution-tape cache introspection ------------------------------------
#
# Tapes live on CompiledModel.execution_tapes (their lifetime is the
# compilation's, like programmed_states); the process-wide counters and the
# weak registry below exist so operators can observe the fast path —
# cf. compile_cache_info().

# Keyed by id(): CompiledModel is an eq-by-value dataclass (unhashable);
# the WeakValueDictionary drops entries as compilations die, so a recycled
# id simply overwrites a vacated slot.
_TAPE_MODELS: "weakref.WeakValueDictionary[int, CompiledModel]" = \
    weakref.WeakValueDictionary()
_tape_lock = threading.Lock()
# Tape events by name.  An optimized run is a replay served by the fused
# plan, so TapeCacheInfo.replays reports "replay" + "optimized".
_tape_events = dict.fromkeys(
    ("recording", "replay", "optimized", "fallback", "optimizer_fallback",
     "derived"), 0)


class TapeCacheInfo(NamedTuple):
    """Process-wide execution-tape statistics.

    Attributes:
        entries: live tapes across all live compilations.  Tape dicts
            shared by replica engines (several engines on one
            ``CompiledModel``) are counted once, not per replica.
        recordings: interpreter passes that recorded a tape (cache misses).
        replays: runs served from a tape — plain *and* optimized (every
            optimized run is also a replay; ``optimized`` counts the
            subset).
        fallbacks: runs that wanted the fast path but used the interpreter
            (stochastic RANDOM-op program, or a tape that failed
            validation at replay time).
        optimized: replays served by a fused/optimized execution plan.
        optimizer_fallbacks: plans refuted when their tape was recorded
            (structural self-check failed, or words differed from the
            interpreter's) — the tape is served by plain replay instead
            (still tape-served, never wrong).
        derived_stats: batch sizes whose stats were derived by a shadow
            timing simulation instead of a full recording pass.
    """

    entries: int
    recordings: int
    replays: int
    fallbacks: int
    optimized: int
    optimizer_fallbacks: int
    derived_stats: int


def tape_cache_info() -> TapeCacheInfo:
    """Entries/recordings/replays/fallback counters of the tape cache."""
    with _tape_lock:
        # Replicas may share one execution_tapes dict across distinct
        # CompiledModel wrappers; dedup by dict identity so shared tapes
        # are not double-counted, and count only real tapes (a cleared or
        # externally-mutated dict must not inflate the report).
        seen: set[int] = set()
        entries = 0
        for compiled in _TAPE_MODELS.values():
            tapes = compiled.execution_tapes
            if id(tapes) in seen:
                continue
            seen.add(id(tapes))
            entries += sum(1 for tape in tapes.values()
                           if isinstance(tape, ExecutionTape))
        return TapeCacheInfo(
            entries=entries, recordings=_tape_events["recording"],
            replays=_tape_events["replay"] + _tape_events["optimized"],
            fallbacks=_tape_events["fallback"],
            optimized=_tape_events["optimized"],
            optimizer_fallbacks=_tape_events["optimizer_fallback"],
            derived_stats=_tape_events["derived"])


def clear_tape_caches() -> None:
    """Drop every recorded tape on live compilations and reset counters."""
    with _tape_lock:
        for compiled in _TAPE_MODELS.values():
            compiled.execution_tapes.clear()
        _tape_events.update(dict.fromkeys(_tape_events, 0))


def _count_tape_event(kind: str) -> None:
    with _tape_lock:
        _tape_events[kind] += 1


def _insert_capped(cache: dict, key, value, cap: int) -> None:
    """Make ``key -> value`` the newest entry of ``cache``, evicting the
    oldest entries beyond ``cap``.  Callers hold the lock guarding
    ``cache``: a dict shared by replica engines would otherwise race
    ``next(iter())`` / ``pop`` on eviction."""
    cache.pop(key, None)
    cache[key] = value
    while len(cache) > cap:
        cache.pop(next(iter(cache)))


def _check_seed(seed) -> int:
    """``seed`` as an ``int``, or :class:`ValueError`.

    A programmed crossbar is a function of (config, device model, seed),
    so every engine has an integer seed; ``None``, a boolean, a float or
    a string is refused, never truncated or parsed.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"bad seed {seed!r} (must be an integer)")
    return int(seed)


class _Persisted(NamedTuple):
    """The on-disk artifact this engine's in-memory state matches."""

    path: Path                      # the resolved artifact directory
    stats_batches: frozenset[int]   # batch sizes its tape holds stats for

    @classmethod
    def of(cls, path: Path, tape: ExecutionTape | None) -> "_Persisted":
        return cls(path.resolve(), frozenset(
            tape.stats_by_batch if tape is not None else ()))


def _reject_nan(inputs: Mapping[str, np.ndarray]) -> None:
    """NaN has no fixed-point word (the cast yields ``INT64_MIN``, which
    the interpreter rejects as out of range and a replay serves as
    garbage); +/-inf saturates, which is defined."""
    for name, values in inputs.items():
        if np.isnan(values).any():
            raise ValueError(f"input {name!r} contains NaN")


class InferenceEngine:
    """Serves batched inference for one compiled model.

    Args:
        model: the frontend model to serve (``None`` only via
            :meth:`from_compiled`).
        config: accelerator configuration (Table 3 defaults when omitted).
        options: compiler options; part of the compile-cache key.
        crossbar_model: overrides the device model (noise studies).
        seed: RNG seed for write noise and the RANDOM op, an integer
            (NumPy integers become ``int``; anything else raises
            :class:`ValueError`).  The same seed is used for every run,
            so repeated calls see identically programmed crossbars — the
            property that makes batched and sequential executions
            comparable bit for bit.
        execution_mode: ``"auto"`` (default) records a batch-generic
            execution tape on the first run, optimizes it
            (:mod:`repro.sim.tapeopt`), checks the plan against that run,
            and replays it afterwards at any batch size, falling back to
            the event-driven interpreter when the program cannot be taped
            (stochastic RANDOM op) and to plain replay
            when the plan was refuted; ``"replay"`` serves the plain
            tape (the baseline the benchmark measures; its recordings
            still check a plan) and is strict: it raises ``ValueError``
            for engines that can *never* replay (recording passes — the
            first run, or the one after a tape is invalidated — are part
            of it, exactly as in ``"auto"``); ``"interpret"`` always runs
            the event-driven interpreter.  All three produce
            bitwise-identical outputs and field-identical stats.
        artifact_dir: persistent artifact store directory
            (:mod:`repro.store`).  At construction the engine loads a
            matching artifact if one exists — skipping compilation,
            crossbar programming, and tape recording — and otherwise
            compiles normally; any invalid artifact is ignored (rebuild,
            never a wrong answer).  :meth:`save_artifacts` writes the
            keyed artifact back.

    Attributes:
        compiled: the (cached) compilation artifacts.
        program: the executable :class:`~repro.isa.program.NodeProgram`.
        fmt: the datapath fixed-point format.
    """

    def __init__(self, model: Model | None, config: PumaConfig | None = None,
                 options: CompilerOptions | None = None,
                 crossbar_model: CrossbarModel | None = None,
                 seed: int = 0, *,
                 compiled: CompiledModel | None = None,
                 execution_mode: str = "auto",
                 artifact_dir: str | Path | None = None) -> None:
        if (model is None) == (compiled is None):
            raise ValueError(
                "provide exactly one of 'model' (compiled through the "
                "cache) or 'compiled' (a pre-built CompiledModel)")
        if execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"execution_mode must be one of {EXECUTION_MODES}, "
                f"got {execution_mode!r}")
        self.model = model
        self.config = config if config is not None else PumaConfig()
        self.options = options
        self.crossbar_model = crossbar_model
        self.seed = _check_seed(seed)
        self.execution_mode = execution_mode
        self.artifact_dir = Path(artifact_dir) if artifact_dir else None
        # config/crossbar_model/seed are fixed for the engine's lifetime;
        # fingerprinting them walks every dataclass field recursively, so
        # do it once, not per run.  (Computed before compilation: the
        # artifact store keys off it.)
        self._fingerprint = (fingerprint_value(self.config),
                             fingerprint_value(self.crossbar_model),
                             self.seed)
        # The artifact this engine's in-memory state matches (loaded or
        # saved), so repeated ensure_artifacts() calls (server + shard
        # pool wiring) don't re-hash and re-deserialize a multi-MB
        # artifact per layer; None once nothing on disk matches.
        self._artifact: _Persisted | None = None
        if compiled is not None:
            self.compiled = compiled
        else:
            self.compiled = self._resolve_compiled()
        self.program = self.compiled.program
        self.fmt = self.config.core.fixed_point
        # Trace-replay state: bound replayers by batch size, guarded by a
        # lock (a replayer mutates its node's arrays while running).
        self._replayers: dict[int, TapeReplayer] = {}
        self._replay_lock = threading.Lock()
        self._tape_blocker: str | None | bool = False  # False = not scanned
        # Static dependence graph for the tape cross-check, built lazily on
        # the first recording (analysis cost is per-engine, not per-run).
        self._depgraph = None

    @classmethod
    def from_compiled(cls, compiled: CompiledModel,
                      config: PumaConfig | None = None, *,
                      crossbar_model: CrossbarModel | None = None,
                      seed: int = 0,
                      execution_mode: str = "auto",
                      artifact_dir: str | Path | None = None
                      ) -> "InferenceEngine":
        """Serve an already-compiled model (CNN lowering, importer output).

        Bypasses the compile cache — the caller owns the compilation.
        ``artifact_dir`` enables :meth:`save_artifacts` /
        :meth:`ensure_artifacts`, keyed by a digest of the compiled
        program (there is no frontend model to digest).

        Example::

            compiled = compile_cnn(small_cnn_spec(), config)
            engine = InferenceEngine.from_compiled(compiled, config, seed=0)
        """
        return cls(None, config, crossbar_model=crossbar_model, seed=seed,
                   compiled=compiled, execution_mode=execution_mode,
                   artifact_dir=artifact_dir)

    # -- persistent artifact store -----------------------------------------

    def _key_digests(self) -> tuple[str, str, int]:
        """The engine key as stable digests (what artifact manifests pin)."""
        config_fp, crossbar_fp, seed = self._fingerprint
        return (fingerprint_digest(config_fp),
                fingerprint_digest(crossbar_fp), seed)

    def _artifact_path(self, artifact_dir: Path | None = None) -> Path:
        """Where this engine's artifact lives under the store directory."""
        base = artifact_dir if artifact_dir is not None else self.artifact_dir
        if base is None:
            raise ValueError(
                "no artifact directory configured (pass artifact_dir= to "
                "the engine or to this call)")
        if self.model is not None:
            content = fingerprint_digest(
                (model_digest(self.model), fingerprint_value(self.options)))
            name = self.model.name
        else:
            content = program_digest(self.compiled.program)
            name = self.compiled.program.name
        key = fingerprint_digest(self._key_digests())
        return Path(base) / artifact_key(name, content, key)

    def _resolve_compiled(self) -> CompiledModel:
        """Compile cache -> artifact store -> compiler, in that order.

        A store hit fills the in-process cache too (through the
        ``loader`` hook), so replica engines built for the same model
        share the compilation.  When the compile cache hits but this
        engine's (config, crossbar model, seed) has no programmed state
        yet — e.g. the model was compiled in-process under a different
        seed — the store is still consulted for the state and tapes.
        """
        if self.artifact_dir is None:
            return compile_cached(self.model, self.config, self.options)
        path, tried = self._artifact_path(), []
        compiled = compile_cached(
            self.model, self.config, self.options,
            loader=lambda: tried.append(path) or self._adopt_artifact(path))
        # One store read: an artifact the loader rejected is not re-read.
        if not tried and self._fingerprint not in compiled.programmed_states:
            self._adopt_artifact(path, compiled)
        return compiled

    def _adopt_artifact(self, path: Path,
                        compiled: CompiledModel | None = None,
                        loaded: LoadedArtifact | None = None
                        ) -> CompiledModel | None:
        """Load this engine's artifact at ``path`` (unless ``loaded``
        holds it already), install its programmed state and tape under
        this engine's key on ``compiled`` (default: the artifact's own
        compilation), and record it as the artifact the in-memory state
        matches.

        Returns the compilation, or ``None`` when ``path`` holds no valid
        artifact for this key.  Any validation failure (version or
        fingerprint mismatch, corrupt or truncated payloads) is a cache
        miss — the store must never produce a wrong answer, only a
        slower start.
        """
        if loaded is None:
            if not (path / MANIFEST_NAME).is_file():
                return None
            try:
                loaded = load_artifact(
                    path, expected_key_digests=self._key_digests())
            except ArtifactError:
                return None
        if compiled is None:
            compiled = loaded.compiled
        with _tape_lock:
            _insert_capped(compiled.programmed_states, self._fingerprint,
                           loaded.programmed_state, _PROGRAMMED_STATE_CAP)
            if loaded.tape is not None:
                _insert_capped(compiled.execution_tapes, self._fingerprint,
                               loaded.tape, _EXECUTION_TAPE_CAP)
            _TAPE_MODELS[id(compiled)] = compiled
        self._artifact = _Persisted.of(path, loaded.tape)
        return compiled

    @classmethod
    def from_artifacts(cls, path: str | Path, *,
                       execution_mode: str = "auto",
                       artifact_dir: str | Path | None = None
                       ) -> "InferenceEngine":
        """Build an engine from one on-disk artifact — the warm start.

        Loads the compilation, the programmed crossbar state, and every
        recorded execution tape from ``path``; the returned engine serves
        requests **bitwise identically** to a cold-built engine with the
        same model/config/crossbar/seed (``tests/test_store.py``), without
        re-paying compilation, programming, or tape recording.

        Example::

            InferenceEngine(model, seed=0).warm(batch=16) \\
                .save_artifacts("artifacts/mlp")
            # ... later, in a different process:
            engine = InferenceEngine.from_artifacts("artifacts/mlp")
            result = engine.predict({"x": x})      # replays immediately

        Raises:
            ArtifactError: the artifact is missing, corrupt, truncated,
                or from an unsupported format version.
        """
        loaded = load_artifact(path)
        engine = cls(None, loaded.config, loaded.options,
                     crossbar_model=loaded.crossbar_model, seed=loaded.seed,
                     compiled=loaded.compiled, execution_mode=execution_mode,
                     artifact_dir=artifact_dir)
        engine._adopt_artifact(Path(path), loaded=loaded)
        return engine

    def save_artifacts(self, path: str | Path | None = None) -> Path:
        """Persist this engine's warm state as an on-disk artifact.

        Programs the crossbars first (a no-op when already programmed),
        then writes the compilation, the programmed crossbar state for
        this engine's (config, crossbar model, seed), and the
        batch-generic execution tape recorded at that key (with every
        batch size's derived stats) — so a later :meth:`from_artifacts`
        (or an ``artifact_dir`` engine in a brand-new process) starts
        exactly where this engine stands.  Record the tape and derive the
        stats you want persisted before saving (``warm(batch=N)`` per
        serving batch size).

        Args:
            path: explicit artifact directory; defaults to the keyed slot
                under the engine's ``artifact_dir``.

        Returns:
            The artifact directory written.

        Raises:
            ValueError: no path given and no ``artifact_dir`` configured.
        """
        state = self._programmed_state()
        tape = self.compiled.execution_tapes.get(self._fingerprint)
        target = Path(path) if path is not None else self._artifact_path()
        saved = save_artifact(
            target, compiled=self.compiled, tape=tape,
            programmed_state=state, config=self.config,
            options=self.options, crossbar_model=self.crossbar_model,
            seed=self.seed)
        self._artifact = _Persisted.of(saved, tape)
        return saved

    def ensure_artifacts(self, artifact_dir: str | Path | None = None, *,
                         batch: int | None = None) -> Path | None:
        """Make the on-disk artifact exist and this engine warm — both ways.

        The idempotent primitive behind the serving layers: an engine
        that holds no programmed state yet adopts a valid artifact for
        its key (programmed state + tape) when one exists; otherwise the
        engine is warmed (recording a tape for ``batch`` when given) and
        its in-memory state saved, unless the artifact it was loaded
        from or saved to already holds it.  Either way, the next process
        pointed at the same directory warm-starts.

        Args:
            artifact_dir: store directory; defaults to (and, on first
                use, becomes) the engine's ``artifact_dir``.
            batch: additionally guarantee a recorded tape for this batch
                size before saving.

        Returns:
            The artifact path, or ``None`` when no directory is
            configured anywhere (a no-op, so callers can wire it
            unconditionally).
        """
        base = Path(artifact_dir) if artifact_dir is not None \
            else self.artifact_dir
        if base is None:
            return None
        if self.artifact_dir is None:
            self.artifact_dir = base
        path = self._artifact_path(base)
        if self._fingerprint not in self.compiled.programmed_states:
            self._adopt_artifact(path, self.compiled)
        record = self._artifact
        if record is not None and record.path == path.resolve() and (
                batch is None or batch in record.stats_batches
                or self._replay_blocker() is not None):
            # This artifact holds the in-memory state, down to the
            # requested batch's stats: nothing to load or save.
            return path
        self.warm(batch=batch)
        return self.save_artifacts(path)

    # -- data formatting ---------------------------------------------------

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Real values -> fixed-point words (any shape)."""
        return self.fmt.quantize(values)

    def dequantize(self, words: np.ndarray) -> np.ndarray:
        """Fixed-point words -> real values (any shape)."""
        return self.fmt.dequantize(words)

    def quantize_inputs(self, inputs: Mapping[str, np.ndarray]
                        ) -> dict[str, np.ndarray]:
        """Named real-valued inputs -> fixed-point words, NaN rejected."""
        arrays = {name: np.asarray(values, dtype=np.float64)
                  for name, values in inputs.items()}
        _reject_nan(arrays)
        return {name: self.quantize(arr) for name, arr in arrays.items()}

    # -- input validation --------------------------------------------------

    def _check_names(self, inputs: Mapping[str, np.ndarray]) -> None:
        """Every program input present, nothing extra."""
        layout = self.program.input_layout
        unknown = sorted(set(inputs) - set(layout))
        if unknown:
            raise ValueError(
                f"unknown input name(s) {unknown}; program inputs are "
                f"{sorted(layout)}")
        missing = sorted(set(layout) - set(inputs))
        if missing:
            raise ValueError(
                f"missing input(s) {missing}; program inputs are "
                f"{sorted(layout)}")

    def _infer_batch(self, inputs: Mapping[str, np.ndarray]) -> int:
        """Batch size implied by the input shapes (rows of 2-D inputs).

        Validates each value against the compiled ``input_layout``: 1-D
        vectors (broadcast to every lane) and ``(batch, length)`` matrices
        are accepted, per-lane lengths must match the layout, and all 2-D
        inputs must agree on the batch size.
        """
        layout = self.program.input_layout
        batch: int | None = None
        for name, values in inputs.items():
            arr = np.asarray(values)
            if arr.ndim == 2:
                if batch is not None and arr.shape[0] != batch:
                    raise ValueError(
                        f"inconsistent batch sizes across inputs: "
                        f"{batch} vs {arr.shape[0]} ({name!r})")
                batch = arr.shape[0]
            elif arr.ndim != 1:
                raise ValueError(
                    f"input {name!r} must be 1-D or (batch, length), "
                    f"got shape {arr.shape}")
            if name in layout:
                length = layout[name][2]
                if arr.shape[-1] != length:
                    raise ValueError(
                        f"input {name!r} expects {length} values per "
                        f"inference, got {arr.shape[-1]} "
                        f"(shape {arr.shape})")
        return batch if batch is not None else 1

    def validate_request(self, inputs: Mapping[str, np.ndarray]) -> None:
        """Validate one single-inference request (1-D vectors only).

        The fail-fast check :class:`repro.serve.PumaServer` runs at
        ``submit`` time, before a request can poison a coalesced batch.
        """
        self._check_names(inputs)
        for name, values in inputs.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise ValueError(
                    f"request input {name!r} must be a 1-D vector "
                    f"(one inference), got shape {arr.shape}")
        self._infer_batch(inputs)
        _reject_nan(inputs)

    def _programmed_state(self) -> NodeProgrammedState:
        """The crossbar programming for this engine's (config, crossbar
        model, seed), performed on first use and cached on the compiled
        model; every simulator and replay node — any batch size, any
        replica engine sharing the compilation — installs it instead of
        re-programming, bitwise identically (Section 3.2.5: weights are
        written once at configuration time).
        """
        states = self.compiled.programmed_states
        state = states.get(self._fingerprint)
        if state is None:
            state = NodeProgrammedState.for_program(
                self.config, self.program, self.crossbar_model,
                np.random.default_rng(self.seed))
            # A seed/noise sweep over one kept-alive model would otherwise
            # pin one multi-MB crossbar snapshot per (config, crossbar
            # model, seed) forever; evicting the oldest entries costs
            # only a re-programming pass.
            with _tape_lock:
                _insert_capped(states, self._fingerprint, state,
                               _PROGRAMMED_STATE_CAP)
        return state

    def _simulator(self, batch: int,
                   tape_recorder: TapeRecorder | None = None,
                   stats_batch: int | None = None) -> Simulator:
        """A fresh simulator over the cached crossbar programming."""
        return Simulator(self.config, self.program,
                         crossbar_model=self.crossbar_model,
                         seed=self.seed, batch=batch,
                         programmed_state=self._programmed_state(),
                         tape_recorder=tape_recorder, stats_batch=stats_batch)

    def warm(self, batch: int | None = None) -> "InferenceEngine":
        """Program the crossbars (and optionally record a tape) up front.

        Compilation already happened in ``__init__``; this performs (and
        caches) the configuration-time crossbar programming so the first
        real request doesn't pay it — and so worker processes forked after
        ``warm()`` inherit the programmed arrays copy-on-write.  No-op
        when the state is already cached.

        With ``batch`` the warm-up additionally guarantees tape coverage
        for that batch size: the first call records the batch-generic
        tape (one interpreter pass over a seeded non-zero batch, so the
        plan's recording check sees real data; the schedule is
        input-independent); later calls only derive that batch's
        timing stats via a shadow simulation, which is how one tape comes
        to serve the whole batch ladder.  Unlike a serving pass, which
        derives only when its result's ``stats`` are read, this is eager:
        the way to put a width's stats in the next saved artifact.
        Ignored when the engine cannot replay
        (``execution_mode="interpret"`` or a RANDOM-op program).
        """
        self._programmed_state()
        if batch is not None and self._replay_blocker() is None:
            tape = self.compiled.execution_tapes.get(self._fingerprint)
            if tape is None:
                rng = np.random.default_rng(0)
                self.run_batch({
                    name: self.quantize(
                        rng.uniform(-1.0, 1.0, size=(batch, length)))
                    for name, (_tile, _addr, length)
                    in self.program.input_layout.items()})
            elif tape.stats_for(batch) is None:
                self._stats_for_batch(tape, batch)
        return self

    # -- trace replay ------------------------------------------------------

    def _replay_blocker(self) -> str | None:
        """Why this engine cannot trace-replay, or ``None`` if it can."""
        if self.execution_mode == "interpret":
            return "execution_mode='interpret'"
        if self._tape_blocker is False:  # not scanned yet
            self._tape_blocker = find_unsupported_op(self.program)
        return self._tape_blocker

    def _dependence_graph(self):
        """The program's static dependence graph (built once, cached).

        Consumed by the tape cross-check in :meth:`_execute`; the same
        object is the substrate the static verifier and the future tape
        optimizer use (see ``docs/analysis.md``).
        """
        if self._depgraph is None:
            from repro.analysis.depgraph import StaticDependenceGraph

            self._depgraph = StaticDependenceGraph.from_program(
                self.program, self.config)
        return self._depgraph

    def _fresh_node(self, batch: int) -> Node:
        """An event-loop-free node for replay, reusing cached programming."""
        return Node.for_program(
            self.config, self.program, lambda _delay, _callback: None,
            crossbar_model=self.crossbar_model, seed=self.seed,
            batch=batch, programmed_state=self._programmed_state())

    def _replayer(self, batch: int) -> TapeReplayer | None:
        """The bound replayer for ``batch``, or ``None`` with no tape yet.

        Binds the tape's checked plan in ``"auto"`` mode, else the plain
        tape.  Raises :class:`TapeValidationError` when a cached tape
        cannot be bound to a fresh node (callers treat that as
        "re-record").
        """
        tape = self.compiled.execution_tapes.get(self._fingerprint)
        if tape is None:
            self._replayers.pop(batch, None)
            return None
        replayer = self._replayers.get(batch)
        # A plan never changes after recording: only a cleared or
        # replaced tape (invalidation, clear_tape_caches) needs a rebind.
        if replayer is None or replayer.tape is not tape:
            plan = tape.optimized if self.execution_mode == "auto" else None
            replayer = self._bind_replayer(tape, plan, batch)
        _insert_capped(self._replayers, batch, replayer, _REPLAYER_CAP)
        return replayer

    def _bind_replayer(self, tape: ExecutionTape,
                       plan: OptimizedTape | None, batch: int
                       ) -> TapeReplayer:
        """Bind ``tape`` (through ``plan`` when given) to a fresh node."""
        return TapeReplayer(tape, self._fresh_node(batch), self.program,
                            plan)

    def _invalidate_tape(self) -> None:
        """Drop the tape, its bound replayers, and the record of the
        artifact that holds it.

        With no record, the next :meth:`ensure_artifacts` saves the
        in-memory state over the on-disk artifact instead of trusting
        (or re-adopting) a manifest that still carries the evicted tape.
        """
        self._replayers.clear()
        self.compiled.execution_tapes.pop(self._fingerprint, None)
        self._artifact = None

    def _stats_for_batch(self, tape: ExecutionTape, batch: int
                         ) -> SimulationStats:
        """Stats for ``batch``, deriving (and caching) them when missing.

        The tape is batch-generic but timing is not: latencies, word
        counts, energy, and NoC traffic all scale with the lane count.
        Derivation runs one *shadow timing* simulation — a ``batch=1``
        functional pass with every cost charged at ``batch`` lanes
        (``Simulator(stats_batch=...)``) — which yields stats
        field-identical to a real batch-``batch`` interpreter run at
        batch-1 cost, because event ordering depends on the batch only
        through those charged latencies.
        """
        stats = tape.stats_for(batch)
        if stats is not None:
            return stats.copy()
        sim = self._simulator(1, stats_batch=batch)
        sim.run({name: np.zeros(length, dtype=np.int64)
                 for name, (_tile, _addr, length)
                 in self.program.input_layout.items()})
        tape.add_stats(batch, sim.stats)
        _count_tape_event("derived")
        return sim.stats

    def _checked_plan(self, tape: ExecutionTape,
                      inputs: dict[str, np.ndarray], batch: int,
                      words: dict[str, np.ndarray]
                      ) -> TapeReplayer | None:
        """Optimize a freshly recorded tape and check the plan, once.

        Bound on a fresh node, the plan replays the recording run's
        ``inputs`` and must reproduce the interpreter's ``words``
        bitwise; it then becomes ``tape.optimized`` and its replayer is
        returned.  A refuted plan is counted and never reaches the tape.
        """
        try:
            plan = optimize_tape(tape, self._dependence_graph())
        except TapeOptimizationError:
            _count_tape_event("optimizer_fallback")
            return None
        replayer = self._bind_replayer(tape, plan, batch)
        replayed = replayer.run(inputs)
        if replayed.keys() != words.keys() or not all(
                np.array_equal(replayed[name], words[name]) for name in words):
            _count_tape_event("optimizer_fallback")
            return None
        tape.optimized = plan
        return replayer

    def _execute(self, inputs: dict[str, np.ndarray], batch: int
                 ) -> RunResult:
        """One pass: replay (optimized when possible) or interpret+record.

        The result's ``execution`` names the path taken (``"optimized"`` /
        ``"replay"`` / ``"interpreter"``).  A replayed pass hands its
        result the tape and width, and the stats derive on first read.
        """
        blocker = self._replay_blocker()
        if blocker is not None:
            if self.execution_mode == "replay":
                raise ValueError(
                    f"execution_mode='replay' but the program cannot be "
                    f"trace-replayed: {blocker}")
            if self.execution_mode != "interpret":
                _count_tape_event("fallback")
            sim = self._simulator(batch)
            words = sim.run(inputs)
            return RunResult(words, self.fmt, sim.stats, batch,
                             execution="interpreter")

        with self._replay_lock:
            try:
                replayer = self._replayer(batch)
                if replayer is not None:
                    words = replayer.run(inputs)
                    execution = ("replay" if replayer.optimized is None
                                 else "optimized")
                    _count_tape_event(execution)
                    return RunResult(words, self.fmt, batch=batch,
                                     derive_stats=functools.partial(
                                         self._stats_for_batch,
                                         replayer.tape, batch),
                                     execution=execution)
            except TapeValidationError:
                # A stale/incompatible tape is an internal cache problem,
                # never a user-facing failure: drop it and re-record below.
                self._invalidate_tape()
                _count_tape_event("fallback")

        recorder = TapeRecorder(batch)
        sim = self._simulator(batch, tape_recorder=recorder)
        words = sim.run(inputs)
        tape = recorder.finish(sim.stats)
        problems = self._dependence_graph().validate_tape(tape)
        if problems:
            # The recorded schedule is not a legal realization of the
            # program's static dependence graph — never replay it.  The
            # run's own results are still correct (the interpreter
            # computed them); only the tape is discarded, and the miss is
            # counted like every other fast-path fallback.
            _count_tape_event("fallback")
            return RunResult(words, self.fmt, sim.stats, batch,
                             execution="interpreter")
        checked = self._checked_plan(tape, inputs, batch, words)
        # Shared with every replica engine on this compilation.
        with _tape_lock:
            _insert_capped(self.compiled.execution_tapes, self._fingerprint,
                           tape, _EXECUTION_TAPE_CAP)
            _TAPE_MODELS[id(self.compiled)] = self.compiled
        if checked is not None and self.execution_mode == "auto":
            # The check bound this width already: serve it from here on.
            with self._replay_lock:
                _insert_capped(self._replayers, batch, checked,
                               _REPLAYER_CAP)
        _count_tape_event("recording")
        return RunResult(words, self.fmt, sim.stats, batch,
                         execution="interpreter")

    # -- execution ---------------------------------------------------------

    def predict(self, inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Float-first inference: real values in, :class:`RunResult` out.

        Args:
            inputs: real-valued arrays per input name — ``(length,)``
                vectors are broadcast to every lane, ``(batch, length)``
                matrices carry one inference per row.  Quantization to the
                datapath fixed-point format happens here.

        Returns:
            The run's :class:`RunResult`; read dequantized floats from
            ``result.outputs`` and raw words via the mapping interface.

        Raises:
            ValueError: unknown/missing input names, per-lane lengths that
                disagree with the compiled ``input_layout``,
                inconsistent batch sizes, or a NaN value — checked up
                front, before any simulation starts.
        """
        # Validation (names, lengths, batch consistency) happens in
        # run_batch; quantization preserves every checked property.
        return self.run_batch(self.quantize_inputs(inputs))

    def run_batch(self, inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Run a whole batch of fixed-point words in one SIMD pass.

        Args:
            inputs: fixed-point words per input name; ``(batch, length)``
                matrices carry one row per lane, 1-D vectors are broadcast
                to every lane (shared conditioning inputs).

        Returns:
            The :class:`RunResult` — a mapping over the fixed-point output
            words (``(batch, length)``, or ``(length,)`` when the batch
            size is 1) that also carries float views and the pass's stats.
        """
        self._check_names(inputs)
        return self._execute(dict(inputs), self._infer_batch(inputs))

    def run(self, inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Run a single input (1-D fixed-point vectors) through the
        simulator."""
        return self.run_batch(inputs)

    def run_sequential(self, inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Reference path: one single-input simulation per batch row.

        Produces outputs shaped exactly like :meth:`run_batch` (stacked
        rows); used by the equivalence tests and as a fallback when lanes
        must not share a simulator (e.g. stochastic RANDOM-op workloads
        where each input should draw fresh noise).

        The result's ``stats`` are the final row's run; ``lane_stats``
        carries every row's stats.
        """
        self._check_names(inputs)
        batch = self._infer_batch(inputs)
        if batch == 1:
            result = self.run_batch(inputs)
            return RunResult(words=result.words, fmt=result.fmt,
                             stats=result.stats, batch=1,
                             lane_stats=(result.stats,))
        rows: list[dict[str, np.ndarray]] = []
        lane_stats: list[SimulationStats] = []
        for lane in range(batch):
            lane_inputs = {
                name: (np.asarray(values)[lane]
                       if np.asarray(values).ndim == 2 else values)
                for name, values in inputs.items()
            }
            sim = self._simulator(1)
            rows.append(sim.run(lane_inputs))
            lane_stats.append(sim.stats)
        words = {name: np.stack([row[name] for row in rows])
                 for name in rows[0]}
        return RunResult(words=words, fmt=self.fmt, stats=lane_stats[-1],
                         batch=batch, lane_stats=tuple(lane_stats))

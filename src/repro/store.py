"""Persistent artifact store: compiled models + programmed state on disk.

PUMA's economics are *pay once, serve many*: compilation, crossbar
programming, and (since the trace-replay engine) schedule recording all
happen once, and every later request amortizes them (Section 3.2.5 —
weights are written at configuration time; Section 7.3 — inference cost
is measured per-request against that fixed endpoint).  The in-process
caches already realize this within one process; this module extends the
same once-vs-many split **across processes**: a
:class:`~repro.engine.InferenceEngine` can serialize everything its
caches hold into one on-disk artifact, and a brand-new process — a CLI
invocation, a CI job, a cold serving replica on another machine — loads
it back and starts serving without re-paying compilation, programming,
or tape recording.

An artifact is a directory holding three files:

* ``manifest.json`` — format version, the key fingerprint digests
  (config / crossbar model / seed), the post-programming RNG state, and
  a SHA-256 integrity hash + byte size for every payload file.  The
  manifest is the trust anchor: every load re-verifies it before any
  payload is deserialized.
* ``payload.pkl.gz`` — the structural payload: the stripped
  :class:`~repro.compiler.compile.CompiledModel` (or
  :class:`~repro.compiler.cnn.CnnCompiled`), the recorded batch-generic
  :class:`~repro.sim.tape.ExecutionTape` (one tape serves every batch
  size; its optimized plan rides along, re-verified at load against the
  manifest's optimizer digest), and the config / options / crossbar
  model / seed the engine was built with — one gzipped pickle, so the
  tape keeps sharing instruction objects with the program.
* ``programmed_state.npz`` — the numeric payload: every MVMU's
  programmed-state record as the engine holds it in memory (see
  :meth:`~repro.arch.mvmu.MVMU.export_programmed_state`) — the ``int16``
  matrix, the ``uint8`` level stack and, for a *noisy* model only, the
  conductance stack (it carries RNG draws; noiseless conductances are a
  pure function of the levels and are not state at all).

**Validation policy: never a wrong answer.**  Loads verify the format
version, the integrity hashes, the fingerprint digests (recomputed from
the deserialized objects, so a tampered payload cannot masquerade), and
the internal consistency of the programmed state and tapes.  Any
mismatch — truncation, corruption, a different config/seed, a future
format — raises :class:`ArtifactError`; the engine treats that as a cache
miss and rebuilds from scratch, exactly as if the artifact did not exist.

Artifacts are **trusted local caches**, not an interchange format: the
structural payload uses :mod:`pickle`, so load artifacts only from
directories you (or your deployment) wrote.  The integrity hashes detect
accidents, not adversaries.

Key derivation is value-based and process-independent::

    >>> fingerprint_digest(("PumaConfig", (("clock_ghz", 1.0),)))
    '93b709c7a5aeeab8cd15530190a37f824ebf4d3ef0fc681c58e4b5420628a17f'
    >>> artifact_key("mlp-l4", "ab12", "cd34")
    'mlp-l4-652dd787fad1ed90'
    >>> artifact_key("a model / with spaces", "ab12", "cd34")
    'a-model-with-spaces-652dd787fad1ed90'

See ``docs/serving.md`` for where the store sits in the cache hierarchy
and ``docs/guarantees.md`` for the bitwise guarantee it extends.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import pickle
import re
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.arch.crossbar import CrossbarModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.frontend import Model
    from repro.isa.program import NodeProgram
    from repro.node.node import NodeProgrammedState
    from repro.sim.tape import ExecutionTape

# Version 5: plans drop dead register writes; the digested report counts
# them.  Version 4: a persisted plan
# passed its recording check and loaders trust it (a version-3 plan was
# never checked at recording).  Version 3
# made the programmed state the in-memory record (no column offset sums,
# no manifest ``conductances`` mode); version 2 introduced the single
# batch-generic tape.  Older artifacts are rejected like any other
# unsupported format — a cache miss and rebuild, never a wrong answer.
FORMAT_VERSION = 5
MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.pkl.gz"
STATE_NAME = "programmed_state.npz"

# Artifact kinds the loader accepts (the engine can serve either).
_KNOWN_KINDS = ("CompiledModel", "CnnCompiled")


class ArtifactError(RuntimeError):
    """An artifact failed validation (corrupt, truncated, or mismatched).

    Raised for *every* load-side failure mode — unreadable manifest,
    format-version or fingerprint mismatch, integrity-hash failure,
    truncated payload, malformed programmed state or tapes.  Callers that
    can rebuild (the engine's ``artifact_dir`` path) treat it as a cache
    miss; callers that cannot (:meth:`InferenceEngine.from_artifacts`
    with an explicit path) surface it.

    Example::

        try:
            engine = InferenceEngine.from_artifacts("artifacts/mlp-x")
        except ArtifactError as err:
            engine = InferenceEngine(model, seed=0)   # cold rebuild
    """


class ArtifactStoreInfo(NamedTuple):
    """Process-wide artifact-store counters (cf. ``compile_cache_info``).

    Attributes:
        saves: artifacts written by this process.
        loads: artifacts loaded and fully validated.
        rejections: load attempts refused with :class:`ArtifactError`
            (each one either surfaced or triggered a cold rebuild).
    """

    saves: int
    loads: int
    rejections: int


_counter_lock = threading.Lock()
_store_events = dict.fromkeys(("save", "load", "rejection"), 0)


def store_info() -> ArtifactStoreInfo:
    """Saves/loads/rejections performed by this process.

    Example::

        >>> isinstance(store_info().saves, int)
        True
    """
    with _counter_lock:
        return ArtifactStoreInfo(saves=_store_events["save"],
                                 loads=_store_events["load"],
                                 rejections=_store_events["rejection"])


def _count(kind: str) -> None:
    with _counter_lock:
        _store_events[kind] += 1


# -- fingerprints and keys ---------------------------------------------------


def fingerprint_value(value: Any) -> Any:
    """A hashable, value-based key component (the compile-cache key basis).

    Dataclasses decompose field by field (recursively), so the key covers
    exactly what the instance *holds* — unlike ``repr``, which would miss
    ``repr=False`` fields and collide for distinct types with equal
    string forms.

    >>> fingerprint_value([1, (2, 3)])
    ('list', (1, ('tuple', (2, 3))))
    >>> fingerprint_value({"b": 2, "a": 1})
    ('dict', (('a', 1), ('b', 2)))
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__qualname__, tuple(
            (f.name, fingerprint_value(getattr(value, f.name)))
            for f in dataclasses.fields(value)))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,
                tuple(fingerprint_value(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            (k, fingerprint_value(v)) for k, v in value.items())))
    return value


def fingerprint_digest(fingerprint: Any) -> str:
    """A stable hex digest of a :func:`fingerprint_value` result.

    Fingerprints are nested tuples of primitives, whose ``repr`` is
    deterministic across processes and Python sessions — the property the
    cross-process store keys rely on.

    >>> fingerprint_digest(None) == fingerprint_digest(None)
    True
    >>> len(fingerprint_digest(("x", 1)))
    64
    """
    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()


def model_digest(model: "Model") -> str:
    """A content digest of a frontend model: DAG structure plus weights.

    Two model objects built identically (same builder, same seed) in two
    different processes digest identically — this is what lets a process
    that never compiled anything find the artifact its predecessor wrote.
    """
    h = hashlib.sha256()
    h.update(model.name.encode("utf-8"))
    for node in model.nodes:
        h.update(repr((node.node_id, node.kind.value, node.length,
                       tuple(node.inputs),
                       node.alu_op.name if node.alu_op is not None else "",
                       node.name, node.matrix_name, node.immediate,
                       node.slice_start)).encode("utf-8"))
        if node.values is not None:
            arr = np.ascontiguousarray(node.values)
            h.update(repr((arr.shape, str(arr.dtype))).encode("utf-8"))
            h.update(arr.tobytes())
    for name in sorted(model.matrices):
        arr = np.ascontiguousarray(model.matrices[name])
        h.update(repr((name, arr.shape, str(arr.dtype))).encode("utf-8"))
        h.update(arr.tobytes())
    h.update(repr(sorted(model.input_names.items())).encode("utf-8"))
    h.update(repr(sorted(model.output_names.items())).encode("utf-8"))
    return h.hexdigest()


def program_digest(program: "NodeProgram") -> str:
    """A content digest of a compiled program (instructions + weights).

    Used to key artifacts for engines built from a pre-existing
    compilation (:meth:`InferenceEngine.from_compiled` — CNN lowering,
    importer output), where no frontend model exists to digest.
    """
    h = hashlib.sha256()
    h.update(program.name.encode("utf-8"))
    for tile_id in sorted(program.tiles):
        tile = program.tiles[tile_id]
        h.update(repr((tile_id,
                       tuple(repr(i) for i in tile.tile_instructions)))
                 .encode("utf-8"))
        for core_id in sorted(tile.cores):
            core = tile.cores[core_id]
            h.update(repr((core_id,
                           tuple(repr(i) for i in core.instructions)))
                     .encode("utf-8"))
    for key in sorted(program.weights):
        arr = np.ascontiguousarray(program.weights[key])
        h.update(repr((key, arr.shape, str(arr.dtype))).encode("utf-8"))
        h.update(arr.tobytes())
    for tile_id in sorted(program.const_memory):
        for addr, values in program.const_memory[tile_id]:
            h.update(repr((tile_id, addr, tuple(np.asarray(values).tolist())))
                     .encode("utf-8"))
    h.update(repr(sorted(program.input_layout.items())).encode("utf-8"))
    h.update(repr(sorted(program.output_layout.items())).encode("utf-8"))
    return h.hexdigest()


def artifact_key(model_name: str, content_digest: str,
                 key_digest: str) -> str:
    """The store directory name for one (model, configuration) pair.

    Combines a human-readable slug of the model name with a 16-hex-char
    digest of (content digest, engine key digest), so distinct
    configurations of one model land in sibling directories.

    >>> artifact_key("mlp", "aa", "bb")
    'mlp-1103408048cca0b5'
    >>> artifact_key("", "aa", "bb")
    'model-1103408048cca0b5'
    """
    combined = hashlib.sha256(
        repr((content_digest, key_digest)).encode("utf-8")).hexdigest()[:16]
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", model_name).strip("-") or "model"
    return f"{slug}-{combined}"


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _unpack_state(arrays: dict[str, np.ndarray], rng_state: Any,
                  model: CrossbarModel,
                  program: "NodeProgram") -> "NodeProgrammedState":
    """The stored arrays as a programmed state for ``program``.

    Raises ``ValueError`` when the state does not program exactly the
    program's MVMUs, or when conductance stacks are not present exactly
    for a noisy model (dropping them would silently drop the noise).
    """
    from repro.node.node import NodeProgrammedState

    state = NodeProgrammedState.from_flat_arrays(arrays, rng_state)
    state.check_covers(program)
    noisy = model.write_noise_sigma != 0.0
    if any((unit[2] is None) == noisy for unit in state.mvmus.values()):
        raise ValueError("conductance stacks must be stored exactly when "
                         "the crossbar model is noisy")
    return state


# -- save --------------------------------------------------------------------


@dataclass
class LoadedArtifact:
    """Everything :func:`load_artifact` deserialized and validated.

    Attributes:
        kind: ``"CompiledModel"`` or ``"CnnCompiled"``.
        compiled: the compilation, with **empty** engine caches — the
            engine installs ``programmed_state`` and ``tape`` under its
            own fingerprint keys.
        tape: the batch-generic execution tape (``None`` when the engine
            never recorded one).
        programmed_state: the post-programming crossbar state
            (:class:`~repro.node.node.NodeProgrammedState`).
        config / options / crossbar_model / seed: the engine parameters
            the artifact was built with.
        manifest: the parsed, verified manifest.
        path: the artifact directory.
    """

    kind: str
    compiled: Any
    tape: "ExecutionTape | None"
    programmed_state: "NodeProgrammedState"
    config: Any
    options: Any
    crossbar_model: Any
    seed: int
    manifest: dict
    path: Path


def save_artifact(path: str | Path, *, compiled: Any,
                  tape: "ExecutionTape | None",
                  programmed_state: "NodeProgrammedState",
                  config: Any, options: Any, crossbar_model: Any,
                  seed: int) -> Path:
    """Serialize one engine's warm state into an artifact directory.

    Writes atomically: files land in a temporary sibling directory that
    is renamed over ``path`` only once complete, so a crashed save never
    leaves a half-written artifact for a later process to trip over.

    Args:
        path: target artifact directory (created, parents included).
        compiled: the ``CompiledModel`` / ``CnnCompiled`` to persist; its
            engine caches are stripped from the pickle (the selected
            state travels in dedicated payloads instead).
        tape: the batch-generic execution tape, or ``None``.  Its
            optimized plan, checked when the tape was recorded, is
            persisted with it (a refuted plan is ``None`` and stays so).
        programmed_state: the harvested post-programming crossbar state;
            required — an artifact exists to skip the programming pass.
        config / options / crossbar_model / seed: the engine parameters,
            persisted so :func:`load_artifact` can rebuild the engine.

    Returns:
        The artifact directory path.

    Raises:
        ArtifactError: ``programmed_state`` is missing, ``seed`` is not
            a plain int, or ``tape`` is given for a program that can
            never be replayed (stochastic RANDOM op).
    """
    from repro.sim.tape import ExecutionTape, find_unsupported_op

    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ArtifactError(
            f"artifact seed must be a plain int, got {seed!r}")
    if programmed_state is None:
        raise ArtifactError(
            "cannot persist an artifact without programmed crossbar state "
            "(warm the engine first)")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    kind = type(compiled).__name__
    if kind not in _KNOWN_KINDS:
        raise ArtifactError(
            f"unknown compilation kind {kind!r}; expected one of "
            f"{_KNOWN_KINDS}")
    if tape is not None:
        if not isinstance(tape, ExecutionTape):
            raise ArtifactError(
                f"tape must be an ExecutionTape or None, got "
                f"{type(tape).__name__}")
        blocker = find_unsupported_op(compiled.program)
        if blocker is not None:
            raise ArtifactError(
                f"refusing to persist an execution tape for a program "
                f"that can never be replayed ({blocker}); a frozen "
                f"schedule for it would be a wrong answer waiting to be "
                f"served")
    opt = None if tape is None else tape.optimized
    stripped = dataclasses.replace(compiled, programmed_states={},
                                   execution_tapes={})
    payload = {
        "kind": kind,
        "compiled": stripped,
        "tape": tape,
        "config": config,
        "options": options,
        "crossbar_model": crossbar_model,
        "seed": seed,
    }
    arrays = programmed_state.to_flat_arrays()

    # Static-verifier clean bill: records that *these* program bits passed
    # *this* analyzer version without errors (``clean_bill`` is null when
    # they did not — saving still succeeds; the manifest just says so).
    from repro.analysis import ANALYZER_VERSION, analyze_program

    lint_report = analyze_program(compiled.program, config)

    tmp = Path(tempfile.mkdtemp(prefix=".artifact-", dir=target.parent))
    try:
        # gzip level 1: the pickle is dominated by int64 weight arrays
        # holding 16-bit values, which even the cheapest level crushes —
        # load time is bounded by hashing + inflation, so small wins.
        with open(tmp / PAYLOAD_NAME, "wb") as handle:
            handle.write(gzip.compress(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                compresslevel=1))
        with open(tmp / STATE_NAME, "wb") as handle:
            np.savez(handle, **arrays)
        files = {}
        for name in (PAYLOAD_NAME, STATE_NAME):
            file_path = tmp / name
            files[name] = {"sha256": _sha256_file(file_path),
                           "bytes": file_path.stat().st_size}
        manifest = {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "model_name": compiled.program.name,
            "seed": seed,
            "config_digest": fingerprint_digest(fingerprint_value(config)),
            "crossbar_digest": fingerprint_digest(
                fingerprint_value(crossbar_model)),
            "options_digest": fingerprint_digest(fingerprint_value(options)),
            "tape": None if tape is None else {
                "recorded_batch": int(tape.recorded_batch),
                "stats_batches": sorted(int(b) for b in tape.stats_by_batch),
                "steps": len(tape.steps),
                "instruction_count": int(tape.instruction_count),
            },
            "optimizer": None if opt is None else {
                "digest": opt.digest(),
                "report": opt.report.as_dict(),
            },
            "rng_state": programmed_state.rng_state,
            "lint": {
                "analyzer_version": ANALYZER_VERSION,
                "clean_bill": lint_report.clean_bill_digest(),
                "summary": lint_report.summary(),
            },
            "files": files,
        }
        with open(tmp / MANIFEST_NAME, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        if target.exists():
            # Tolerate a concurrent saver tearing the old artifact down
            # at the same time (two cold replicas populating one store).
            shutil.rmtree(target, ignore_errors=True)
        try:
            os.replace(tmp, target)
        except OSError:
            # A concurrent saver won the rename race.  Same target key
            # means an equivalent artifact by construction, so keep
            # theirs — but only if a complete one is actually there.
            shutil.rmtree(tmp, ignore_errors=True)
            if not (target / MANIFEST_NAME).is_file():
                raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _count("save")
    return target


# -- load --------------------------------------------------------------------


def _fail(message: str) -> "ArtifactError":
    _count("rejection")
    return ArtifactError(message)


def load_artifact(path: str | Path,
                  expected_key_digests: tuple[str, str, int] | None = None
                  ) -> LoadedArtifact:
    """Load and strictly validate one artifact directory.

    Validation happens in trust order: manifest first (version, schema),
    then integrity hashes over the raw payload bytes, then the pickled
    payload, then cross-checks (recomputed fingerprint digests must match
    the manifest — a payload that deserializes to a *different* config
    than advertised is rejected), then the programmed state and tapes.

    Args:
        path: the artifact directory.
        expected_key_digests: optional
            ``(config_digest, crossbar_digest, seed)`` the caller
            requires; a mismatch raises (the engine passes its own key so
            a stale artifact can never serve a differently-configured
            engine).

    Returns:
        The validated :class:`LoadedArtifact`.

    Raises:
        ArtifactError: any validation failure (see the failure-mode tests
            in ``tests/test_store.py``).
    """
    from repro.sim.tape import ExecutionTape, find_unsupported_op
    from repro.sim.tapeopt import OptimizedTape

    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise _fail(f"{root}: no artifact manifest ({MANIFEST_NAME})")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise _fail(f"{manifest_path}: unreadable manifest: {error}")
    if not isinstance(manifest, dict):
        raise _fail(f"{manifest_path}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise _fail(
            f"{root}: artifact format version {version!r} not supported "
            f"(this build reads version {FORMAT_VERSION})")
    kind = manifest.get("kind")
    if kind not in _KNOWN_KINDS:
        raise _fail(f"{root}: unknown artifact kind {kind!r}")

    files = manifest.get("files")
    if not isinstance(files, dict) or set(files) != {PAYLOAD_NAME, STATE_NAME}:
        raise _fail(f"{root}: manifest file table is missing or incomplete")
    for name, entry in files.items():
        if not isinstance(entry, dict):
            raise _fail(f"{root}: manifest entry for {name} is malformed")
        file_path = root / name
        if not file_path.is_file():
            raise _fail(f"{root}: payload {name} is missing")
        size = file_path.stat().st_size
        if size != entry.get("bytes"):
            raise _fail(
                f"{root}: payload {name} is truncated or padded "
                f"({size} bytes on disk, manifest says {entry.get('bytes')})")
        digest = _sha256_file(file_path)
        if digest != entry.get("sha256"):
            raise _fail(f"{root}: payload {name} fails its integrity hash")

    try:
        with open(root / PAYLOAD_NAME, "rb") as handle:
            payload = pickle.loads(gzip.decompress(handle.read()))
    except Exception as error:  # unpickling can raise nearly anything
        raise _fail(f"{root}: cannot deserialize {PAYLOAD_NAME}: {error}")
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise _fail(f"{root}: payload kind disagrees with the manifest")
    compiled = payload.get("compiled")
    if type(compiled).__name__ != kind:
        raise _fail(f"{root}: payload holds {type(compiled).__name__}, "
                    f"manifest says {kind}")

    seed = payload.get("seed")
    if seed != manifest.get("seed"):
        raise _fail(f"{root}: payload seed {seed!r} disagrees with "
                    f"manifest seed {manifest.get('seed')!r}")
    config_digest = fingerprint_digest(
        fingerprint_value(payload.get("config")))
    crossbar_digest = fingerprint_digest(
        fingerprint_value(payload.get("crossbar_model")))
    if config_digest != manifest.get("config_digest"):
        raise _fail(f"{root}: deserialized config does not match the "
                    f"manifest's config digest")
    if crossbar_digest != manifest.get("crossbar_digest"):
        raise _fail(f"{root}: deserialized crossbar model does not match "
                    f"the manifest's crossbar digest")
    if expected_key_digests is not None:
        want_config, want_crossbar, want_seed = expected_key_digests
        if (config_digest, crossbar_digest, seed) != \
                (want_config, want_crossbar, want_seed):
            raise _fail(
                f"{root}: artifact was built for a different engine key "
                f"(config/crossbar/seed mismatch)")

    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _fail(f"{root}: artifact seed must be a plain int, got "
                    f"{seed!r}")

    tape = payload.get("tape")
    tape_meta = manifest.get("tape")
    opt_meta = manifest.get("optimizer")
    if tape is not None:
        if not isinstance(tape, ExecutionTape):
            raise _fail(f"{root}: payload tape is malformed "
                        f"({type(tape).__name__})")
        if tape.recorded_batch not in tape.stats_by_batch:
            raise _fail(f"{root}: tape is missing stats for its own "
                        f"recorded batch {tape.recorded_batch}")
        if find_unsupported_op(compiled.program) is not None:
            raise _fail(
                f"{root}: artifact carries an execution tape for a "
                f"program that can never be replayed (stochastic op); a "
                f"frozen schedule for it would serve wrong answers")
        expected_meta = {
            "recorded_batch": int(tape.recorded_batch),
            "stats_batches": sorted(int(b) for b in tape.stats_by_batch),
            "steps": len(tape.steps),
            "instruction_count": int(tape.instruction_count),
        }
        if tape_meta != expected_meta:
            raise _fail(f"{root}: tape metadata disagrees with the "
                        f"manifest")
        opt = tape.optimized
        if opt is None:
            if opt_meta is not None:
                raise _fail(f"{root}: manifest advertises an optimizer "
                            f"plan the payload does not carry")
        else:
            if not isinstance(opt, OptimizedTape):
                raise _fail(f"{root}: payload optimizer plan is "
                            f"malformed ({type(opt).__name__})")
            if not isinstance(opt_meta, dict) \
                    or opt.digest() != opt_meta.get("digest"):
                raise _fail(f"{root}: optimizer plan does not match the "
                            f"manifest's optimizer digest")
    elif tape_meta is not None or opt_meta is not None:
        raise _fail(f"{root}: manifest advertises a tape the payload "
                    f"does not carry")

    rng_state = manifest.get("rng_state")
    try:
        with open(root / STATE_NAME, "rb") as handle:
            with np.load(handle) as npz:
                arrays = {name: npz[name] for name in npz.files}
        # The device model a node would build, as ``Node`` resolves it.
        state = _unpack_state(
            arrays, rng_state,
            payload.get("crossbar_model")
            or CrossbarModel.for_core(payload.get("config").core),
            compiled.program)
    except ArtifactError:
        raise
    except Exception as error:  # zip/npz corruption raises several types
        raise _fail(f"{root}: cannot restore programmed state: {error}")

    _count("load")
    return LoadedArtifact(
        kind=kind, compiled=compiled, tape=tape,
        programmed_state=state, config=payload.get("config"),
        options=payload.get("options"),
        crossbar_model=payload.get("crossbar_model"), seed=seed,
        manifest=manifest, path=root)

"""Persistent artifact store: loaded == cold-built, bitwise — and strict
rejection of anything less.

The store extends the repo's bitwise-guarantee chain one more level
(docs/guarantees.md): an engine loaded from an artifact written by an
earlier (possibly different) process produces output words bitwise
identical and stats field-identical to a cold-built engine at the same
(model, config, crossbar model, seed), across the golden workload
families, ideal + noisy crossbars, batch 1/4/64, sharded and unsharded —
including across a real process boundary.  The failure-mode tests pin the
validation policy: version/fingerprint mismatches, truncated or tampered
payloads, and malformed state all raise :class:`ArtifactError` (explicit
loads) or trigger a silent cold rebuild (``artifact_dir`` engines) —
never a wrong answer.
"""

import gzip
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ArtifactError, CrossbarModel, InferenceEngine, \
    default_config
from repro.compiler.cnn import compile_cnn
from repro.engine import clear_compile_cache, compile_cache_info
from repro.serve import PumaServer, ShardedEngine
from repro.store import (
    MANIFEST_NAME,
    PAYLOAD_NAME,
    STATE_NAME,
    artifact_key,
    fingerprint_digest,
    load_artifact,
    model_digest,
    store_info,
)
from repro.workloads.cnn import small_cnn_spec
from repro.workloads.lstm import build_lstm_model
from repro.workloads.mlp import build_mlp_model

CFG = default_config()
SRC = str(Path(__file__).resolve().parent.parent / "src")


def noisy_model(sigma=0.1):
    core = CFG.core
    return CrossbarModel(dim=core.mvmu_dim, bits_per_cell=core.bits_per_cell,
                         bits_per_input=core.bits_per_input,
                         write_noise_sigma=sigma)


def analog_model():
    """Noiseless devices behind a lossy ADC: the analog path runs, on
    conductances the programmed state does not carry."""
    core = CFG.core
    return CrossbarModel(dim=core.mvmu_dim, bits_per_cell=core.bits_per_cell,
                         bits_per_input=core.bits_per_input, adc_bits=7)


DEVICES = {"ideal": lambda: None, "noisy": noisy_model,
           "analog": analog_model}


def make_engine(workload, device, seed=7, execution_mode="auto", **kwargs):
    xbar = DEVICES[device]()
    if workload == "cnn":
        compiled = compile_cnn(small_cnn_spec(seed=0), CFG)
        return InferenceEngine.from_compiled(
            compiled, CFG, crossbar_model=xbar, seed=seed,
            execution_mode=execution_mode, **kwargs)
    builders = {
        "mlp": lambda: build_mlp_model([32, 24, 16, 10], seed=0),
        "lstm": lambda: build_lstm_model(8, 6, 4, seq_len=2, seed=0),
    }
    return InferenceEngine(builders[workload](), CFG, crossbar_model=xbar,
                           seed=seed, execution_mode=execution_mode, **kwargs)


def random_inputs(engine, batch, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: engine.quantize(rng.normal(0.0, 0.5, size=(batch, length)))
        for name, (_, _, length) in engine.program.input_layout.items()
    }


def assert_same_result(loaded, reference):
    assert set(loaded.words) == set(reference.words)
    for name in loaded.words:
        assert loaded[name].shape == reference[name].shape
        np.testing.assert_array_equal(loaded[name], reference[name])
    assert loaded.stats == reference.stats  # field-identical dataclasses


# -- the bitwise guarantee: loaded == cold-built ----------------------------


@pytest.mark.parametrize("workload", ["mlp", "lstm", "cnn"])
@pytest.mark.parametrize("device", ["ideal", "noisy"])
@pytest.mark.parametrize("batch", [1, 4, 64])
def test_loaded_engine_bitwise_equals_cold_built(tmp_path, workload,
                                                 device, batch):
    """from_artifacts serves bitwise-identically to a cold-built engine."""
    cold = make_engine(workload, device)
    inputs = random_inputs(cold, batch=batch, seed=11)
    reference = cold.run_batch(inputs)        # records the tape for `batch`
    path = cold.save_artifacts(tmp_path / "artifact")

    warm = InferenceEngine.from_artifacts(path)
    result = warm.run_batch(inputs)
    # The tape recorded by the cold engine was persisted with the
    # optimized plan it checked at recording, so the loaded engine's very
    # first run replays that plan.
    assert result.execution == "optimized"
    assert_same_result(result, reference)
    # Fresh data through the loaded tape: still exact.
    inputs2 = random_inputs(cold, batch=batch, seed=13)
    assert_same_result(warm.run_batch(inputs2), cold.run_batch(inputs2))


@pytest.mark.parametrize("device", ["ideal", "noisy", "analog"])
def test_loaded_interpreter_path_bitwise(tmp_path, device):
    """The programmed-state restore alone (no tape) is bitwise exact —
    for "analog" too, whose artifact is written before any analog read
    and whose every MVM then reads conductances derived at load side."""
    cold = make_engine("mlp", device)
    cold.warm()                                # program, but record no tape
    path = cold.save_artifacts(tmp_path / "artifact")
    inputs = random_inputs(cold, batch=4, seed=3)
    reference = make_engine("mlp", device,
                            execution_mode="interpret").run_batch(inputs)
    warm = InferenceEngine.from_artifacts(path,
                                          execution_mode="interpret")
    result = warm.run_batch(inputs)
    assert result.execution == "interpreter"
    assert_same_result(result, reference)


@pytest.mark.parametrize("device", ["ideal", "noisy"])
def test_loaded_sharded_equals_unsharded_cold(tmp_path, device):
    """Sharded passes over a loaded engine == unsharded cold-built."""
    cold = make_engine("mlp", device)
    inputs = random_inputs(cold, batch=16, seed=5)
    reference = cold.run_batch(inputs)
    path = cold.save_artifacts(tmp_path / "artifact")

    warm = InferenceEngine.from_artifacts(path)
    result = ShardedEngine(warm, num_shards=4).run_batch(inputs)
    for name in reference:
        np.testing.assert_array_equal(result[name], reference[name])
    assert result.shard_stats is not None and len(result.shard_stats) == 4


@pytest.mark.parametrize("workload,device", [("mlp", "noisy"),
                                             ("cnn", "ideal")])
def test_fresh_process_bitwise(tmp_path, workload, device):
    """A brand-new Python process loads the artifact and matches bitwise."""
    cold = make_engine(workload, device)
    inputs = random_inputs(cold, batch=4, seed=21)
    reference = cold.run_batch(inputs)
    path = cold.save_artifacts(tmp_path / "artifact")

    inputs_file = tmp_path / "inputs.npz"
    outputs_file = tmp_path / "outputs.npz"
    np.savez(inputs_file, **inputs)
    script = (
        "import sys, numpy as np\n"
        "from repro.engine import InferenceEngine\n"
        "engine = InferenceEngine.from_artifacts(sys.argv[1])\n"
        "with np.load(sys.argv[2]) as data:\n"
        "    inputs = {name: data[name] for name in data.files}\n"
        "result = engine.run_batch(inputs)\n"
        "np.savez(sys.argv[3], execution=np.array(result.execution),\n"
        "         cycles=np.array(result.cycles),\n"
        "         **{name: result[name] for name in result})\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", script, str(path),
                    str(inputs_file), str(outputs_file)],
                   check=True, env=env, timeout=300)
    with np.load(outputs_file) as child:
        assert str(child["execution"]) == "optimized"
        assert int(child["cycles"]) == reference.cycles
        for name in reference:
            np.testing.assert_array_equal(child[name], reference[name])


def test_server_with_artifact_dir_round_trip(tmp_path):
    """A PumaServer over an ``artifact_dir`` engine persists on first
    start, adopts later."""
    import asyncio

    async def serve_once(engine):
        async with PumaServer(engine, max_batch_size=4) as server:
            return await server.submit(
                {"x": np.linspace(-0.4, 0.4, 32)})

    first = asyncio.run(serve_once(
        make_engine("mlp", "ideal", artifact_dir=tmp_path)))
    saved = store_info().saves
    assert saved >= 1
    # A second server (fresh engine object) adopts the artifact.
    second = asyncio.run(serve_once(
        make_engine("mlp", "ideal", artifact_dir=tmp_path)))
    for name in first:
        np.testing.assert_array_equal(second[name], first[name])


# -- the store-aware compile cache ------------------------------------------


def test_artifact_dir_engine_skips_compilation(tmp_path):
    """A keyed artifact satisfies construction without a compile miss."""
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    engine = InferenceEngine(model, CFG, seed=7, artifact_dir=tmp_path)
    inputs = random_inputs(engine, batch=4, seed=2)
    reference = engine.run_batch(inputs)
    engine.ensure_artifacts(batch=4)

    clear_compile_cache()
    loads_before = store_info().loads
    rebuilt_model = build_mlp_model([32, 24, 16, 10], seed=0)
    warm = InferenceEngine(rebuilt_model, CFG, seed=7,
                           artifact_dir=tmp_path)
    info = compile_cache_info()
    # A store hit is an in-memory miss (hits+misses reconciles with
    # lookups) served by the loader instead of the compiler...
    assert info.misses == 1
    assert info.entries == 1, "the store hit must fill the compile cache"
    assert store_info().loads == loads_before + 1, \
        "construction should load from the store, not compile"
    result = warm.run_batch(inputs)
    assert result.execution == "optimized"
    assert_same_result(result, reference)
    # A replica engine for the same model now hits the in-process cache.
    InferenceEngine(rebuilt_model, CFG, seed=7, artifact_dir=tmp_path)
    assert compile_cache_info().hits == 1


def test_mismatched_key_rebuilds_not_wrong(tmp_path):
    """An artifact for another seed is ignored; outputs stay correct."""
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    InferenceEngine(model, CFG, seed=7,
                    artifact_dir=tmp_path).ensure_artifacts()
    # Different seed: different key, so the store has no matching entry.
    other = InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0),
                            CFG, crossbar_model=noisy_model(), seed=8,
                            artifact_dir=tmp_path)
    cold = make_engine("mlp", "noisy", seed=8)
    inputs = random_inputs(cold, batch=4, seed=9)
    assert_same_result(other.run_batch(inputs), cold.run_batch(inputs))


def test_ensure_artifacts_extends_missing_batch_stats(tmp_path):
    """ensure(batch=N) on an adopted artifact derives batch-N stats for
    the (single, batch-generic) tape and re-saves the artifact."""
    engine = make_engine("mlp", "ideal", artifact_dir=tmp_path)
    engine.ensure_artifacts(batch=2)
    path = engine.ensure_artifacts(batch=8)    # extends the artifact
    loaded = load_artifact(path)
    assert loaded.tape is not None
    assert sorted(loaded.tape.stats_by_batch) == [2, 8]
    assert loaded.manifest["tape"]["stats_batches"] == [2, 8]


def test_adopted_artifact_not_reloaded_per_layer(tmp_path):
    """Engine init and server start share one load.

    A `serve --artifact-dir` bring-up calls ensure_artifacts from more
    than one layer; only the first contact with the artifact may pay the
    hash + deserialize cost.
    """
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    InferenceEngine(model, CFG, seed=7,
                    artifact_dir=tmp_path).ensure_artifacts(batch=4)
    clear_compile_cache()
    engine = InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0),
                             CFG, seed=7, artifact_dir=tmp_path)
    loads = store_info().loads
    assert engine.ensure_artifacts() is not None
    assert engine.ensure_artifacts(batch=4) is not None   # server start
    assert store_info().loads == loads, \
        "an already-adopted artifact must not be re-deserialized"
    assert store_info().saves >= 1


# -- CnnCompiled artifacts (PR-4 bug-class regression) ----------------------


def test_cnn_artifact_carries_both_engine_caches(tmp_path):
    """A loaded CnnCompiled serves both cache layers (and from_compiled)."""
    cold = make_engine("cnn", "noisy")
    inputs = random_inputs(cold, batch=4, seed=6)
    reference = cold.run_batch(inputs)
    path = cold.save_artifacts(tmp_path / "artifact")

    warm = InferenceEngine.from_artifacts(path)
    assert type(warm.compiled).__name__ == "CnnCompiled"
    assert warm.compiled.programmed_states, "programmed state not adopted"
    assert warm.compiled.execution_tapes, "execution tapes not adopted"
    assert_same_result(warm.run_batch(inputs), reference)
    # The PR-4 regression class: from_compiled on the loaded compilation
    # must find both engine-cache slots present and shared.
    replica = InferenceEngine.from_compiled(
        warm.compiled, warm.config, crossbar_model=warm.crossbar_model,
        seed=warm.seed)
    result = replica.run_batch(inputs)
    assert result.execution == "optimized"    # shared tape, no re-record
    assert_same_result(result, reference)


# -- failure modes: reject loudly, rebuild silently -------------------------


def saved_artifact(tmp_path, device="ideal"):
    engine = make_engine("mlp", device)
    engine.run_batch(random_inputs(engine, batch=2, seed=1))
    return engine.save_artifacts(tmp_path / "artifact")


def test_rejects_missing_manifest(tmp_path):
    with pytest.raises(ArtifactError, match="manifest"):
        load_artifact(tmp_path / "nowhere")


def test_rejects_unparseable_manifest(tmp_path):
    path = saved_artifact(tmp_path)
    (path / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(ArtifactError, match="unreadable manifest"):
        load_artifact(path)


def test_rejects_future_format_version(tmp_path):
    path = saved_artifact(tmp_path)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["format_version"] = 99
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="format version"):
        load_artifact(path)


@pytest.mark.parametrize("victim", [PAYLOAD_NAME, STATE_NAME])
def test_rejects_truncated_payload(tmp_path, victim):
    path = saved_artifact(tmp_path)
    blob = (path / victim).read_bytes()
    (path / victim).write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ArtifactError, match="truncated"):
        load_artifact(path)


@pytest.mark.parametrize("victim", [PAYLOAD_NAME, STATE_NAME])
def test_rejects_tampered_payload(tmp_path, victim):
    path = saved_artifact(tmp_path)
    blob = bytearray((path / victim).read_bytes())
    blob[len(blob) // 2] ^= 0xFF             # same size, different bits
    (path / victim).write_bytes(bytes(blob))
    with pytest.raises(ArtifactError, match="integrity hash"):
        load_artifact(path)


@pytest.mark.parametrize("victim", [PAYLOAD_NAME, STATE_NAME])
def test_rejects_missing_payload_file(tmp_path, victim):
    path = saved_artifact(tmp_path)
    (path / victim).unlink()
    with pytest.raises(ArtifactError, match="missing"):
        load_artifact(path)


def test_rejects_fingerprint_mismatch(tmp_path):
    path = saved_artifact(tmp_path)
    with pytest.raises(ArtifactError, match="different engine key"):
        load_artifact(path, expected_key_digests=("bad", "digests", 0))


def test_rejects_payload_that_contradicts_manifest_digests(tmp_path):
    """A re-pickled payload with a different config is caught without
    relying on the integrity hash (defense in depth)."""
    path = saved_artifact(tmp_path)
    with open(path / PAYLOAD_NAME, "rb") as handle:
        payload = pickle.loads(gzip.decompress(handle.read()))
    payload["config"] = None                  # digest no longer matches
    with open(path / PAYLOAD_NAME, "wb") as handle:
        handle.write(gzip.compress(pickle.dumps(payload)))
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    file_path = path / PAYLOAD_NAME
    import hashlib
    manifest["files"][PAYLOAD_NAME] = {
        "sha256": hashlib.sha256(file_path.read_bytes()).hexdigest(),
        "bytes": file_path.stat().st_size,
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="config digest"):
        load_artifact(path)


def test_rejects_malformed_manifest_fields(tmp_path):
    """Wrong-typed manifest fields are ArtifactError, not AttributeError."""
    path = saved_artifact(tmp_path)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["files"][PAYLOAD_NAME] = "oops"        # not a dict
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="malformed"):
        load_artifact(path)


def rewrite_state(path, edit):
    """Edit the programmed-state arrays in place and re-sign the manifest,
    so only the state's own validation stands between it and an engine."""
    import hashlib
    with np.load(path / STATE_NAME) as npz:
        arrays = {name: npz[name] for name in npz.files}
    edit(arrays)
    with open(path / STATE_NAME, "wb") as handle:
        np.savez(handle, **arrays)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    blob = (path / STATE_NAME).read_bytes()
    manifest["files"][STATE_NAME] = {
        "sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))


def drop_one_mvmu(arrays):
    prefix = sorted(arrays)[0].rsplit("_", 1)[0]
    for name in [n for n in arrays if n.startswith(prefix + "_")]:
        del arrays[name]


def add_phantom_mvmu(arrays):
    """A unit at an MVMU index no core has (cores hold two)."""
    prefix = sorted(arrays)[0].rsplit("_", 1)[0]
    phantom = prefix.rsplit("_", 1)[0] + "_9"
    for name in [n for n in arrays if n.startswith(prefix + "_")]:
        arrays[phantom + name[len(prefix):]] = arrays[name]


def drop_conductances(arrays):
    for name in [n for n in arrays if n.endswith("_cd")]:
        del arrays[name]


STATE_CORRUPTIONS = {
    "missing MVMU": ("ideal", drop_one_mvmu, "missing MVMUs"),
    "phantom MVMU": ("ideal", add_phantom_mvmu, "unexpected MVMUs"),
    "noisy without conductances": (
        "noisy", drop_conductances, "exactly when the crossbar model is noisy"),
}


@pytest.mark.parametrize("name", sorted(STATE_CORRUPTIONS))
def test_rejects_state_that_does_not_fit_the_program(tmp_path, name):
    """A partial programmed state used to load cleanly and fail mid-run
    ("MVMU has not been programmed"), a phantom index as a bare
    IndexError; both are load rejections now."""
    device, edit, message = STATE_CORRUPTIONS[name]
    path = saved_artifact(tmp_path, device)
    rewrite_state(path, edit)
    with pytest.raises(ArtifactError, match=message):
        load_artifact(path)


@pytest.mark.parametrize("edit", [drop_one_mvmu, add_phantom_mvmu])
def test_ill_fitting_state_triggers_cold_rebuild(tmp_path, edit):
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    InferenceEngine(model, CFG, seed=7,
                    artifact_dir=tmp_path).ensure_artifacts()
    rewrite_state(next(Path(tmp_path).glob(f"*/{MANIFEST_NAME}")).parent,
                  edit)
    before = store_info().rejections
    clear_compile_cache()
    engine = InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0),
                             CFG, seed=7, artifact_dir=tmp_path)
    assert store_info().rejections > before
    cold = make_engine("mlp", "ideal")
    inputs = random_inputs(cold, batch=2, seed=17)
    assert_same_result(engine.run_batch(inputs), cold.run_batch(inputs))


@pytest.mark.parametrize("edit,message", [(drop_one_mvmu, "missing MVMUs"),
                                          (add_phantom_mvmu,
                                           "unexpected MVMUs")])
def test_node_rejects_ill_fitting_state_up_front(edit, message):
    """Node.load_weights compares the key sets before touching a unit."""
    from repro import Simulator
    from repro.node.node import NodeProgrammedState

    engine = make_engine("mlp", "ideal").warm()
    state = engine.compiled.programmed_states[engine._fingerprint]
    arrays = state.to_flat_arrays()
    edit(arrays)
    broken = NodeProgrammedState.from_flat_arrays(arrays, state.rng_state)
    with pytest.raises(ValueError, match=message):
        Simulator(CFG, engine.program, seed=7, programmed_state=broken)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_superseded_format_versions_rebuild(tmp_path, version):
    """Version-4 artifacts (a plan that keeps dead register writes, under
    a report without their count), version-3 ones (a plan never checked
    at recording) and
    version-2 ones (column sums on disk, a manifest conductance mode) are
    refused like version 1: a rejection and a cold rebuild."""
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    InferenceEngine(model, CFG, seed=7,
                    artifact_dir=tmp_path).ensure_artifacts()
    manifest_path = next(Path(tmp_path).glob(f"*/{MANIFEST_NAME}"))
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = version
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="format version"):
        load_artifact(manifest_path.parent)
    clear_compile_cache()
    engine = InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0),
                             CFG, seed=7, artifact_dir=tmp_path)
    cold = make_engine("mlp", "ideal")
    inputs = random_inputs(cold, batch=2, seed=18)
    assert_same_result(engine.run_batch(inputs), cold.run_batch(inputs))


def test_state_on_disk_is_the_in_memory_record(tmp_path):
    """int16 matrices, uint8 level stacks, no conductances for a
    noiseless model, no column sums: what the engine holds is what the
    artifact stores."""
    path = saved_artifact(tmp_path)
    with np.load(path / STATE_NAME) as npz:
        parts = {name.rsplit("_", 1)[-1] for name in npz.files}
        levels = [npz[n] for n in npz.files if n.endswith("_lv")]
        assert all(npz[n].dtype == np.int16 for n in npz.files
                   if n.endswith("_matrix"))
    assert parts == {"matrix", "lv"}
    assert all(lv.dtype == np.uint8 and lv.ndim == 3 for lv in levels)
    noisy = saved_artifact(tmp_path / "noisy", "noisy")
    with np.load(noisy / STATE_NAME) as npz:
        assert {n.rsplit("_", 1)[-1] for n in npz.files} == \
            {"matrix", "lv", "cd"}


def test_malformed_manifest_triggers_cold_rebuild_not_crash(tmp_path):
    """A keyed engine must survive a manifest with wrong-typed fields."""
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    InferenceEngine(model, CFG, seed=7,
                    artifact_dir=tmp_path).ensure_artifacts()
    manifest_path = next(Path(tmp_path).glob(f"*/{MANIFEST_NAME}"))
    manifest = json.loads(manifest_path.read_text())
    manifest["tape"] = "not-a-dict"
    manifest_path.write_text(json.dumps(manifest))
    clear_compile_cache()
    engine = InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0),
                             CFG, seed=7, artifact_dir=tmp_path)
    cold = make_engine("mlp", "ideal")
    inputs = random_inputs(cold, batch=2, seed=14)
    assert_same_result(engine.run_batch(inputs), cold.run_batch(inputs))


def test_compile_cache_hit_still_adopts_store_state(tmp_path):
    """An in-memory compilation under another seed must not mask the
    store: the artifact's programmed state + tapes are still adopted."""
    # Seed-8 artifact on disk (written by an earlier "process").
    cold = make_engine("mlp", "noisy", seed=8)
    inputs = random_inputs(cold, batch=4, seed=15)
    reference = cold.run_batch(inputs)
    cold.save_artifacts(
        InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0), CFG,
                        crossbar_model=noisy_model(), seed=8,
                        artifact_dir=tmp_path)._artifact_path())

    clear_compile_cache()
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    # Seed-7 engine fills the compile cache for (model, config, options).
    InferenceEngine(model, CFG, crossbar_model=noisy_model(), seed=7)
    # Seed-8 engine hits that cache — but must still pull the seed-8
    # programmed state and tapes from the store.
    engine = InferenceEngine(model, CFG, crossbar_model=noisy_model(),
                             seed=8, artifact_dir=tmp_path)
    result = engine.run_batch(inputs)
    assert result.execution == "optimized", \
        "the store tape was not adopted on a compile-cache hit"
    assert_same_result(result, reference)


def test_ensure_persists_tape_recorded_after_adoption(tmp_path):
    """Batch stats derived in-process after adopting an artifact must
    still be written to disk by ensure_artifacts(batch=...)."""
    engine = make_engine("mlp", "ideal", artifact_dir=tmp_path)
    engine.ensure_artifacts(batch=1)
    clear_compile_cache()
    adopted = InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0),
                              CFG, crossbar_model=None, seed=7,
                              artifact_dir=tmp_path)
    # Derived in memory only — the artifact on disk still has stats {1}.
    adopted.run_batch(random_inputs(adopted, batch=16, seed=16))
    path = adopted.ensure_artifacts(batch=16)
    assert sorted(load_artifact(path).tape.stats_by_batch) == [1, 16]


def test_invalidated_tape_is_saved_not_readopted(tmp_path):
    """A tape invalidated in memory (what a TapeValidationError at bind
    time does) and re-recorded is what the next ensure_artifacts writes
    to disk; the evicted tape is not adopted back from the artifact."""
    engine = InferenceEngine(build_mlp_model([16, 12, 8], seed=0), CFG,
                             seed=7, artifact_dir=tmp_path)
    path = engine.ensure_artifacts(batch=4)
    engine._invalidate_tape()
    assert engine.predict({"x": np.zeros((3, 16))}).execution == \
        "interpreter"                              # re-records
    rerecorded = engine.compiled.execution_tapes[engine._fingerprint]
    saves = store_info().saves
    assert engine.ensure_artifacts(batch=4) == path
    assert store_info().saves == saves + 1, "the artifact was not rewritten"
    assert load_artifact(path).manifest["tape"]["stats_batches"] == [3, 4]
    assert engine.compiled.execution_tapes[engine._fingerprint] \
        is rerecorded, "the evicted tape was re-adopted from disk"


def test_corrupt_artifact_triggers_cold_rebuild(tmp_path):
    """artifact_dir engines rebuild through corruption — never a wrong
    answer, never an exception."""
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    engine = InferenceEngine(model, CFG, seed=7, artifact_dir=tmp_path)
    engine.ensure_artifacts(batch=4)
    manifests = list(Path(tmp_path).glob(f"*/{MANIFEST_NAME}"))
    assert len(manifests) == 1
    blob = (manifests[0].parent / STATE_NAME).read_bytes()
    (manifests[0].parent / STATE_NAME).write_bytes(blob[:100])

    before = store_info().rejections
    clear_compile_cache()
    rebuilt = InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0),
                              CFG, seed=7, artifact_dir=tmp_path)
    assert store_info().rejections > before
    cold = make_engine("mlp", "ideal")
    inputs = random_inputs(cold, batch=4, seed=12)
    assert_same_result(rebuilt.run_batch(inputs), cold.run_batch(inputs))


def test_save_without_directory_raises():
    engine = make_engine("mlp", "ideal")
    with pytest.raises(ValueError, match="artifact directory"):
        engine.save_artifacts()


# -- keys and counters ------------------------------------------------------


def test_model_digest_is_process_independent_and_content_sensitive():
    a = model_digest(build_mlp_model([32, 24, 16, 10], seed=0))
    b = model_digest(build_mlp_model([32, 24, 16, 10], seed=0))
    c = model_digest(build_mlp_model([32, 24, 16, 10], seed=1))
    assert a == b
    assert a != c


def test_artifact_key_slug_and_digest():
    key = artifact_key("my model/v2", "aa", fingerprint_digest(("k",)))
    slug, digest = key.rsplit("-", 1)
    assert slug == "my-model-v2"
    assert len(digest) == 16
    assert key == artifact_key("my model/v2", "aa",
                               fingerprint_digest(("k",)))


def test_store_counters_move(tmp_path):
    before = store_info()
    path = saved_artifact(tmp_path)
    load_artifact(path)
    after = store_info()
    assert after.saves == before.saves + 1
    assert after.loads == before.loads + 1

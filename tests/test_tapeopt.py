"""Tape optimizer: pass reports, seeded plan mutations, probe protocol,
and the cache-bypass audit.

The optimizer (:mod:`repro.sim.tapeopt`) compiles a recorded execution
tape into a shorter plan; the engine only ever serves an optimized result
after a first-replay equivalence probe matched a plain replay bitwise.
These tests pin that protocol the same way
``tests/test_analysis_mutations.py`` pins the static verifier: inject one
seeded defect into the plan and assert the probe catches it, the fallback
is counted, and the served answer is still bitwise correct.

The second half audits the cache-bypass rules at all four layers —
compile cache, programmed-state cache, tape cache, artifact store — for
the two bypassing configurations: ``seed=None`` (fresh entropy per run)
and stochastic RANDOM-op programs (schedule must never be frozen).
Artifacts that *would* smuggle state past those rules fail loudly at
load, including a tampered optimizer plan caught by its manifest digest.
"""

import dataclasses
import gzip
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro import InferenceEngine, default_config
from repro.engine import clear_tape_caches, tape_cache_info
from repro.sim.tape import ExecutionTape, TapeStep
from repro.sim.tapeopt import (
    FusedBlock,
    MvmGroup,
    OptimizedTape,
    RegMove,
    TapeOptimizationError,
    optimize_tape,
)
from repro.store import (
    MANIFEST_NAME,
    PAYLOAD_NAME,
    ArtifactError,
    load_artifact,
    save_artifact,
)
from repro.workloads.boltzmann import build_rbm_model
from repro.workloads.mlp import build_mlp_model

CFG = default_config()

# Wide enough that every pass fires: layers span multiple MVMU cores
# (MVM batching), multi-core layers load in adjacent runs (fusion), and
# inter-layer staging round-trips shared memory (forwarding/elimination).
RICH_DIMS = [160, 320, 192, 32]
SMALL_DIMS = [32, 24, 16, 10]


def make_engine(dims, execution_mode="auto", seed=7):
    return InferenceEngine(build_mlp_model(dims, seed=0), CFG, seed=seed,
                           execution_mode=execution_mode)


def random_inputs(engine, batch, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: engine.quantize(rng.normal(0.0, 0.5, size=(batch, length)))
        for name, (_, _, length) in engine.program.input_layout.items()
    }


def optimized_engine(dims=RICH_DIMS, batch=2):
    """A fresh engine whose tape carries a probe-verified optimized plan."""
    clear_tape_caches()
    engine = make_engine(dims)
    inputs = random_inputs(engine, batch=batch, seed=11)
    engine.run_batch(inputs)                     # records the tape
    assert engine.run_batch(inputs).execution == "optimized"
    tape = next(iter(engine.compiled.execution_tapes.values()))
    return engine, tape, inputs


def bogus_tape(tape):
    """A structurally invalid tape (wrong tile) built from a real one."""
    step = TapeStep(tile_id=999, core_id=0,
                    instruction=tape.steps[0].instruction, eff_addr=0)
    return ExecutionTape(steps=(step,), stats_by_batch=tape.stats_by_batch,
                         recorded_batch=tape.recorded_batch)


# -- pass-level units -------------------------------------------------------


def test_report_counts_real_transformations():
    _engine, tape, _inputs = optimized_engine()
    plan = tape.optimized
    assert isinstance(plan, OptimizedTape)
    report = plan.report
    assert report.changed
    assert report.plan_ops == len(plan.plan) < report.source_steps
    assert report.stores_eliminated > 0
    assert report.loads_forwarded > 0
    assert report.fused_blocks > 0
    assert report.fused_steps >= 2 * report.fused_blocks
    assert report.mvm_groups > 0
    assert report.mvms_batched > report.mvm_groups  # groups have >1 member
    assert set(report.as_dict()) == {
        "source_steps", "plan_ops", "stores_eliminated", "loads_forwarded",
        "fused_blocks", "fused_steps", "mvm_groups", "mvms_batched"}
    kinds = {type(op) for op in plan.plan}
    assert {RegMove, FusedBlock, MvmGroup} <= kinds


def test_optimize_is_deterministic():
    engine, tape, _inputs = optimized_engine()
    again = optimize_tape(tape, engine._dependence_graph())
    assert again.report == tape.optimized.report
    assert again.digest() == tape.optimized.digest()
    assert len(again.digest()) == 64  # sha256 hex


def test_optimizer_rejects_invalid_source_tape():
    engine, tape, _inputs = optimized_engine(dims=SMALL_DIMS)
    with pytest.raises(TapeOptimizationError, match="validation"):
        optimize_tape(bogus_tape(tape), engine._dependence_graph())


def test_optimizer_decline_is_counted_once():
    """A declined tape is poisoned with the sentinel, not retried."""
    engine, tape, _inputs = optimized_engine(dims=SMALL_DIMS)
    corrupt = bogus_tape(tape)
    before = tape_cache_info()
    assert engine._optimized_plan(corrupt) is None
    assert corrupt.optimized == "unoptimizable"
    after = tape_cache_info()
    assert after.optimizer_fallbacks == before.optimizer_fallbacks + 1
    # The sentinel short-circuits: no second optimization attempt.
    assert engine._optimized_plan(corrupt) is None
    assert tape_cache_info().optimizer_fallbacks == after.optimizer_fallbacks


def test_unoptimizable_sentinel_serves_plain_replay():
    clear_tape_caches()
    engine = make_engine(SMALL_DIMS)
    inputs = random_inputs(engine, batch=2)
    reference = engine.run_batch(inputs)         # records
    tape = next(iter(engine.compiled.execution_tapes.values()))
    tape.optimized = "unoptimizable"
    before = tape_cache_info()
    served = engine.run_batch(inputs)
    assert served.execution == "replay"
    assert tape.optimized == "unoptimizable"     # untouched, not retried
    after = tape_cache_info()
    assert after.replays == before.replays + 1
    assert after.optimized == before.optimized
    for name in reference:
        np.testing.assert_array_equal(served[name], reference[name])


# -- the equivalence-probe protocol -----------------------------------------


def test_probe_runs_once_per_batch():
    engine, tape, inputs = optimized_engine(dims=SMALL_DIMS, batch=2)
    assert tape.optimized.verified_batches == {2}
    # The probe's reference replay is bookkeeping, not a served run.
    assert tape.replay_count == 1
    engine.run_batch(inputs)                     # verified: no second probe
    assert tape.replay_count == 2
    four = engine.run_batch(random_inputs(engine, batch=4, seed=5))
    assert four.execution == "optimized"
    assert tape.optimized.verified_batches == {2, 4}


def test_evicted_replayer_is_freed_without_the_cycle_collector():
    """The engine keeps a few bound replayers and drops the rest; each
    holds a node (megabytes of tile memory and stacked matrices).  A bound
    step that closed over its replayer would make that a reference cycle,
    and dropped nodes would pile up until the collector next ran."""
    import gc
    import weakref

    engine, _tape, _inputs = optimized_engine(batch=2)
    replayer = engine._replayers.pop(2)
    assert any(isinstance(op, MvmGroup) for op in replayer.plan)
    node = weakref.ref(replayer.node)
    gc.disable()
    try:
        del replayer
        assert node() is None
    finally:
        gc.enable()


def _mutate_forwarded_copy(ops):
    """Shift one forwarded register copy's source window by one."""
    for i, op in enumerate(ops):
        if isinstance(op, RegMove):
            return ops[:i] + (dataclasses.replace(
                op, src_reg=op.src_reg + 1),) + ops[i + 1:]
    raise AssertionError("no RegMove in plan")


def _mutate_fused_block(ops):
    """Drop the last member of a multi-step fused block."""
    for i, op in enumerate(ops):
        if isinstance(op, FusedBlock) and len(op.steps) > 1:
            return ops[:i] + (dataclasses.replace(
                op, steps=op.steps[:-1]),) + ops[i + 1:]
    raise AssertionError("no multi-step FusedBlock in plan")


def _mutate_mvm_group(ops):
    """Drop one MVM from a batched group (its crossbar never fires)."""
    for i, op in enumerate(ops):
        if isinstance(op, MvmGroup):
            return ops[:i] + (dataclasses.replace(
                op, steps=op.steps[:-1]),) + ops[i + 1:]
    raise AssertionError("no MvmGroup in plan")


@pytest.mark.parametrize("mutate", [
    _mutate_forwarded_copy, _mutate_fused_block, _mutate_mvm_group,
], ids=["forwarded-copy", "fused-block", "mvm-group"])
def test_mutated_plan_is_caught_by_the_probe(mutate):
    """One seeded defect in the plan: the probe must catch it, count it,
    poison the plan, and still serve the bitwise-correct plain replay."""
    engine, tape, _inputs = optimized_engine()
    plan = tape.optimized
    # Install the tampered plan with a fresh (empty) verified set, as if
    # this process had just built it.
    tape.optimized = OptimizedTape(plan=mutate(plan.plan),
                                   report=plan.report)
    inputs = random_inputs(engine, batch=2, seed=23)
    reference = make_engine(RICH_DIMS,
                            execution_mode="interpret").run_batch(inputs)
    before = tape_cache_info()
    served = engine.run_batch(inputs)
    assert served.execution == "replay"          # probe mismatch -> plain
    assert tape.optimized == "failed-verification"
    after = tape_cache_info()
    assert after.optimizer_fallbacks == before.optimizer_fallbacks + 1
    assert after.optimized == before.optimized
    for name in reference:
        np.testing.assert_array_equal(served[name], reference[name])
    # The poisoned tape never tries the optimizer again.
    again = engine.run_batch(inputs)
    assert again.execution == "replay"
    assert tape_cache_info().optimizer_fallbacks == after.optimizer_fallbacks
    for name in reference:
        np.testing.assert_array_equal(again[name], reference[name])


# -- cache-bypass audit: seed=None and RANDOM-op programs -------------------


def test_unseeded_engine_bypasses_every_cache(tmp_path):
    """seed=None: no programmed state, no tape, no artifacts — ever."""
    engine = InferenceEngine(build_mlp_model(SMALL_DIMS, seed=0), CFG,
                             seed=None)
    before = tape_cache_info()
    inputs = random_inputs(engine, batch=2)
    first = engine.run_batch(inputs)
    second = engine.run_batch(inputs)
    assert first.execution == second.execution == "interpreter"
    after = tape_cache_info()
    assert after.recordings == before.recordings
    assert after.replays == before.replays
    assert after.optimized == before.optimized
    assert after.fallbacks == before.fallbacks + 2
    # Programmed-state and tape caches hold nothing under this engine's
    # key (the compile cache may legitimately share the compilation).
    assert engine._state_key() is None
    assert None not in engine.compiled.programmed_states
    assert engine._fingerprint not in engine.compiled.execution_tapes
    # The artifact store refuses in both directions.
    with pytest.raises(ArtifactError, match="seed=None"):
        engine.save_artifacts(tmp_path / "unseeded")
    assert engine.ensure_artifacts(tmp_path) is None
    assert list(tmp_path.iterdir()) == []


def test_random_op_program_bypasses_tape_and_store(tmp_path):
    """A stochastic program never records, never optimizes, and the
    store refuses to freeze a schedule for it."""
    engine = InferenceEngine(build_rbm_model(32, 16, stochastic=True,
                                             seed=0), CFG, seed=3)
    before = tape_cache_info()
    inputs = random_inputs(engine, batch=2)
    first = engine.run_batch(inputs)
    second = engine.run_batch(inputs)
    assert first.execution == second.execution == "interpreter"
    after = tape_cache_info()
    assert after.fallbacks == before.fallbacks + 2
    assert after.recordings == before.recordings
    assert after.optimizer_fallbacks == before.optimizer_fallbacks
    assert engine._fingerprint not in engine.compiled.execution_tapes
    # Smuggling any tape into its artifact fails loudly...
    donor = make_engine(SMALL_DIMS)
    donor.run_batch(random_inputs(donor, batch=2))
    donor_tape = next(iter(donor.compiled.execution_tapes.values()))
    state = engine.compiled.programmed_states[engine._state_key()]
    with pytest.raises(ArtifactError, match="never be replayed"):
        save_artifact(tmp_path / "rbm", compiled=engine.compiled,
                      tape=donor_tape, programmed_state=state,
                      config=CFG, options=None, crossbar_model=None,
                      seed=3)
    # ...but the (seed-deterministic) programmed state alone persists.
    path = save_artifact(tmp_path / "rbm", compiled=engine.compiled,
                         tape=None, programmed_state=state, config=CFG,
                         options=None, crossbar_model=None, seed=3)
    assert load_artifact(path).tape is None


@pytest.mark.parametrize("seed", [None, True], ids=["none", "bool"])
def test_save_artifact_rejects_non_int_seed(tmp_path, seed):
    donor = make_engine(SMALL_DIMS)
    donor.run_batch(random_inputs(donor, batch=2))
    state = donor.compiled.programmed_states[donor._state_key()]
    with pytest.raises(ArtifactError):
        save_artifact(tmp_path / "art", compiled=donor.compiled, tape=None,
                      programmed_state=state, config=CFG, options=None,
                      crossbar_model=None, seed=seed)


# -- tampered artifacts fail loudly -----------------------------------------


def saved_artifact(tmp_path):
    """An artifact carrying a recorded tape *and* its optimizer plan."""
    clear_tape_caches()
    engine = make_engine(SMALL_DIMS)
    inputs = random_inputs(engine, batch=2)
    engine.run_batch(inputs)
    assert engine.run_batch(inputs).execution == "optimized"
    path = engine.save_artifacts(tmp_path / "art")
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["optimizer"] is not None     # precondition
    return path


def _rewrite(path, mutate_payload=None, mutate_manifest=None):
    """Tamper an artifact the thorough way: re-pickle the payload and
    refresh its integrity hash, so only semantic checks can object."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    if mutate_payload is not None:
        with open(path / PAYLOAD_NAME, "rb") as handle:
            payload = pickle.loads(gzip.decompress(handle.read()))
        mutate_payload(payload)
        with open(path / PAYLOAD_NAME, "wb") as handle:
            handle.write(gzip.compress(pickle.dumps(payload)))
        manifest["files"][PAYLOAD_NAME] = {
            "sha256": hashlib.sha256(
                (path / PAYLOAD_NAME).read_bytes()).hexdigest(),
            "bytes": (path / PAYLOAD_NAME).stat().st_size,
        }
    if mutate_manifest is not None:
        mutate_manifest(manifest)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))


def test_artifact_with_non_int_seed_fails_loudly(tmp_path):
    """A seed=None artifact cannot exist honestly; a forged one is
    rejected even when payload and manifest agree with each other."""
    path = saved_artifact(tmp_path)

    def unseed_payload(payload):
        payload["seed"] = None

    def unseed_manifest(manifest):
        manifest["seed"] = None

    _rewrite(path, unseed_payload, unseed_manifest)
    with pytest.raises(ArtifactError, match="plain int"):
        load_artifact(path)


def test_tampered_optimizer_manifest_digest_fails_loudly(tmp_path):
    path = saved_artifact(tmp_path)

    def forge(manifest):
        manifest["optimizer"]["digest"] = "0" * 64

    _rewrite(path, mutate_manifest=forge)
    with pytest.raises(ArtifactError, match="optimizer digest"):
        load_artifact(path)


def test_repickled_mutated_plan_fails_digest(tmp_path):
    """A mutated plan smuggled into the payload (hashes refreshed) is
    still caught by the manifest's independent plan digest."""
    path = saved_artifact(tmp_path)

    def mutate(payload):
        tape = payload["tape"]
        tape.optimized = OptimizedTape(
            plan=_mutate_forwarded_copy(tape.optimized.plan),
            report=tape.optimized.report)

    _rewrite(path, mutate)
    with pytest.raises(ArtifactError, match="optimizer digest"):
        load_artifact(path)


def test_loaded_plan_requires_fresh_probes(tmp_path):
    """Verification verdicts are per-process: a loaded plan starts with
    an empty verified set and is probed again before serving."""
    path = saved_artifact(tmp_path)
    loaded = load_artifact(path)
    assert isinstance(loaded.tape.optimized, OptimizedTape)
    assert loaded.tape.optimized.verified_batches == set()
    warm = InferenceEngine.from_artifacts(path)
    result = warm.run_batch(random_inputs(warm, batch=2, seed=9))
    assert result.execution == "optimized"       # probe ran and passed
    tape = next(iter(warm.compiled.execution_tapes.values()))
    assert tape.optimized.verified_batches == {2}

"""Tape optimizer: pass reports, seeded plan mutations, the recording
check, and the cache-bypass audit.

The optimizer (:mod:`repro.sim.tapeopt`) compiles a recorded execution
tape into a shorter plan; the engine keeps the plan only if, in the pass
that records the tape, it reproduces the interpreter's words bitwise.
These tests pin that check the same way
``tests/test_analysis_mutations.py`` pins the static verifier: inject one
seeded defect into the plan and assert the recording check refuses it,
the refusal is counted once, and every answer is still bitwise correct.

The second half audits the cache-bypass rules at all four layers —
compile cache, programmed-state cache, tape cache, artifact store — for
the engines' one bypass: stochastic RANDOM-op programs (schedule must
never be frozen).  Artifacts that *would* smuggle state past those rules
fail loudly at load (a non-int seed, too), including a tampered
optimizer plan caught by its manifest digest.
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
from repro.fleet.models import FleetModelSpec, build_engine
from repro.isa.opcodes import Opcode
from repro.node.node import Node
from repro.sim import tapeopt
from repro.sim.tape import TapeStep
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
    """A fresh engine whose tape carries a checked optimized plan."""
    clear_tape_caches()
    engine = make_engine(dims)
    inputs = random_inputs(engine, batch=batch, seed=11)
    engine.run_batch(inputs)                     # records the tape
    assert engine.run_batch(inputs).execution == "optimized"
    tape = next(iter(engine.compiled.execution_tapes.values()))
    return engine, tape, inputs


def assert_words_equal(served, reference):
    assert set(served.words) == set(reference.words)
    for name in reference.words:
        np.testing.assert_array_equal(served[name], reference[name])


def count_node_binds(monkeypatch):
    """Record the batch width of every ``Node.for_program`` call."""
    real = Node.for_program.__func__
    widths = []

    def counting(cls, *args, **kwargs):
        widths.append(kwargs.get("batch"))
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Node, "for_program", classmethod(counting))
    return widths


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
        "writes_eliminated", "fused_blocks", "fused_steps", "mvm_groups",
        "mvms_batched"}
    kinds = {type(op) for op in plan.plan}
    assert {RegMove, FusedBlock, MvmGroup} <= kinds


def _members(op):
    return op.steps if isinstance(op, (FusedBlock, MvmGroup)) else (op,)


def _is_loop_code(step):
    """Scalar loop and address bookkeeping: ``ALU_INT`` and scalar ``SET``."""
    instr = step.instruction
    return instr.opcode == Opcode.ALU_INT or (
        instr.opcode == Opcode.SET and instr.vec_width == 1)


def fleet_plan(spec):
    """The checked plan of a fleet model's batch-1 recording."""
    clear_tape_caches()
    engine = build_engine(spec)
    engine.warm(batch=1)
    tape = engine.compiled.execution_tapes[engine._fingerprint]
    assert isinstance(tape.optimized, OptimizedTape)
    return engine, tape


FLEET_CNN = FleetModelSpec("cnn", "cnn_small", {}, seed=0)
FLEET_LSTM = FleetModelSpec("lstm", "lstm", {
    "input_size": 16, "hidden_size": 24, "output_size": 8}, seed=0)


def test_loop_and_address_code_dies_in_the_cnn_plan():
    """The CNN's loop counters and address registers feed only branches
    and register-indirect addresses, and the tape has folded both into
    its steps: none of that code survives, and the report counts it."""
    _engine, tape = fleet_plan(FLEET_CNN)
    report = tape.optimized.report
    loop_code = [step for step in tape.steps if _is_loop_code(step)]
    assert len(loop_code) > 50
    survivors = [step for op in tape.optimized.plan for step in _members(op)
                 if isinstance(step, TapeStep)]
    assert not any(_is_loop_code(step) for step in survivors)
    assert report.writes_eliminated == len(loop_code)


def test_optimize_is_deterministic():
    engine, tape, _inputs = optimized_engine()
    again = optimize_tape(tape, engine._dependence_graph())
    assert again.report == tape.optimized.report
    assert again.digest() == tape.optimized.digest()
    assert len(again.digest()) == 64  # sha256 hex


# -- the recording check ----------------------------------------------------


def test_first_run_at_a_new_width_binds_one_node(monkeypatch):
    """The plan was checked when the tape was recorded, so a new width
    binds its optimized replayer and nothing else: one node, not a
    second one for a per-width probe."""
    clear_tape_caches()
    engine = make_engine(SMALL_DIMS)
    engine.warm(batch=2)                         # records and checks
    engine.warm(batch=5)      # width 5's stats: a shadow run builds a node
    widths = count_node_binds(monkeypatch)
    result = engine.run_batch(random_inputs(engine, batch=5))
    assert result.execution == "optimized"
    assert widths == [5]
    engine.run_batch(random_inputs(engine, batch=5, seed=1))
    assert widths == [5]                         # bound once, then reused


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


def _mutate_live_write(ops):
    """Drop one register write the dead-write pass kept as live."""
    for i, op in enumerate(ops):
        if isinstance(op, TapeStep) and op.instruction.opcode == Opcode.ALU:
            return ops[:i] + ops[i + 1:]
    raise AssertionError("no ALU step in plan")


def optimize_with(monkeypatch, mutate):
    """Make the engine's optimizer hand out ``mutate``-d plans."""

    def mutated(tape, graph):
        plan = optimize_tape(tape, graph)
        return OptimizedTape(plan=mutate(plan.plan), report=plan.report)

    monkeypatch.setattr("repro.engine.optimize_tape", mutated)


def assert_refused_at_recording(dims, inputs_seed=23):
    """Record under a broken optimizer: the interpreter's words come back,
    the plan never reaches the tape, the refusal is counted once, and
    every later run is plain replay, bitwise."""
    clear_tape_caches()
    engine = make_engine(dims)
    reference = make_engine(dims, execution_mode="interpret")
    inputs = random_inputs(engine, batch=2, seed=inputs_seed)
    before = tape_cache_info()
    recorded = engine.run_batch(inputs)
    assert recorded.execution == "interpreter"
    assert_words_equal(recorded, reference.run_batch(inputs))
    tape = engine.compiled.execution_tapes[engine._fingerprint]
    assert tape.optimized is None
    after = tape_cache_info()
    assert after.optimizer_fallbacks == before.optimizer_fallbacks + 1
    for batch, seed in ((2, 29), (4, 31)):
        more = random_inputs(engine, batch=batch, seed=seed)
        served = engine.run_batch(more)
        assert served.execution == "replay"
        assert_words_equal(served, reference.run_batch(more))
    final = tape_cache_info()
    assert final.optimizer_fallbacks == after.optimizer_fallbacks
    assert final.optimized == after.optimized
    return tape


@pytest.mark.parametrize("mutate", [
    _mutate_forwarded_copy, _mutate_fused_block, _mutate_mvm_group,
    _mutate_live_write,
], ids=["forwarded-copy", "fused-block", "mvm-group", "live-write"])
def test_mutated_plan_is_caught_at_recording(monkeypatch, mutate):
    """One seeded defect in the plan: the recording check refuses it."""
    optimize_with(monkeypatch, mutate)
    assert_refused_at_recording(RICH_DIMS)


def test_plan_failing_its_self_check_is_refused_at_recording(monkeypatch):
    """A plan that loses a step fails ``_check_plan``; the
    ``TapeOptimizationError`` takes the same route as a mismatch."""
    real = tapeopt._batch_mvms

    def lossy(plan):
        plan, groups, batched = real(plan)
        return plan[:-1], groups, batched

    monkeypatch.setattr(tapeopt, "_batch_mvms", lossy)
    tape = assert_refused_at_recording(SMALL_DIMS)
    graph = make_engine(SMALL_DIMS)._dependence_graph()
    with pytest.raises(TapeOptimizationError, match="does not cover"):
        optimize_tape(tape, graph)


def test_warm_alone_catches_a_dropped_mvm(monkeypatch):
    """``warm`` records over seeded non-zero inputs.  Over all-zero ones a
    crossbar that never fires reads the zeros it would have produced, and
    the dropped MVM would pass its check."""
    optimize_with(monkeypatch, _mutate_mvm_group)
    clear_tape_caches()
    engine = make_engine(RICH_DIMS)
    before = tape_cache_info()
    engine.warm(batch=4)
    tape = engine.compiled.execution_tapes[engine._fingerprint]
    assert tape.optimized is None
    assert tape_cache_info().optimizer_fallbacks \
        == before.optimizer_fallbacks + 1


# -- host-cost ratchets ------------------------------------------------------


@pytest.mark.parametrize("spec, max_ops, max_cells", [
    (FLEET_CNN, 284, 436),
    (FLEET_LSTM, 43, 4032),
], ids=["cnn_small", "lstm"])
def test_replay_pays_only_for_live_programmed_work(spec, max_ops, max_cells):
    """Exact host-cost counts of two fleet plans: ops replayed per run,
    and float64 cells of the bound stacked MVM operands.  A plan that
    kept its dead loop code, or a stack of whole 128x128 crossbars
    around a few programmed cells, reads 349 ops / 49,152 cells
    (cnn_small) and 32,768 cells (LSTM 16/24/8)."""
    engine, tape = fleet_plan(spec)
    assert len(tape.optimized.plan) <= max_ops
    replayer = engine._bind_replayer(tape, tape.optimized, 1)
    cells = sum(stack.size for stack, _rows, _cols, *_scratch
                in replayer._stacks.values())
    assert 0 < cells <= max_cells


# -- cache-bypass audit: RANDOM-op programs ---------------------------------


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
    state = engine.compiled.programmed_states[engine._fingerprint]
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
    state = donor.compiled.programmed_states[donor._fingerprint]
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


def test_loaded_plan_serves_a_new_width_with_one_bind(tmp_path, monkeypatch):
    """A persisted plan passed its recording check in the process that
    saved it: the loading process trusts it, and a width it never saw
    binds one node and serves the optimized plan."""
    path = saved_artifact(tmp_path)
    assert isinstance(load_artifact(path).tape.optimized, OptimizedTape)
    warm = InferenceEngine.from_artifacts(path)
    warm.warm(batch=3)        # width 3's stats: a shadow run builds a node
    widths = count_node_binds(monkeypatch)
    inputs = random_inputs(warm, batch=3, seed=9)
    result = warm.run_batch(inputs)
    assert result.execution == "optimized"
    assert widths == [3]
    reference = make_engine(SMALL_DIMS, execution_mode="interpret")
    assert_words_equal(result, reference.run_batch(inputs))

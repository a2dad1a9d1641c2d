"""Trace-replay fast path: replay == event-driven interpreter, exactly.

The engine's trace-replay guarantee mirrors the batched==sequential and
sharded==unsharded guarantees of PR 1/PR 3: for any deterministic program,
a replayed run — plain or through the tape optimizer's fused plan
(:mod:`repro.sim.tapeopt`) — produces **bitwise-identical output words**
and **field-identical stats** to the event-driven interpreter at the same
(config, crossbar model, seed, batch).  These tests pin that equivalence
across the golden workload families (MLP, LSTM with its sequence loops and
tile sends, CNN with register-indirect addressing), ideal and noisy
crossbars, batch sizes 1/4/64, sharded and unsharded — plus the fallback
paths: stochastic RANDOM-op programs, unseeded engines, corrupted tapes,
and per-(config/crossbar/seed) cache keying.  The tape itself is
batch-generic: one recording serves every batch size, with per-batch
timing stats derived by shadow simulation on demand.
"""

import inspect

import numpy as np
import pytest

from repro import CrossbarModel, InferenceEngine, default_config
from repro.compiler.cnn import compile_cnn
from repro.engine import clear_tape_caches, tape_cache_info
from repro.serve import ShardedEngine
from repro.sim.tape import (ExecutionTape, TapeReplayer, TapeStep,
                            find_unsupported_op)
from repro.workloads.boltzmann import build_rbm_model
from repro.workloads.cnn import small_cnn_spec
from repro.workloads.lstm import build_lstm_model
from repro.workloads.mlp import build_mlp_model
from repro.workloads.rnn import build_rnn_model

CFG = default_config()


def noisy_model(sigma=0.1):
    core = CFG.core
    return CrossbarModel(dim=core.mvmu_dim, bits_per_cell=core.bits_per_cell,
                         bits_per_input=core.bits_per_input,
                         write_noise_sigma=sigma)


def make_engine(workload, device, execution_mode="auto", seed=7):
    xbar = None if device == "ideal" else noisy_model()
    if workload == "cnn":
        compiled = compile_cnn(small_cnn_spec(seed=0), CFG)
        return InferenceEngine.from_compiled(
            compiled, CFG, crossbar_model=xbar, seed=seed,
            execution_mode=execution_mode)
    builders = {
        "mlp": lambda: build_mlp_model([32, 24, 16, 10], seed=0),
        "lstm": lambda: build_lstm_model(8, 6, 4, seq_len=2, seed=0),
        "rnn": lambda: build_rnn_model(8, 12, 6, seq_len=2, seed=0),
        # Layers on two tiles: NoC sends and receives on the tape.
        "mlp_two_tile": lambda: build_mlp_model([512, 512, 10], seed=0),
    }
    return InferenceEngine(builders[workload](), CFG, crossbar_model=xbar,
                           seed=seed, execution_mode=execution_mode)


def random_inputs(engine, batch, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: engine.quantize(rng.normal(0.0, 0.5, size=(batch, length)))
        for name, (_, _, length) in engine.program.input_layout.items()
    }


def assert_same_result(replayed, reference):
    assert set(replayed.words) == set(reference.words)
    for name in replayed.words:
        assert replayed[name].shape == reference[name].shape
        np.testing.assert_array_equal(replayed[name], reference[name])
    assert replayed.stats == reference.stats  # field-identical dataclasses


# -- equivalence across workloads / devices / batch sizes -------------------


@pytest.mark.parametrize("workload", ["mlp", "lstm", "cnn"])
@pytest.mark.parametrize("device", ["ideal", "noisy"])
@pytest.mark.parametrize("batch", [1, 4, 64])
def test_replay_bitwise_equals_interpreter(workload, device, batch):
    """Second run replays the tape; outputs bitwise, stats field-equal."""
    engine = make_engine(workload, device)
    reference = make_engine(workload, device, execution_mode="interpret")
    inputs = random_inputs(engine, batch=batch, seed=11)
    first = engine.run_batch(inputs)       # records the tape
    ref = reference.run_batch(inputs)
    assert first.execution == "interpreter"
    assert ref.execution == "interpreter"
    assert_same_result(first, ref)
    replayed = engine.run_batch(inputs)    # replays the optimized plan
    assert replayed.execution == "optimized"
    assert_same_result(replayed, ref)
    # Fresh data through the same plan: still exact.
    inputs2 = random_inputs(engine, batch=batch, seed=13)
    replayed2 = engine.run_batch(inputs2)
    assert replayed2.execution == "optimized"
    assert_same_result(replayed2, reference.run_batch(inputs2))


@pytest.mark.parametrize("workload,device", [
    ("mlp", "ideal"), ("mlp", "noisy"), ("lstm", "ideal"), ("cnn", "ideal"),
    ("rnn", "ideal"), ("mlp_two_tile", "ideal"),
])
def test_one_recording_serves_every_width(workload, device):
    """The plan is checked once, at the width the tape was recorded at;
    this holds every other width.  Recorded at 2, then served at 1, 3, 16
    and 64 without re-recording: the optimized plan each time, words
    bitwise and stats field-identical to the interpreter."""
    engine = make_engine(workload, device)
    reference = make_engine(workload, device, execution_mode="interpret")
    assert engine.run_batch(random_inputs(engine, 2)).execution \
        == "interpreter"
    recordings = tape_cache_info().recordings
    for width in (1, 3, 16, 64):
        inputs = random_inputs(engine, width, seed=width)
        served = engine.run_batch(inputs)
        assert served.execution == "optimized"
        assert_same_result(served, reference.run_batch(inputs))
    assert tape_cache_info().recordings == recordings


@pytest.mark.parametrize("device", ["ideal", "noisy"])
def test_replay_lane_equals_sequential_reference(device):
    """Replayed batch lanes equal the per-lane interpreter reference."""
    engine = make_engine("mlp", device)
    inputs = random_inputs(engine, batch=6, seed=3)
    engine.run_batch(inputs)               # record
    replayed = engine.run_batch(inputs)
    assert replayed.execution == "optimized"
    sequential = engine.run_sequential(inputs)  # per-lane interpreter runs
    for name in replayed:
        np.testing.assert_array_equal(replayed[name], sequential[name])


def test_replay_sharded_bitwise():
    """Sharded passes over a replaying engine stay bitwise identical."""
    engine = make_engine("mlp", "ideal")
    reference = make_engine("mlp", "ideal", execution_mode="interpret")
    inputs = random_inputs(engine, batch=16, seed=5)
    ref = reference.run_batch(inputs)
    sharded = ShardedEngine(engine, num_shards=4)
    first = sharded.run_batch(inputs)   # records the shard-width tape
    second = sharded.run_batch(inputs)  # every shard replays it
    for result in (first, second):
        for name in ref:
            np.testing.assert_array_equal(result[name], ref[name])
    assert second.execution == "optimized"


def test_replay_batch_one_shapes():
    """Batch-1 replay keeps the classic 1-D output contract."""
    engine = make_engine("mlp", "ideal")
    inputs = {name: values[0]
              for name, values in random_inputs(engine, batch=2).items()}
    engine.run_batch(inputs)
    replayed = engine.run_batch(inputs)
    assert replayed.execution == "optimized"
    for name in replayed:
        assert replayed[name].ndim == 1


# -- cache keying and warm-up ----------------------------------------------


def test_tape_is_batch_generic():
    """One recording serves every batch size; timing stats for a batch the
    tape never saw are derived by shadow simulation, not re-recording,
    when the pass's stats are first read."""
    engine = make_engine("mlp", "ideal")
    reference = make_engine("mlp", "ideal", execution_mode="interpret")
    assert engine.run_batch(random_inputs(engine, 4)).execution \
        == "interpreter"
    assert engine.run_batch(random_inputs(engine, 4)).execution \
        == "optimized"
    # A new batch size replays the same tape immediately — no second
    # recording pass — with stats derived for that batch on first read.
    before = tape_cache_info()
    inputs8 = random_inputs(engine, 8)
    result8 = engine.run_batch(inputs8)
    assert result8.execution == "optimized"
    assert tape_cache_info().derived_stats == before.derived_stats
    result8.stats                       # the first read derives them
    after = tape_cache_info()
    assert after.recordings == before.recordings
    assert after.derived_stats == before.derived_stats + 1
    # Derived stats are field-identical to a real batch-8 interpreter run.
    ref8 = reference.run_batch(inputs8)
    assert result8.stats == ref8.stats
    for name in ref8:
        np.testing.assert_array_equal(result8[name], ref8[name])
    # The single tape carries stats for both batches.
    (tape,) = engine.compiled.execution_tapes.values()
    assert set(tape.batches()) >= {4, 8}
    # The original batch is still served.
    assert engine.run_batch(random_inputs(engine, 4)).execution \
        == "optimized"


@pytest.mark.parametrize("workload", ["mlp", "lstm", "cnn"])
def test_bound_steps_take_no_arguments(workload):
    """Every op a plain or optimized replayer binds is a zero-argument
    closure over whole-batch views: there is no lane selection to pass."""
    engine = make_engine(workload, "ideal")
    inputs = random_inputs(engine, 4)
    engine.run_batch(inputs)
    assert engine.run_batch(inputs).execution == "optimized"
    (tape,) = engine.compiled.execution_tapes.values()
    for plan in (None, tape.optimized):
        replayer = engine._bind_replayer(tape, plan, 4)
        assert replayer.optimized is plan
        assert replayer.ops
        for op in replayer.ops:
            assert not inspect.signature(op).parameters, op


def test_tape_invalidated_by_config_and_seed_change():
    """Tapes key on (config, crossbar model, seed): a different device
    model or seed must not replay another engine's tape."""
    compiled = compile_cnn(small_cnn_spec(seed=0), CFG)
    ideal = InferenceEngine.from_compiled(compiled, CFG, seed=7)
    inputs = random_inputs(ideal, batch=3, seed=1)
    ideal.run_batch(inputs)
    assert ideal.run_batch(inputs).execution == "optimized"
    # Same compilation, different crossbar model: records its own tape.
    noisy = InferenceEngine.from_compiled(compiled, CFG,
                                          crossbar_model=noisy_model(),
                                          seed=7)
    assert noisy.run_batch(inputs).execution == "interpreter"
    assert noisy.run_batch(inputs).execution == "optimized"
    # Same compilation, different seed: ditto.
    reseeded = InferenceEngine.from_compiled(compiled, CFG, seed=8)
    assert reseeded.run_batch(inputs).execution == "interpreter"


def test_warm_with_batch_prerecords_tape():
    """warm(batch=N) pays the recording pass before the first request."""
    engine = make_engine("mlp", "ideal")
    engine.warm(batch=4)
    result = engine.run_batch(random_inputs(engine, 4))
    assert result.execution == "optimized"


def test_engines_share_tapes_through_compile_cache():
    """Two engines over the same cached compilation share recordings."""
    model = build_mlp_model([32, 24, 16, 10], seed=0)
    first = InferenceEngine(model, CFG, seed=7)
    second = InferenceEngine(model, CFG, seed=7)
    assert first.compiled is second.compiled
    inputs = random_inputs(first, batch=3)
    first.run_batch(inputs)                # records
    result = second.run_batch(inputs)      # replays the shared tape
    assert result.execution == "optimized"
    np.testing.assert_array_equal(result["out"], first.run_batch(inputs)["out"])


# -- fallback paths ---------------------------------------------------------


def test_random_op_program_falls_back():
    """Stochastic programs transparently use the interpreter, counted."""
    model = build_rbm_model(32, 16, stochastic=True, seed=0)
    engine = InferenceEngine(model, CFG, seed=7)
    assert find_unsupported_op(engine.program) is not None
    before = tape_cache_info()
    inputs = random_inputs(engine, batch=2)
    for _ in range(2):
        assert engine.run_batch(inputs).execution == "interpreter"
    after = tape_cache_info()
    assert after.fallbacks == before.fallbacks + 2
    assert after.recordings == before.recordings


def test_random_op_with_strict_replay_raises():
    model = build_rbm_model(32, 16, stochastic=True, seed=0)
    engine = InferenceEngine(model, CFG, seed=7, execution_mode="replay")
    with pytest.raises(ValueError, match="RANDOM"):
        engine.run_batch(random_inputs(engine, 2))


def test_interpret_mode_never_records():
    engine = make_engine("mlp", "ideal", execution_mode="interpret")
    before = tape_cache_info()
    inputs = random_inputs(engine, batch=2)
    assert engine.run_batch(inputs).execution == "interpreter"
    assert engine.run_batch(inputs).execution == "interpreter"
    after = tape_cache_info()
    assert after.recordings == before.recordings
    assert after.fallbacks == before.fallbacks  # explicit choice, not a fallback


def test_invalid_execution_mode_rejected():
    for mode in ("warp", "optimized"):
        with pytest.raises(ValueError, match="execution_mode"):
            InferenceEngine(build_mlp_model([32, 24, 16, 10], seed=0), CFG,
                            execution_mode=mode)


def test_corrupted_tape_falls_back_and_rerecords():
    """A tape that fails validation is dropped, the run interprets, and
    the next run replays a freshly recorded tape."""
    engine = make_engine("mlp", "ideal")
    inputs = random_inputs(engine, batch=3)
    reference = engine.run_batch(inputs)            # records
    key, tape = next(iter(engine.compiled.execution_tapes.items()))
    bogus_step = TapeStep(tile_id=999, core_id=0,
                          instruction=tape.steps[0].instruction, eff_addr=0)
    engine.compiled.execution_tapes[key] = ExecutionTape(
        steps=(bogus_step,), stats_by_batch=tape.stats_by_batch,
        recorded_batch=tape.recorded_batch)
    before = tape_cache_info()
    recovered = engine.run_batch(inputs)            # falls back + re-records
    assert recovered.execution == "interpreter"
    assert tape_cache_info().fallbacks == before.fallbacks + 1
    for name in recovered:
        np.testing.assert_array_equal(recovered[name], reference[name])
    assert engine.run_batch(inputs).execution == "optimized"


# -- introspection ----------------------------------------------------------


def test_tape_cache_info_counts():
    engine = make_engine("mlp", "ideal")
    before = tape_cache_info()
    inputs = random_inputs(engine, batch=2)
    engine.run_batch(inputs)
    engine.run_batch(inputs)
    engine.run_batch(inputs)
    after = tape_cache_info()
    assert after.recordings == before.recordings + 1
    assert after.replays == before.replays + 2
    # auto mode serves replays through the optimized plan, and every
    # optimized run also counts as a replay.
    assert after.optimized == before.optimized + 2
    assert after.optimized <= after.replays
    assert after.entries >= 1


def test_clear_tape_caches():
    engine = make_engine("mlp", "ideal")
    inputs = random_inputs(engine, batch=2)
    engine.run_batch(inputs)
    clear_tape_caches()
    info = tape_cache_info()
    assert info.entries == 0
    assert (info.recordings, info.replays, info.fallbacks) == (0, 0, 0)
    assert len(engine.compiled.execution_tapes) == 0


def test_read_scalar_matches_vector_read():
    """The allocation-free lane-0 read agrees with the classic path."""
    from repro.arch.registers import RegisterAccessError, RegisterFile

    regs = RegisterFile(CFG.core, batch=3)
    base = CFG.core.xbar_in_size + CFG.core.xbar_out_size  # general regs
    regs.write(base, np.array([[5, 6], [7, 8], [9, 10]]))
    assert regs.read_scalar(base) == 5
    assert regs.read_scalar(base + 1) == 6
    with pytest.raises(RegisterAccessError):
        regs.read_scalar(0)  # XbarIn is MVM-only


def test_clear_tape_caches_forces_rerecord():
    """A bound replayer must not outlive its cleared tape."""
    engine = make_engine("mlp", "ideal")
    inputs = random_inputs(engine, batch=2)
    engine.run_batch(inputs)
    assert engine.run_batch(inputs).execution == "optimized"
    clear_tape_caches()
    assert engine.run_batch(inputs).execution == "interpreter"  # re-records
    assert engine.run_batch(inputs).execution == "optimized"


def test_tape_replayer_handwritten_kernel_aliasing_ops():
    """Direct tape record/replay of a kernel with the nasty bindings:
    SUBSAMPLE with dest aliasing src, an overlapping COPY, and a
    register-indirect LOAD (resolved effective address on the tape)."""
    from repro.isa import instruction as isa
    from repro.isa.opcodes import AluOp
    from repro.isa.program import NodeProgram
    from repro.node.node import Node
    from repro.sim.simulator import Simulator
    from repro.sim.tape import TapeRecorder, TapeReplayer
    from repro.tile.attribute_buffer import PERSISTENT_COUNT

    G = CFG.core.general_base
    instrs = [
        isa.load(G, 0, vec_width=8),
        isa.set_(G + 8, 2),                                 # subsample factor
        isa.alu(AluOp.SUBSAMPLE, G, G, G + 8, vec_width=8),  # dest == src
        isa.copy(G + 1, G, vec_width=4),                    # overlapping copy
        isa.set_(G + 20, 3),                                # indirect offset
        isa.load(G + 5, 1, vec_width=2,
                 addr_reg=G + 20, reg_indirect=True),        # eff addr = 4
        isa.store(G, 16, count=PERSISTENT_COUNT, vec_width=8),
        isa.hlt(),
    ]

    def fresh_program():
        program = NodeProgram(name="kernel")
        program.tile(0).core(0).extend(instrs)
        program.input_layout["x"] = (0, 0, 8)
        program.output_layout["y"] = (0, 16, 8)
        return program

    batch = 3
    rng = np.random.default_rng(0)
    x = rng.integers(-500, 500, size=(batch, 8))

    program = fresh_program()
    recorder = TapeRecorder(batch)
    recording_sim = Simulator(CFG, program, seed=0, batch=batch,
                              tape_recorder=recorder)
    recorded_out = recording_sim.run({"x": x})
    tape = recorder.finish(recording_sim.stats)
    assert tape.instruction_count == len(instrs)

    node = Node.for_program(CFG, fresh_program(),
                            lambda _delay, _cb: None, seed=0, batch=batch)
    replayer = TapeReplayer(tape, node, fresh_program())
    for trial_seed in (1, 2):
        x_new = np.random.default_rng(trial_seed).integers(
            -500, 500, size=(batch, 8))
        replayed = replayer.run({"x": x_new})
        reference = Simulator(CFG, fresh_program(), seed=0,
                              batch=batch).run({"x": x_new})
        np.testing.assert_array_equal(replayed["y"], reference["y"])
    # and the recording run itself matched a plain interpreter pass
    reference = Simulator(CFG, fresh_program(), seed=0,
                          batch=batch).run({"x": x})
    np.testing.assert_array_equal(recorded_out["y"], reference["y"])


def test_replay_rezeros_registers_between_runs():
    """A schedule reading a register before its first write saw a fresh
    node's zeros in the interpreter; a later (input-dependent) write to
    that register must not leak into the next replay run."""
    from repro.isa import instruction as isa
    from repro.isa.opcodes import AluOp
    from repro.isa.program import NodeProgram
    from repro.node.node import Node
    from repro.sim.simulator import Simulator
    from repro.sim.tape import TapeRecorder, TapeReplayer
    from repro.tile.attribute_buffer import PERSISTENT_COUNT

    G = CFG.core.general_base
    instrs = [
        isa.load(G, 0, vec_width=4),
        isa.alu(AluOp.ADD, G + 4, G, G + 8, vec_width=4),  # G+8: still zeros
        isa.copy(G + 8, G, vec_width=4),   # ...then input data lands there
        isa.store(G + 4, 16, count=PERSISTENT_COUNT, vec_width=4),
        isa.hlt(),
    ]

    def fresh_program():
        program = NodeProgram(name="kernel")
        program.tile(0).core(0).extend(instrs)
        program.input_layout["x"] = (0, 0, 4)
        program.output_layout["y"] = (0, 16, 4)
        return program

    recorder = TapeRecorder(1)
    sim = Simulator(CFG, fresh_program(), seed=0, tape_recorder=recorder)
    x1 = np.array([100, 200, 300, 400])
    sim.run({"x": x1})
    tape = recorder.finish(sim.stats)

    node = Node.for_program(CFG, fresh_program(),
                            lambda _delay, _cb: None, seed=0, batch=1)
    replayer = TapeReplayer(tape, node, fresh_program())
    np.testing.assert_array_equal(replayer.run({"x": x1})["y"], x1)
    x2 = np.array([7, 8, 9, 10])
    # Without re-zeroing, run 2 would read run 1's x1 out of G+8.
    np.testing.assert_array_equal(replayer.run({"x": x2})["y"], x2)

"""Batched execution engine: SIMD-over-batch must be bit-exact.

The core guarantee of :class:`repro.engine.InferenceEngine` is that one
batched simulator pass produces *bitwise* the same outputs as running each
input through its own single-input simulation — for ideal crossbars (the
integer fast path) and for noisy crossbar models (the full analog float
path), across workload shapes that exercise the VFU, SFU, tile memory
protocol, multi-core MVM placement, and inter-tile sends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConstMatrix,
    CrossbarModel,
    InferenceEngine,
    InVector,
    Model,
    OutVector,
    Simulator,
    default_config,
    log_softmax,
    relu,
    tanh,
)
from repro.engine import clear_compile_cache, compile_cached
from repro.fixedpoint import FixedPointFormat
from repro.workloads.lstm import build_lstm_model
from repro.workloads.mlp import build_mlp_model

FMT = FixedPointFormat()
CFG = default_config()


def noisy_model(sigma=0.1):
    core = CFG.core
    return CrossbarModel(dim=core.mvmu_dim, bits_per_cell=core.bits_per_cell,
                         bits_per_input=core.bits_per_input,
                         write_noise_sigma=sigma)


def fig7_model():
    """z = tanh(A x + B y): two inputs, one tile, transcendental."""
    rng = np.random.default_rng(3)
    model = Model.create("fig7")
    x = InVector.create(model, 96, "x")
    y = InVector.create(model, 96, "y")
    z = OutVector.create(model, 48, "z")
    a = ConstMatrix.create(model, 96, 48, "A", rng.normal(0, 0.1, (96, 48)))
    b = ConstMatrix.create(model, 96, 48, "B", rng.normal(0, 0.1, (96, 48)))
    z.assign(tanh(a @ x + b @ y))
    return model


def softmax_mlp():
    """MLP head with log-softmax: exercises the VFU lane reduction."""
    rng = np.random.default_rng(4)
    model = Model.create("softmax_mlp")
    x = InVector.create(model, 32, "x")
    w = ConstMatrix.create(model, 32, 10, "w", rng.normal(0, 0.2, (32, 10)))
    out = OutVector.create(model, 10, "out")
    out.assign(log_softmax(relu(w @ x)))
    return model


WORKLOADS = {
    "mlp": lambda: build_mlp_model([64, 150, 150, 14], seed=0),
    "fig7": fig7_model,
    "softmax": softmax_mlp,
    "lstm": lambda: build_lstm_model(26, 120, 61, seq_len=2,
                                     name="lstm_batched", seed=0),
}


def random_inputs(engine, batch, seed=0):
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, (_, _, length) in engine.program.input_layout.items():
        inputs[name] = engine.quantize(
            rng.normal(0.0, 0.5, size=(batch, length)))
    return inputs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("device", ["ideal", "noisy"])
def test_run_batch_bitwise_equals_sequential(workload, device):
    xbar = None if device == "ideal" else noisy_model()
    engine = InferenceEngine(WORKLOADS[workload](), CFG,
                             crossbar_model=xbar, seed=7)
    inputs = random_inputs(engine, batch=5, seed=11)
    batched = engine.run_batch(inputs)
    sequential = engine.run_sequential(inputs)
    assert set(batched) == set(sequential)
    for name in batched:
        assert batched[name].shape == sequential[name].shape
        np.testing.assert_array_equal(batched[name], sequential[name])


@given(batch=st.integers(1, 9), seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_run_batch_bitwise_property(batch, seed):
    """Any batch size, any input data: batched == sequential, bit for bit."""
    engine = InferenceEngine(build_mlp_model([48, 60, 10], seed=1), CFG,
                             seed=3)
    inputs = random_inputs(engine, batch=batch, seed=seed)
    batched = engine.run_batch(inputs)
    sequential = engine.run_sequential(inputs)
    for name in batched:
        np.testing.assert_array_equal(batched[name], sequential[name])


def test_run_batch_matches_direct_simulator_runs():
    """Engine results equal hand-rolled Simulator.run calls per input."""
    engine = InferenceEngine(build_mlp_model([64, 40, 14], seed=0), CFG,
                             seed=5)
    inputs = random_inputs(engine, batch=4, seed=2)
    batched = engine.run_batch(inputs)
    for lane in range(4):
        sim = Simulator(CFG, engine.program, seed=5)
        out = sim.run({k: v[lane] for k, v in inputs.items()})
        for name in out:
            np.testing.assert_array_equal(batched[name][lane], out[name])


def test_broadcast_1d_input_shared_across_lanes():
    """A 1-D input is broadcast: every lane sees the same vector."""
    engine = InferenceEngine(fig7_model(), CFG, seed=1)
    rng = np.random.default_rng(9)
    x = engine.quantize(rng.normal(0, 0.5, size=(3, 96)))
    y = engine.quantize(rng.normal(0, 0.5, size=96))  # shared
    batched = engine.run_batch({"x": x, "y": y})
    for lane in range(3):
        single = engine.run_batch({"x": x[lane], "y": y})
        np.testing.assert_array_equal(batched["z"][lane], single["z"])


def test_inconsistent_batch_sizes_rejected():
    engine = InferenceEngine(fig7_model(), CFG)
    with pytest.raises(ValueError, match="inconsistent batch"):
        engine.run_batch({"x": np.zeros((2, 96), dtype=np.int64),
                          "y": np.zeros((3, 96), dtype=np.int64)})


def test_batched_stats_amortize_control():
    """One batched pass executes the program once: far fewer cycles than
    batch x single-input cycles."""
    engine = InferenceEngine(build_mlp_model([64, 40, 14], seed=0), CFG,
                             seed=0)
    inputs = random_inputs(engine, batch=16, seed=0)
    batched_cycles = engine.run_batch(inputs).stats.cycles
    single_cycles = engine.run_batch(
        {k: v[0] for k, v in inputs.items()}).stats.cycles
    assert batched_cycles < 16 * single_cycles


def test_compile_cache_reuses_and_discriminates():
    clear_compile_cache()
    model = build_mlp_model([32, 16], seed=0)
    first = compile_cached(model, CFG)
    assert compile_cached(model, CFG) is first
    engine = InferenceEngine(model, CFG)
    assert engine.compiled is first
    other_model = build_mlp_model([32, 16], seed=0)
    assert compile_cached(other_model, CFG) is not first


# -- storage layout -----------------------------------------------------------


def _assert_lanes_minor(node, batch):
    """Every register file and tile memory of ``node`` stores a word's
    lanes adjacently (and still reads as ``(batch, words)``)."""
    for tile in node.tiles.values():
        arrays = [tile.memory._data]
        arrays += [core.registers._data for core in tile.cores]
        for data in arrays:
            assert data.shape[0] == batch and data.dtype == np.int64
            assert data.T.flags.c_contiguous


def _fresh_node(engine, batch):
    return engine._fresh_node(batch)


def _restored_node(engine, batch):
    from repro.node.node import Node
    state = engine._programmed_state()
    node = Node(engine.config, engine.program.tiles.keys(),
                lambda _delay, _callback: None, seed=0, batch=batch)
    node.load_weights(engine.program, programmed_state=state)
    return node


def _artifact_node(engine, batch, tmp_path):
    loaded = InferenceEngine.from_artifacts(
        engine.save_artifacts(tmp_path / "artifact"))
    inputs = {name: np.zeros((batch, length), dtype=np.int64)
              for name, (_t, _a, length) in loaded.program.input_layout.items()}
    for _ in range(2):   # record (or adopt the stored tape), then replay
        result = loaded.run_batch(inputs)
    assert result.execution == "optimized"
    return loaded._replayers[batch].node


def _replica_node(engine, batch):
    """What a replica is: a second engine on the same compilation,
    replaying the tape the primary recorded."""
    inputs = {name: np.zeros((batch, length), dtype=np.int64)
              for name, (_t, _a, length) in engine.program.input_layout.items()}
    engine.run_batch(inputs)
    replica = InferenceEngine(engine.model, engine.config, seed=engine.seed)
    assert replica.compiled is engine.compiled
    assert replica.run_batch(inputs).execution == "optimized"
    return replica._replayers[batch].node


@pytest.mark.parametrize("batch", [1, 16, 64])
@pytest.mark.parametrize("path", [
    _fresh_node, _restored_node, _artifact_node, _replica_node],
    ids=lambda fn: fn.__name__.strip("_"))
def test_lanes_are_the_minor_axis_on_every_construction_path(path, batch,
                                                              tmp_path):
    """A path that rebuilt a C-ordered ``(batch, words)`` array would stay
    bitwise right and silently lose the contiguous-operand layout."""
    engine = InferenceEngine(build_mlp_model([32, 24, 10], seed=0), CFG,
                             seed=0)
    args = (engine, batch, tmp_path) if path is _artifact_node \
        else (engine, batch)
    _assert_lanes_minor(path(*args), batch)

"""One stacked, lazily-realised crossbar record per MVMU.

An MVMU's configuration-time state is one record: the signed matrix, a
``(num_slices, dim, dim)`` level stack and — for a noisy model only — the
conductance stack.  These tests pin the record to the per-slice
programming pass it replaced (kept here as the reference loop), bitwise:
levels, conductances, column offset sums and the post-programming RNG
position, noiseless and noisy.  They also pin what is *not* computed: a
noiseless unit holds no conductances until an analog read asks for them,
a restore adopts the source's arrays instead of copying them, and every
rejection the per-slice restore performed still raises.
"""

import numpy as np
import pytest

from repro import CrossbarModel, InferenceEngine, Simulator, default_config
from repro.arch.crossbar import Crossbar, CrossbarStack
from repro.arch.mvmu import MVMU
from repro.fixedpoint import FixedPointFormat
from repro.node.node import NodeProgrammedState
from repro.workloads.mlp import build_mlp_model

FMT = FixedPointFormat()
CFG = default_config()


def model_for(dim, bits_per_cell, sigma=0.0, adc_bits=None):
    return CrossbarModel(dim=dim, bits_per_cell=bits_per_cell,
                         bits_per_input=1, write_noise_sigma=sigma,
                         adc_bits=adc_bits)


def random_matrix(rng, dim):
    return rng.integers(FMT.int_min, FMT.int_max + 1, size=(dim, dim))


def reference_program(model, matrix, rng):
    """The per-slice programming pass, one crossbar at a time: slice,
    draw that slice's write noise, clip — then the column offset sums
    accumulated slice by slice from the programmed conductances."""
    bits = model.bits_per_cell
    unsigned = np.asarray(matrix, dtype=np.int64) + (1 << (FMT.total_bits - 1))
    levels, conductances = [], []
    for s in range(FMT.total_bits // bits):
        slice_levels = (unsigned >> (s * bits)) & (model.levels - 1)
        target = model.g_min + slice_levels * model.level_spacing
        if model.write_noise_sigma > 0.0:
            target = target + rng.normal(
                0.0, model.noise_sigma_conductance, size=slice_levels.shape)
        levels.append(slice_levels)
        conductances.append(np.clip(target, model.g_min, model.g_max))
    effective = np.zeros(unsigned.shape, dtype=np.float64)
    for s, conductance in enumerate(conductances):
        effective += ((conductance - model.g_min) / model.level_spacing
                      * float(1 << (s * bits)))
    return np.stack(levels), np.stack(conductances), effective.sum(axis=0)


def bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


# -- stacked programming == per-slice programming, bitwise ------------------

CASES = [(dim, bits, sigma, seed)
         for dim in (16, 64, 128)
         for bits in (1, 2, 4)
         for sigma in (0.0, 0.05, 0.3)
         for seed in (0, 1)]
assert len(CASES) >= 50


@pytest.mark.parametrize("dim,bits,sigma,seed", CASES)
def test_stacked_programming_matches_per_slice(dim, bits, sigma, seed):
    model = model_for(dim, bits, sigma)
    matrix = random_matrix(np.random.default_rng(1000 + seed), dim)
    reference_rng = np.random.default_rng(seed)
    levels, conductances, column_sums = reference_program(
        model, matrix, reference_rng)

    rng = np.random.default_rng(seed)
    mvmu = MVMU(model, FMT, rng=rng)
    mvmu.program(matrix)
    stack = mvmu._stack

    assert mvmu._matrix.dtype == np.int16        # words, not int64
    assert mvmu.matrix.dtype == np.int64 and np.array_equal(mvmu.matrix,
                                                            matrix)
    assert stack.levels.dtype == np.uint8
    assert np.array_equal(stack.levels, levels)
    assert bitwise_equal(stack.conductance, conductances)
    assert bitwise_equal(mvmu._weight_sums(), column_sums)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    if sigma == 0.0:
        # Programming a noiseless unit touches neither the RNG nor a
        # conductance array.
        assert rng.bit_generator.state == \
            np.random.default_rng(seed).bit_generator.state
        assert mvmu.export_programmed_state()[2] is None


def test_sixteen_bit_cells_widen_the_level_stack():
    model = model_for(4, 16)
    mvmu = MVMU(model, FMT)
    matrix = random_matrix(np.random.default_rng(0), 4)
    mvmu.program(matrix)
    assert mvmu._stack.levels.dtype == np.uint16
    assert np.array_equal(mvmu._stack.levels[0], matrix + (1 << 15))


def test_standalone_crossbar_is_a_one_slice_stack():
    model = model_for(8, 2, sigma=0.2)
    levels = np.random.default_rng(3).integers(0, 4, size=(8, 8))
    xbar = Crossbar(model, rng=np.random.default_rng(5))
    xbar.program(levels)
    reference = CrossbarStack.program(model, levels[np.newaxis],
                                      np.random.default_rng(5))
    assert np.array_equal(xbar.target_levels, levels)
    assert bitwise_equal(xbar.conductance, reference.conductance[0])


# -- lazily derived == eagerly held ------------------------------------------


@pytest.mark.parametrize("dim,bits", [(16, 1), (16, 2), (64, 2), (64, 4)])
def test_lazy_analog_read_matches_eager_conductances(dim, bits):
    rng = np.random.default_rng(dim + bits)
    model = model_for(dim, bits)
    matrix = random_matrix(rng, dim)
    inputs = rng.integers(FMT.int_min, FMT.int_max + 1, size=(3, dim))

    lazy = MVMU(model, FMT)
    lazy.program(matrix)
    assert lazy._stack._conductance is None

    levels, conductances, _sums = reference_program(model, matrix, None)
    eager = MVMU(model, FMT)
    eager.restore_programmed_state(
        (matrix, levels.astype(np.uint8), conductances))
    assert eager._stack._conductance is conductances

    assert bitwise_equal(lazy.dot(inputs, force_analog=True),
                         eager.dot(inputs, force_analog=True))
    assert bitwise_equal(lazy._stack.conductance, conductances)
    # The ideal shortcut agrees with both, and needs neither.
    assert np.array_equal(lazy.dot(inputs), inputs @ matrix)


def test_force_analog_derives_conductances_once():
    model = model_for(16, 2)
    mvmu = MVMU(model, FMT)
    rng = np.random.default_rng(0)
    mvmu.program(random_matrix(rng, 16))
    x = rng.integers(-100, 100, size=16)

    mvmu.dot(x)
    assert mvmu._stack._conductance is None       # ideal read: underived
    first = mvmu.dot(x, force_analog=True)
    derived = mvmu._stack._conductance
    sums = mvmu._column_offset_sums
    assert derived is not None and sums is not None
    second = mvmu.dot(x, force_analog=True)
    assert mvmu._stack._conductance is derived    # not derived again
    assert mvmu._column_offset_sums is sums
    assert bitwise_equal(first, second)
    # Derived conductances are a cache, not state: the export omits them.
    assert mvmu.export_programmed_state()[2] is None


# -- restore adopts, it does not copy ----------------------------------------


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_restore_shares_memory_with_the_source(sigma):
    model = model_for(32, 2, sigma)
    source = MVMU(model, FMT, rng=np.random.default_rng(4))
    source.program(random_matrix(np.random.default_rng(9), 32))
    state = source.export_programmed_state()

    replica_rng = np.random.default_rng(77)
    before = replica_rng.bit_generator.state
    replica = MVMU(model, FMT, rng=replica_rng)
    replica.restore_programmed_state(state)

    assert replica_rng.bit_generator.state == before    # no draws consumed
    assert np.shares_memory(replica._matrix, source._matrix)
    assert np.shares_memory(replica._stack.levels, source._stack.levels)
    if sigma == 0.0:
        assert state[2] is None
        assert replica._stack._conductance is None      # nothing allocated
    else:
        assert np.shares_memory(replica._stack.conductance,
                                source._stack.conductance)
    x = np.random.default_rng(2).integers(-500, 500, size=(2, 32))
    assert bitwise_equal(replica.dot(x), source.dot(x))
    assert bitwise_equal(replica.dot(x, force_analog=True),
                         source.dot(x, force_analog=True))


# -- every rejection of the per-slice restore still raises -------------------


def programmed_state(sigma):
    model = model_for(8, 2, sigma)
    mvmu = MVMU(model, FMT, rng=np.random.default_rng(0))
    mvmu.program(random_matrix(np.random.default_rng(1), 8))
    return model, mvmu.export_programmed_state()


def poke(index, value):
    """Overwrite one conductance in a copy of the stack."""
    def apply(matrix, levels, conductance):
        conductance = conductance.copy()
        conductance[index] = value
        return matrix, levels, conductance
    return apply


REJECTIONS = {
    "matrix shape": (0.0, lambda m, lv, cd: (m[:4], lv, cd)),
    "matrix dtype": (0.0, lambda m, lv, cd: (m.astype(np.float64), lv, cd)),
    "slice count": (0.0, lambda m, lv, cd: (m, lv[:7], cd)),
    "level stack rank": (0.0, lambda m, lv, cd: (m, lv[0], cd)),
    "level shape": (0.0, lambda m, lv, cd: (m, lv[:, :4], cd)),
    "level dtype": (0.0, lambda m, lv, cd: (m, lv.astype(np.float64), cd)),
    "level above range": (0.0, lambda m, lv, cd: (m, lv + np.uint8(4), cd)),
    "level below range": (0.0, lambda m, lv, cd:
                          (m, lv.astype(np.int64) - 1, cd)),
    "conductance shape": (0.1, lambda m, lv, cd: (m, lv, cd[:, :4])),
    "conductance dtype": (0.1, lambda m, lv, cd:
                          (m, lv, np.zeros(cd.shape, dtype=np.int64))),
    "conductance below window": (0.1, poke((0, 0, 0), 0.0)),
    "conductance above window": (0.1, poke((7, 7, 7), 1.0)),
    "noisy model, no conductances": (0.1, lambda m, lv, cd: (m, lv, None)),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_restore_rejects_malformed_state(name):
    sigma, corrupt = REJECTIONS[name]
    model, state = programmed_state(sigma)
    replica = MVMU(model, FMT)
    with pytest.raises(ValueError):
        replica.restore_programmed_state(corrupt(*state))
    assert not replica.is_programmed
    replica.restore_programmed_state(state)       # the intact state loads
    assert replica.is_programmed


def test_program_rejects_what_it_always_rejected():
    mvmu = MVMU(model_for(8, 2), FMT)
    with pytest.raises(ValueError, match="expected"):
        mvmu.program(np.zeros((8, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="fixed-point range"):
        mvmu.program(np.full((8, 8), FMT.int_max + 1))
    with pytest.raises(ValueError, match="fixed-point range"):
        mvmu.program(np.full((8, 8), FMT.int_min - 1))
    with pytest.raises(ValueError, match="out of range"):
        CrossbarStack.program(model_for(8, 2), np.full((8, 8, 8), 4),
                              np.random.default_rng(0))
    assert not mvmu.is_programmed


# -- the engine: what a run does and does not derive -------------------------


def programmed_stacks(node, program):
    return [node.tiles[t].cores[c].mvmus[u]._stack
            for t, c, u in program.weights]


def programmed_state_of(node, program):
    """Read a not-yet-run node's programming back, unit by unit."""
    return NodeProgrammedState(
        mvmus={(t, c, u): node.tiles[t].cores[c].mvmus[u]
               .export_programmed_state() for t, c, u in program.weights},
        rng_state=node.rng.bit_generator.state)


def test_noiseless_run_leaves_every_conductance_underived():
    engine = InferenceEngine(build_mlp_model([32, 24, 10], seed=0), CFG,
                             seed=0, execution_mode="interpret")
    engine.warm()
    state = engine.compiled.programmed_states[engine._fingerprint]
    assert all(conductance is None
               for _m, _lv, conductance in state.mvmus.values())
    sim = Simulator(CFG, engine.program, seed=0, programmed_state=state)
    sim.run({"x": engine.quantize(np.linspace(-1, 1, 32))})
    stacks = programmed_stacks(sim.node, engine.program)
    assert stacks and all(s._conductance is None for s in stacks)
    assert all(np.shares_memory(s.levels, state.mvmus[key][1])
               for s, key in zip(stacks, engine.program.weights))


def test_analog_run_derives_exactly_what_it_reads():
    """A noiseless model with a lossy ADC takes the analog path: its
    conductances are derived on first read, from levels restored without
    them, and the result equals a freshly programmed simulator's."""
    core = CFG.core
    lossy = CrossbarModel(dim=core.mvmu_dim,
                          bits_per_cell=core.bits_per_cell,
                          bits_per_input=core.bits_per_input, adc_bits=7)
    assert lossy.write_noise_sigma == 0.0 and not lossy.is_ideal
    engine = InferenceEngine(build_mlp_model([32, 24, 10], seed=0), CFG,
                             crossbar_model=lossy, seed=0,
                             execution_mode="interpret")
    inputs = {"x": engine.quantize(np.linspace(-1, 1, 32))}
    fresh = Simulator(CFG, engine.program, crossbar_model=lossy, seed=0)
    state = programmed_state_of(fresh.node, engine.program)
    assert all(s._conductance is None
               for s in programmed_stacks(fresh.node, engine.program))
    expected = fresh.run(inputs)

    restored = Simulator(CFG, engine.program, crossbar_model=lossy, seed=0,
                         programmed_state=state)
    found = restored.run(inputs)
    assert all(np.array_equal(found[name], expected[name])
               for name in expected)
    assert all(s._conductance is not None
               for s in programmed_stacks(restored.node, engine.program))


# -- warm() programs without building a node ---------------------------------


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_warm_programs_exactly_what_a_fresh_node_would(sigma):
    """``warm()`` runs the programming pass on its own
    (``NodeProgrammedState.for_program``): matrix, levels, conductances
    and the post-programming RNG position equal, bitwise, what a node
    built for the same (program, model, seed) without a state holds —
    and, stack by stack, the per-slice reference pass over one RNG in
    ``program.weights`` order (what the in-node loop this replaced drew)."""
    core = CFG.core
    model = CrossbarModel(dim=core.mvmu_dim,
                          bits_per_cell=core.bits_per_cell,
                          bits_per_input=core.bits_per_input,
                          write_noise_sigma=sigma)
    engine = InferenceEngine(build_mlp_model([150, 140, 10], seed=0), CFG,
                             crossbar_model=model, seed=3,
                             execution_mode="interpret")
    assert len(engine.program.weights) > 2     # RNG order matters
    engine.warm()
    warmed = engine.compiled.programmed_states[engine._fingerprint]

    fresh = Simulator(CFG, engine.program, crossbar_model=model, seed=3)
    expected = programmed_state_of(fresh.node, engine.program)

    assert list(warmed.mvmus) == list(expected.mvmus)
    for key, (matrix, levels, conductance) in expected.mvmus.items():
        found = warmed.mvmus[key]
        assert bitwise_equal(found[0], matrix)
        assert bitwise_equal(found[1], levels)
        if sigma == 0.0:
            assert found[2] is None and conductance is None
        else:
            assert bitwise_equal(found[2], conductance)
    assert warmed.rng_state == expected.rng_state
    rng = np.random.default_rng(3)
    for key, matrix in engine.program.weights.items():
        levels, conductances, _sums = reference_program(model, matrix, rng)
        assert np.array_equal(warmed.mvmus[key][1], levels)
        if sigma > 0.0:
            assert np.array_equal(warmed.mvmus[key][2], conductances)
    assert warmed.rng_state == rng.bit_generator.state
    # ...and a run over the warmed state equals the freshly programmed run.
    inputs = {"x": engine.quantize(np.linspace(-1, 1, 150))}
    found = engine.run(inputs)
    expected_words = fresh.run(inputs)
    assert all(np.array_equal(found.words[name], expected_words[name])
               for name in expected_words)


def test_warm_builds_no_tiles(monkeypatch):
    from repro.tile.tile import Tile

    built = []
    real = Tile.__init__
    monkeypatch.setattr(
        Tile, "__init__",
        lambda self, *a, **k: built.append(1) or real(self, *a, **k))
    engine = InferenceEngine(build_mlp_model([32, 24, 10], seed=0), CFG,
                             seed=0, execution_mode="interpret")
    engine.warm()
    assert engine._fingerprint in engine.compiled.programmed_states
    assert built == []
    engine.predict({"x": engine.quantize(np.linspace(-1, 1, 32))})
    assert built                                # the run does build them


def test_programming_rejects_a_mismatched_crossbar_model():
    wrong = CrossbarModel(dim=64, bits_per_cell=2, bits_per_input=1)
    engine = InferenceEngine(build_mlp_model([32, 24, 10], seed=0), CFG,
                             crossbar_model=wrong, seed=0,
                             execution_mode="interpret")
    with pytest.raises(ValueError, match="crossbar dim 64 != core "
                                         "mvmu_dim 128"):
        engine.warm()


@pytest.mark.parametrize("seed", [None, True, 1.5, "3"],
                         ids=["none", "bool", "float", "str"])
def test_engine_refuses_a_seed_that_is_not_an_integer(seed):
    """A programmed crossbar is a function of (config, device model,
    seed): a seed that is not an integer is refused at construction —
    not served, and not failed only at the first run."""
    with pytest.raises(ValueError, match="seed"):
        InferenceEngine(build_mlp_model([32, 24, 10], seed=0), CFG,
                        seed=seed)


def test_numpy_integer_seed_is_the_int_seed():
    core = CFG.core
    noisy = CrossbarModel(dim=core.mvmu_dim, bits_per_cell=core.bits_per_cell,
                          bits_per_input=core.bits_per_input,
                          write_noise_sigma=0.1)
    model = build_mlp_model([32, 24, 10], seed=0)
    numpy_seeded, int_seeded = (
        InferenceEngine(model, CFG, crossbar_model=noisy, seed=seed,
                        execution_mode="interpret")
        for seed in (np.int64(2), 2))
    assert type(numpy_seeded.seed) is int
    x = {"x": np.linspace(-1, 1, 32)}
    got, want = numpy_seeded.predict(x), int_seeded.predict(x)
    assert got.words.keys() == want.words.keys()
    for name in want.words:
        np.testing.assert_array_equal(got[name], want[name])
    assert got.stats == want.stats

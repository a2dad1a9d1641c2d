"""The sharding layer: one batch modelled across replica nodes.

Covers the `repro.serve.sharding` contracts:

* ``ShardedEngine.run_batch`` is **bitwise identical** to the unsharded
  ``InferenceEngine.run_batch`` for 1/2/4/>batch shards, on ideal and
  noisy crossbar models, for tape-served and interpreter-only engines,
  and every shard's stats are the single-engine stats of that shard;
* merged stats follow the concurrent-replica rules — cycles are the max
  over shards, energy and instruction/stall counters the sum, occupancy
  the busiest replica's — with the per-shard stats preserved on
  ``shard_stats``;
* error paths: shard counts beyond the batch clamp (no empty shards), a
  failing shard pass raises the engine's own exception, ``num_shards=1``
  is the plain engine;
* the programmed-crossbar state cache that makes replicas cheap is
  itself bitwise: cached constructions equal fresh ones, including the
  post-programming RNG position (write noise and the RANDOM op).
"""

import numpy as np
import pytest

from repro import (
    InferenceEngine,
    InVector,
    Model,
    OutVector,
    ShardedEngine,
    default_config,
)
from repro.arch.crossbar import CrossbarModel
from repro.serve.sharding import merge_stats, shard_lanes, split_batch
from repro.sim.stats import SimulationStats
from repro.workloads.mlp import build_mlp_model

DIMS = [32, 24, 10]
NOISY = CrossbarModel(write_noise_sigma=0.05, adc_bits=8)
# Noiseless devices behind a lossy ADC: every MVM is an analog read of
# conductances the programmed state does not carry.
ANALOG = CrossbarModel(adc_bits=7)


@pytest.fixture(scope="module")
def model():
    return build_mlp_model(DIMS, seed=0)


@pytest.fixture(scope="module")
def engine(model):
    return InferenceEngine(model, seed=0)


def batch_inputs(engine, batch, seed=1):
    rng = np.random.default_rng(seed)
    return {"x": engine.quantize(rng.normal(0.0, 0.5,
                                            size=(batch, DIMS[0])))}


# -- lane assignment ------------------------------------------------------


class TestShardLanes:
    def test_partition(self):
        for batch in (1, 5, 8, 13):
            for shards in (1, 2, 4, 7):
                lanes = shard_lanes(batch, shards)
                assert all(len(part) > 0 for part in lanes)
                assert len(lanes) == min(shards, batch)
                assert np.array_equal(np.concatenate(lanes),
                                      np.arange(batch))

    def test_contiguous_is_ordered_runs(self):
        lanes = shard_lanes(10, 3)
        assert [part.tolist() for part in lanes] == [
            [0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_invalid(self):
        with pytest.raises(ValueError, match="batch"):
            shard_lanes(0, 2)
        with pytest.raises(ValueError, match="num_shards"):
            shard_lanes(4, 0)

    def test_split_batch_broadcasts_1d(self):
        lanes = shard_lanes(4, 2)
        shards = split_batch(
            {"a": np.arange(8).reshape(4, 2), "b": np.arange(3)}, lanes)
        assert [s["a"].shape for s in shards] == [(2, 2), (2, 2)]
        for shard in shards:
            assert np.array_equal(shard["b"], np.arange(3))


# -- bitwise identity (the acceptance criterion) --------------------------

BATCH = 13
# num_shards {1, 2, 4, > batch} x crossbars x engines; the default
# engine's cases carry no mode suffix.
MATRIX = [
    pytest.param(num_shards, crossbar, mode,
                 id=f"{num_shards}-{name}"
                    + ("" if mode == "auto" else f"-{mode}"))
    for mode in ("auto", "interpret")
    for name, crossbar in (("ideal", None), ("noisy", NOISY))
    for num_shards in (1, 2, 4, BATCH + 7)
]


class TestBitwiseIdentity:
    @pytest.mark.parametrize("num_shards,crossbar,mode", MATRIX)
    def test_matches_single_engine(self, model, num_shards, crossbar, mode):
        engine = InferenceEngine(model, crossbar_model=crossbar, seed=0,
                                 execution_mode=mode)
        inputs = batch_inputs(engine, BATCH)
        single = engine.run_batch(inputs)
        sharded = ShardedEngine(engine, num_shards=num_shards)
        result = sharded.run_batch(inputs)
        assert set(result) == set(single)
        for name in single:
            assert np.array_equal(single[name], result[name])
        if num_shards == 1:
            assert result.shard_stats is None
            assert result.stats == single.stats
        else:
            lane_sets = shard_lanes(BATCH, num_shards)
            assert len(result.shard_stats) == len(lane_sets)
            # Dataclass equality: field for field.
            for stats, shard in zip(result.shard_stats,
                                    split_batch(inputs, lane_sets)):
                assert stats == engine.run_batch(shard).stats
        # Every shard width has a verified plan by now (tape-served
        # engines), so all shards of a second call take the same path.
        assert sharded.run_batch(inputs).execution == (
            "optimized" if mode == "auto" else "interpreter")

    def test_predict_path(self, engine):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 0.5, size=(6, DIMS[0]))
        single = engine.predict({"x": x})
        result = ShardedEngine(engine, num_shards=2).predict({"x": x})
        for name in single:
            assert np.array_equal(single[name], result[name])
            assert np.array_equal(single.outputs[name],
                                  result.outputs[name])

    def test_lane_slicing_on_merged_result(self, engine):
        inputs = batch_inputs(engine, 8)
        single = engine.run_batch(inputs)
        result = ShardedEngine(engine, num_shards=4).run_batch(inputs)
        for lane in range(8):
            for name in single:
                assert np.array_equal(result.lane(lane)[name],
                                      single.lane(lane)[name])


# -- merged statistics ----------------------------------------------------


class TestMergedStats:
    def test_merge_rules(self, engine):
        inputs = batch_inputs(engine, 12)
        result = ShardedEngine(engine, num_shards=3).run_batch(inputs)
        shards = result.shard_stats
        assert len(shards) == 3
        assert result.stats.cycles == max(s.cycles for s in shards)
        assert result.stats.total_energy_j == pytest.approx(
            sum(s.total_energy_j for s in shards), rel=0, abs=0)
        assert result.stats.total_instructions == \
            sum(s.total_instructions for s in shards)
        assert result.stats.noc_packets == \
            sum(s.noc_packets for s in shards)
        for opcode, count in result.stats.dynamic_instructions.items():
            assert count == sum(
                s.dynamic_instructions.get(opcode, 0) for s in shards)
        for agent, count in result.stats.stall_events.items():
            assert count == sum(s.stall_events.get(agent, 0) for s in shards)

    def test_merged_occupancy_is_the_busiest_replica(self, engine):
        """Same-named cores on K replicas are K cores, not one: the
        merged occupancy must not add them up past 100%."""
        inputs = batch_inputs(engine, 16)
        single = engine.run_batch(inputs)
        result = ShardedEngine(engine, num_shards=4).run_batch(inputs)
        merged = result.stats
        assert set(merged.busy_cycles) == set(single.stats.busy_cycles)
        assert any(merged.busy_cycles.values())
        for agent, busy in merged.busy_cycles.items():
            assert busy == max(s.busy_cycles.get(agent, 0)
                               for s in result.shard_stats)
            assert 0.0 <= merged.utilization(agent) <= 1.0

    def test_sharded_cycles_amortize(self, engine):
        """The modelled throughput win: max-over-shards < single pass."""
        inputs = batch_inputs(engine, 16)
        single = engine.run_batch(inputs)
        result = ShardedEngine(engine, num_shards=4).run_batch(inputs)
        assert result.cycles < single.cycles
        assert single.cycles / result.cycles >= 1.5

    def test_merge_stats_rejects_mixed_clocks(self):
        with pytest.raises(ValueError, match="cycle"):
            merge_stats([SimulationStats(cycle_ns=1.0),
                         SimulationStats(cycle_ns=2.0)])
        with pytest.raises(ValueError, match="at least one"):
            merge_stats([])


# -- error paths ----------------------------------------------------------


class TestErrorPaths:
    def test_shards_beyond_batch_clamp(self, engine):
        inputs = batch_inputs(engine, 3)
        single = engine.run_batch(inputs)
        result = ShardedEngine(engine, num_shards=8).run_batch(inputs)
        assert len(result.shard_stats) == 3  # one lane per shard, no empties
        for name in single:
            assert np.array_equal(single[name], result[name])

    def test_single_shard_degenerates_to_plain_engine(self, engine):
        inputs = batch_inputs(engine, 6)
        result = ShardedEngine(engine, num_shards=1).run_batch(inputs)
        assert result.shard_stats is None
        single = engine.run_batch(inputs)
        for name in single:
            assert np.array_equal(single[name], result[name])

    def test_single_lane_batch_bypasses_pool(self, engine):
        """One lane is one shard: a plain pass, nothing to merge."""
        inputs = batch_inputs(engine, 1)
        result = ShardedEngine(engine, num_shards=4).run_batch(inputs)
        assert result.shard_stats is None

    def test_failing_shard_pass_raises_the_engines_own_error(
            self, engine, monkeypatch):
        inputs = batch_inputs(engine, 8)
        single = engine.run_batch(inputs)
        sharded = ShardedEngine(engine, num_shards=2)
        real_pass, passes = engine.run_batch, []

        def second_pass_fails(shard):
            passes.append(shard)
            if len(passes) == 2:
                raise RuntimeError("crossbar caught fire")
            return real_pass(shard)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "run_batch", second_pass_fails)
            with pytest.raises(RuntimeError, match="^crossbar caught fire$"):
                sharded.run_batch(inputs)
        result = sharded.run_batch(inputs)  # nothing to repair afterwards
        for name in single:
            assert np.array_equal(single[name], result[name])

    def test_invalid_construction(self, engine):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedEngine(engine, num_shards=0)

    def test_input_validation_happens_before_the_pool(self, engine):
        """Bad input names fail up front, before any shard pass runs."""
        with pytest.raises(ValueError, match="unknown input"):
            ShardedEngine(engine, num_shards=2).run_batch(
                {"nope": np.zeros((4, DIMS[0]), dtype=np.int64)})


# -- the programmed-state cache behind cheap replicas ---------------------


class TestProgrammedStateCache:
    def test_cached_runs_bitwise_equal_fresh(self, model):
        engine = InferenceEngine(model, seed=0)
        inputs = batch_inputs(engine, 4)
        first = engine.run_batch(inputs)   # programs + harvests
        cached = engine.run_batch(inputs)  # restores
        assert engine.compiled.programmed_states  # harvest happened
        for name in first:
            assert np.array_equal(first[name], cached[name])
        assert first.stats.cycles == cached.stats.cycles
        assert first.stats.total_energy_j == cached.stats.total_energy_j

    @pytest.mark.parametrize("crossbar", [None, NOISY, ANALOG],
                             ids=["ideal", "noisy", "analog"])
    def test_replica_engine_shares_state(self, model, crossbar):
        primary = InferenceEngine(model, crossbar_model=crossbar, seed=0)
        inputs = batch_inputs(primary, 4)
        reference = primary.run_batch(inputs)
        replica = InferenceEngine(model, crossbar_model=crossbar, seed=0)
        assert replica.compiled is primary.compiled  # compile-cache hit
        result = replica.run_batch(inputs)
        for name in reference:
            assert np.array_equal(reference[name], result[name])

    @pytest.mark.parametrize("crossbar", [None, NOISY, ANALOG],
                             ids=["ideal", "noisy", "analog"])
    def test_restore_equals_fresh_programming(self, model, crossbar):
        """State harvested by warm() — before any MVM, so before any
        analog read — restores into a simulator bitwise equal to one
        that programs its own crossbars."""
        from repro import Simulator

        warmed = InferenceEngine(model, crossbar_model=crossbar, seed=3,
                                 execution_mode="interpret").warm()
        state = warmed.compiled.programmed_states[warmed._fingerprint]
        inputs = batch_inputs(warmed, 2)
        config = default_config()
        fresh = Simulator(config, warmed.program, crossbar_model=crossbar,
                          seed=3, batch=2)
        restored = Simulator(config, warmed.program,
                             crossbar_model=crossbar, seed=3, batch=2,
                             programmed_state=state)
        expected, found = fresh.run(inputs), restored.run(inputs)
        for name in expected:
            assert np.array_equal(expected[name], found[name])
        assert restored.node.rng.bit_generator.state == \
            fresh.node.rng.bit_generator.state

    def test_rng_position_restored_for_random_op(self):
        """RANDOM draws after a cached (skipped) programming pass match a
        fresh noisy programming pass bit for bit."""
        m = Model.create("rng-probe")
        x = InVector.create(m, 8, "x")
        out = OutVector.create(m, 8, "out")
        from repro.compiler.frontend import random_like

        out.assign(random_like(x))
        engine = InferenceEngine(m, default_config(),
                                 crossbar_model=NOISY, seed=123)
        inputs = {"x": engine.quantize(np.linspace(-0.5, 0.5, 8))}
        first = engine.run_batch(inputs)   # programs (consumes noise draws)
        cached = engine.run_batch(inputs)  # restores rng position
        assert np.array_equal(first["out"], cached["out"])

    def test_warm_programs_once(self, model):
        engine = InferenceEngine(model, seed=0)
        engine.warm()
        states = dict(engine.compiled.programmed_states)
        assert states
        engine.warm()
        assert engine.compiled.programmed_states == states

    def test_cache_is_bounded_under_seed_sweeps(self):
        """A Fig-13-style sweep must not pin one snapshot per seed
        forever."""
        from repro.engine import _PROGRAMMED_STATE_CAP

        model = build_mlp_model([12, 8], seed=0)
        compiled = None
        for seed in range(_PROGRAMMED_STATE_CAP + 4):
            engine = InferenceEngine(model, crossbar_model=NOISY,
                                     seed=seed)
            engine.warm()
            compiled = engine.compiled
        assert 0 < len(compiled.programmed_states) <= _PROGRAMMED_STATE_CAP

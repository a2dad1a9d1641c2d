"""A batch width the engine has not served yet costs one bind.

PUMA programs its crossbars once, at configuration time, and then
streams inferences through them; the serving path should pay no
configuration-time work either.  A replayed pass therefore hands its
:class:`~repro.serve.types.RunResult` the tape and width, and the
width's timing stats are derived (a shadow timing simulation) or copied
only when ``result.stats`` is first read.  Binding a new width shares
the tape's batch-independent bind work: the read-before-write register
runs and every MVM unit set's float64 stack are computed once per tape.
This file pins:

* stats on first read — serving widths 1–16 through a ``PumaServer``
  derives nothing; the first read derives once and equals the
  interpreter's stats field for field; a second lane's read derives
  nothing and shares the object; mutating one result's stats never
  reaches the next pass;
* bind sharing — binding the k-th width walks no instruction effects
  and reuses the first width's stack arrays, while its words stay
  bitwise the interpreter's at widths 1–16 (MLP, LSTM, ``cnn_small``);
* the replayer cache evicts the least recently used width;
* an engine constructed over an invalid artifact reads the store once.
"""

import asyncio
from dataclasses import fields

import numpy as np
import pytest

from repro import InferenceEngine, PumaServer, default_config
from repro.engine import clear_compile_cache, tape_cache_info
from repro.fleet.models import FleetModelSpec, build_engine
from repro.sim import tape as tape_module
from repro.sim.stats import SimulationStats
from repro.store import STATE_NAME, store_info
from repro.workloads.mlp import build_mlp_model

CONFIG = default_config()
DIMS = [32, 24, 10]
FLEET_SPECS = [
    FleetModelSpec("mlp", "mlp", {"dims": [128, 256, 64]}, seed=0),
    FleetModelSpec("lstm", "lstm", {"input_size": 16, "hidden_size": 24,
                                    "output_size": 8}, seed=0),
    FleetModelSpec("cnn", "cnn_small", {}, seed=0),
]


def mlp_engine(execution_mode="auto", artifact_dir=None):
    return InferenceEngine(build_mlp_model(DIMS, seed=0), CONFIG, seed=3,
                           execution_mode=execution_mode,
                           artifact_dir=artifact_dir)


def words_for(engine, batch, seed=0):
    rng = np.random.default_rng([seed, batch])
    return {name: engine.quantize(rng.normal(0.0, 0.5, (batch, length)))
            for name, (_tile, _addr, length)
            in engine.program.input_layout.items()}


def derived() -> int:
    return tape_cache_info().derived_stats


# -- stats on first read ------------------------------------------------------


def test_serving_widths_1_to_16_derives_no_stats():
    engine = mlp_engine().warm(batch=1)
    rng = np.random.default_rng(0)

    async def scenario():
        async with PumaServer(engine, max_batch_size=16) as server:
            for width in range(1, 17):
                await asyncio.gather(*(
                    server.admit({"x": x})
                    for x in rng.normal(0.0, 0.5, (width, DIMS[0]))))
            return server.stats()["scheduler"]["service_time_ewma_s"]

    before = derived()
    served = asyncio.run(scenario())
    assert derived() == before
    assert set(served) == {str(width) for width in range(1, 17)}


def test_first_read_derives_once_and_equals_the_interpreter():
    engine = mlp_engine().warm(batch=1)
    reference = mlp_engine(execution_mode="interpret")
    inputs = words_for(engine, 5)
    before = derived()
    result = engine.run_batch(inputs)
    assert result.execution == "optimized"
    lanes = [result.lane(i) for i in range(5)]
    assert derived() == before, "the pass or lane() derived stats"
    stats = lanes[0].stats
    assert derived() == before + 1
    expected = reference.run_batch(inputs).stats
    for f in fields(SimulationStats):
        assert getattr(stats, f.name) == getattr(expected, f.name), f.name
    assert lanes[1].stats is stats and result.stats is stats
    assert derived() == before + 1, "a second lane's read derived again"


def test_a_replayed_width_with_stats_on_the_tape_derives_nothing():
    engine = mlp_engine().warm(batch=4)
    before = derived()
    assert engine.run_batch(words_for(engine, 4)).stats == \
        engine.compiled.execution_tapes[engine._fingerprint].stats_for(4)
    assert derived() == before


def test_mutating_a_lazy_result_never_reaches_the_next_pass():
    engine = mlp_engine().warm(batch=1)
    expected = mlp_engine(execution_mode="interpret").run_batch(
        words_for(engine, 6)).stats
    first = engine.run_batch(words_for(engine, 6))
    second = engine.run_batch(words_for(engine, 6, seed=1))
    mutated = first.lane(2).stats
    mutated.cycles += 1
    mutated.dynamic_instructions["intruder"] = 1
    mutated.energy.extra["intruder"] = 1.0
    assert second.stats == expected
    assert engine.run_batch(words_for(engine, 6)).stats == expected


# -- batch-independent bind work, once per tape --------------------------------


@pytest.mark.parametrize("spec", FLEET_SPECS, ids=lambda spec: spec.name)
def test_a_new_width_shares_the_tapes_bind_work(spec, monkeypatch):
    engine = build_engine(spec).warm(batch=1)
    reference = build_engine(spec, execution_mode="interpret")
    first = engine._replayers[1]
    assert first._stacks, "the plan stacks no MVM"
    calls = []
    real = tape_module.core_effects
    monkeypatch.setattr(tape_module, "core_effects",
                        lambda *args: calls.append(args) or real(*args))
    for width in range(1, 17):
        inputs = words_for(engine, width)
        result = engine.run_batch(inputs)
        assert result.execution == "optimized"
        expected = reference.run_batch(inputs)
        for name in expected:
            np.testing.assert_array_equal(result[name], expected[name])
        replayer = engine._replayers[width]
        assert replayer._stacks.keys() == first._stacks.keys()
        for units, (stack, *_box_and_scratch) in replayer._stacks.items():
            assert stack is first._stacks[units][0], units
    assert calls == [], "binding a new width walked instruction effects"


# -- the replayer cache ---------------------------------------------------------


def test_replayer_cache_evicts_the_least_recently_used_width():
    engine = mlp_engine()
    for width in (1, 2, 3, 4, 1, 5):
        engine.run_batch(words_for(engine, width))
    assert list(engine._replayers) == [3, 4, 1, 5]


# -- the artifact store ---------------------------------------------------------


def test_construction_over_an_invalid_artifact_reads_the_store_once(
        tmp_path):
    path = mlp_engine(artifact_dir=tmp_path).ensure_artifacts(batch=1)
    with open(path / STATE_NAME, "r+b") as handle:
        handle.truncate(100)
    clear_compile_cache()
    before = store_info().rejections
    engine = mlp_engine(artifact_dir=tmp_path)
    assert store_info().rejections == before + 1
    assert engine.run_batch(words_for(engine, 2)).execution == "interpreter"

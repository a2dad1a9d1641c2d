"""A replayed pass copies its cached stats field by field, never deeply.

Timing stats are input-independent, so a tape caches them per batch
width and every replayed pass hands its result a private copy.  That
copy is :meth:`SimulationStats.copy`: new dicts, a new
``EnergyBreakdown`` with its own ``extra``, and the immutable values
shared.  This file pins that the copy equals ``copy.deepcopy`` field by
field on every registry workload plus ``cnn_small``, that it shares no
mutable container with the cache, that mutating a returned result never
reaches the next pass, and — the host-cost ratchet — that a warmed
replayed ``run_batch`` makes no ``copy.deepcopy`` call at all.
"""

import copy
from dataclasses import fields

import numpy as np
import pytest

from repro import InferenceEngine, default_config
from repro.compiler.cnn import compile_cnn
from repro.energy.model import EnergyBreakdown
from repro.isa.opcodes import Opcode
from repro.sim.stats import SimulationStats
from repro.workloads.cnn import build_lenet5_spec, small_cnn_spec
from repro.workloads.mlp import build_mlp_model
from repro.workloads.registry import FIGURE4_WORKLOADS, figure4_model

CONFIG = default_config()
WIDTHS = (1, 16)


def engines():
    for name in sorted(FIGURE4_WORKLOADS):
        if name.startswith("CNN"):
            yield name, lambda: InferenceEngine.from_compiled(
                compile_cnn(build_lenet5_spec(), CONFIG), CONFIG, seed=0)
        else:
            yield name, lambda name=name: InferenceEngine(
                figure4_model(name), CONFIG, seed=0)
    yield "cnn_small", lambda: InferenceEngine.from_compiled(
        compile_cnn(small_cnn_spec(seed=0), CONFIG), CONFIG, seed=0)


def zeros(engine, batch):
    return {name: np.zeros((batch, length), dtype=np.int64)
            for name, (_tile, _addr, length)
            in engine.program.input_layout.items()}


def cached_stats(engine, batch) -> SimulationStats:
    """The stats a pass at ``batch`` copies from: the tape's cache, or —
    for a RANDOM-op program, which never tapes — the run's own.  A
    replayed pass derives its width's stats on first read, so the pass's
    ``stats`` are read before the tape's cache is."""
    result = engine.run_batch(zeros(engine, batch))
    stats = result.stats
    tape = engine.compiled.execution_tapes.get(engine._fingerprint)
    return stats if tape is None else tape.stats_for(batch)


def containers(stats: SimulationStats) -> dict[str, object]:
    """Every mutable container a ``SimulationStats`` holds, by path."""
    held = {f.name: getattr(stats, f.name) for f in fields(stats)
            if isinstance(getattr(stats, f.name), (dict, EnergyBreakdown))}
    held["energy.extra"] = stats.energy.extra
    return held


@pytest.mark.parametrize("name,build", list(engines()),
                         ids=[name for name, _ in engines()])
def test_copy_equals_deepcopy_and_shares_no_container(name, build):
    engine = build()
    for batch in WIDTHS:
        cached = cached_stats(engine, batch)
        copied, deep = cached.copy(), copy.deepcopy(cached)
        for f in fields(SimulationStats):
            assert getattr(copied, f.name) == getattr(deep, f.name), f.name
        for f in fields(EnergyBreakdown):
            assert getattr(copied.energy, f.name) == \
                getattr(deep.energy, f.name), f.name
        assert set(containers(cached)) == {
            "energy", "energy.extra", "dynamic_instructions",
            "words_by_opcode", "stall_events", "busy_cycles"}
        for path, held in containers(copied).items():
            assert held is not containers(cached)[path], path
        # Why a shallow copy of each container suffices: nothing inside
        # one is mutable.
        leaves = [getattr(cached, f.name) for f in fields(cached)
                  if f.name not in containers(cached)]
        leaves += [getattr(cached.energy, f.name)
                   for f in fields(EnergyBreakdown) if f.name != "extra"]
        for held in containers(cached).values():
            if isinstance(held, dict):
                leaves += [*held, *held.values()]
        assert {type(leaf) for leaf in leaves} <= {int, float, str, Opcode}


def test_mutating_a_result_never_reaches_the_next_pass():
    engine = InferenceEngine(build_mlp_model([32, 24, 10], seed=0), CONFIG,
                             seed=3)
    for batch in WIDTHS:
        cached = cached_stats(engine, batch)
        before = copy.deepcopy(cached)
        stats = engine.run_batch(zeros(engine, batch)).stats
        assert stats == cached and stats is not cached
        for counts in (stats.dynamic_instructions, stats.words_by_opcode,
                       stats.stall_events, stats.busy_cycles):
            for key in list(counts):
                counts[key] += 1000
            counts["intruder"] = 1
        for f in fields(EnergyBreakdown):
            if f.name != "extra":
                setattr(stats.energy, f.name,
                        getattr(stats.energy, f.name) + 1.0)
        stats.energy.extra["intruder"] = 1.0
        stats.cycles += 1
        following = engine.run_batch(zeros(engine, batch)).stats
        assert cached == before
        assert following == cached


@pytest.mark.parametrize("batch", WIDTHS)
def test_warm_replay_makes_no_deepcopy(batch, monkeypatch):
    """Host-cost ratchet: ten warmed, replayed passes, zero deep copies
    (one per pass cost about 30 µs, a fifth of a batch-1 MLP predict)."""
    engine = InferenceEngine(build_mlp_model([32, 24, 10], seed=0), CONFIG,
                             seed=3).warm(batch=batch)
    engine.run_batch(zeros(engine, batch))      # first replay: the probe
    calls = []
    real = copy.deepcopy
    monkeypatch.setattr(copy, "deepcopy",
                        lambda *args, **kwargs: calls.append(1)
                        or real(*args, **kwargs))
    for _ in range(10):
        result = engine.run_batch(zeros(engine, batch))
        assert result.execution == "optimized"
    assert calls == []

"""The interpreter's statistics, pinned exactly.

``Simulator`` resolves each instruction's latency and energy once per
*cost class* — opcode, effective width, MVMUs activated, ROM access — and
merges the cached breakdown per completed instruction.  Everything that
could break is a number this file pins against
``tests/golden/interpreter_stats.json``: simulated cycles, every
``EnergyBreakdown`` field bit for bit (``float.hex``), busy cycles and
stall events per agent, dynamic instruction and word counts per opcode,
and the NoC counters — for the cold sweep's five models and a two-tile
MLP, at batch 1 and batch 16, with shadow timing (``batch=1,
stats_batch=16``) equal to the real batch-16 run field for field.

The golden was generated by this file at the commit before the cost
table existed (``pytest tests/test_interpreter_stats.py
--update-golden``), so it also certifies that change.  The two counting
tests at the end ratchet the host cost the table removed.
"""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro import Simulator, default_config
from repro.compiler import compile_model
from repro.compiler.cnn import compile_cnn
from repro.energy.model import EnergyBreakdown, LatencyModel
from repro.isa.opcodes import Opcode
from repro.tile.attribute_buffer import AttributeBuffer
from repro.tile.shared_memory import SharedMemory
from repro.workloads import (
    build_lstm_model,
    build_mlp_model,
    build_rbm_model,
    build_rnn_model,
)
from repro.workloads.cnn import small_cnn_spec
from repro.workloads.mlp import FIGURE4_MLP_DIMS

CONFIG = default_config()
GOLDEN = Path(__file__).parent / "golden" / "interpreter_stats.json"
SEED = 0

BUILDERS = {
    "mlp_fig4": lambda: compile_model(
        build_mlp_model(FIGURE4_MLP_DIMS, seed=SEED), CONFIG),
    "lstm_fig4": lambda: compile_model(
        build_lstm_model(26, 120, 61, seq_len=2, seed=SEED), CONFIG),
    "rnn_fig4": lambda: compile_model(
        build_rnn_model(26, 93, 61, seq_len=2, seed=SEED), CONFIG),
    "rbm_fig4": lambda: compile_model(
        build_rbm_model(500, 500, seed=SEED), CONFIG),
    "cnn_small": lambda: compile_cnn(small_cnn_spec(seed=SEED), CONFIG),
    # 28 MVMUs: spills onto a second tile, so layers talk over the NoC.
    "mlp_two_tiles": lambda: compile_model(
        build_mlp_model([256, 512, 512, 64], seed=SEED), CONFIG),
}
RUNS = {"b1": (1, None), "b16": (16, None), "shadow16": (1, 16)}


@pytest.fixture(scope="module")
def programs():
    return {name: build().program for name, build in BUILDERS.items()}


def run(program, batch, stats_batch=None):
    rng = np.random.default_rng(7)
    inputs = {name: rng.integers(-2000, 2000, size=(
        (batch, length) if batch > 1 else (length,)))
        for name, (_t, _a, length) in program.input_layout.items()}
    sim = Simulator(CONFIG, program, seed=SEED, batch=batch,
                    stats_batch=stats_batch)
    sim.run(inputs)
    return sim.stats


def snapshot(stats) -> dict:
    return {
        "cycles": stats.cycles,
        "energy": {f.name: getattr(stats.energy, f.name).hex()
                   for f in fields(EnergyBreakdown) if f.name != "extra"},
        "energy_extra": {k: v.hex() for k, v in stats.energy.extra.items()},
        "busy_cycles": dict(sorted(stats.busy_cycles.items())),
        "stall_events": dict(sorted(stats.stall_events.items())),
        "dynamic_instructions": {op.name: n for op, n in sorted(
            stats.dynamic_instructions.items())},
        "words_by_opcode": {op.name: n for op, n in sorted(
            stats.words_by_opcode.items())},
        "noc_flit_hops": stats.noc_flit_hops,
        "noc_packets": stats.noc_packets,
        "offchip_words": stats.offchip_words,
    }


@pytest.fixture(scope="module")
def golden(programs, request):
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(json.dumps(
            {name: {label: snapshot(run(program, *RUNS[label]))
                    for label in ("b1", "b16")}
             for name, program in programs.items()},
            indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stats_match_the_golden(programs, golden, name):
    found = {label: snapshot(run(programs[name], *RUNS[label]))
             for label in RUNS}
    assert found["b1"] == golden[name]["b1"]
    assert found["b16"] == golden[name]["b16"]
    # Shadow timing at batch-1 cost == the real batch-16 run.
    assert found["shadow16"] == golden[name]["b16"]


def test_the_two_tile_model_uses_the_noc(programs, golden):
    assert len(programs["mlp_two_tiles"].tiles) >= 2
    assert golden["mlp_two_tiles"]["b1"]["noc_packets"] > 0
    assert golden["rbm_fig4"]["b1"]["noc_packets"] > 0


# -- host-cost ratchets ------------------------------------------------------


def test_latency_model_runs_per_cost_class_not_per_instruction(
        programs, monkeypatch):
    """Once for the latency and once inside ``energy``, per class."""
    calls = []
    real = LatencyModel.cycles

    def counting(self, instr, outcome, batch=1):
        calls.append((instr.opcode, outcome.vec_width, outcome.mvm_count,
                      outcome.rom_access))
        return real(self, instr, outcome, batch)

    monkeypatch.setattr(LatencyModel, "cycles", counting)
    stats = run(programs["rbm_fig4"], 1)
    classes = set(calls)
    completed = sum(stats.dynamic_instructions.values())
    assert len(calls) <= 2 * len(classes)
    assert len(classes) < 40 < completed     # dozens, not hundreds


def test_one_validity_check_per_load_attempt(programs, monkeypatch):
    """``try_read`` owns the check; the attribute update does not repeat
    it.  Every load or send attempt, completed or blocked, is exactly one
    ``can_read``."""
    attempts, checks = [], []
    try_read, can_read = SharedMemory.try_read, AttributeBuffer.can_read
    monkeypatch.setattr(
        SharedMemory, "try_read",
        lambda self, addr, width=1: attempts.append(1) or try_read(
            self, addr, width))
    monkeypatch.setattr(
        AttributeBuffer, "can_read",
        lambda self, addr, width=1: checks.append(1) or can_read(
            self, addr, width))
    stats = run(programs["rbm_fig4"], 1)
    done = stats.dynamic_instructions
    assert len(attempts) > done[Opcode.LOAD] + done[Opcode.SEND]  # blocked too
    assert len(checks) == len(attempts)

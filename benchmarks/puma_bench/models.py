"""The models the workloads run, as cases every layer probe can rebuild.

A :class:`ModelCase` knows how to compile its model from cold (with or
without the static verifier), how to wrap a compilation in an engine,
and -- where ``repro.workloads`` ships one -- the float reference its
outputs must stay close to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import InferenceEngine, default_config
from repro.compiler import CompilerOptions, compile_model
from repro.compiler.cnn import cnn_reference, compile_cnn
from repro.fleet import FleetModelSpec
from repro.workloads import (
    build_lstm_model,
    build_mlp_model,
    build_rbm_model,
    build_rnn_model,
)
from repro.workloads.cnn import small_cnn_spec
from repro.workloads.lstm import lstm_reference
from repro.workloads.mlp import FIGURE4_MLP_DIMS, mlp_reference
from repro.workloads.rnn import rnn_reference

CONFIG = default_config()
ENGINE_SEED = 0
# How far fixed-point outputs may sit from the float references; the
# repo's own functional tests use 0.05-0.06 on the same input scale.
REFERENCE_ATOL = 0.1


@dataclass
class ModelCase:
    """One model: its source, its compile entry point, its reference.

    Attributes:
        name: the name replies and metrics use.
        source: the frontend ``Model`` (or ``CnnSpec``), built once.
        compile: ``compile(verify) -> compiled`` from cold.
        reference: float reference ``inputs -> {output: values}``, or
            ``None`` when ``repro.workloads`` has none.
        tapeable: ``False`` for RANDOM-op programs, which never replay
            and must be referenced one lane at a time.
    """

    name: str
    source: object
    compile: Callable[[bool], object]
    reference: Callable[[dict], dict] | None = None
    tapeable: bool = True

    def engine(self, mode: str, compiled=None) -> InferenceEngine:
        """A fresh engine over ``compiled`` (or a fresh compilation)."""
        if compiled is None:
            compiled = self.compile(False)
        return InferenceEngine.from_compiled(
            compiled, CONFIG, seed=ENGINE_SEED, execution_mode=mode)


def _frontend_case(name, model, reference=None, tapeable=True) -> ModelCase:
    def compile_(verify: bool):
        return compile_model(model, CONFIG, CompilerOptions(verify=verify))

    return ModelCase(name, model, compile_, reference, tapeable)


def _sequence(inputs: dict) -> list[np.ndarray]:
    """``x0, x1, ...`` in step order, as the recurrent references take."""
    return [inputs[f"x{t}"] for t in range(len(inputs))]


def mlp_case(name: str, dims: list[int]) -> ModelCase:
    return _frontend_case(
        name, build_mlp_model(dims, name=name, seed=ENGINE_SEED),
        lambda inputs: {"out": mlp_reference(dims, inputs["x"],
                                             seed=ENGINE_SEED)})


def lstm_case(name: str, sizes: tuple[int, int, int],
              seq_len: int) -> ModelCase:
    return _frontend_case(
        name, build_lstm_model(*sizes, seq_len=seq_len, name=name,
                               seed=ENGINE_SEED),
        lambda inputs: {"out": lstm_reference(*sizes, _sequence(inputs),
                                              seed=ENGINE_SEED)})


def rnn_case(name: str, sizes: tuple[int, int, int],
             seq_len: int) -> ModelCase:
    return _frontend_case(
        name, build_rnn_model(*sizes, seq_len=seq_len, name=name,
                              seed=ENGINE_SEED),
        lambda inputs: {"out": rnn_reference(*sizes, _sequence(inputs),
                                             seed=ENGINE_SEED)})


def rbm_case(name: str) -> ModelCase:
    # Stochastic binarize (RANDOM op): no float reference can match a
    # sampled bit pattern, and the engine never tapes it.
    return _frontend_case(
        name, build_rbm_model(500, 500, name=name, seed=ENGINE_SEED),
        tapeable=False)


def cnn_small_case(name: str) -> ModelCase:
    spec = small_cnn_spec(seed=ENGINE_SEED)
    return ModelCase(
        name, spec,
        lambda verify: compile_cnn(spec, CONFIG, verify=verify),
        lambda inputs: {"out": cnn_reference(spec, inputs["image"].reshape(
            spec.in_h, spec.in_w, spec.in_channels))})


# -- the deployments -------------------------------------------------------

# BENCH_PR7's mixed deployment: a light MLP with most of the traffic, a
# small LSTM, and the control-flow CNN.
FLEET_MLP_DIMS = [128, 256, 64]
FLEET_LSTM_SIZES = (16, 24, 8)
FLEET_LSTM_SEQ_LEN = 2
FLEET_MIX = (0.5, 0.3, 0.2)


def fleet_specs() -> list[FleetModelSpec]:
    return [
        FleetModelSpec("mlp", "mlp", {"dims": FLEET_MLP_DIMS},
                       seed=ENGINE_SEED),
        FleetModelSpec("lstm", "lstm", dict(zip(
            ("input_size", "hidden_size", "output_size"),
            FLEET_LSTM_SIZES)), seed=ENGINE_SEED),
        FleetModelSpec("cnn", "cnn_small", {}, seed=ENGINE_SEED),
    ]


def fleet_cases() -> list[ModelCase]:
    """The fleet's three models, for the layer probes (same builders,
    names and seeds as :func:`repro.fleet.build_engine` uses)."""
    return [mlp_case("mlp", FLEET_MLP_DIMS),
            lstm_case("lstm", FLEET_LSTM_SIZES, FLEET_LSTM_SEQ_LEN),
            cnn_small_case("cnn")]


SERVER_LSTM_SIZES = (64, 128, 32)
SERVER_LSTM_SEQ_LEN = 4


def server_case() -> ModelCase:
    return lstm_case("lstm", SERVER_LSTM_SIZES, SERVER_LSTM_SEQ_LEN)


# bench_replay's model, kept visible through two per-layer metrics.
REPLAY_MLP_DIMS = [256, 512, 512, 64]


def replay_mlp_case() -> ModelCase:
    return mlp_case("mlp_replay", REPLAY_MLP_DIMS)


def sweep_cases() -> list[ModelCase]:
    """Figure 4's compilable workloads plus the control-flow CNN."""
    return [mlp_case("mlp_fig4", FIGURE4_MLP_DIMS),
            lstm_case("lstm_fig4", (26, 120, 61), 2),
            rnn_case("rnn_fig4", (26, 93, 61), 2),
            rbm_case("rbm_fig4"),
            cnn_small_case("cnn_small")]

"""repro: a from-scratch reproduction of PUMA (ASPLOS 2019).

PUMA is a programmable memristor-crossbar accelerator for ML inference.
This package provides the full system described in the paper:

* the microarchitecture and ISA (:mod:`repro.arch`, :mod:`repro.isa`);
* the compiler from a high-level model API to per-core/tile instruction
  streams (:mod:`repro.compiler`);
* PUMAsim, the functional + timing + energy simulator (:mod:`repro.sim`);
* the serving layer: the batched :class:`~repro.engine.InferenceEngine`
  and the async dynamic-batching front-end :class:`~repro.serve.PumaServer`
  (:mod:`repro.engine`, :mod:`repro.serve`);
* power/area models and design-space exploration (:mod:`repro.energy`);
* DNN workload builders matching the paper's benchmarks
  (:mod:`repro.workloads`);
* analytic baseline platforms (CPU/GPU/TPU/ISAAC) and the PUMA layer-level
  performance model used for paper-scale networks (:mod:`repro.baselines`,
  :mod:`repro.perf`);
* the accuracy-under-write-noise study (:mod:`repro.accuracy`) and the
  experiment drivers that regenerate every table and figure
  (:mod:`repro.figures`).

Quickstart (the paper's Figure 7 example)::

    import numpy as np
    from repro import (Model, InVector, OutVector, ConstMatrix, tanh,
                       quick_run)

    m = Model.create("example")
    x = InVector.create(m, 128, "x")
    y = InVector.create(m, 128, "y")
    z = OutVector.create(m, 64, "z")
    A = ConstMatrix.create(m, 128, 64, "A", np.random.randn(128, 64) * 0.1)
    B = ConstMatrix.create(m, 128, 64, "B", np.random.randn(128, 64) * 0.1)
    z.assign(tanh(A @ x + B @ y))

    result = quick_run(m, {"x": x_float, "y": y_float})   # floats in
    print(result.outputs["z"], result.stats.summary())    # floats out

``quick_run`` compiles through the process-wide cache and runs one
float-first inference (or a whole ``(batch, length)`` matrix per input) —
see :class:`~repro.engine.InferenceEngine` for the persistent serving
object and :class:`~repro.serve.PumaServer` for the async front-end.
"""

from repro.arch.config import (
    CoreConfig,
    NodeConfig,
    PumaConfig,
    TileConfig,
    default_config,
)
from repro.arch.crossbar import Crossbar, CrossbarModel
from repro.compiler import (
    CompiledModel,
    CompilerOptions,
    ConstMatrix,
    InVector,
    Model,
    OutVector,
    binarize,
    compile_model,
    concat,
    exp,
    log,
    log_softmax,
    maximum,
    minimum,
    random_like,
    relu,
    sigmoid,
    tanh,
)
from repro.compiler.frontend import const_vector
from repro.engine import InferenceEngine
from repro.fixedpoint import FixedPointFormat
from repro.serve import (
    InferenceRequest,
    PumaServer,
    RunResult,
    ShardedEngine,
)
from repro.sim import SimulationDeadlock, SimulationStats, Simulator
from repro.store import ArtifactError, store_info

__version__ = "1.2.0"


def quick_run(model, inputs, config=None, *, options=None,
              crossbar_model=None, seed=0):
    """Compile (cached) and run float inputs end to end.

    Args:
        model: a frontend :class:`Model`.
        inputs: real-valued arrays per input name — ``(length,)`` for one
            inference, ``(batch, length)`` for a batched pass.
        config: accelerator configuration (Table 3 defaults when omitted).
        options: compiler options (part of the compile-cache key).
        crossbar_model: overrides the device model (noise studies).
        seed: RNG seed for crossbar noise and the RANDOM op.

    Returns:
        The run's :class:`~repro.serve.RunResult` (float outputs in
        ``.outputs``, fixed-point words via the mapping interface, stats
        in ``.stats``).
    """
    engine = InferenceEngine(model, config, options,
                             crossbar_model=crossbar_model, seed=seed)
    return engine.predict(inputs)


__all__ = [
    "CoreConfig",
    "TileConfig",
    "NodeConfig",
    "PumaConfig",
    "default_config",
    "Crossbar",
    "CrossbarModel",
    "FixedPointFormat",
    "Model",
    "InVector",
    "OutVector",
    "ConstMatrix",
    "const_vector",
    "relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "log_softmax",
    "maximum",
    "minimum",
    "concat",
    "random_like",
    "binarize",
    "CompilerOptions",
    "CompiledModel",
    "compile_model",
    "Simulator",
    "SimulationStats",
    "SimulationDeadlock",
    "InferenceEngine",
    "InferenceRequest",
    "RunResult",
    "PumaServer",
    "ShardedEngine",
    "ArtifactError",
    "store_info",
    "quick_run",
    "__version__",
]

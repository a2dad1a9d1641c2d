"""Roofline latency/energy estimates for CPU/GPU platforms.

The model reproduces the *structure* of measured batch-1 inference:

* every layer invocation launches kernels — GEMV/GEMM plus the elementwise
  tail; LSTM cells launch many small kernels (gates, cell update) which is
  what makes framework overhead dominate measured LSTM inference;
* weights stream from DRAM once per (batch of) use: with batch 1 and no
  reuse the layer is bandwidth-bound; batching amortizes the weight traffic
  and moves layers toward the compute roofline;
* recurrent layers serialize over time steps — sequence reuse of weights
  cannot be batched away within one inference (Section 2.2.2);
* energy = DRAM traffic + FLOP energy + (idle power) x (time).

Calibration constants below are shared across platforms; absolute numbers
are estimates, ratios against the PUMA model are the reproduced results
(pinned exactly by ``tests/golden/figures/fig11.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.platform import PlatformSpec
from repro.workloads.spec import (
    ConvLayer,
    DenseLayer,
    LstmLayer,
    PoolLayer,
    WorkloadSpec,
)

# Fraction of peak DRAM bandwidth achieved by streaming GEMV.
MEMORY_EFFICIENCY = 0.75
# CPUs/GPUs ran Torch7 in FP32 (Section 6.2), so weights/activations are
# four bytes there, versus PUMA's 16-bit words.
BASELINE_BYTES_PER_PARAM = 4
# Kernels launched per layer invocation by the framework (Torch7-style,
# unfused): a GEMV/GEMM plus bias/activation for simple layers; gates,
# elementwise cell updates, and state copies for LSTM cells.
KERNELS_PER_DENSE_LAYER = 2
KERNELS_PER_CONV_LAYER = 3          # im2col + GEMM + activation
KERNELS_PER_LSTM_STEP = 25
# GEMM efficiency approaches peak as the batch grows.
_GEMM_EFFICIENCY_HALF_BATCH = 16.0


def gemm_efficiency(batch: int) -> float:
    """Fraction of peak FLOPs achieved by a GEMM with ``batch`` rows."""
    return batch / (batch + _GEMM_EFFICIENCY_HALF_BATCH)


@dataclass(frozen=True)
class PlatformResult:
    """Latency/energy estimate of one inference batch."""

    platform: str
    workload: str
    batch: int
    latency_s: float
    energy_j: float

    @property
    def latency_per_inference_s(self) -> float:
        return self.latency_s / self.batch

    @property
    def energy_per_inference_j(self) -> float:
        return self.energy_j / self.batch

    @property
    def throughput_ips(self) -> float:
        return self.batch / self.latency_s


def _layer_invocations(spec: WorkloadSpec) -> list[tuple[object, int, int]]:
    """(layer, invocations, kernels-per-invocation) for one inference."""
    recurrent = spec.dnn_type in ("DeepLSTM", "WideLSTM", "RNN")
    out = []
    for layer in spec.layers:
        if isinstance(layer, LstmLayer):
            out.append((layer, spec.seq_len, KERNELS_PER_LSTM_STEP))
        elif isinstance(layer, DenseLayer):
            steps = spec.seq_len if recurrent else 1
            out.append((layer, steps, KERNELS_PER_DENSE_LAYER))
        elif isinstance(layer, ConvLayer):
            out.append((layer, 1, KERNELS_PER_CONV_LAYER))
        elif isinstance(layer, PoolLayer):
            out.append((layer, 1, 1))
        else:
            raise TypeError(f"unknown layer {layer!r}")
    return out


def estimate(spec: WorkloadSpec, platform: PlatformSpec,
             batch: int = 1) -> PlatformResult:
    """Estimate latency and energy of one batch on a CPU/GPU platform.

    Recurrent time steps serialize; the batch dimension parallelizes
    within each step (the usual batched-RNN formulation).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    bw = platform.mem_bandwidth_gbs * 1e9 * MEMORY_EFFICIENCY
    peak = platform.peak_gflops * 1e9
    overhead_s = platform.kernel_overhead_us * 1e-6
    eff = gemm_efficiency(batch)

    latency = 0.0
    dram_bytes = 0.0
    flops = 0.0
    for layer, invocations, kernels in _layer_invocations(spec):
        weight_bytes = layer.params * BASELINE_BYTES_PER_PARAM
        act_bytes = ((layer.in_size + layer.out_size)
                     * BASELINE_BYTES_PER_PARAM * batch)
        layer_macs = layer.macs
        layer_flops = 2.0 * layer_macs * batch

        per_invocation_bytes = weight_bytes + act_bytes
        mem_time = per_invocation_bytes / bw
        if isinstance(layer, ConvLayer):
            # Convolution GEMMs get their parallel rows from the window
            # positions, so they run near peak even at batch 1.
            layer_eff = gemm_efficiency(batch * layer.positions)
        else:
            layer_eff = eff
        compute_time = layer_flops / (peak * layer_eff) if layer_flops else 0.0
        invocation_time = max(mem_time, compute_time) + kernels * overhead_s
        if isinstance(layer, LstmLayer):
            invocation_time += platform.lstm_step_overhead_us * 1e-6

        latency += invocations * invocation_time
        dram_bytes += invocations * per_invocation_bytes
        flops += invocations * layer_flops

    energy = (dram_bytes * platform.dram_pj_per_byte * 1e-12
              + flops * platform.flop_pj * 1e-12
              + platform.tdp_w * platform.idle_fraction * latency)
    return PlatformResult(platform.name, spec.name, batch, latency, energy)

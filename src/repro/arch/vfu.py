"""Vector Functional Unit with temporal SIMD (Section 3.3).

The VFU has ``vfu_width`` lanes; vector instructions wider than that execute
over multiple cycles while the operand steer unit streams register operands
— *temporal SIMD*.  Functionally the whole vector is computed at once here;
the cycle cost is ``ceil(vec_width / vfu_width)`` and is charged by the
timing model (:meth:`cycles`).

Arithmetic semantics: 16-bit fixed point with saturation; multiplies and
divides rescale by the fractional bits; logical operations act on the raw
two's-complement bit patterns.  Transcendentals delegate to the
ROM-Embedded RAM LUTs owned by the register file.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from repro.fixedpoint import FixedPointFormat
from repro.isa.opcodes import AluOp

# ``lut(op, values, out)`` writes the transcendental of ``values`` into
# ``out`` (:meth:`repro.arch.rom_lut.RomEmbeddedRam.lookup`).
LutEvaluator = Callable[[AluOp, np.ndarray, np.ndarray], np.ndarray]

# ``kernel(a, b, out)`` writes ``op(a, b)`` into ``out`` (``b`` is ``None``
# for a one-source op).  Operands are read before anything is written, or
# in the same elementwise pass, so ``out`` may *be* either operand or lie
# apart from both; a destination overlapping a source only in part needs a
# scratch.  The interpreter and the tape binders (:mod:`repro.sim.tape`)
# call these same functions, which is why they produce the same words.
Kernel = Callable[[np.ndarray, "np.ndarray | None", np.ndarray], None]


class VectorFunctionalUnit:
    """Executes ALU / ALUimm vector operations.

    Args:
        width: number of hardware lanes.
        fmt: datapath fixed-point format.
        lut: evaluator for transcendental ops (the register file's ROM).
        rng: generator behind the RANDOM op (BM/RBM stochastic units).
    """

    def __init__(self, width: int, fmt: FixedPointFormat,
                 lut: LutEvaluator | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if width < 1:
            raise ValueError("VFU width must be >= 1")
        self.width = width
        self.fmt = fmt
        self._lut = lut
        self._rng = rng if rng is not None else np.random.default_rng()
        self.ops_executed = 0
        self.cycles_busy = 0

    def cycles(self, vec_width: int) -> int:
        """Temporal-SIMD cycle cost of a ``vec_width`` operation."""
        return max(1, math.ceil(vec_width / self.width))

    def execute(self, op: AluOp, src1: np.ndarray,
                src2: np.ndarray | None = None) -> np.ndarray:
        """Compute ``op`` over ``src1`` (and ``src2`` for binary ops).

        Args:
            op: the ALU sub-operation.
            src1: first operand vector (fixed-point integers), ``(w,)`` or
                ``(batch, w)`` — a batched operand computes every lane in
                one numpy operation (SIMD over batch; the vector dimension
                is always the last axis).
            src2: second operand vector, broadcastable to ``src1``; for
                ALUimm the caller passes the broadcast immediate.

        Returns:
            Result vector, saturated to the fixed-point range.

        Note: ``ops_executed``/``cycles_busy`` count the per-lane vector
        width — one physical VFU still executes one instruction stream; the
        batch lanes ride along in the same issue slots.
        """
        a = np.asarray(src1, dtype=np.int64)
        width = int(a.shape[-1]) if a.ndim else 1
        self.ops_executed += width
        self.cycles_busy += self.cycles(width)

        if op.num_sources == 2:
            if src2 is None:
                raise ValueError(f"{op.name} needs two source operands")
            b = np.asarray(src2, dtype=np.int64)
        else:
            b = None

        return self._apply(op, a, b)

    def _apply(self, op: AluOp, a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
        if op == AluOp.SUBSAMPLE:
            # Operand steering, not arithmetic: a strided view, no kernel.
            factor = max(1, int(b.flat[0]) if b is not None and b.size else 2)
            return a[..., ::factor]
        kernel = self.kernels.get(op)
        if kernel is None:
            raise ValueError(f"VFU cannot execute {op.name}")
        shape = a.shape if b is None else np.broadcast(a, b).shape
        out = np.empty(shape, dtype=np.int64)
        kernel(a, b, out)
        return out

    @cached_property
    def kernels(self) -> dict[AluOp, Kernel]:
        """The one definition of every op's arithmetic (see :data:`Kernel`),
        built on first use: most cores of a node never run an ALU op."""
        fmt, lut, rng = self.fmt, self._lut, self._rng
        # 0-d arrays: a ufunc takes them as they are, where a Python int
        # is converted on every call.
        lo, hi, zero = (np.array(v, dtype=np.int64)
                        for v in (fmt.int_min, fmt.int_max, 0))
        frac, top = fmt.frac_bits, fmt.total_bits - 1
        word_mask = (1 << fmt.total_bits) - 1

        def saturate(out) -> None:
            np.maximum(out, lo, out=out)
            np.minimum(out, hi, out=out)

        def rescale(out) -> None:  # arithmetic shift: floors the product
            np.right_shift(out, frac, out=out)

        def passes(ufunc, *then) -> Kernel:
            """One elementwise pass into ``out``, then steps on ``out``."""
            def kernel(a, b, out) -> None:
                ufunc(a, b, out=out)
                for step in then:
                    step(out)
            return kernel

        def via(fn) -> Kernel:
            """An op without an in-place form: compute, then copy in."""
            def kernel(a, b, out) -> None:
                out[...] = fn(a, b)
            return kernel

        def rom(op: AluOp) -> Kernel:
            def kernel(a, _b, out) -> None:
                if lut is None:
                    raise RuntimeError(f"{op.name} requires a ROM LUT "
                                       f"evaluator but none is attached")
                lut(op, a, out)
            return kernel

        roms = {op: rom(op) for op in (AluOp.SIGMOID, AluOp.TANH,
                                       AluOp.LOG, AluOp.EXP)}

        def log_softmax(a, _b, out) -> None:
            # dest = x - log(sum(exp(x))): exp and log through the LUTs,
            # accumulation at full precision in the VFU adder tree.  The
            # reduction is over the vector (last) axis so batched operands
            # normalize each lane independently.
            exps = np.empty(a.shape, dtype=np.int64)
            roms[AluOp.EXP](a, None, exps)
            totals = np.minimum(exps.sum(axis=-1, keepdims=True), hi)
            roms[AluOp.LOG](totals, None, totals)
            np.subtract(a, totals, out=out)
            saturate(out)

        unsigned = fmt.to_unsigned
        return {
            AluOp.ADD: passes(np.add, saturate),
            AluOp.SUB: passes(np.subtract, saturate),
            AluOp.MUL: passes(np.multiply, rescale, saturate),
            AluOp.DIV: via(fmt.divide),
            AluOp.SHL: via(lambda a, b: fmt.wrap(
                unsigned(a) << np.clip(b, 0, top))),
            # Arithmetic shift on signed values.
            AluOp.SHR: via(lambda a, b: a >> np.clip(b, 0, top)),
            AluOp.AND: via(lambda a, b: fmt.from_unsigned(
                unsigned(a) & unsigned(b))),
            AluOp.OR: via(lambda a, b: fmt.from_unsigned(
                unsigned(a) | unsigned(b))),
            AluOp.NOT: via(lambda a, _b: fmt.from_unsigned(
                ~unsigned(a) & word_mask)),
            AluOp.RELU: lambda a, _b, out: np.maximum(a, zero, out=out),
            AluOp.MIN: passes(np.minimum), AluOp.MAX: passes(np.maximum),
            # Uniform fixed-point samples in [0, 1): the comparison source
            # for stochastic Boltzmann-machine units.
            AluOp.RANDOM: via(lambda a, _b: rng.integers(
                0, fmt.scale, size=a.shape, dtype=np.int64)),
            AluOp.LOG_SOFTMAX: log_softmax, **roms,
        }

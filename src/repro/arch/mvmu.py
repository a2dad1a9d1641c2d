"""Matrix-Vector Multiplication Unit: bit-sliced 16-bit MVM (Section 3.2).

An MVMU combines ``16 / bits_per_cell`` crossbars (8 with the paper's 2-bit
cells) that hold the bit slices of one weight tile, co-located so they share
the XbarIn registers and DAC array (Section 3.2.2).  Inputs are streamed
bit-serially (``bits_per_input`` per step); partial column sums from every
(input step, weight slice) pair are shifted and added to reconstruct the full
16-bit x 16-bit dot products.

Signedness: both weights and inputs use offset-binary encoding (value +
2^15).  The cross terms introduced by the offsets are removed digitally
using the per-column weight sums (a compile-time constant stored with the
unit) and the input sum (computed on the fly) — the standard arrangement for
signed arithmetic on unipolar conductances.

An MVM instruction (:meth:`MVMU.execute`) is :meth:`MVMU.dot` — full
analog emulation through
:meth:`~repro.arch.crossbar.CrossbarStack.column_sums` (DAC/ADC, write
noise), or the same integer product computed directly when the model is
bit-exact (``tests/test_crossbar.py`` checks the equivalence) — then
:meth:`MVMU.rescale`, which tape replay's stacked MVM groups call too.
"""

from __future__ import annotations

import numpy as np

from repro.arch.crossbar import CrossbarModel, CrossbarStack
from repro.fixedpoint import FixedPointFormat, bit_slices


def _rescale_operands(fmt: FixedPointFormat) -> tuple[np.ndarray, dict]:
    """:meth:`MVMU.rescale`'s operands for ``fmt``, 0-d so its in-place
    ufuncs convert nothing per call: the reciprocal of the scale, and the
    word range per product dtype kind."""
    return np.array(1.0 / fmt.scale), {
        kind: (np.array(fmt.int_min, dtype=dtype),
               np.array(fmt.int_max, dtype=dtype))
        for kind, dtype in (("f", np.float64), ("i", np.int64))}


class MVMU:
    """One matrix-vector multiplication unit.

    Args:
        model: device/converter parameters (dimension, cell bits, noise).
        fmt: datapath fixed-point format (16-bit).
        rng: random generator for write noise (shared across slices).
    """

    def __init__(self, model: CrossbarModel,
                 fmt: FixedPointFormat | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.model = model
        self.fmt = fmt if fmt is not None else FixedPointFormat()
        if self.fmt.total_bits % model.bits_per_cell != 0:
            raise ValueError("word width must be divisible by bits_per_cell")
        if self.fmt.total_bits % model.bits_per_input != 0:
            raise ValueError("word width must be divisible by bits_per_input")
        self._rng = rng if rng is not None else np.random.default_rng()
        self.num_slices = self.fmt.total_bits // model.bits_per_cell
        self.num_input_steps = self.fmt.total_bits // model.bits_per_input
        self._matrix: np.ndarray | None = None
        self._stack: CrossbarStack | None = None
        # Derived from the record on first use: the BLAS operand by the
        # ideal shortcut, the offset sums by the analog path.
        self._matrix_f64: np.ndarray | None = None
        self._column_offset_sums: np.ndarray | None = None
        self._rescale_operands: tuple | None = None  # on first rescale()

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def is_programmed(self) -> bool:
        return self._matrix is not None

    @property
    def matrix(self) -> np.ndarray:
        """The signed fixed-point matrix the unit was programmed with."""
        if self._matrix is None:
            raise RuntimeError("MVMU has not been programmed")
        return self._matrix.astype(np.int64)

    def program(self, matrix: np.ndarray) -> None:
        """Program a signed fixed-point weight tile (configuration time).

        Args:
            matrix: ``(dim, dim)`` signed integers (16-bit fixed point);
                ``matrix[i, j]`` multiplies input *i* into output *j*.
        """
        arr = np.asarray(matrix, dtype=np.int64)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"expected {(self.dim, self.dim)}, got {arr.shape}")
        if arr.min() < self.fmt.int_min or arr.max() > self.fmt.int_max:
            raise ValueError("matrix values exceed the fixed-point range")

        # Offset-binary encoding: value + 2^15 in [0, 2^16), NOT the two's
        # complement pattern — the offset-cancellation algebra in dot()
        # requires the true biased representation.
        offset = 1 << (self.fmt.total_bits - 1)
        levels = bit_slices(arr + offset, self.model.bits_per_cell,
                            self.fmt.total_bits)
        # The record holds words, not int64: 16-bit fixed point in int16.
        self._adopt(arr.astype(np.min_scalar_type(self.fmt.int_min)),
                    CrossbarStack.program(self.model, levels, self._rng))

    def _adopt(self, matrix: np.ndarray, stack: CrossbarStack) -> None:
        self._matrix = matrix
        self._stack = stack
        self._matrix_f64 = None
        self._column_offset_sums = None

    def export_programmed_state(
            self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Everything :meth:`program` wrote, for replica fan-out.

        Returns ``(matrix, levels, conductance)`` — the signed matrix, the
        ``(num_slices, dim, dim)`` level stack and, for a noisy model
        only, the conductance stack (``None`` otherwise: noiseless
        conductances are derived, not state) — sharing the live arrays
        (read-only after configuration time, so sharing is safe and keeps
        forked replicas copy-on-write).
        """
        if self._matrix is None:
            raise RuntimeError("MVMU has not been programmed")
        noisy = self.model.write_noise_sigma > 0.0
        return (self._matrix, self._stack.levels,
                self._stack.conductance if noisy else None)

    def restore_programmed_state(
            self, state: tuple[np.ndarray, np.ndarray, np.ndarray | None]
    ) -> None:
        """Install state exported from an identically-configured MVMU.

        Adopts the arrays as they are — no bit-slicing, no device writes,
        no RNG draws, one validation per stack; callers who need bitwise
        parity with a freshly-programmed unit must restore the RNG state
        alongside (see
        :meth:`repro.node.node.NodeProgrammedState.for_program`).
        """
        matrix, levels, conductance = state
        if levels.shape[:1] != (self.num_slices,):
            raise ValueError(
                f"state level stack of shape {levels.shape} does not hold "
                f"the unit's {self.num_slices} crossbar slices")
        if matrix.shape != (self.dim, self.dim):
            raise ValueError(
                f"state matrix expected {(self.dim, self.dim)}, "
                f"got {matrix.shape}")
        if not np.issubdtype(matrix.dtype, np.integer):
            raise ValueError(
                f"state matrix must be integer, got dtype {matrix.dtype}")
        self._adopt(matrix,
                    CrossbarStack.restore(self.model, levels, conductance))

    def _weight_sums(self) -> np.ndarray:
        """Per-column sums of the unsigned weights, used to cancel the
        input offset term digitally.  Taken from the conductances actually
        programmed, so with noise the cancellation matches the analog
        array."""
        if self._column_offset_sums is None:
            acc = np.zeros((self.dim, self.dim), dtype=np.float64)
            for s in range(self.num_slices):
                acc += self._stack.effective_levels(s) * float(
                    1 << (s * self.model.bits_per_cell))
            self._column_offset_sums = acc.sum(axis=0)
        return self._column_offset_sums

    def _f64_product_is_exact(self) -> bool:
        """Whether the float64 BLAS product can never round.

        Operands are bounded by ``2**(total_bits-1)``, so every elementwise
        product is at most ``2**(2*(total_bits-1))`` and any partial sum of
        ``dim`` such products stays below ``dim * 2**(2*(total_bits-1))``.
        While that bound is at most ``2**53`` every intermediate value is an
        exactly-representable float64 integer and additions are exact in
        *any* association order — BLAS blocking/FMA included — so the
        float64 matmul is bitwise identical to integer arithmetic.
        """
        product_bits = 2 * (self.fmt.total_bits - 1)
        return self.dim * (1 << product_bits) <= (1 << 53)

    def dot(self, inputs: np.ndarray, force_analog: bool = False) -> np.ndarray:
        """Full-precision dot products through the modelled analog path.

        Args:
            inputs: ``(dim,)`` or ``(batch, dim)`` signed fixed-point
                integers; a batch runs all lanes through each (input step,
                weight slice) pair in single numpy operations.
            force_analog: skip the ideal-model shortcut and run the full
                bit-sliced emulation (used by equivalence tests).

        Returns:
            Column results at full precision with the same leading shape
            as ``inputs``: an ideal unit's exact ``inputs @ matrix``, in
            float64 when that cannot round (:meth:`_f64_product_is_exact`)
            and int64 otherwise; the analog path's float64 sums.
        """
        if self._matrix is None:
            raise RuntimeError("MVMU has not been programmed")
        x = np.asarray(inputs, dtype=np.int64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(
                f"expected shape ({self.dim},) or (batch, {self.dim}), "
                f"got {x.shape}")
        if self.model.is_ideal and not force_analog:
            if not self._f64_product_is_exact():
                return x @ self._matrix
            if self._matrix_f64 is None:
                self._matrix_f64 = self._matrix.astype(np.float64)
            return x.astype(np.float64) @ self._matrix_f64

        offset = 1 << (self.fmt.total_bits - 1)
        unsigned_x = x + offset  # offset-binary, matching program()
        input_steps = bit_slices(unsigned_x, self.model.bits_per_input,
                                 self.fmt.total_bits)

        # sum over input steps k and weight slices s of
        #   column_sums(x_k, W_s) << (k*b_in + s*b_cell)
        acc = np.zeros(x.shape, dtype=np.float64)
        for k, x_step in enumerate(input_steps):
            shift_k = k * self.model.bits_per_input
            for s in range(self.num_slices):
                shift_s = s * self.model.bits_per_cell
                partial = self._stack.column_sums(s, x_step)
                acc += partial * float(1 << (shift_k + shift_s))

        # Remove offset-binary cross terms:
        #   sum (ux-H)(uw-H) = sum ux*uw - H*sum(ux) - H*sum(uw) + n*H^2
        input_sums = unsigned_x.sum(axis=-1, keepdims=True).astype(np.float64)
        weight_sums = self._weight_sums()
        n = float(self.dim)
        h = float(offset)
        return acc - h * weight_sums - h * input_sums + n * h * h

    def execute(self, inputs: np.ndarray) -> np.ndarray:
        """A complete MVM instruction's datapath: :meth:`dot`, then
        :meth:`rescale`, as int64 words."""
        return self.rescale(self.dot(inputs)).astype(np.int64, copy=False)

    def rescale(self, full: np.ndarray) -> np.ndarray:
        """Take a full-precision product to 16-bit words, in place.

        Both operands carry ``frac_bits`` fractional bits, so the product
        is rescaled by ``>> frac_bits`` — an arithmetic shift, i.e. floor
        — and saturated to the word range, matching
        :meth:`FixedPointFormat.multiply` exactly (including negative
        products with odd low bits, which round toward -inf, not to
        nearest).  ``full`` is a :meth:`dot` result of any shape: int64
        shifts; float64 is multiplied by the power-of-two scale's
        reciprocal (exact) and floored.
        """
        if self._rescale_operands is None:
            self._rescale_operands = _rescale_operands(self.fmt)
        inv_scale, word_range = self._rescale_operands
        if full.dtype.kind == "i":
            np.right_shift(full, self.fmt.frac_bits, out=full)
        else:
            np.multiply(full, inv_scale, out=full)
            np.floor(full, out=full)
        lo, hi = word_range[full.dtype.kind]
        np.maximum(full, lo, out=full)
        np.minimum(full, hi, out=full)
        return full

    @staticmethod
    def shuffle_inputs(xbar_in: np.ndarray, filter_length: int,
                       stride: int) -> np.ndarray:
        """Logical input shuffling (Section 3.2.3).

        Re-routes XbarIn registers to DACs with a *blocked rotation*: the
        register vector is viewed as consecutive blocks of ``filter_length``
        registers, and within every complete block DAC row ``k`` reads
        register ``(k + stride) % filter_length``.  Trailing registers that
        do not fill a block map identity.

        This is exactly what sliding-window kernels need: each window row
        keeps a circular buffer of column slices in one block; advancing
        the window overwrites one slice per block and bumps the rotation,
        with no physical data movement (~80% of the input is reused for a
        5x5 filter at unit stride, Section 3.2.3).

        Args:
            xbar_in: the XbarIn register contents, ``(dim,)`` or
                ``(batch, dim)`` (the rotation applies along the last axis).
            filter_length: block (window-row buffer) length; 0 disables
                shuffling.
            stride: rotation offset within each block.
        """
        x = np.asarray(xbar_in)
        length = x.shape[-1]
        if filter_length <= 0:
            return x.copy()
        if filter_length > length:
            raise ValueError(
                f"filter {filter_length} exceeds vector length {length}")
        routed = x.copy()
        rotation = (np.arange(filter_length) + stride) % filter_length
        blocks = length // filter_length
        head = blocks * filter_length
        blocked = x[..., :head].reshape(x.shape[:-1] + (blocks, filter_length))
        routed[..., :head] = blocked[..., rotation].reshape(
            x.shape[:-1] + (head,))
        return routed

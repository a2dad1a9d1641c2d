"""16-bit fixed-point arithmetic used throughout the PUMA datapath.

PUMA computes in 16-bit fixed point (paper Section 6.1: "We use 16 bit
fixed-point precision that provides very high accuracy in inference
applications").  This module provides the number format shared by the
functional simulator, the compiler's constant lowering, and the crossbar
weight programming path.

The format is signed two's complement with a configurable number of
fractional bits (default 12, leaving 3 integer bits plus sign, a common
choice for inference where activations are normalized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOTAL_BITS = 16
DEFAULT_FRAC_BITS = 12

INT_MIN = -(1 << (TOTAL_BITS - 1))
INT_MAX = (1 << (TOTAL_BITS - 1)) - 1


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed two's-complement fixed-point format.

    Attributes:
        total_bits: word width in bits (PUMA uses 16).
        frac_bits: number of fractional bits.
    """

    total_bits: int = TOTAL_BITS
    frac_bits: int = DEFAULT_FRAC_BITS

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ValueError("total_bits must be at least 2")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(
                f"frac_bits must be in [0, {self.total_bits}), "
                f"got {self.frac_bits}"
            )

    @property
    def scale(self) -> int:
        """Integer units per 1.0."""
        return 1 << self.frac_bits

    @property
    def int_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def int_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        """Most negative representable real value."""
        return self.int_min / self.scale

    @property
    def max_value(self) -> float:
        """Most positive representable real value."""
        return self.int_max / self.scale

    @property
    def resolution(self) -> float:
        """Smallest representable increment."""
        return 1.0 / self.scale

    def quantize(self, values: np.ndarray | float) -> np.ndarray:
        """Convert real values to fixed-point integers with saturation."""
        # One float buffer, rounded and clipped in place (weight matrices
        # are megabytes); ``[()]`` hands a scalar input a scalar back.
        scaled = np.asarray(np.multiply(values, self.scale, dtype=np.float64))
        np.round(scaled, out=scaled)
        np.clip(scaled, self.int_min, self.int_max, out=scaled)
        return scaled.astype(np.int64)[()]

    def dequantize(self, ints: np.ndarray | int) -> np.ndarray:
        """Convert fixed-point integers back to real values."""
        return np.asarray(ints, dtype=np.float64) / self.scale

    def saturate(self, ints: np.ndarray | int) -> np.ndarray:
        """Clamp integer values into the representable range."""
        return np.clip(np.asarray(ints, dtype=np.int64), self.int_min, self.int_max)

    def wrap(self, ints: np.ndarray | int) -> np.ndarray:
        """Two's-complement wrap-around (hardware overflow semantics)."""
        arr = np.asarray(ints, dtype=np.int64)
        mask = (1 << self.total_bits) - 1
        wrapped = arr & mask
        sign_bit = 1 << (self.total_bits - 1)
        return np.where(wrapped >= sign_bit, wrapped - (1 << self.total_bits), wrapped)

    def multiply(self, a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
        """Fixed-point multiply: full-width product rescaled, saturated."""
        prod = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
        return self.saturate(prod >> self.frac_bits)

    def divide(self, a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
        """Fixed-point divide with round-toward-zero, saturated.

        The quotient is computed in pure integer arithmetic: ``float64``
        division only carries 53 bits of mantissa, which silently misrounds
        once the shifted numerator exceeds ``2**53`` (wide intermediate
        formats).  ``np.floor_divide`` rounds toward -inf, so negative
        inexact quotients are corrected up by one to truncate toward zero,
        matching hardware divider semantics.

        Division by zero saturates to the format extreme with the sign of
        the numerator (hardware-style sticky saturation rather than a trap);
        0/0 yields 0.
        """
        num = np.asarray(a, dtype=np.int64) << self.frac_bits
        den = np.asarray(b, dtype=np.int64)
        num, den = np.broadcast_arrays(num, den)
        zero = den == 0
        safe_den = np.where(zero, 1, den)
        quotient = np.floor_divide(num, safe_den)
        inexact = num - quotient * safe_den != 0
        # asarray re-wraps the 0-d/scalar case so the masked assignments
        # below work; the addition already allocated a fresh array.
        out = np.asarray(quotient + (inexact & ((num < 0) != (safe_den < 0))),
                         dtype=np.int64)
        out[zero & (num > 0)] = self.int_max
        out[zero & (num < 0)] = self.int_min
        out[zero & (num == 0)] = 0
        return self.saturate(out)

    def to_unsigned(self, ints: np.ndarray | int) -> np.ndarray:
        """Reinterpret signed words as unsigned bit patterns (for slicing)."""
        arr = np.asarray(ints, dtype=np.int64)
        return arr & ((1 << self.total_bits) - 1)

    def from_unsigned(self, raw: np.ndarray | int) -> np.ndarray:
        """Reinterpret unsigned bit patterns as signed words."""
        return self.wrap(np.asarray(raw, dtype=np.int64))


DEFAULT_FORMAT = FixedPointFormat()


def to_fixed(values: np.ndarray | float,
             fmt: FixedPointFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Quantize real values using ``fmt`` (module-level convenience)."""
    return fmt.quantize(values)


def to_float(ints: np.ndarray | int,
             fmt: FixedPointFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Dequantize integers using ``fmt`` (module-level convenience)."""
    return fmt.dequantize(ints)


def bit_slices(words: np.ndarray, bits_per_slice: int,
               total_bits: int = TOTAL_BITS) -> np.ndarray:
    """Split unsigned words into little-endian slices of ``bits_per_slice``.

    This is the digital half of the paper's bit-slicing scheme (Fig 2b): a
    16-bit weight is distributed over ``16 / bits_per_slice`` crossbars, each
    holding ``bits_per_slice`` bits per device.

    Args:
        words: unsigned integer array (use :meth:`FixedPointFormat.to_unsigned`).
        bits_per_slice: bits stored per memristor device (paper uses 2).
        total_bits: total word width.

    Returns:
        The slices stacked along a new leading axis, slice 0 being the
        least significant, in the narrowest unsigned dtype that holds a
        word (one shift/mask pass over the whole stack).
    """
    if total_bits % bits_per_slice != 0:
        raise ValueError(
            f"total_bits ({total_bits}) must be divisible by "
            f"bits_per_slice ({bits_per_slice})"
        )
    arr = np.asarray(words, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError("bit_slices expects unsigned words")
    # Narrowing wraps, i.e. drops the bits above the word, which no slice
    # would hold anyway.
    word_type = np.min_scalar_type((1 << total_bits) - 1)
    shifts = np.arange(0, total_bits, bits_per_slice, dtype=word_type)
    shifts = shifts.reshape((-1,) + (1,) * arr.ndim)
    return ((arr.astype(word_type) >> shifts)
            & word_type.type((1 << bits_per_slice) - 1))


def combine_slices(slices: list[np.ndarray], bits_per_slice: int,
                   total_bits: int = TOTAL_BITS) -> np.ndarray:
    """Inverse of :func:`bit_slices`: shift-and-add the slices back together."""
    if len(slices) * bits_per_slice != total_bits:
        raise ValueError(
            f"expected {total_bits // bits_per_slice} slices, got {len(slices)}"
        )
    acc = np.zeros_like(np.asarray(slices[0], dtype=np.int64))
    for i, s in enumerate(slices):
        acc = acc + (np.asarray(s, dtype=np.int64) << (i * bits_per_slice))
    return acc

"""Transcendental function evaluation via ROM-Embedded RAM (Section 3.4.1).

PUMA evaluates sigmoid/tanh/exp/log with look-up tables embedded in the
register-file array using the ROM-Embedded RAM technique (Figure 3): an
extra wordline per row embeds a ROM that can be read without sacrificing RAM
capacity; a ROM access buffers the RAM data, writes the probe patterns,
reads the ROM, and restores the RAM contents.

Functionally, a LUT evaluation is a piecewise-linear interpolation over
``entries`` segments spanning the representable fixed-point domain.  The
interpolation multiply runs on the VFU; the table itself costs one ROM-mode
access, which the timing/energy model charges separately from RAM accesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fixedpoint import FixedPointFormat
from repro.isa.opcodes import AluOp


def _safe_log(x: float, resolution: float) -> float:
    """Natural log clamped at the smallest positive representable value."""
    return math.log(max(x, resolution))


def reference_function(op: AluOp) -> Callable[[float], float]:
    """The real-valued function a LUT approximates (for table building)."""
    if op == AluOp.SIGMOID:
        return lambda x: 1.0 / (1.0 + math.exp(-x))
    if op == AluOp.TANH:
        return math.tanh
    if op == AluOp.EXP:
        return math.exp
    if op == AluOp.LOG:
        # Bound at the format resolution; exact bound applied per-format in
        # build_lut via the closure below.
        return lambda x: _safe_log(x, 1e-6)
    raise ValueError(f"{op.name} is not a LUT-evaluated function")


@dataclass(frozen=True)
class RomLutTable:
    """A fixed-point piecewise-linear table for one function.

    Attributes:
        op: which transcendental this table evaluates.
        entries: number of breakpoints (segments = entries - 1).
        x_values: breakpoint inputs, fixed-point integers, ascending.
        y_values: function values at the breakpoints, fixed-point integers.
        fmt: the datapath fixed-point format.
    """

    op: AluOp
    entries: int
    x_values: np.ndarray
    y_values: np.ndarray
    fmt: FixedPointFormat

    # Word widths up to this many bits get a dense word->value table
    # (2**16 entries = 512 KB of int64), replacing the per-call
    # searchsorted+interpolate with one gather on the hot path.
    _DENSE_MAX_BITS = 16

    def _dense_table(self) -> np.ndarray | None:
        """A full word->result table, built lazily via :meth:`_interpolate`.

        Exact by construction — every entry is the interpolation code's own
        answer for that input word — so the gather path is bitwise
        identical to the arithmetic path it replaces.
        """
        dense = getattr(self, "_dense", None)
        if dense is None and self.fmt.total_bits <= self._DENSE_MAX_BITS:
            domain = np.arange(self.fmt.int_min, self.fmt.int_max + 1,
                               dtype=np.int64)
            dense = self._interpolate(domain)
            dense.setflags(write=False)
            object.__setattr__(self, "_dense", dense)  # frozen dataclass
        return dense

    def _interpolate(self, x: np.ndarray) -> np.ndarray:
        x_clamped = np.clip(x, self.x_values[0], self.x_values[-1])
        # Segment index for each input (right-closed last segment).
        idx = np.searchsorted(self.x_values, x_clamped, side="right") - 1
        idx = np.clip(idx, 0, self.entries - 2)
        x0 = self.x_values[idx]
        x1 = self.x_values[idx + 1]
        y0 = self.y_values[idx].astype(np.int64)
        y1 = self.y_values[idx + 1].astype(np.int64)
        span = np.maximum(x1 - x0, 1)
        # Fixed-point linear interpolation: y0 + (dx * dy) / span.
        interp = y0 + ((x_clamped - x0) * (y1 - y0)) // span
        return self.fmt.saturate(interp)

    def evaluate(self, values: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Interpolate fixed-point inputs through the table, into ``out``
        (which may be ``values`` itself) when given.

        Inputs outside the table domain clamp to the end segments, which
        models hardware saturation.
        """
        x = np.asarray(values, dtype=np.int64)
        if out is None:
            out = np.empty(x.shape, dtype=np.int64)
        dense = self._dense_table()
        if dense is None:
            out[...] = self._interpolate(x)
            return out
        # Offset, then gather in place: ``take``'s clip mode clamps the
        # index (the clamp of the word) and reads each index before it
        # writes that position, which is all that indices living in
        # ``out`` need.  It copies operands that are not C-ordered; a
        # lane-minor register view (see RegisterFile) is, transposed.
        np.subtract(x, self.fmt.int_min, out=out)
        flat = out.T
        if not flat.flags.c_contiguous:
            flat = out
        np.take(dense, flat, out=flat, mode="clip")
        return out

    def max_interpolation_error(self, probe_points: int = 4096) -> float:
        """Worst observed |LUT - reference| over a uniform probe (real units)."""
        ref = reference_function(self.op)
        xs = np.linspace(self.fmt.dequantize(self.x_values[0]),
                         self.fmt.dequantize(self.x_values[-1]),
                         probe_points)
        approx = self.fmt.dequantize(self.evaluate(self.fmt.quantize(xs)))
        exact = np.array([min(max(ref(float(v)), self.fmt.min_value),
                              self.fmt.max_value) for v in xs])
        return float(np.max(np.abs(approx - exact)))


# Tables are pure functions of (op, entries, fmt) and read-only after
# construction, so they are shared process-wide.  Building one costs
# ``entries`` python-float evaluations — noticeable when every simulator
# run instantiates fresh register files (one RomEmbeddedRam per core).
_TABLE_CACHE: dict[tuple[AluOp, int, FixedPointFormat], RomLutTable] = {}


def build_lut(op: AluOp, entries: int = 256,
              fmt: FixedPointFormat | None = None) -> RomLutTable:
    """Build (or fetch the cached) ROM table for one transcendental.

    The domain spans the representable range of ``fmt`` except for LOG,
    whose domain starts at the smallest positive representable value.
    """
    fmt = fmt if fmt is not None else FixedPointFormat()
    if entries < 2:
        raise ValueError("a LUT needs at least two entries")
    cached = _TABLE_CACHE.get((op, entries, fmt))
    if cached is not None:
        return cached

    if op == AluOp.LOG:
        lo = fmt.resolution
    else:
        lo = fmt.min_value
    hi = fmt.max_value

    xs = np.linspace(lo, hi, entries)
    if op == AluOp.LOG:
        ref = lambda x: _safe_log(x, fmt.resolution)  # noqa: E731
    else:
        ref = reference_function(op)
    ys = [min(max(ref(float(x)), fmt.min_value), fmt.max_value) for x in xs]
    table = RomLutTable(
        op=op,
        entries=entries,
        x_values=fmt.quantize(xs),
        y_values=fmt.quantize(np.array(ys)),
        fmt=fmt,
    )
    table.x_values.setflags(write=False)
    table.y_values.setflags(write=False)
    _TABLE_CACHE[(op, entries, fmt)] = table
    return table


class RomEmbeddedRam:
    """The register-file array with embedded ROM tables (Figure 3).

    Models the access protocol's observable property — ROM reads preserve
    RAM contents — and counts RAM/ROM accesses for the energy model.  The
    data array itself is owned by :class:`repro.arch.registers.RegisterFile`;
    this class owns the ROM halves (the LUTs).
    """

    def __init__(self, lut_entries: int = 256,
                 fmt: FixedPointFormat | None = None) -> None:
        self.fmt = fmt if fmt is not None else FixedPointFormat()
        self.lut_entries = lut_entries
        self._tables: dict[AluOp, RomLutTable] = {}
        self.rom_accesses = 0

    def table(self, op: AluOp) -> RomLutTable:
        """Get (building lazily) the ROM table for ``op``."""
        if op not in self._tables:
            self._tables[op] = build_lut(op, self.lut_entries, self.fmt)
        return self._tables[op]

    def lookup(self, op: AluOp, values: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate a transcendental on a vector, counting ROM accesses.

        Accepts ``(w,)`` or ``(batch, w)`` operands; batched lanes share the
        same probe sequence, so accesses count the per-lane width only.
        The result lands in ``out`` when one is given.
        """
        arr = np.asarray(values, dtype=np.int64)
        self.rom_accesses += int(arr.shape[-1]) if arr.ndim else 1
        return self.table(op).evaluate(arr, out)

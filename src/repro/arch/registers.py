"""Per-core register file: XbarIn, XbarOut, and general-purpose registers.

The three classes live in one flat index space (Section 5.4 describes their
distinct read/write constraints, which the functional simulator enforces):

* XbarIn — written by non-MVM instructions, read only by MVM;
* XbarOut — written only by MVM, read by non-MVM instructions;
* general purpose — read and written by non-MVM instructions, hosted in the
  ROM-Embedded RAM structure alongside the transcendental LUTs.

The class-constraint checks catch compiler register-allocation bugs early;
they can be disabled for hand-written kernels that deliberately bend the
rules.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import CoreConfig
from repro.arch.rom_lut import RomEmbeddedRam
from repro.isa.opcodes import AluOp, RegisterClass


# min()/max() without their Python wrappers (run on every register write).
_lowest, _highest = np.minimum.reduce, np.maximum.reduce
# The classes in flat-index order, and the single-class ranges of it.
_LAYOUT = tuple(RegisterClass)
_XBAR_IN, _XBAR_OUT, _GENERAL = ((cls,) for cls in _LAYOUT)


class RegisterAccessError(RuntimeError):
    """An instruction accessed a register class it is not allowed to."""


class RegisterFile:
    """The register state of one core.

    With ``batch > 1`` every register holds one word *per batch lane*: the
    state is a ``(batch, num_registers)`` array (stored register-major, so
    one register's lanes are adjacent in memory), reads return
    ``(batch, width)`` matrices, and writes accept either a per-lane matrix
    or a single vector broadcast to every lane.  PUMA programs are
    control-uniform across inputs, so one instruction stream drives all
    lanes SIMD-style.  With the default ``batch == 1`` the interface is
    exactly the classic one-vector register file (1-D reads and writes).

    Args:
        config: core configuration (sizes and layout).
        enforce_classes: enforce the XbarIn/XbarOut access rules.
        batch: number of SIMD batch lanes held per register.
    """

    def __init__(self, config: CoreConfig, enforce_classes: bool = True,
                 batch: int = 1) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.config = config
        self.enforce_classes = enforce_classes
        self.batch = batch
        # Class boundaries and the word range as plain ints: every access
        # checks against them, and CoreConfig derives each through a chain
        # of properties.
        self._xbar_in_end = config.xbar_in_size
        self._xbar_out_end = config.general_base
        self._num_registers = config.num_registers
        self._int_min = config.fixed_point.int_min
        self._int_max = config.fixed_point.int_max
        # Lanes are the minor axis in memory (indexing stays lanes-first): a
        # register range across every lane is one contiguous block.
        self._data = np.zeros((self._num_registers, batch), dtype=np.int64).T
        self.rom = RomEmbeddedRam(config.rom_lut_entries, config.fixed_point)
        self.reads = {cls: 0 for cls in RegisterClass}
        self.writes = {cls: 0 for cls in RegisterClass}

    def _check_range(self, start: int, width: int) -> None:
        if width < 1:
            raise ValueError(f"vector width must be >= 1, got {width}")
        if start < 0 or start + width > self._num_registers:
            raise IndexError(
                f"register range [{start}, {start + width}) exceeds the "
                f"register space [0, {self._num_registers})"
            )

    def _classes_in_range(self, start: int,
                          width: int) -> tuple[RegisterClass, ...]:
        """The classes a range :meth:`_check_range` has accepted touches,
        in layout order (nearly always exactly one)."""
        end = start + width
        if start >= self._xbar_out_end:
            return _GENERAL
        if end <= self._xbar_in_end:
            return _XBAR_IN
        first = 0 if start < self._xbar_in_end else 1
        last = 2 if end > self._xbar_out_end else 1
        return _LAYOUT[first:last + 1]

    def read(self, start: int, width: int = 1, from_mvm: bool = False) -> np.ndarray:
        """Read ``width`` consecutive registers.

        Args:
            start: flat register index.
            width: vector width.
            from_mvm: True when the reader is the MVM unit (only MVM may
                read XbarIn; only non-MVM readers may read XbarOut).
        """
        self._check_range(start, width)
        classes = self._classes_in_range(start, width)
        if self.enforce_classes:
            if not from_mvm and RegisterClass.XBAR_IN in classes:
                raise RegisterAccessError(
                    f"non-MVM read of XbarIn registers at {start}")
            if from_mvm and classes != _XBAR_IN:
                raise RegisterAccessError(
                    f"MVM read outside XbarIn registers at {start}")
        for cls in classes:
            self.reads[cls] += width
        data = self._data[:, start:start + width].copy()
        return data[0] if self.batch == 1 else data

    def write(self, start: int, values: np.ndarray, from_mvm: bool = False) -> None:
        """Write consecutive registers with fixed-point words.

        Accepts a ``(width,)`` vector — written to every batch lane — or a
        ``(batch, width)`` matrix carrying distinct per-lane values.
        """
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim == 2 and arr.shape[0] != self.batch:
            raise ValueError(
                f"batched write carries {arr.shape[0]} lanes, register file "
                f"holds {self.batch}")
        if arr.ndim > 2:
            raise ValueError(f"register write must be 1-D or 2-D, got {arr.ndim}-D")
        width = arr.shape[-1]
        self._check_range(start, width)
        classes = self._classes_in_range(start, width)
        if self.enforce_classes:
            if not from_mvm and RegisterClass.XBAR_OUT in classes:
                raise RegisterAccessError(
                    f"non-MVM write of XbarOut registers at {start}")
            if from_mvm and classes != _XBAR_OUT:
                raise RegisterAccessError(
                    f"MVM write outside XbarOut registers at {start}")
        if (_lowest(arr, axis=None) < self._int_min
                or _highest(arr, axis=None) > self._int_max):
            raise ValueError("register write exceeds the fixed-point range")
        for cls in classes:
            self.writes[cls] += width
        self._data[:, start:start + width] = arr

    def read_scalar(self, reg: int) -> int:
        """Lane-0 value of one register, without the vector-read copy.

        Semantically a ``read(reg, 1)`` restricted to lane 0 (what control
        consumes — branches and indirect addressing are batch-uniform), but
        allocation-free: the hot branch/indirect path was paying an array
        copy plus ``np.asarray(...).flat[0]`` per access.  Class rules and
        access counters behave exactly like :meth:`read`.
        """
        self._check_range(reg, 1)
        cls, = self._classes_in_range(reg, 1)
        if self.enforce_classes and cls == RegisterClass.XBAR_IN:
            raise RegisterAccessError(
                f"non-MVM read of XbarIn registers at {reg}")
        self.reads[cls] += 1
        return int(self._data[0, reg])

    def lut_evaluate(self, op: AluOp, values: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate a transcendental through the embedded ROM."""
        return self.rom.lookup(op, values, out)

    def xbar_in_vector(self, mvmu: int) -> np.ndarray:
        """The XbarIn register vector of one MVMU (MVM-unit access)."""
        base = self.config.xbar_in_base(mvmu)
        return self.read(base, self.config.mvmu_dim, from_mvm=True)

    def write_xbar_out(self, mvmu: int, values: np.ndarray) -> None:
        """Write one MVMU's result vector into XbarOut (MVM-unit access)."""
        base = self.config.xbar_out_base(mvmu)
        self.write(base, values, from_mvm=True)

    def snapshot(self) -> np.ndarray:
        """A copy of the whole register space (for tests/debugging).

        Shape ``(num_registers,)`` for batch 1, ``(batch, num_registers)``
        otherwise.
        """
        return self._data[0].copy() if self.batch == 1 else self._data.copy()

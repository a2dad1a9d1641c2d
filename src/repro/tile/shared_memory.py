"""Tile shared memory: eDRAM data array plus attribute synchronization.

The shared memory is the communication fabric between the cores of a tile
(Section 4.1).  All accesses go through the attribute buffer's valid/count
protocol; ``try_read``/``try_write`` return ``None``/``False`` instead of
blocking, and the simulator parks the issuing core on a waiter list that the
opposite operation wakes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.tile.attribute_buffer import PERSISTENT_COUNT, AttributeBuffer

WakeCallback = Callable[[], None]


class SharedMemory:
    """Word-addressed shared memory with valid/count synchronization.

    With ``batch > 1`` each word holds one value per batch lane — the data
    array is ``(batch, words)`` — while the valid/count attributes stay
    per-word: all lanes are produced and consumed together by the single
    (batch-uniform) instruction stream, so one attribute entry governs a
    word across every lane.  With ``batch == 1`` the interface is exactly
    the classic scalar memory (1-D reads and writes).

    Args:
        words: capacity in 16-bit words.
        attribute_entries: attribute-buffer entries (>= words for full
            coverage; the Table 3 tile pairs 32K words with 32K entries).
        batch: SIMD batch lanes held per word.
    """

    def __init__(self, words: int, attribute_entries: int | None = None,
                 batch: int = 1) -> None:
        if words <= 0:
            raise ValueError("shared memory needs at least one word")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.words = words
        self.batch = batch
        # Word-major in memory, like the register files it feeds: a word
        # range across every lane is one contiguous block.
        self._data = np.zeros((words, batch), dtype=np.int64).T
        self.attributes = AttributeBuffer(
            attribute_entries if attribute_entries is not None else words)
        self._read_waiters: list[WakeCallback] = []
        self._write_waiters: list[WakeCallback] = []
        self.reads = 0
        self.writes = 0

    def _check(self, addr: int, width: int) -> None:
        if addr < 0 or addr + width > self.words:
            raise IndexError(
                f"memory range [{addr}, {addr + width}) exceeds "
                f"[0, {self.words})"
            )

    def _coerce(self, values: np.ndarray) -> np.ndarray:
        """Normalize written values to a lanes-compatible 2-D array."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim <= 1:
            return arr.reshape(1, -1)  # broadcast one vector to every lane
        if arr.ndim == 2:
            if arr.shape[0] != self.batch:
                raise ValueError(
                    f"batched write carries {arr.shape[0]} lanes, memory "
                    f"holds {self.batch}")
            return arr
        raise ValueError(f"memory write must be 1-D or 2-D, got {arr.ndim}-D")

    def try_read(self, addr: int, width: int = 1) -> np.ndarray | None:
        """Read if every word is valid; ``None`` when the reader must wait."""
        self._check(addr, width)
        if not self.attributes.can_read(addr, width):
            return None
        self.attributes._consume(addr, width)
        self.reads += width
        data = self._data[:, addr:addr + width].copy()
        self._wake_writers()
        return data[0] if self.batch == 1 else data

    def try_write(self, addr: int, values: np.ndarray, count: int = 1) -> bool:
        """Write if every word is invalid; ``False`` when the writer must wait."""
        arr = self._coerce(values)
        width = arr.shape[1]
        self._check(addr, width)
        if not self.attributes.can_write(addr, width):
            return False
        self._data[:, addr:addr + width] = arr
        self.attributes._produce(addr, width, count)
        self.writes += width
        self._wake_readers()
        return True

    def wait_for_read(self, wake: WakeCallback) -> None:
        """Park a blocked reader; woken by the next successful write."""
        self._read_waiters.append(wake)

    def wait_for_write(self, wake: WakeCallback) -> None:
        """Park a blocked writer; woken by the next successful read."""
        self._write_waiters.append(wake)

    def _wake_readers(self) -> None:
        waiters, self._read_waiters = self._read_waiters, []
        for wake in waiters:
            wake()

    def _wake_writers(self) -> None:
        waiters, self._write_waiters = self._write_waiters, []
        for wake in waiters:
            wake()

    # -- simulator setup/teardown helpers (bypass synchronization) --

    def preload(self, addr: int, values: np.ndarray,
                count: int = PERSISTENT_COUNT) -> None:
        """Install data before execution starts (model inputs, constants).

        A 1-D vector is broadcast to every batch lane (constants, biases);
        a ``(batch, width)`` matrix carries per-lane inputs.
        """
        arr = self._coerce(values)
        width = arr.shape[1]
        self._check(addr, width)
        self.attributes.force_invalidate(addr, width)
        self._data[:, addr:addr + width] = arr
        self.attributes._produce(addr, width, count)

    def peek(self, addr: int, width: int = 1) -> np.ndarray:
        """Read raw data without touching attributes (result extraction)."""
        self._check(addr, width)
        data = self._data[:, addr:addr + width].copy()
        return data[0] if self.batch == 1 else data

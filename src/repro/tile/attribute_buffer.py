"""Attribute buffer: valid/count synchronization metadata (Section 4.1.1).

Each shared-memory word has two attributes — *valid* and *count* — driving
the producer/consumer protocol of Figure 6:

* a write blocks while the word is still valid (unconsumed), then stores the
  data, sets ``count`` to the number of expected readers, and marks valid;
* a read blocks while the word is invalid, then atomically decrements
  ``count``; the decrement to zero invalidates the word, freeing it for the
  next producer.

``count == PERSISTENT_COUNT`` (127, the top of the ISA's 7-bit count
field) marks configuration data — biases, model inputs — that any number
of readers may consume without ever invalidating it.
"""

from __future__ import annotations

import numpy as np

PERSISTENT_COUNT = 127


class AttributeBuffer:
    """Valid/count attribute storage for a tile's shared memory."""

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("attribute buffer needs at least one entry")
        self.entries = entries
        self._valid = np.zeros(entries, dtype=bool)
        self._count = np.zeros(entries, dtype=np.int64)

    def _check(self, addr: int, width: int) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        if addr < 0 or addr + width > self.entries:
            raise IndexError(
                f"attribute range [{addr}, {addr + width}) exceeds "
                f"[0, {self.entries})"
            )

    def can_read(self, addr: int, width: int = 1) -> bool:
        """True when every word in the range is valid."""
        self._check(addr, width)
        return bool(np.logical_and.reduce(self._valid[addr:addr + width]))

    def can_write(self, addr: int, width: int = 1) -> bool:
        """True when every word in the range is invalid (consumed)."""
        self._check(addr, width)
        return not np.logical_or.reduce(self._valid[addr:addr + width])

    def on_write(self, addr: int, width: int, count: int) -> None:
        """Mark a produced range valid with ``count`` expected readers."""
        if not self.can_write(addr, width):
            raise RuntimeError(
                f"write to valid (unconsumed) words at [{addr}, {addr + width})"
            )
        self._produce(addr, width, count)

    def _produce(self, addr: int, width: int, count: int) -> None:
        """:meth:`on_write` for a caller that has just seen
        :meth:`can_write` hold (the shared memory's own write path)."""
        if not 1 <= count <= PERSISTENT_COUNT:
            raise ValueError(f"count {count} out of range [1, {PERSISTENT_COUNT}]")
        self._valid[addr:addr + width] = True
        self._count[addr:addr + width] = count

    def on_read(self, addr: int, width: int) -> None:
        """Atomically decrement counts; zero-count words become invalid."""
        if not self.can_read(addr, width):
            raise RuntimeError(
                f"read of invalid words at [{addr}, {addr + width})")
        self._consume(addr, width)

    def _consume(self, addr: int, width: int) -> None:
        """:meth:`on_read` for a caller that has just seen :meth:`can_read`
        hold (the shared memory's own read path): every word is valid, so
        it stays valid exactly when its count stays non-zero."""
        count = self._count[addr:addr + width]
        np.subtract(count, 1, out=count, where=count != PERSISTENT_COUNT)
        np.not_equal(count, 0, out=self._valid[addr:addr + width])

    def valid_fraction(self) -> float:
        """Fraction of valid entries (occupancy diagnostic)."""
        return float(self._valid.mean())

    def force_invalidate(self, addr: int, width: int) -> None:
        """Reset a range regardless of state (simulator setup only)."""
        self._check(addr, width)
        self._valid[addr:addr + width] = False
        self._count[addr:addr + width] = 0

"""SLO-aware batch formation: priorities, deadlines, EDF, early close.

This is the policy layer between request intake and engine dispatch.
:class:`~repro.serve.server.PumaServer` owns the asyncio plumbing
(futures, the arrival event, the engine pass); the scheduler owns *which
requests form the next batch and how long to keep the window open*.

**Order.**  The queue is earliest-deadline-first (EDF) within priority:
ordered by ``(-priority, deadline, arrival)`` — higher ``priority``
strictly first, earliest deadline next, arrival order last.  With no
priorities or deadlines this degenerates to exact FIFO order.

**The hold is opt-in.**  ``batch_window_s`` defaults to ``0``: an idle
engine takes whatever is queued immediately and requests that arrive
during a pass form the next batch, so coalescing comes from concurrency
that is actually visible and never from waiting on a clock (PUMA's
weights are stationary — it needs no batch to be efficient).  Pass an
explicit window to trade latency for fill.

**Early close.**  A window additionally closes *early* when the
most urgent queued deadline no longer affords waiting: with ``d`` the
earliest absolute deadline in the queue and ``s`` the EWMA-observed
service time of the batch we would dispatch (tracked per batch size by
:class:`ServiceTimeTracker`), the remaining slack is ``d - now - s``.
When slack runs out before the window does, the batch dispatches
immediately — trading batch fill for deadline attainment — and the
event counts in :attr:`SchedulerCounters.early_closes`.

Counter conservation (asserted by
``tests/test_scheduler_properties.py``): every admitted request is
eventually dispatched, shed, or drained::

    admitted == dispatched + shed + drained + len(queue)
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any


@dataclass
class SchedulerCounters:
    """Queue-side accounting, one conservation law.

    Attributes:
        admitted: requests accepted into the queue (post-validation,
            post-admission-control).
        dispatched: requests handed to the engine in some batch.
        shed: requests removed because their deadline expired while
            queued.
        drained: requests removed administratively (server stopping
            without drain, or the batching loop crashing).
        early_closes: batch windows closed early by deadline pressure.
    """

    admitted: int = 0
    dispatched: int = 0
    shed: int = 0
    drained: int = 0
    early_closes: int = 0

    def in_balance(self, queued: int) -> bool:
        """The conservation law; ``queued`` is the live queue depth."""
        return self.admitted == (self.dispatched + self.shed
                                 + self.drained + queued)

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "dispatched": self.dispatched,
            "shed": self.shed,
            "drained": self.drained,
            "early_closes": self.early_closes,
        }


class ServiceTimeTracker:
    """EWMA of observed per-batch service time, keyed by batch size.

    The server reports every engine pass (``observe(batch_size,
    seconds)``, measured on the injected clock); the scheduler asks
    ``estimate(batch_size)`` for the early-close rule.  An exact match
    is preferred; otherwise the nearest observed batch size answers
    (service time is monotone-ish in batch size, and a nearby size is a
    far better predictor than nothing).  Returns ``None`` until the
    first observation — no estimate means no early close, never a
    guessed one.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._ewma: dict[int, float] = {}

    def observe(self, batch_size: int, seconds: float) -> None:
        if batch_size < 1 or not math.isfinite(seconds) or seconds < 0:
            return
        previous = self._ewma.get(batch_size)
        if previous is None:
            self._ewma[batch_size] = seconds
        else:
            self._ewma[batch_size] = (self.alpha * seconds
                                      + (1 - self.alpha) * previous)

    def estimate(self, batch_size: int) -> float | None:
        if not self._ewma:
            return None
        if batch_size in self._ewma:
            return self._ewma[batch_size]
        nearest = min(self._ewma, key=lambda size: (abs(size - batch_size),
                                                    size))
        return self._ewma[nearest]

    def seed(self, batch_size: int, seconds: float) -> None:
        """Pin an estimate directly (deterministic tests, warm starts)."""
        self._ewma[int(batch_size)] = float(seconds)

    def snapshot(self) -> dict[int, float]:
        return dict(self._ewma)


@dataclass(order=True)
class _Entry:
    sort_key: tuple
    item: Any = field(compare=False)
    priority: int = field(compare=False, default=0)
    deadline_at: float | None = field(compare=False, default=None)


class BatchScheduler:
    """The EDF queue plus the window-hold rule with deadline-pressure close.

    Items are opaque to the scheduler — the server queues its
    ``_Pending`` records and gets them back in dispatch order.
    """

    def __init__(self, *, max_batch_size: int = 16,
                 batch_window_s: float = 0.0) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, "
                             f"got {max_batch_size}")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        self.max_batch_size = max_batch_size
        self.batch_window_s = batch_window_s
        self.service_times = ServiceTimeTracker()
        self.counters = SchedulerCounters()
        self._heap: list[_Entry] = []
        # Queued entries carrying a deadline; at zero the deadline scans
        # (pop_expired, earliest_deadline) have nothing to find.
        self._deadlines = 0
        self._seq = itertools.count()

    # -- queue operations --------------------------------------------------

    def push(self, item: Any, *, priority: int = 0,
             deadline_at: float | None = None) -> None:
        """Admit one request into the queue."""
        deadline_key = math.inf if deadline_at is None else deadline_at
        heapq.heappush(self._heap, _Entry(
            (-priority, deadline_key, next(self._seq)), item,
            priority=priority, deadline_at=deadline_at))
        self._deadlines += deadline_at is not None
        self.counters.admitted += 1

    def __len__(self) -> int:
        return len(self._heap)

    def pop_batch(self, limit: int | None = None) -> list[Any]:
        """Remove and return the next batch, most urgent first."""
        limit = self.max_batch_size if limit is None else limit
        batch: list[Any] = []
        while self._heap and len(batch) < limit:
            entry = heapq.heappop(self._heap)
            self._deadlines -= entry.deadline_at is not None
            batch.append(entry.item)
        self.counters.dispatched += len(batch)
        return batch

    def pop_expired(self, now: float) -> list[Any]:
        """Remove and return every queued request whose deadline passed."""
        if not self._deadlines:
            return []
        expired = [e for e in self._heap
                   if e.deadline_at is not None and now >= e.deadline_at]
        if expired:
            self._heap = [e for e in self._heap
                          if not (e.deadline_at is not None
                                  and now >= e.deadline_at)]
            heapq.heapify(self._heap)
            self._deadlines -= len(expired)
            self.counters.shed += len(expired)
        return [e.item for e in expired]

    def drain(self) -> list[Any]:
        """Remove and return everything queued (shutdown/crash path)."""
        drained = [e.item for e in sorted(self._heap)]
        self.counters.drained += len(drained)
        self._heap.clear()
        self._deadlines = 0
        return drained

    # -- the hold policy ---------------------------------------------------

    def earliest_deadline(self) -> float | None:
        if not self._deadlines:
            return None
        return min(e.deadline_at for e in self._heap
                   if e.deadline_at is not None)

    def hold_for(self, now: float, window_started_at: float) -> float:
        """Seconds to keep the forming batch open; ``<= 0`` = dispatch."""
        window_left = (window_started_at + self.batch_window_s) - now
        if window_left <= 0:
            return window_left
        earliest = self.earliest_deadline()
        if earliest is None:
            return window_left
        estimate = self.service_times.estimate(
            min(len(self._heap), self.max_batch_size))
        if estimate is None:
            # No observation yet: the deadline itself still bounds the
            # hold — never wait past the point of guaranteed failure.
            slack = earliest - now
        else:
            slack = (earliest - now) - estimate
        if slack < window_left:
            if slack <= 0:
                self.counters.early_closes += 1
            return slack
        return window_left

    def observe_service(self, batch_size: int, seconds: float) -> None:
        self.service_times.observe(batch_size, seconds)

    def stats(self) -> dict:
        return {
            "policy": "edf",
            "queue_depth": len(self._heap),
            "service_time_ewma_s": {
                str(size): seconds
                for size, seconds in
                sorted(self.service_times.snapshot().items())},
            **self.counters.as_dict(),
        }

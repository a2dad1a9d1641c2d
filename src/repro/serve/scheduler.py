"""The one EDF queue: priorities, deadlines, admission, shed and drain.

Both queues of the serving stack are a :class:`BatchScheduler`: each
:class:`~repro.serve.server.PumaServer` has one, and so does each
model at the fleet gateway (:mod:`repro.fleet.gateway`).  Its owner
decides what a request carries and how a batch is served; the queue
decides *which requests leave next*.

**Order.**  Earliest-deadline-first (EDF) within priority: entries
leave by ``(-priority, deadline, arrival)`` — higher ``priority``
strictly first, earliest deadline next, arrival order last.  With no
priorities or deadlines this degenerates to exact FIFO order.

>>> queue = BatchScheduler(max_batch_size=8)
>>> for payload, priority, deadline_at in [("late", 0, 9.0),
...         ("plain", 0, None), ("urgent", 1, None), ("soon", 0, 2.0),
...         ("also-late", 0, 9.0)]:
...     _ = queue.push(payload, None, priority=priority,
...                    deadline_at=deadline_at)
>>> [pending.payload for pending in queue.pop_batch()]
['urgent', 'soon', 'late', 'also-late', 'plain']

**No hold.**  A consumer takes whatever is queued the moment it wakes;
requests that arrive while it serves form its next batch.  PUMA's
weights are stationary, so a batch buys throughput but is never needed
for efficiency, and nothing waits on a clock for company.

**Wake-ups.**  :meth:`wait` parks a consumer until an entry is queued
or :meth:`close` is called.  Each :meth:`push` wakes exactly one parked
consumer, as ``asyncio.Queue`` does, so N dispatchers do not all wake
for one request.

Counter conservation: every admitted request is eventually dispatched,
shed, or drained::

    admitted == dispatched + shed + drained + len(queue)
"""

from __future__ import annotations

import asyncio
import collections
import heapq
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Any

# Weight of the newest observation in the per-size service-time EWMA.
_EWMA_ALPHA = 0.3


@dataclass
class SchedulerCounters:
    """Queue-side accounting, one conservation law.

    Attributes:
        admitted: requests accepted into the queue (post-validation,
            post-admission-control).
        dispatched: requests handed out in some batch.
        shed: requests removed because their deadline expired while
            queued.
        drained: requests removed administratively (a stop without
            drain, a crashed serve loop, a fleet shutting down).
        early_closes: always 0.  It stays in :meth:`BatchScheduler.stats`
            until the benchmark harness, which still reads it, drops
            the key.
    """

    admitted: int = 0
    dispatched: int = 0
    shed: int = 0
    drained: int = 0
    early_closes: int = 0


@dataclass(eq=False)
class _Pending:
    """One queued request and the future its caller awaits.

    ``payload`` is whatever the queue's owner serves the request from:
    the validated input arrays in ``PumaServer``, the wire inputs at the
    gateway.
    """

    payload: Any
    future: "asyncio.Future | None" = field(repr=False)
    # Absolute clock time after which the request is shed, or None.
    deadline_at: float | None = None
    priority: int = 0
    # Arrival order within this queue, stamped by push().
    seq: int = 0
    # Why the gateway's latest dispatch attempt did not answer.
    last_error: str = "no healthy replica available"


class BatchScheduler:
    """The EDF queue: admission bound, expiry shed, drain and wake-ups.

    Args:
        max_batch_size: most entries one :meth:`pop_batch` returns.
        max_queue_depth: admission bound read by :attr:`full` (``None``
            = unbounded).
    """

    def __init__(self, *, max_batch_size: int = 16,
                 max_queue_depth: int | None = None) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, "
                             f"got {max_batch_size}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, "
                             f"got {max_queue_depth}")
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.counters = SchedulerCounters()
        # Per batch size, the EWMA of observed pass times in seconds.
        self.service_ewma_s: dict[int, float] = {}
        self.closed = False
        self._heap: list[tuple[tuple, _Pending]] = []
        # Queued entries carrying a deadline; at zero pop_expired has
        # nothing to find.
        self._deadlines = 0
        self._seq = itertools.count()
        self._waiters: collections.deque = collections.deque()

    # -- queue operations --------------------------------------------------

    def push(self, payload: Any, future: "asyncio.Future | None", *,
             priority: int = 0,
             deadline_at: float | None = None) -> _Pending:
        """Admit one request, wake one parked consumer; its record."""
        pending = _Pending(payload, future, deadline_at, priority,
                           next(self._seq))
        deadline_key = math.inf if deadline_at is None else deadline_at
        heapq.heappush(self._heap,
                       ((-priority, deadline_key, pending.seq), pending))
        self._deadlines += deadline_at is not None
        self.counters.admitted += 1
        self._wake_one()
        return pending

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        """Whether the admission bound refuses the next request."""
        return (self.max_queue_depth is not None
                and len(self._heap) >= self.max_queue_depth)

    def pop_batch(self) -> list[_Pending]:
        """Remove and return the next batch, most urgent first."""
        batch: list[_Pending] = []
        while self._heap and len(batch) < self.max_batch_size:
            _key, pending = heapq.heappop(self._heap)
            self._deadlines -= pending.deadline_at is not None
            batch.append(pending)
        self.counters.dispatched += len(batch)
        return batch

    def pop_expired(self, now: float) -> list[_Pending]:
        """Remove and return every queued request whose deadline passed."""
        if not self._deadlines:
            return []

        def expired(entry) -> bool:
            deadline_at = entry[1].deadline_at
            return deadline_at is not None and now >= deadline_at

        gone = [entry[1] for entry in self._heap if expired(entry)]
        if gone:
            self._heap = [entry for entry in self._heap
                          if not expired(entry)]
            heapq.heapify(self._heap)
            self._deadlines -= len(gone)
            self.counters.shed += len(gone)
        return gone

    def drain(self) -> list[_Pending]:
        """Remove and return everything queued, in EDF order."""
        drained = [pending for _key, pending in sorted(self._heap)]
        self.counters.drained += len(drained)
        self._heap.clear()
        self._deadlines = 0
        return drained

    # -- consumers ---------------------------------------------------------

    async def wait(self) -> None:
        """Park until an entry is queued or the queue is closed."""
        while not self._heap and not self.closed:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            except BaseException:
                waiter.cancel()
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                elif self._heap:
                    # This consumer was woken for an entry, then
                    # cancelled: pass the wake-up on.
                    self._wake_one()
                raise

    def _wake_one(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return

    def close(self) -> None:
        """Wake every parked consumer; :meth:`wait` no longer parks."""
        self.closed = True
        while self._waiters:
            self._wake_one()

    # -- observability -----------------------------------------------------

    def observe_service(self, batch_size: int, seconds: float) -> None:
        """Fold one pass's time into the EWMA for its batch size."""
        previous = self.service_ewma_s.get(batch_size)
        self.service_ewma_s[batch_size] = (
            seconds if previous is None
            else _EWMA_ALPHA * seconds + (1 - _EWMA_ALPHA) * previous)

    def stats(self) -> dict:
        return {
            "policy": "edf",
            "queue_depth": len(self._heap),
            "service_time_ewma_s": {
                str(size): seconds
                for size, seconds in sorted(self.service_ewma_s.items())},
            **asdict(self.counters),
        }

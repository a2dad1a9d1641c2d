"""Injectable time for the serving stack.

Every wall-clock decision in the serving layer — deadline math, EDF
ordering, retry backoff, breaker cooldowns — goes through a
:class:`Clock` so tests can replace real time with a
:class:`VirtualClock` and drive the schedule deterministically: no real
sleeps, no timing flakes, and a 5-second wait costs 0 wall seconds to
test.

Production uses :class:`MonotonicClock`, a thin veneer over the event
loop's monotonic time and ``asyncio.sleep`` — behaviorally identical to
the pre-clock code.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from typing import Protocol


class Clock(Protocol):
    """The time surface the serving stack consumes.

    ``now()`` is monotonic seconds (arbitrary epoch); ``sleep(delay)``
    suspends the calling coroutine for ``delay`` seconds *of this
    clock*.  Implementations must guarantee that a sleeper never wakes
    before ``now()`` has advanced past its wake time.
    """

    def now(self) -> float:  # pragma: no cover - protocol
        ...

    async def sleep(self, delay: float) -> None:  # pragma: no cover
        ...


class MonotonicClock:
    """Real time: ``time.monotonic`` + ``asyncio.sleep``."""

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)


class VirtualClock:
    """Deterministic simulated time, advanced explicitly by the test.

    ``sleep(delay)`` parks the caller on a heap of waiters; nothing
    wakes until the test calls ``await advance(dt)``, which steps
    ``now()`` through each due wake time in order (releasing waiters and
    yielding to the loop at every step, so a woken coroutine runs — and
    may schedule new sleeps — before time moves past it).  Time never
    passes on its own, so a test can assert *exactly* what happens at a
    deadline.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []
        self._tie = itertools.count()

    def now(self) -> float:
        return self._now

    async def sleep(self, delay: float) -> None:
        if delay <= 0:
            # Still a suspension point, like asyncio.sleep(0).
            await asyncio.sleep(0)
            return
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        heapq.heappush(self._sleepers,
                       (self._now + delay, next(self._tie), waiter))
        await waiter

    async def advance(self, delta: float) -> None:
        """Move simulated time forward by ``delta`` seconds.

        Wakes every sleeper whose wake time falls inside the step, in
        wake-time order, yielding to the event loop between wakes (and
        generously at the end) so the woken coroutines get scheduled
        under the intermediate timestamps they expect.
        """
        if delta < 0:
            raise ValueError(f"cannot advance time backwards ({delta})")
        target = self._now + delta
        while self._sleepers and self._sleepers[0][0] <= target:
            wake_at, _, waiter = heapq.heappop(self._sleepers)
            self._now = max(self._now, wake_at)
            if not waiter.done():  # cancelled sleeps just drop out
                waiter.set_result(None)
            # Let the woken coroutine (and anything it triggers) run
            # before time advances further.
            for _ in range(3):
                await asyncio.sleep(0)
        self._now = target
        for _ in range(3):
            await asyncio.sleep(0)

    @property
    def pending_sleepers(self) -> int:
        """How many coroutines are parked waiting for ``advance``."""
        return sum(1 for _, _, w in self._sleepers if not w.done())

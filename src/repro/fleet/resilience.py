"""Fleet resilience policies: circuit breakers and retry backoff.

Real deployments degrade *continuously* — memristor nodes drift, links
flap, replicas stall.  The gateway's control plane meets that steady
state with deadlines, admission, health-driven eviction and respawn, a
bounded drain, and the two policies here:

* :class:`CircuitBreaker` — consecutive failures open it, a half-open
  probe closes it: the fast path around a sick replica while the
  slower health loop decides on eviction;
* :func:`backoff_delay` — capped exponential backoff with
  *deterministic* jitter, so retry storms are bounded and tests replay
  bit-for-bit.

Both are seeded and clock-injectable, so unit tests drive cooldowns and
schedules without real time.  The faults these policies answer are
injected only from the tests (``tests/fleet_faults.py`` faults the
gateway's connection pool): the product carries no fault injector and
no endpoint that arms one.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable


class CircuitBreaker:
    """Per-replica circuit breaker: fail fast, probe, recover.

    State machine (``docs/fleet.md`` draws it):

    * **closed** — traffic flows; ``failure_threshold`` *consecutive*
      failures trip it open;
    * **open** — the replica is skipped entirely (the fast path that
      replaces waiting for the health loop to evict) until
      ``cooldown_s`` elapses;
    * **half-open** — probe traffic is admitted again; the first
      success closes the breaker, the first failure re-opens it with a
      fresh cooldown.

    Deterministic and clock-injectable, like everything in this module.

    >>> clock = iter([0.1, 0.1, 0.1, 0.9]).__next__
    >>> breaker = CircuitBreaker(failure_threshold=2, cooldown_s=0.5,
    ...                          clock=clock)
    >>> breaker.record_failure(); breaker.record_failure()
    >>> breaker.state, breaker.allow()          # tripped at t=0.1
    ('open', False)
    >>> breaker.state                           # cooled down at t=0.9
    'half-open'
    >>> breaker.record_success(); breaker.state
    'closed'
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, *, failure_threshold: int = 3,
                 cooldown_s: float = 0.5,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, "
                             f"got {failure_threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.opens = 0                  # cumulative open transitions
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state; lazily moves open -> half-open on cooldown."""
        if self._state == self.OPEN and \
                self.clock() - self._opened_at >= self.cooldown_s:
            self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a request be dispatched to this replica right now?"""
        return self.state != self.OPEN

    def record_success(self) -> None:
        self._failures = 0
        self._state = self.CLOSED

    def record_failure(self) -> None:
        state = self.state
        if state == self.HALF_OPEN:
            self._trip()                # failed probe: straight back open
            return
        self._failures += 1
        if state == self.CLOSED and \
                self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._opened_at = self.clock()
        self.opens += 1
        self._failures = 0


def backoff_delay(attempt: int, *, base_s: float = 0.02,
                  cap_s: float = 0.5, seed: int = 0,
                  token: int = 0) -> float:
    """Capped exponential backoff with *deterministic* jitter.

    The raw delay doubles per attempt (``base_s * 2**attempt``) and
    caps at ``cap_s``; jitter scales it into ``[raw/2, raw]`` using a
    hash of ``(seed, token, attempt)`` — no global RNG, so concurrent
    requests (distinct tokens) decorrelate *and* a replayed test run
    sleeps the identical schedule.

    >>> backoff_delay(0) == backoff_delay(0)
    True
    >>> backoff_delay(9, base_s=0.02, cap_s=0.5) <= 0.5
    True
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if base_s <= 0 or cap_s <= 0:
        raise ValueError("base_s and cap_s must be positive")
    raw = min(cap_s, base_s * (2.0 ** attempt))
    digest = hashlib.sha256(
        f"backoff:{seed}:{token}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return raw * (0.5 + 0.5 * fraction)

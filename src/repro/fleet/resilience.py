"""Fleet resilience primitives: chaos injection, breakers, backoff.

PR 7 gave the fleet a health loop that survives the failures the tests
hand-script; real deployments degrade *continuously* — memristor nodes
drift, links flap, replicas stall.  This module is the software
analogue of designing for that steady state, in two halves:

* the **deterministic fault-injection harness** — a :class:`FaultPlan`
  is a seeded schedule of :class:`FaultEvent` windows (connection
  drops, response delays, 5xx/garbage bodies, worker hang, worker
  crash, slow replica, blob corruption-on-read).  Workers and the
  gateway honor an armed plan through a :class:`FaultInjector`, so a
  test can *prove* behavior under failure instead of hoping;
* the **resilience policies** the harness validates —
  :class:`CircuitBreaker` (consecutive-failure threshold opens, a
  half-open probe closes) and :func:`backoff_delay` (capped
  exponential backoff with *deterministic* jitter, so retry storms are
  bounded and tests replay bit-for-bit).

Everything here is seeded and clock-injectable: two runs of the same
plan fire the same faults, and a unit test can drive windows with a
fake clock.  The invariant the chaos soak
(``tests/test_fleet_e2e.py``) asserts on top: under *any* injected
fault, every completed response stays bitwise identical to the
single-engine reference, and every non-completed request fails loudly
with a typed status — zero wrong answers, zero hangs.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: The seven fault kinds the harness injects (``docs/fleet.md`` has the
#: taxonomy table).  ``error`` covers both clean 5xx replies and
#: garbage bodies (``garbage=True``).
FAULT_KINDS = ("drop", "delay", "error", "hang", "crash", "slow",
               "corrupt_blob")

#: Kinds a worker process honors (everything request/process-level).
WORKER_FAULT_KINDS = ("drop", "delay", "error", "hang", "crash", "slow")

#: Kinds the gateway honors (the artifact plane).
GATEWAY_FAULT_KINDS = ("corrupt_blob",)

# The chaos control plane and graceful shutdown must stay reachable
# even on a fully faulted worker, or tests could not disarm anything.
_PROTECTED_PATHS = ("/v1/chaos", "/v1/shutdown")


class FaultPlanError(ValueError):
    """A fault plan or fault event is malformed."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault window.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        at_s: window start, in seconds after the plan is armed.
        duration_s: window length; ``0`` means the window stays open
            until its ``count`` is exhausted (or forever).
        worker: spawn-order worker index the fault targets; ``None``
            targets every worker (ignored for ``corrupt_blob``, which
            is gateway-side).
        path: only fault requests on this exact path (``None`` = any
            path except the chaos/shutdown control endpoints).
        delay_s: added response latency for ``delay`` / ``slow``.
        garbage: for ``error``: answer 200 with a garbage (non-JSON)
            body instead of a clean 500.
        count: at most this many requests are faulted (``None`` =
            every matching request inside the window).
    """

    kind: str
    at_s: float = 0.0
    duration_s: float = 0.0
    worker: int | None = None
    path: str | None = None
    delay_s: float = 0.0
    garbage: bool = False
    count: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if self.at_s < 0 or self.duration_s < 0 or self.delay_s < 0:
            raise FaultPlanError(
                f"{self.kind}: at_s/duration_s/delay_s must be >= 0")
        if self.count is not None and self.count < 1:
            raise FaultPlanError(
                f"{self.kind}: count must be >= 1 when given, "
                f"got {self.count}")
        if self.kind in ("delay", "slow") and self.delay_s <= 0:
            raise FaultPlanError(
                f"{self.kind}: needs a positive delay_s")
        if self.kind == "hang" and self.duration_s <= 0:
            raise FaultPlanError("hang: needs a positive duration_s "
                                 "(how long health goes unanswered)")

    def to_dict(self) -> dict[str, Any]:
        """The JSON wire form (:meth:`from_dict` inverts it)."""
        return {"kind": self.kind, "at_s": self.at_s,
                "duration_s": self.duration_s, "worker": self.worker,
                "path": self.path, "delay_s": self.delay_s,
                "garbage": self.garbage, "count": self.count}

    @classmethod
    def from_dict(cls, data: Any) -> "FaultEvent":
        if not isinstance(data, dict) or "kind" not in data:
            raise FaultPlanError(
                f"fault event must be an object with a 'kind', "
                f"got {data!r}")
        try:
            return cls(
                kind=data["kind"],
                at_s=float(data.get("at_s", 0.0)),
                duration_s=float(data.get("duration_s", 0.0)),
                worker=(None if data.get("worker") is None
                        else int(data["worker"])),
                path=data.get("path"),
                delay_s=float(data.get("delay_s", 0.0)),
                garbage=bool(data.get("garbage", False)),
                count=(None if data.get("count") is None
                       else int(data["count"])))
        except (TypeError, ValueError) as error:
            if isinstance(error, FaultPlanError):
                raise
            raise FaultPlanError(
                f"malformed fault event {data!r}: {error}") from error


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of fault events — the chaos harness's input.

    The plan is a *value*: JSON round-trippable (``to_dict`` /
    ``from_dict``, ``save`` / ``load`` for the ``--chaos PLAN.json``
    CLI flag) and deterministic — the ``seed`` fixes every derived
    random choice (which byte a ``corrupt_blob`` flips, the sampled
    offsets of :meth:`sample`), so two runs of one plan inject the
    identical fault sequence.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed,
                "events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be an object, got {type(data).__name__}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise FaultPlanError("fault plan 'events' must be a list")
        try:
            seed = int(data.get("seed", 0))
        except (TypeError, ValueError) as error:
            raise FaultPlanError(
                f"fault plan seed must be an int: {error}") from error
        return cls(events=tuple(FaultEvent.from_dict(e) for e in events),
                   seed=seed)

    def save(self, path: str | Path) -> Path:
        import json

        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        import json

        try:
            with open(path, encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except (OSError, ValueError) as error:
            if isinstance(error, FaultPlanError):
                raise
            raise FaultPlanError(f"{path}: {error}") from error

    def for_worker(self, index: int) -> tuple[FaultEvent, ...]:
        """The worker-side events targeting spawn-order ``index``."""
        return tuple(event for event in self.events
                     if event.kind in WORKER_FAULT_KINDS
                     and event.worker in (None, index))

    def gateway_events(self) -> tuple[FaultEvent, ...]:
        """The gateway-side events (the artifact plane's faults)."""
        return tuple(event for event in self.events
                     if event.kind in GATEWAY_FAULT_KINDS)

    @classmethod
    def sample(cls, seed: int = 0, *, workers: int = 2,
               start_s: float = 0.0, window_s: float = 2.0,
               delay_s: float = 0.1) -> "FaultPlan":
        """A seeded plan touching all seven fault kinds.

        Offsets are drawn deterministically from ``seed`` inside
        ``[start_s, start_s + window_s)``; faults are spread round-robin
        over ``workers`` so no single worker absorbs everything.  The
        crash targets the last worker index (its replacement gets a
        fresh index the plan never mentions, so recovery is clean).
        """
        if workers < 1:
            raise FaultPlanError(f"workers must be >= 1, got {workers}")

        def offset(token: str) -> float:
            digest = hashlib.sha256(
                f"faultplan:{seed}:{token}".encode()).digest()
            frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64
            return start_s + frac * window_s

        span = max(window_s / 2.0, 0.1)
        events = [
            FaultEvent("drop", at_s=offset("drop"), duration_s=span,
                       worker=0 % workers, count=2),
            FaultEvent("delay", at_s=offset("delay"), duration_s=span,
                       worker=1 % workers, delay_s=delay_s, count=3),
            FaultEvent("error", at_s=offset("5xx"), duration_s=span,
                       worker=0 % workers, count=2),
            FaultEvent("error", at_s=offset("garbage"), duration_s=span,
                       worker=1 % workers, garbage=True, count=2),
            FaultEvent("slow", at_s=start_s, duration_s=window_s,
                       worker=0 % workers, delay_s=delay_s / 2.0),
            FaultEvent("hang", at_s=offset("hang"), duration_s=span,
                       worker=1 % workers),
            FaultEvent("crash", at_s=offset("crash"),
                       worker=workers - 1),
            FaultEvent("corrupt_blob", at_s=start_s,
                       duration_s=window_s * 4.0, count=1),
        ]
        return cls(events=tuple(events), seed=seed)


@dataclass
class FaultDecision:
    """What the injector wants done to one request, right now."""

    sleep_s: float = 0.0
    drop: bool = False
    error: bool = False
    garbage: bool = False

    @property
    def faulted(self) -> bool:
        return bool(self.sleep_s or self.drop or self.error)


class _Armed:
    """One armed event: absolute window + remaining fire budget."""

    __slots__ = ("event", "start", "end", "remaining")

    def __init__(self, event: FaultEvent, start: float) -> None:
        self.event = event
        self.start = start
        # duration 0 = open-ended: bounded by count, or deliberate.
        self.end = (start + event.duration_s if event.duration_s > 0
                    else float("inf"))
        self.remaining = event.count        # None = unlimited

    def active(self, now: float) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        return self.start <= now < self.end


class FaultInjector:
    """Executes an armed fault schedule against live traffic.

    One injector lives in each worker process (wrapping its HTTP
    handler) and one in the gateway (wrapping the artifact plane).
    Deterministic and test-friendly: the clock is injectable, crash
    behavior is a replaceable callable, and :meth:`ledger` reports
    exactly which faults fired how often.

    Args:
        seed: drives derived randomness (corruption byte positions).
        clock: monotonic time source (fake-able in unit tests).
        on_crash: what a ``crash`` event does (default: hard
            ``os._exit(1)``, the honest simulation of a dying process).
    """

    def __init__(self, *, seed: int = 0,
                 clock: Callable[[], float] = time.monotonic,
                 on_crash: Callable[[], None] | None = None) -> None:
        self.seed = seed
        self.clock = clock
        self.on_crash = on_crash or (lambda: os._exit(1))
        self._armed: list[_Armed] = []
        self._crash_tasks: list[asyncio.Task] = []
        self.fired: dict[str, int] = {}

    # -- arming --------------------------------------------------------------

    def arm(self, events, *, now: float | None = None) -> int:
        """Arm ``events`` with windows relative to ``now`` (default:
        the clock's current reading).  Crash events get a timer task
        when an event loop is running; otherwise :meth:`crash_due`
        lets a synchronous caller poll.  Returns how many events were
        armed."""
        t0 = self.clock() if now is None else now
        count = 0
        for event in events:
            armed = _Armed(event, t0 + event.at_s)
            self._armed.append(armed)
            count += 1
            if event.kind == "crash":
                self._spawn_crash_timer(armed)
        return count

    def _spawn_crash_timer(self, armed: _Armed) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return                       # sync context: poll crash_due()

        async def die_later() -> None:
            delay = max(0.0, armed.start - self.clock())
            await asyncio.sleep(delay)
            self._count(armed)
            self.on_crash()

        self._crash_tasks.append(loop.create_task(die_later()))

    def disarm(self) -> None:
        """Drop every armed event and cancel pending crash timers."""
        self._armed.clear()
        for task in self._crash_tasks:
            task.cancel()
        self._crash_tasks.clear()

    # -- firing --------------------------------------------------------------

    def _count(self, armed: _Armed) -> None:
        if armed.remaining is not None:
            armed.remaining -= 1
        kind = armed.event.kind
        self.fired[kind] = self.fired.get(kind, 0) + 1

    def decide(self, path: str) -> FaultDecision:
        """Worker-side: the combined fault action for a request on
        ``path`` at the current clock reading.  Consumes fire budget
        for every matching event."""
        decision = FaultDecision()
        if path in _PROTECTED_PATHS:
            return decision
        now = self.clock()
        for armed in self._armed:
            event = armed.event
            if event.kind not in ("drop", "delay", "error", "hang",
                                  "slow"):
                continue
            if not armed.active(now):
                continue
            if event.path is not None and event.path != path:
                continue
            if event.kind == "drop":
                decision.drop = True
            elif event.kind == "error":
                decision.error = True
                decision.garbage = decision.garbage or event.garbage
            elif event.kind == "hang":
                # Answer nothing until the window has fully passed.
                decision.sleep_s = max(decision.sleep_s,
                                       armed.end - now)
            else:                        # delay / slow
                decision.sleep_s += event.delay_s
            self._count(armed)
        return decision

    def take(self, kind: str) -> FaultEvent | None:
        """Gateway-side: consume one active event of ``kind`` (or
        ``None``).  Used for ``corrupt_blob`` on artifact reads."""
        now = self.clock()
        for armed in self._armed:
            if armed.event.kind == kind and armed.active(now):
                self._count(armed)
                return armed.event
        return None

    def crash_due(self) -> bool:
        """Synchronous crash poll (when no event loop armed a timer)."""
        now = self.clock()
        for armed in self._armed:
            if armed.event.kind == "crash" and armed.active(now):
                self._count(armed)
                return True
        return False

    def corrupt(self, data: bytes) -> bytes:
        """Deterministically flip one byte of ``data``.

        The position derives from (seed, how many corruptions fired
        before this one), so a replayed plan corrupts the same byte —
        and the flip keeps the *declared* digest untouched, which is
        exactly what disk/wire corruption looks like to a verifying
        receiver."""
        if not data:
            return data
        token = self.fired.get("corrupt_blob", 0)
        digest = hashlib.sha256(
            f"corrupt:{self.seed}:{token}".encode()).digest()
        position = int.from_bytes(digest[:8], "big") % len(data)
        corrupted = bytearray(data)
        corrupted[position] ^= 0xFF
        return bytes(corrupted)

    # -- observability -------------------------------------------------------

    def active_kinds(self) -> list[str]:
        now = self.clock()
        return sorted({armed.event.kind for armed in self._armed
                       if armed.active(now)})

    def ledger(self) -> dict[str, Any]:
        """The fault ledger: what was armed, what fired, what's live."""
        return {"armed": len(self._armed),
                "fired": dict(sorted(self.fired.items())),
                "active": self.active_kinds()}


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

    >>> clock = iter([0.0, 0.0, 0.0, 0.1, 0.9, 0.9, 1.0]).__next__
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

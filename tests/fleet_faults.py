"""Fault injection for the fleet, at its transport — test-only.

The product carries no fault injector and no endpoint that arms one.
The gateway talks to its workers through one seam, ``PumaFleet.pool``
(a :class:`~repro.fleet.http.ConnectionPool`); a test faults the fleet
by installing :class:`FaultyPool` there before ``start()``::

    pool = FaultyPool([Fault("drop", worker="w0", path="/v1/predict",
                             count=2)])
    fleet.pool = pool
    async with fleet:
        pool.arm(fleet)          # windows count from here
        ...
    assert pool.fired == {"drop": 2}

The seven fault kinds keep the meaning the fleet's resilience contract
is written against (``docs/fleet.md``):

* ``drop`` — the exchange raises :class:`FleetConnectionError` without
  reaching the worker;
* ``delay`` / ``slow`` — sleep ``delay_s``, then make the real request;
* ``error`` — answer a clean 500 without sending; with ``garbage``, a
  200 whose body is not JSON;
* ``hang`` — sleep until the window ends, then make the real request;
  if the call's ``timeout`` runs out first, raise
  :class:`FleetTimeoutError`, :meth:`HttpConnection.request`'s own
  contract;
* ``crash`` — at ``at_s``, kill worker ``worker``'s process;
* ``corrupt_blob`` — at ``at_s`` (or as soon as one exists inside the
  window), flip one byte of up to ``count`` stored artifact blobs and
  leave their ``.sha256`` sidecars stale, so the pulling worker's
  digest check is what must catch it.

Health probes use their own connections, so they never pass through
the pool and stay clean.  Every window and byte position is a function
of the arming time and ``seed``; :attr:`FaultyPool.fired` is the ledger.

The load a fault soak offers comes from here too: :func:`bursty_offsets`
is a seeded on/off-burst arrival schedule, and :func:`open_loop` fires
one ``POST /v1/predict`` per offset at a front door and tallies how
each one ended.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fleet.http import (
    ConnectionPool,
    FleetConnectionError,
    FleetTimeoutError,
    HttpResponse,
    error_response,
)
from repro.fleet.netstore import BLOB_SUFFIX

FAULT_KINDS = ("drop", "delay", "error", "hang", "crash", "slow",
               "corrupt_blob")

# The kinds a request meets in the pool; crash and corrupt_blob are
# timers against the fleet's processes and blob store.
REQUEST_KINDS = ("drop", "delay", "error", "hang", "slow")

GARBAGE_BODY = b"\x00chaos{{this is not json"


@dataclass(frozen=True)
class Fault:
    """One scheduled fault window.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        at_s: window start, in seconds after :meth:`FaultyPool.arm`.
        duration_s: window length; ``0`` keeps it open until ``count``
            is spent (or forever).
        worker: worker id (``"w0"``) the fault targets; ``None`` means
            every worker.  ``crash`` needs one.
        path: only fault requests on this exact path (``None`` = any).
        delay_s: added latency for ``delay`` / ``slow``.
        garbage: for ``error``: a 200 with a garbage body, not a 500.
        count: fire at most this many times (``None`` = unlimited).
    """

    kind: str
    at_s: float = 0.0
    duration_s: float = 0.0
    worker: str | None = None
    path: str | None = None
    delay_s: float = 0.0
    garbage: bool = False
    count: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in ("delay", "slow") and self.delay_s <= 0:
            raise ValueError(f"{self.kind} needs a positive delay_s")
        if self.kind == "hang" and self.duration_s <= 0:
            raise ValueError("hang needs a positive duration_s")
        if self.kind == "crash" and self.worker is None:
            raise ValueError("crash needs a target worker")


class _Armed:
    """One armed fault: absolute window + remaining fire budget."""

    def __init__(self, fault: Fault, t0: float) -> None:
        self.fault = fault
        self.start = t0 + fault.at_s
        self.end = (self.start + fault.duration_s if fault.duration_s > 0
                    else float("inf"))
        self.remaining = fault.count

    def active(self, now: float) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        return self.start <= now < self.end


class FaultyPool(ConnectionPool):
    """A :class:`ConnectionPool` that faults the exchanges it carries.

    Nothing fires before :meth:`arm`.  ``clock`` reads the time windows
    are judged on (injectable for unit tests); sleeps are real.
    """

    def __init__(self, faults, *, seed: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__()
        self.faults = tuple(faults)
        self.seed = seed
        self.clock = clock
        self.fired: dict[str, int] = {}
        self.fleet = None
        self._armed: list[_Armed] = []
        self._timers: list[asyncio.Task] = []

    def arm(self, fleet=None, *, now: float | None = None) -> None:
        """Open every window relative to ``now`` (default: the clock).

        With a running ``fleet``, request faults resolve worker ids to
        its live workers, and ``crash`` / ``corrupt_blob`` start their
        timers on the running loop.
        """
        t0 = self.clock() if now is None else now
        self.fleet = fleet
        self._armed = [_Armed(fault, t0) for fault in self.faults]
        if fleet is None:
            return
        for armed in self._armed:
            if armed.fault.kind == "crash":
                self._timers.append(asyncio.create_task(self._crash(armed)))
            elif armed.fault.kind == "corrupt_blob":
                self._timers.append(
                    asyncio.create_task(self._corrupt(armed)))

    def _count(self, armed: _Armed) -> None:
        if armed.remaining is not None:
            armed.remaining -= 1
        kind = armed.fault.kind
        self.fired[kind] = self.fired.get(kind, 0) + 1

    def decide(self, worker: str | None, path: str) -> tuple[float, str]:
        """``(sleep_s, outcome)`` for one request to ``worker`` on
        ``path`` now; ``outcome`` is ``"send"``, ``"drop"``, ``"error"``
        or ``"garbage"``.  Consumes fire budget of every match."""
        now = self.clock()
        sleep_s, drop, error, garbage = 0.0, False, False, False
        for armed in self._armed:
            fault = armed.fault
            if fault.kind not in REQUEST_KINDS or not armed.active(now):
                continue
            if fault.worker not in (None, worker) or \
                    fault.path not in (None, path):
                continue
            if fault.kind == "drop":
                drop = True
            elif fault.kind == "error":
                error = True
                garbage = garbage or fault.garbage
            elif fault.kind == "hang":
                sleep_s = max(sleep_s, armed.end - now)
            else:                                   # delay / slow
                sleep_s += fault.delay_s
            self._count(armed)
        if drop:
            return sleep_s, "drop"
        if error:
            return sleep_s, "garbage" if garbage else "error"
        return sleep_s, "send"

    def _worker_at(self, host: str, port: int) -> str | None:
        if self.fleet is None:
            return None
        for worker_id, handle in self.fleet.manager.workers.items():
            if (handle.host, handle.port) == (host, port):
                return worker_id
        return None

    async def request(self, host: str, port: int, method: str, path: str,
                      body: bytes = b"",
                      headers: dict[str, str] | None = None,
                      timeout: float | None = None) -> HttpResponse:
        sleep_s, outcome = self.decide(self._worker_at(host, port), path)
        if sleep_s > 0:
            if timeout is not None and sleep_s >= timeout:
                await asyncio.sleep(timeout)
                raise FleetTimeoutError(
                    f"request {method} {path} to {host}:{port} timed out "
                    f"after {timeout}s (injected hang)")
            await asyncio.sleep(sleep_s)
            if timeout is not None:
                timeout -= sleep_s
        if outcome == "drop":
            raise FleetConnectionError(
                f"{host}:{port} dropped {method} {path} (injected)")
        if outcome == "garbage":
            return HttpResponse(
                status=200, headers={"content-type": "application/json"},
                body=GARBAGE_BODY)
        if outcome == "error":
            return error_response(500, "injected fault",
                                  reason="injected_error")
        return await super().request(host, port, method, path, body,
                                     headers, timeout)

    async def _crash(self, armed: _Armed) -> None:
        await asyncio.sleep(max(0.0, armed.start - self.clock()))
        handle = self.fleet.manager.workers.get(armed.fault.worker)
        if handle is not None and armed.active(self.clock()):
            handle.process.kill()
            self._count(armed)

    async def _corrupt(self, armed: _Armed) -> None:
        await asyncio.sleep(max(0.0, armed.start - self.clock()))
        while armed.active(self.clock()):
            keys = self.fleet.blobs.keys()
            if keys:
                for key in keys[:armed.remaining]:
                    path = self.fleet.blobs.root / f"{key}{BLOB_SUFFIX}"
                    path.write_bytes(self.corrupt(path.read_bytes()))
                    self._count(armed)
                return
            await asyncio.sleep(0.01)

    def corrupt(self, data: bytes) -> bytes:
        """``data`` with one byte flipped; the position is a function of
        ``seed`` and how many corruptions fired before this one."""
        token = self.fired.get("corrupt_blob", 0)
        digest = hashlib.sha256(
            f"corrupt:{self.seed}:{token}".encode()).digest()
        position = int.from_bytes(digest[:8], "big") % len(data)
        flipped = bytearray(data)
        flipped[position] ^= 0xFF
        return bytes(flipped)

    async def close(self) -> None:
        for task in self._timers:
            task.cancel()
        await asyncio.gather(*self._timers, return_exceptions=True)
        self._timers.clear()
        await super().close()


def bursty_offsets(count: int, *, rate_rps: float, burst_every_s: float,
                   burst_len_s: float, burst_multiplier: float,
                   seed: int) -> list[float]:
    """``count`` arrival offsets in seconds, deterministic in ``seed``.

    Inter-arrival times are exponential at ``rate_rps``, and at
    ``rate_rps * burst_multiplier`` while ``now`` lies in the first
    ``burst_len_s`` of every ``burst_every_s`` — an on/off burst shape
    that stresses queueing far more than its average rate suggests.
    """
    rng = np.random.default_rng(seed)
    offsets, now = [], 0.0
    for _ in range(count):
        in_burst = (now % burst_every_s) < burst_len_s
        rate = rate_rps * (burst_multiplier if in_burst else 1.0)
        now += float(rng.exponential(1.0 / rate))
        rng.random()    # the retired model draw: keeps the soak's offsets
        offsets.append(now)
    return offsets


async def open_loop(host: str, port: int, offsets: list[float],
                    payload_for: Callable[[int], dict],
                    on_reply: Callable[[int, HttpResponse], None], *,
                    timeout_s: float = 120.0) -> tuple[Counter, list[str]]:
    """Fire request ``i`` (body ``payload_for(i)``) at ``offsets[i]``.

    Open loop: every request is its own task, so a saturated fleet
    shows up as latency, never as a slower offered load.  Each 200
    goes to ``on_reply(i, response)``.  Returns ``(tally, errors)``:
    ``tally`` counts each request's end once, keyed by HTTP status,
    ``"timeout"`` (no reply within ``timeout_s``) or ``"transport"``
    (the connection failed); ``errors`` describes the first twenty
    that did not end in a 200.
    """
    pool = ConnectionPool()
    tally: Counter = Counter()
    errors: list[str] = []
    start = time.monotonic()

    async def fire(index: int) -> None:
        await asyncio.sleep(offsets[index] - (time.monotonic() - start))
        body = json.dumps(payload_for(index)).encode()
        try:
            response = await pool.request(
                host, port, "POST", "/v1/predict", body=body,
                headers={"Content-Type": "application/json"},
                timeout=timeout_s)
        except FleetTimeoutError as error:
            outcome, detail = "timeout", str(error)
        except FleetConnectionError as error:
            outcome, detail = "transport", str(error)
        else:
            outcome, detail = response.status, response.body[:120]
            if outcome == 200:
                on_reply(index, response)
        tally[outcome] += 1
        if outcome != 200 and len(errors) < 20:
            errors.append(f"request {index}: {outcome} {detail!r}")

    try:
        await asyncio.gather(*(fire(i) for i in range(len(offsets))))
    finally:
        await pool.close()
    return tally, errors

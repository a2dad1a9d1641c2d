"""The harness's own load loops: a closed loop and a Poisson open loop.

Deliberately independent of ``repro.fleet.loadgen``: that module times
from *send* and lives under ``src/`` where a performance change could
alter it.  Here the open loop times every op from its *due* time, so a
stall is charged to every request it delays, and reports how late the
generator itself ran.

An *op* is ``async def op(i) -> None``: it performs request ``i`` of the
workload's seeded stream, checks the reply bitwise, and raises
:class:`OpFailure` when anything is wrong.  The loops only count and
time.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Iterator, Sequence

import numpy as np

from puma_bench.measure import median, now

FAILURE_KINDS = ("timeout", "rejected", "transport", "mismatch", "error")

# Open-loop validity (see open_loop): a segment that cannot keep up with
# its schedule measures the backlog, not the system.
MIN_ACHIEVED_SHARE = 0.97
BACKLOG_FLOOR = 32
BACKLOG_FACTOR = 8

Op = Callable[[int], Awaitable[None]]


class OpFailure(Exception):
    """One op failed; ``kind`` is one of :data:`FAILURE_KINDS`.

    ``timeout``: no reply in time.  ``rejected``: a typed refusal (non-200
    status, admission/deadline error).  ``transport``: the connection
    failed.  ``mismatch``: a reply arrived whose words differ from the
    reference.  ``error``: any other exception.
    """

    def __init__(self, kind: str, detail: str = "") -> None:
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail


@dataclass
class Phase:
    """What one loop run attempted, and how it went."""

    name: str
    attempted: int = 0
    ok: int = 0
    failures: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FAILURE_KINDS, 0))
    first_failure: str = ""
    # (stream index, latency in ms) of every op that succeeded.
    samples: list[tuple[int, float]] = field(default_factory=list)
    wall_s: float = 0.0
    # Open loop only.
    late_ms: list[float] = field(default_factory=list)
    offered_ops_s: float = 0.0
    saturated: bool = False

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind] += 1
        if not self.first_failure:
            self.first_failure = f"{kind}: {detail}"

    def latencies_ms(self) -> list[float]:
        return [latency for _i, latency in self.samples]

    def line(self) -> str:
        kinds = " ".join(f"{kind} {count}"
                         for kind, count in self.failures.items())
        text = (f"{self.name}: attempted {self.attempted} ok {self.ok} "
                f"failed {self.failed} ({kinds})")
        if self.first_failure:
            text += f" first failure: {self.first_failure}"
        if self.saturated:
            text += " SATURATED"
        return text


async def _run_op(phase: Phase, op: Op, i: int, origin: float) -> None:
    """Run op ``i``, timing it from ``origin``; classify any failure."""
    phase.attempted += 1
    try:
        await op(i)
    except OpFailure as failure:
        phase.fail(failure.kind, failure.detail)
    except asyncio.CancelledError:
        raise
    except Exception as error:  # noqa: BLE001 - counted, never hidden
        phase.fail("error", f"{type(error).__name__}: {error}")
    else:
        phase.ok += 1
        phase.samples.append((i, (now() - origin) * 1e3))


async def closed_loop(name: str, op: Op, callers: int,
                      indices: Iterator[int],
                      seconds: float | None = None) -> Phase:
    """``callers`` clients, each sending its next op when the last returns.

    Zero think time.  Runs until ``seconds`` have passed (ops in flight
    then still complete and count) or ``indices`` is exhausted.
    """
    phase = Phase(name)
    started = now()
    stop_at = started + seconds if seconds is not None else math.inf

    async def caller() -> None:
        while now() < stop_at:
            i = next(indices, None)
            if i is None:
                return
            await _run_op(phase, op, i, now())

    tasks = [asyncio.create_task(caller()) for _ in range(callers)]
    await asyncio.gather(*tasks)
    phase.wall_s = now() - started
    return phase


def poisson_schedule(rng: np.random.Generator, rate_per_s: float,
                     count: int) -> np.ndarray:
    """``count`` due times (seconds from the segment start), Poisson."""
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=count))


async def open_loop(name: str, op: Op, due_s: Sequence[float],
                    first_index: int) -> Phase:
    """Send op ``first_index + k`` at ``due_s[k]`` whatever came back.

    Latency runs from the due time.  ``late_ms`` is how far behind its
    schedule the generator sent each op.  The phase is ``saturated`` when
    achieved throughput falls below 0.97 of the offered rate, or the
    backlog at the last send exceeds both 32 requests and 8x the
    segment's median in-flight count (still growing, not a blip).
    """
    phase = Phase(name)
    started = now()
    tasks: list[asyncio.Task] = []
    inflight = 0
    inflight_at_send: list[int] = []

    async def fire(i: int, due_at: float) -> None:
        nonlocal inflight
        inflight += 1
        try:
            await _run_op(phase, op, i, due_at)
        finally:
            inflight -= 1

    for k, due in enumerate(due_s):
        due_at = started + float(due)
        # Always yield once, so ops already sent make progress even when
        # the generator is behind its schedule.
        await asyncio.sleep(max(0.0, due_at - now()))
        phase.late_ms.append(max(0.0, now() - due_at) * 1e3)
        inflight_at_send.append(inflight)
        tasks.append(asyncio.create_task(fire(first_index + k, due_at)))
    await asyncio.gather(*tasks)
    phase.wall_s = now() - started
    phase.offered_ops_s = len(due_s) / float(due_s[-1])
    achieved = phase.ok / phase.wall_s
    backlog_limit = max(BACKLOG_FLOOR,
                        BACKLOG_FACTOR * median(inflight_at_send))
    phase.saturated = (achieved < MIN_ACHIEVED_SHARE * phase.offered_ops_s
                       or inflight_at_send[-1] > backlog_limit)
    return phase

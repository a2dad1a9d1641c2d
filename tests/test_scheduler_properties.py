"""Property tests for the batch scheduler: 200+ seeded cases.

The scheduler (:mod:`repro.serve.scheduler`) is one EDF queue; its
queue operations need no event loop, so it can be driven through a
miniature discrete-event simulation with total control over time.  Two
properties, each over a seeded family of random workloads:

* **conservation / no starvation** — every admitted request is
  dispatched exactly once or shed exactly once (typed outcome, never
  lost, never duplicated), and ``admitted == dispatched + shed +
  drained + queued`` holds at every step, not just at the end;
* **priority ordering** — EDF dispatches in ``(-priority, deadline,
  arrival)`` order: strictly higher priority first; earlier deadline
  within a priority class; arrival order as the final tie-break (so
  priority-free, deadline-free traffic dispatches in pure arrival
  order: EDF degenerates to FIFO).
"""

import asyncio
import math

import numpy as np
import pytest

from repro.serve import BatchScheduler

# ---------------------------------------------------------------------------
# The miniature discrete-event world


def _random_workload(rng: np.random.Generator):
    """A seeded request set: (arrival_s, priority, deadline_s or None)."""
    count = int(rng.integers(1, 40))
    requests = []
    for index in range(count):
        arrival = float(rng.uniform(0.0, 1.0))
        priority = int(rng.integers(0, 3)) if rng.random() < 0.5 else 0
        deadline = (float(rng.uniform(0.001, 0.5))
                    if rng.random() < 0.5 else None)
        requests.append((arrival, priority, deadline))
    return sorted(requests)


def _balanced(scheduler) -> bool:
    """The conservation law, with the live queue depth."""
    counters = scheduler.counters
    return counters.admitted == (counters.dispatched + counters.shed
                                 + counters.drained + len(scheduler))


def _simulate(requests, *, max_batch_size: int, service_s: float):
    """Replay the workload through the scheduler under virtual time.

    Work-conserving, like the serve loop: whenever the engine is free,
    expired requests are shed and whatever is queued dispatches; each
    batch keeps the engine busy for ``service_s``.  Returns (scheduler,
    outcomes) where outcomes maps request id -> ``("dispatched", t)``
    or ``("shed", t)``.  Conservation is asserted *during* the run at
    every dispatch point.
    """
    scheduler = BatchScheduler(max_batch_size=max_batch_size)
    outcomes: dict[int, tuple[str, float]] = {}
    now = 0.0
    pending = list(enumerate(requests))
    while pending or len(scheduler):
        # Admit everything that has arrived by `now`.
        while pending and pending[0][1][0] <= now:
            rid, (arrival, priority, deadline) = pending.pop(0)
            deadline_at = None if deadline is None else arrival + deadline
            scheduler.push(rid, None, priority=priority,
                           deadline_at=deadline_at)
        if not len(scheduler):
            now = pending[0][1][0]
            continue
        for expired in scheduler.pop_expired(now):
            assert expired.payload not in outcomes, \
                f"request {expired.payload} shed twice"
            outcomes[expired.payload] = ("shed", now)
        batch = [entry.payload for entry in scheduler.pop_batch()]
        for rid in batch:
            assert rid not in outcomes, f"request {rid} dispatched twice"
            outcomes[rid] = ("dispatched", now)
        if batch:
            now += service_s
        # The conservation law holds mid-flight, not just at the end.
        assert _balanced(scheduler)
    return scheduler, outcomes


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("traffic", ["fifo", "edf"])
def test_conservation_and_no_starvation(traffic, seed):
    """Every admitted request ends dispatched or shed, exactly once.

    ``"edf"`` traffic mixes priorities and deadlines; ``"fifo"`` traffic
    is the same arrivals carrying neither, where the one EDF queue must
    dispatch everything, in arrival order.
    """
    rng = np.random.default_rng(seed)
    requests = _random_workload(rng)
    if traffic == "fifo":
        requests = [(arrival, 0, None) for arrival, _p, _d in requests]
    scheduler, outcomes = _simulate(
        requests, max_batch_size=int(rng.integers(1, 9)),
        service_s=float(rng.uniform(0.001, 0.02)))
    # No starvation: every request has exactly one typed outcome.
    assert sorted(outcomes) == list(range(len(requests)))
    counters = scheduler.counters
    assert counters.admitted == len(requests)
    dispatched = sum(1 for kind, _t in outcomes.values()
                     if kind == "dispatched")
    shed = len(outcomes) - dispatched
    assert counters.dispatched == dispatched
    assert counters.shed == shed
    assert len(scheduler) == 0 and _balanced(scheduler)
    if traffic == "fifo":
        assert shed == 0
        times = [outcomes[rid][1] for rid in range(len(requests))]
        assert times == sorted(times), "FIFO traffic left arrival order"
    # A shed request's deadline had really passed; a dispatched
    # deadline-carrying request left the queue before its deadline.
    for rid, (kind, at) in outcomes.items():
        _arrival, _priority, deadline = requests[rid]
        deadline_at = (None if deadline is None
                       else requests[rid][0] + deadline)
        if kind == "shed":
            assert deadline_at is not None and at >= deadline_at
        elif deadline_at is not None:
            assert at < deadline_at


@pytest.mark.parametrize("seed", range(60))
def test_edf_dispatch_order(seed):
    """Pops by (-priority, deadline, arrival); by arrival alone when no
    request carries a priority or deadline (EDF degenerates to FIFO)."""
    rng = np.random.default_rng(1000 + seed)
    count = int(rng.integers(2, 30))
    entries = []
    edf = BatchScheduler(max_batch_size=count)
    plain = BatchScheduler(max_batch_size=count)
    for seq in range(count):
        priority = int(rng.integers(-2, 3))
        deadline_at = (float(rng.uniform(0, 10))
                       if rng.random() < 0.6 else None)
        entries.append((priority, deadline_at, seq))
        edf.push(seq, None, priority=priority, deadline_at=deadline_at)
        plain.push(seq, None)
    order = [entry.payload for entry in edf.pop_batch()]
    keys = [(-entries[rid][0],
             math.inf if entries[rid][1] is None else entries[rid][1],
             rid) for rid in order]
    assert keys == sorted(keys), f"EDF out of order: {order}"
    assert [entry.payload for entry in plain.pop_batch()] == \
        list(range(count))


@pytest.mark.parametrize("seed", range(40))
def test_edf_priority_beats_deadline_and_arrival(seed):
    """Within a deadline class, higher priority always dispatches first."""
    rng = np.random.default_rng(2000 + seed)
    scheduler = BatchScheduler(max_batch_size=64)
    deadline_at = float(rng.uniform(1.0, 2.0))
    low = [f"low{i}" for i in range(int(rng.integers(1, 8)))]
    high = [f"high{i}" for i in range(int(rng.integers(1, 8)))]
    # Low-priority requests arrive FIRST (earlier seq) — priority must
    # still win over both arrival order and the shared deadline.
    for item in low:
        scheduler.push(item, None, priority=0, deadline_at=deadline_at)
    for item in high:
        scheduler.push(item, None, priority=1, deadline_at=deadline_at)
    batch = [entry.payload for entry in scheduler.pop_batch()]
    assert batch == high + low
    assert _balanced(scheduler)


def test_a_push_wakes_exactly_one_parked_consumer():
    """Three consumers park on ``wait()``: a push wakes one, a consumer
    cancelled after its wake-up hands it on, and ``close()`` wakes the
    rest."""
    async def main():
        queue = BatchScheduler(max_batch_size=4)
        woken = []

        async def consumer(name):
            await queue.wait()
            woken.append(name)

        tasks = {name: asyncio.create_task(consumer(name))
                 for name in ("a", "b", "c")}
        await asyncio.sleep(0)
        queue.push("first", None)
        for _ in range(3):
            await asyncio.sleep(0)
        assert woken == ["a"]
        queue.pop_batch()
        queue.push("second", None)      # wakes b ...
        tasks["b"].cancel()             # ... which is cancelled first
        for _ in range(3):
            await asyncio.sleep(0)
        assert woken == ["a", "c"]
        queue.close()
        await asyncio.gather(*tasks.values(), return_exceptions=True)
        assert tasks["b"].cancelled()

    asyncio.run(main())

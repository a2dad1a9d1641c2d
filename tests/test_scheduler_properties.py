"""Property tests for the batch scheduler: 200+ seeded cases.

The scheduler (:mod:`repro.serve.scheduler`) is pure policy — a queue
with an ordering and a window-hold rule, no asyncio — so it can be
driven through a miniature discrete-event simulation with total control
over time.  Three properties, each over a seeded family of random
workloads:

* **conservation / no starvation** — every admitted request is
  dispatched exactly once or shed exactly once (typed outcome, never
  lost, never duplicated), and ``admitted == dispatched + shed +
  drained + queued`` holds at every step, not just at the end;
* **priority ordering** — EDF dispatches in ``(-priority, deadline,
  arrival)`` order: strictly higher priority first; earlier deadline
  within a priority class; arrival order as the final tie-break (so
  priority-free, deadline-free traffic dispatches in pure arrival
  order: EDF degenerates to FIFO);
* **hold-rule sanity** — ``hold_for`` never exceeds the remaining
  window, and an EDF early close (slack exhausted while window remains)
  is counted.
"""

import math

import numpy as np
import pytest

from repro.serve import BatchScheduler, ServiceTimeTracker

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


def _simulate(requests, *, max_batch_size: int,
              batch_window_s: float, service_s: float):
    """Replay the workload through the scheduler under virtual time.

    Returns (scheduler, outcomes) where outcomes maps request id ->
    ``("dispatched", t)`` or ``("shed", t)``.  Conservation is asserted
    *during* the run at every dispatch point.
    """
    scheduler = BatchScheduler(max_batch_size=max_batch_size,
                               batch_window_s=batch_window_s)
    scheduler.service_times.seed(max_batch_size, service_s)
    outcomes: dict[int, tuple[str, float]] = {}
    now = 0.0
    pending = list(enumerate(requests))
    while pending or len(scheduler):
        # Admit everything that has arrived by `now`.
        while pending and pending[0][1][0] <= now:
            rid, (arrival, priority, deadline) = pending.pop(0)
            deadline_at = None if deadline is None else arrival + deadline
            scheduler.push(rid, priority=priority, deadline_at=deadline_at)
        if not len(scheduler):
            now = pending[0][1][0]
            continue
        window_started = now
        # Hold the window: next arrival may land inside the hold.
        while True:
            for rid in scheduler.pop_expired(now):
                assert rid not in outcomes, f"request {rid} shed twice"
                outcomes[rid] = ("shed", now)
            if not len(scheduler):
                break
            if len(scheduler) >= max_batch_size:
                break
            hold = scheduler.hold_for(now, window_started)
            assert hold <= (window_started + batch_window_s) - now + 1e-12
            if hold <= 0:
                break
            next_arrival = pending[0][1][0] if pending else math.inf
            if next_arrival <= now + hold:
                now = next_arrival
                while pending and pending[0][1][0] <= now:
                    rid, (arrival, priority, deadline) = pending.pop(0)
                    deadline_at = (None if deadline is None
                                   else arrival + deadline)
                    scheduler.push(rid, priority=priority,
                                   deadline_at=deadline_at)
            elif now + hold == now:
                break  # hold smaller than one ulp of `now`: dispatch
            else:
                now += hold
        batch = scheduler.pop_batch(max_batch_size)
        for rid in batch:
            assert rid not in outcomes, f"request {rid} dispatched twice"
            outcomes[rid] = ("dispatched", now)
        if batch:
            now += service_s
        # The conservation law holds mid-flight, not just at the end.
        assert scheduler.counters.in_balance(len(scheduler))
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
        batch_window_s=float(rng.uniform(0.0, 0.05)),
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
    assert counters.in_balance(0)
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
        edf.push(seq, priority=priority, deadline_at=deadline_at)
        plain.push(seq)
    order = edf.pop_batch(count)
    keys = [(-entries[rid][0],
             math.inf if entries[rid][1] is None else entries[rid][1],
             rid) for rid in order]
    assert keys == sorted(keys), f"EDF out of order: {order}"
    assert plain.pop_batch(count) == list(range(count))


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
        scheduler.push(item, priority=0, deadline_at=deadline_at)
    for item in high:
        scheduler.push(item, priority=1, deadline_at=deadline_at)
    batch = scheduler.pop_batch(len(low) + len(high))
    assert batch == high + low
    assert scheduler.counters.in_balance(0)


@pytest.mark.parametrize("seed", range(30))
def test_edf_early_close_is_counted(seed):
    """Deadline pressure inside the window closes it early, and counts."""
    rng = np.random.default_rng(3000 + seed)
    window = float(rng.uniform(0.05, 0.5))
    service = float(rng.uniform(0.01, 0.04))
    scheduler = BatchScheduler(max_batch_size=4, batch_window_s=window)
    scheduler.service_times.seed(1, service)
    # A deadline tighter than the window: slack runs out mid-window.
    scheduler.push("urgent", deadline_at=service / 2)
    hold = scheduler.hold_for(0.0, 0.0)
    assert hold <= 0, "tight deadline must close the window immediately"
    assert scheduler.counters.early_closes == 1
    # Without deadline pressure the full window stays open.
    relaxed = BatchScheduler(max_batch_size=4, batch_window_s=window)
    relaxed.push("calm", deadline_at=None)
    assert relaxed.hold_for(0.0, 0.0) == pytest.approx(window)
    assert relaxed.counters.early_closes == 0


@pytest.mark.parametrize("seed", range(20))
def test_service_time_tracker_nearest_estimate(seed):
    """estimate() answers with the nearest observed batch size."""
    rng = np.random.default_rng(4000 + seed)
    tracker = ServiceTimeTracker(alpha=float(rng.uniform(0.1, 1.0)))
    assert tracker.estimate(4) is None
    sizes = sorted(set(int(s) for s in rng.integers(1, 33, size=5)))
    for size in sizes:
        tracker.observe(size, size * 0.001)
    for query in (1, 7, 16, 40):
        estimate = tracker.estimate(query)
        nearest = min(sizes, key=lambda s: (abs(s - query), s))
        assert estimate == pytest.approx(tracker.snapshot()[nearest])
    # EWMA: a second observation moves the estimate toward it.
    tracker.observe(sizes[0], 1.0)
    assert tracker.estimate(sizes[0]) > sizes[0] * 0.001

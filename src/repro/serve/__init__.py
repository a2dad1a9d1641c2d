"""The serving API: typed requests/results and the async front-end.

* :class:`RunResult` — the typed result crossing the serving boundary
  (:mod:`repro.serve.types`);
* :class:`PumaServer` — asyncio request queue + work-conserving
  micro-batching over an :class:`~repro.engine.InferenceEngine`
  (:mod:`repro.serve.server`);
* :class:`~repro.serve.scheduler.BatchScheduler` — the one EDF queue,
  used by ``PumaServer`` and by each model at the fleet gateway
  (:mod:`repro.serve.scheduler`);
* :func:`check_priority` / :func:`check_deadline` — the one rule for
  each request field, for every way in;
* :class:`~repro.serve.clock.VirtualClock` — the deterministic-time
  test harness every wall-clock decision runs on
  (:mod:`repro.serve.clock`);
* :class:`ShardedEngine` — the model of a batch spread over
  ``num_shards`` replica nodes (cycles = max over shards, energy = sum),
  run as sequential shard passes of the one engine and merged
  bitwise-identically (:mod:`repro.serve.sharding`).
"""

from repro.serve.types import RunResult
from repro.serve.clock import Clock, MonotonicClock, VirtualClock
from repro.serve.scheduler import BatchScheduler, SchedulerCounters
from repro.serve.sharding import ShardedEngine, shard_lanes
from repro.serve.server import (
    AdmissionError,
    DeadlineExceeded,
    PumaServer,
    ServerCounters,
    check_deadline,
    check_priority,
)

__all__ = [
    "AdmissionError",
    "BatchScheduler",
    "Clock",
    "DeadlineExceeded",
    "MonotonicClock",
    "RunResult",
    "PumaServer",
    "SchedulerCounters",
    "ServerCounters",
    "ShardedEngine",
    "VirtualClock",
    "check_deadline",
    "check_priority",
    "shard_lanes",
]

"""The serving API: typed requests/results and the async front-end.

* :class:`RunResult` / :class:`InferenceRequest` — the typed values
  crossing the serving boundary (:mod:`repro.serve.types`);
* :class:`PumaServer` — asyncio request queue + scheduled micro-batching
  over an :class:`~repro.engine.InferenceEngine`
  (:mod:`repro.serve.server`);
* :class:`~repro.serve.scheduler.BatchScheduler` — batch formation:
  the EDF queue with deadline-pressure early close
  (:mod:`repro.serve.scheduler`);
* :class:`~repro.serve.clock.VirtualClock` — the deterministic-time
  test harness every wall-clock decision runs on
  (:mod:`repro.serve.clock`);
* :class:`ShardedEngine` — the model of a batch spread over
  ``num_shards`` replica nodes (cycles = max over shards, energy = sum),
  run as sequential shard passes of the one engine and merged
  bitwise-identically (:mod:`repro.serve.sharding`).
"""

from repro.serve.types import InferenceRequest, RunResult
from repro.serve.clock import Clock, MonotonicClock, VirtualClock
from repro.serve.scheduler import (
    BatchScheduler,
    SchedulerCounters,
    ServiceTimeTracker,
)
from repro.serve.sharding import ShardedEngine, shard_lanes
from repro.serve.server import (
    AdmissionError,
    DeadlineExceeded,
    PumaServer,
    ServerCounters,
    check_priority,
)

__all__ = [
    "AdmissionError",
    "BatchScheduler",
    "Clock",
    "DeadlineExceeded",
    "InferenceRequest",
    "MonotonicClock",
    "RunResult",
    "PumaServer",
    "SchedulerCounters",
    "ServerCounters",
    "ServiceTimeTracker",
    "ShardedEngine",
    "VirtualClock",
    "check_priority",
    "shard_lanes",
]

"""Multi-node serving fleet: N PumaServer workers behind one front door.

The scale-out layer over :mod:`repro.serve`:

* :class:`PumaFleet` — the gateway: HTTP front door, consistent-hash
  placement, per-model queues + admission control, dispatch with
  deadline-aware retry-on-another-replica (circuit breakers + seeded
  backoff), health-driven eviction/respawn onto a constant worker
  count (:mod:`repro.fleet.gateway`);
* :class:`FleetModelSpec` / :func:`route_key` / :func:`build_engine` —
  wire-serializable model identity shared by gateway, workers, and the
  networked store (:mod:`repro.fleet.models`);
* :class:`FleetWorker` — the worker process: per-model ``PumaServer``
  micro-batching behind a small HTTP API
  (:mod:`repro.fleet.worker`);
* networked artifact store — warm starts as integrity-verified GET/PUT
  blobs with size-capped LRU eviction (:mod:`repro.fleet.netstore`);
* :class:`CircuitBreaker` / :func:`backoff_delay` — the resilience
  policies behind dispatch retry (:mod:`repro.fleet.resilience`).

The package carries no fault injector: the fleet's fault tests fault
the gateway's connection pool from ``tests/fleet_faults.py``.  See
``docs/fleet.md`` for topology, guarantees, and the fault taxonomy
those tests cover.
"""

from repro.fleet.gateway import (
    FleetAdmissionError,
    FleetDeadlineError,
    FleetError,
    PumaFleet,
)
from repro.fleet.http import FleetConnectionError, FleetTimeoutError
from repro.fleet.manager import (
    WorkerManager,
    WorkerSpawnError,
)
from repro.fleet.models import (
    MODEL_KINDS,
    FleetModelError,
    FleetModelSpec,
    build_engine,
    route_key,
)
from repro.fleet.netstore import NetworkArtifactError
from repro.fleet.resilience import CircuitBreaker, backoff_delay
from repro.fleet.ring import HashRing
from repro.fleet.worker import FleetWorker

__all__ = [
    "CircuitBreaker",
    "FleetAdmissionError",
    "FleetConnectionError",
    "FleetDeadlineError",
    "FleetError",
    "FleetModelError",
    "FleetModelSpec",
    "FleetTimeoutError",
    "FleetWorker",
    "HashRing",
    "MODEL_KINDS",
    "NetworkArtifactError",
    "PumaFleet",
    "WorkerManager",
    "WorkerSpawnError",
    "backoff_delay",
    "build_engine",
    "route_key",
]

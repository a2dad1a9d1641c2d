"""Multi-node serving fleet: N PumaServer workers behind one front door.

The scale-out layer over :mod:`repro.serve` (ROADMAP open item 1):

* :class:`PumaFleet` — the gateway: HTTP front door, consistent-hash
  placement, per-model queues + admission control, dispatch with
  deadline-aware retry-on-another-replica (circuit breakers + seeded
  backoff), health-driven eviction/respawn, queue-depth autoscaling
  (:mod:`repro.fleet.gateway`);
* :class:`FleetModelSpec` / :func:`route_key` / :func:`build_engine` —
  wire-serializable model identity shared by gateway, workers, and the
  networked store (:mod:`repro.fleet.models`);
* :class:`FleetWorker` — the worker process: per-model ``PumaServer``
  micro-batching behind a small HTTP API
  (:mod:`repro.fleet.worker`);
* networked artifact store — warm starts as integrity-verified GET/PUT
  blobs with size-capped LRU eviction (:mod:`repro.fleet.netstore`);
* :func:`bursty_trace` / :func:`run_trace` — deterministic load
  generation and SLO measurement (:mod:`repro.fleet.loadgen`);
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
from repro.fleet.loadgen import (
    Arrival,
    LoadReport,
    bursty_trace,
    default_inputs_builder,
    run_trace,
)
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
    "Arrival",
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
    "LoadReport",
    "MODEL_KINDS",
    "NetworkArtifactError",
    "PumaFleet",
    "WorkerManager",
    "WorkerSpawnError",
    "backoff_delay",
    "build_engine",
    "bursty_trace",
    "default_inputs_builder",
    "route_key",
    "run_trace",
]

"""The fleet gateway: one HTTP front door over N worker processes.

:class:`PumaFleet` is the subsystem's spine.  It owns:

* the **front door** — ``POST /v1/predict``, ``GET /v1/models``,
  ``GET /healthz``, ``GET /metrics`` on one port (plus the artifact
  plane ``GET/PUT /v1/artifacts/{key}`` backing the networked store);
* **placement** — consistent hashing of each model's route key onto the
  worker ring (:mod:`repro.fleet.ring`), so a model's replicas are a
  stable subset of workers sharing warm artifacts;
* **per-model queues** — every model gets its own EDF queue (the same
  :class:`~repro.serve.scheduler.BatchScheduler` each worker's
  ``PumaServer`` uses) + dispatcher pool, so a burst of heavy CNN
  traffic queues behind *itself*, never in front of MLP requests
  (head-of-line isolation);
* **work-conserving micro-batches** — a dispatcher that wakes takes
  the head of its model's queue *and everything else already queued*
  and sends them to one replica in one exchange, so requests that
  arrive together reach the engine as one batch; a free dispatcher
  sends at once, and nothing ever waits on a clock for company;
* **dispatch with retry** — each rider of an exchange gets its own
  outcome; on a transport failure or 5xx the gateway backs off and
  retries the affected riders on a *different* replica.  Safe by
  construction: engines are deterministic (seeded weights + seeded
  crossbar programming), so any replica's answer is bitwise the same —
  the fleet-level invariant ``docs/guarantees.md`` pins and
  ``tests/test_fleet.py`` / ``tests/test_fleet_microbatch.py`` enforce;
* **health & lifecycle** — periodic ``/healthz`` probes; consecutive
  failures (or a dead process) evict the worker and respawn a fresh one
  that warm-starts its models off the networked store.

Graceful shutdown mirrors ``PumaServer.stop``: the front door starts
refusing new work (503), queued requests drain to completion, workers
are asked to drain their own micro-batches, and only then do processes
exit — zero dropped requests, which the CI smoke job asserts.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serve.clock import Clock, MonotonicClock
from repro.serve.scheduler import BatchScheduler, _Pending
from repro.serve.server import check_deadline, check_priority, check_vector

from repro.fleet.http import (
    ConnectionPool,
    FleetConnectionError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    ProtocolError,
    _fail,
    error_response,
    json_response,
)
from repro.fleet.manager import (
    WorkerHandle,
    WorkerManager,
    probe_health,
)
from repro.fleet.models import FleetModelSpec, route_key
from repro.fleet.netstore import SHA_HEADER, BlobStore, NetworkArtifactError
from repro.fleet.resilience import CircuitBreaker, backoff_delay
from repro.fleet.ring import HashRing
from repro.fleet.worker import predict_fields

PREDICT_TIMEOUT_S = 120.0
LOAD_TIMEOUT_S = 300.0
_ARTIFACT_PREFIX = "/v1/artifacts/"


class FleetError(RuntimeError):
    """A fleet request failed permanently (after retries, or rejected)."""


class FleetAdmissionError(FleetError):
    """The model's gateway queue is full; the request was refused.

    Maps to HTTP 429 + ``Retry-After`` (:attr:`retry_after_s`): under a
    burst the client learns *immediately* that it should back off,
    instead of queueing toward a timeout.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class FleetDeadlineError(FleetError):
    """The request's end-to-end deadline expired before an answer.

    Maps to HTTP 504 with reason ``deadline_exceeded``.  Raised
    wherever the budget actually ran out — the gateway queue, a
    dispatch attempt, or the worker's batch queue (whose 504 propagates
    up as this).
    """


@dataclass
class _ModelState:
    """Gateway-side state for one deployed model."""

    spec: FleetModelSpec
    key: str
    # The EDF queue every worker's PumaServer uses too, so a burst of
    # low-priority traffic cannot sit in front of an urgent request.
    queue: BatchScheduler
    dispatchers: list = field(default_factory=list)
    rr: int = 0                     # round-robin cursor over placement
    # All of these count *requests*, never exchanges.  Every request
    # ends in exactly one of served / failed / sheds / rejections.
    inflight: int = 0
    served: int = 0
    failed: int = 0
    retries: int = 0
    sheds: int = 0                  # deadline-expired, failed with 504
    rejections: int = 0             # admission-refused, failed with 429


class PumaFleet:
    """N ``PumaServer`` worker processes behind one HTTP front door.

    Example::

        specs = [FleetModelSpec("mlp", "mlp", {"dims": [32, 24, 10]})]
        async with PumaFleet(specs, num_workers=2,
                             work_dir="fleet-scratch") as fleet:
            reply = await fleet.predict("mlp", {"x": x_vector})
            reply["words"]["out"]        # fixed-point words, bitwise ==
                                         # a local engine.run_batch

    Args:
        models: the deployment set (unique names).
        num_workers: worker processes to spawn (restored on eviction).
        work_dir: scratch root (artifact blobs, worker scratch).
        replicas_per_model: replicas per model (default:
            ``min(2, num_workers)``).
        max_batch_size: most requests one dispatch carries, and the
            batching limit of each worker's ``PumaServer``.
        dispatch_concurrency: concurrent *exchanges* per model, each
            carrying up to ``max_batch_size`` requests.  A free
            dispatcher sends whatever is queued at once, so a lone
            request never waits for company; only when all of them are
            busy does the queue build (and coalesce).
        max_attempts: dispatch attempts per request (distinct replicas
            preferred; transport failures and 5xx retry, 400 never).
        health_interval_s / health_failures: probe cadence and the
            consecutive-failure threshold for eviction; an evicted
            worker is always respawned, back to ``num_workers``.
        preload: load every model onto its placement when the fleet
            starts (first request fast + deterministic placement).
        max_queue_depth: per-model admission bound — when this many
            requests already wait in a model's gateway queue, new ones
            fail fast with :class:`FleetAdmissionError` (HTTP 429 +
            ``Retry-After``).  ``None`` = unbounded.
        breaker_threshold / breaker_cooldown_s: per-replica circuit
            breaker policy (consecutive failures to open; cooldown
            before a half-open probe) — the fast path around a sick
            replica while the slower health loop decides on eviction.
        blob_store_max_bytes: size cap for the artifact plane's LRU
            (``None`` = unbounded, the pre-resilience behavior).
        clock: time source for gateway deadline math, retry backoff
            and breaker cooldowns (default wall clock; tests inject
            :class:`~repro.serve.clock.VirtualClock`).

    Requests without a ``deadline_ms`` never shed.  A retry backs off
    exponentially from 20 ms, capped at 0.5 s, with deterministic
    jitter (:func:`backoff_delay`).  The fleet generates no load of its
    own; ``python -m repro fleet`` serves one until SIGINT or SIGTERM.
    """

    def __init__(self, models: list[FleetModelSpec], *,
                 num_workers: int = 2,
                 work_dir: str | Path,
                 replicas_per_model: int | None = None,
                 max_batch_size: int = 16,
                 dispatch_concurrency: int = 16,
                 max_attempts: int = 3,
                 health_interval_s: float = 0.5,
                 health_failures: int = 2,
                 preload: bool = True,
                 max_queue_depth: int | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 0.5,
                 blob_store_max_bytes: int | None = None,
                 clock: Clock | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        names = [spec.name for spec in models]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model names in {sorted(names)}")
        if not models:
            raise ValueError("a fleet needs at least one model")
        self.num_workers = num_workers
        self.work_dir = Path(work_dir)
        self.replicas_per_model = (min(2, num_workers)
                                   if replicas_per_model is None
                                   else min(replicas_per_model, num_workers))
        self.max_batch_size = max_batch_size
        self.dispatch_concurrency = dispatch_concurrency
        self.max_attempts = max_attempts
        self.health_interval_s = health_interval_s
        self.health_failures = health_failures
        self.preload = preload
        self.max_queue_depth = max_queue_depth
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.blob_store_max_bytes = blob_store_max_bytes
        # Every deadline, backoff and breaker decision reads this clock,
        # so tests can inject a VirtualClock and drive gateway time
        # deterministically.
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.host = host
        self._requested_port = port

        self.models: dict[str, _ModelState] = {}
        for spec in models:
            self.models[spec.name] = _ModelState(
                spec=spec, key=route_key(spec), queue=BatchScheduler(
                    max_batch_size=max_batch_size,
                    max_queue_depth=max_queue_depth))

        self.ring = HashRing()
        self.http = HttpServer(self._handle, host=host, port=port)
        self.pool = ConnectionPool()
        self.blobs: BlobStore | None = None
        self.manager: WorkerManager | None = None
        self.breakers: dict[str, CircuitBreaker] = {}
        self._load_locks: dict[tuple[str, str], asyncio.Lock] = {}
        self._background: list[asyncio.Task] = []
        self._running = False
        self._closing = False
        self.evictions = 0
        self.respawns = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "PumaFleet":
        if self._running:
            return self
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.blobs = BlobStore(self.work_dir / "store",
                               max_bytes=self.blob_store_max_bytes)
        await self.http.start()
        self.manager = WorkerManager(
            str(self.work_dir / "workers"),
            store_address=(self.host, self.http.port),
            max_batch_size=self.max_batch_size, host=self.host,
            max_queue_depth=self.max_queue_depth)
        await self.manager.spawn_many(self.num_workers)
        for worker_id in self.manager.workers:
            self.ring.add(worker_id)
            self.breakers[worker_id] = self._new_breaker()
        for state in self.models.values():
            state.dispatchers = [
                asyncio.create_task(self._dispatch_loop(state))
                for _ in range(self.dispatch_concurrency)]
        self._running = True
        if self.preload:
            for state in self.models.values():
                for handle in self._placement(state):
                    await self._ensure_loaded(state, handle)
        self._background = [asyncio.create_task(self._health_loop())]
        return self

    async def stop(self, *, drain: bool = True,
                   drain_timeout_s: float = PREDICT_TIMEOUT_S) -> None:
        """Drain, then dismantle — queued work finishes unless told not to.

        The drain is time-bounded (``drain_timeout_s``): a worker hung
        mid-response must not hold shutdown hostage.  Work still queued
        or in flight when the bound lapses is failed loudly with
        :class:`FleetError` — never abandoned.
        """
        if not self._running:
            return
        self._closing = True
        if drain:
            deadline = self.clock.now() + drain_timeout_s
            while any(len(state.queue) or state.inflight
                      for state in self.models.values()):
                if self.clock.now() > deadline:
                    break           # hung worker: drain bound lapsed
                await self.clock.sleep(0.01)
        for state in self.models.values():
            for pending in state.queue.drain():
                self._settle(state, pending, FleetError(
                    "fleet stopped before this request was served"))
        await _cancel_and_wait(
            self._background
            + [t for s in self.models.values() for t in s.dispatchers])
        if self.manager is not None:
            await self.manager.close(drain=drain)
        await self.pool.close()
        await self.http.close()
        self._running = False

    async def __aenter__(self) -> "PumaFleet":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def url(self) -> str:
        return self.http.url

    # -- placement ----------------------------------------------------------

    def _placement(self, state: _ModelState) -> list[WorkerHandle]:
        """The model's current replica set, healthiest-first subset."""
        chosen = self.ring.replicas(state.key, self.replicas_per_model)
        return [self.manager.workers[w] for w in chosen
                if w in self.manager.workers
                and self.manager.workers[w].healthy]

    async def _ensure_loaded(self, state: _ModelState,
                             handle: WorkerHandle) -> None:
        """Idempotently host the model on one worker (serialized)."""
        if state.key in handle.hosted:
            return
        lock = self._load_locks.setdefault(
            (handle.worker_id, state.key), asyncio.Lock())
        async with lock:
            if state.key in handle.hosted:
                return
            body = json.dumps({"spec": state.spec.to_dict(),
                               "route_key": state.key}).encode()
            response = await self.pool.request(
                handle.host, handle.port, "POST", "/v1/models", body=body,
                headers={"Content-Type": "application/json"},
                timeout=LOAD_TIMEOUT_S)
            if response.status != 200:
                raise FleetError(
                    f"{handle.worker_id} refused to load "
                    f"{state.spec.name}: {response.status} "
                    f"{response.body[:200]!r}")
            handle.hosted.add(state.key)

    # -- dispatch -----------------------------------------------------------

    async def predict(self, model: str, inputs: dict[str, Any],
                      timeout: float = PREDICT_TIMEOUT_S,
                      deadline_ms: float | None = None,
                      priority: int = 0) -> dict:
        """Run one inference through the fleet; the worker's JSON reply.

        ``inputs`` maps input names to 1-D float vectors (lists or
        arrays).  The reply carries ``outputs`` (floats), ``words``
        (fixed-point ints, the bitwise ground truth), ``worker``, and
        ``execution``.  ``deadline_ms`` is the request's *end-to-end*
        time budget: it bounds the gateway queue wait, every dispatch
        attempt, and the worker's batch queue (the remaining budget
        travels in the request body).  ``priority`` orders the gateway
        queue (higher first) and rides to the worker's batch scheduler;
        it never affects output values, only ordering.  Raises
        :class:`FleetError` on permanent failure —
        :class:`FleetAdmissionError` when the model's queue is full,
        :class:`FleetDeadlineError` when the budget expires —
        :class:`KeyError` for an unknown model, and :class:`ValueError`
        for a ``deadline_ms`` that is not a finite number
        (:func:`~repro.serve.check_deadline`), a priority that is not
        an integer (:func:`~repro.serve.check_priority`) or an input
        that is not numbers (:func:`~repro.serve.check_vector`).
        """
        if not self._running or self._closing:
            raise FleetError("fleet is not accepting requests "
                             "(stopped or draining)")
        state = self.models[model]
        priority = check_priority(priority)
        deadline_ms = check_deadline(deadline_ms, "deadline_ms")
        wire_inputs = {name: check_vector(values, name).tolist()
                       for name, values in inputs.items()}
        deadline_at = None
        wait_timeout = timeout
        if deadline_ms is not None:
            if deadline_ms <= 0:
                state.sheds += 1
                raise FleetDeadlineError(
                    f"{model}: deadline_ms={deadline_ms:g} is already "
                    f"expired")
            deadline_at = self.clock.now() + deadline_ms / 1000.0
            # The future resolves with a 504 at the deadline; the extra
            # margin only covers dispatcher scheduling, not more work.
            wait_timeout = min(timeout, deadline_ms / 1000.0 + 1.0)
        if state.queue.full:
            state.rejections += 1
            raise FleetAdmissionError(
                f"{model}: gateway queue is full "
                f"({self.max_queue_depth} requests waiting)",
                retry_after_s=self._retry_after(state))
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        state.queue.push(wire_inputs, future, priority=priority,
                         deadline_at=deadline_at)
        # A timer, not wait_for, which costs a Task per call before
        # Python 3.12.
        timer = loop.call_later(wait_timeout, _fail, future,
                                asyncio.TimeoutError())
        try:
            return await future
        except asyncio.TimeoutError:
            # The timer failed the future, so the dispatcher (whose
            # _settle skips a future that is already done) won't also
            # count this request — every tally stays single-entry.
            if deadline_at is not None and self.clock.now() >= deadline_at:
                state.sheds += 1
                raise FleetDeadlineError(
                    f"{model}: deadline of {deadline_ms:g}ms expired "
                    f"before a reply arrived") from None
            state.failed += 1
            raise FleetError(
                f"{model}: no reply within {wait_timeout:g}s") from None
        finally:
            timer.cancel()

    def _retry_after(self, state: _ModelState) -> float:
        """A Retry-After estimate: rough time to drain half the queue."""
        per_request_s = 0.02
        return round(max(0.1, len(state.queue) * per_request_s / 2), 2)

    def _settle(self, state: _ModelState, rider: _Pending,
                outcome: dict | FleetError) -> None:
        """Resolve one request's future and count it — exactly once.

        A caller that already gave up (``predict``'s timeout, which
        counted it there, or a cancel) is skipped.
        """
        if rider.future.done():
            return
        if not isinstance(outcome, FleetError):
            state.served += 1
            rider.future.set_result(outcome)
            return
        if isinstance(outcome, FleetDeadlineError):
            state.sheds += 1
        else:
            state.failed += 1
        rider.future.set_exception(outcome)

    def _still_wanted(self, state: _ModelState, riders: list[_Pending],
                      where: str) -> list[_Pending]:
        """The riders still worth a dispatch: callers that gave up are
        dropped, passed deadlines are shed before any work is spent."""
        now = self.clock.now()
        wanted = []
        for rider in riders:
            if rider.deadline_at is not None and now >= rider.deadline_at:
                self._settle(state, rider, FleetDeadlineError(
                    f"{state.spec.name}: deadline passed {where}"))
            elif not rider.future.done():
                wanted.append(rider)
        return wanted

    async def _dispatch_loop(self, state: _ModelState) -> None:
        queue = state.queue
        while True:
            await queue.wait()
            for rider in queue.pop_expired(self.clock.now()):
                self._settle(state, rider, FleetDeadlineError(
                    f"{state.spec.name}: deadline passed in the gateway "
                    f"queue"))
            # Work-conserving coalescing: whatever is queued right now
            # rides this dispatch; nothing waits for more to arrive.
            riders = queue.pop_batch()
            if not riders:
                continue
            state.inflight += len(riders)
            try:
                await self._dispatch_riders(state, riders)
            except asyncio.CancelledError:
                for rider in riders:
                    self._settle(state, rider, FleetError(
                        "fleet dispatcher cancelled mid-request"))
                raise
            except Exception as error:  # noqa: BLE001 - fail those riders
                for rider in riders:
                    self._settle(state, rider, FleetError(
                        f"{type(error).__name__}: {error}"))
            finally:
                state.inflight -= len(riders)

    async def _dispatch_riders(self, state: _ModelState,
                               riders: list[_Pending]) -> None:
        """Route one micro-batch; retry what fails on other replicas.

        Every rider is settled before this returns.  Each attempt is one
        exchange with one replica (:meth:`_exchange`); the riders it
        could not answer go to a *different* replica, bounded by
        ``max_attempts`` and paced by capped exponential backoff with
        deterministic jitter (:func:`backoff_delay`, keyed on the head
        rider's arrival number).  Each attempt — the first included, so
        an entry that expired or was abandoned while queued costs no
        dispatch — re-checks every rider's remaining deadline budget,
        which also rides to the worker as ``deadline_ms``.
        """
        tried: set[str] = set()
        for attempt in range(self.max_attempts):
            riders = self._still_wanted(
                state, riders,
                f"after {attempt} dispatch attempt(s) "
                f"(last error: {riders[0].last_error})" if attempt
                else "in the gateway queue")
            if not riders:
                return
            handle = self._pick_replica(state, tried)
            if handle is None:
                # Everything tried or unhealthy: wait for health/respawn
                # to restore a replica, then widen the search again.
                await self.clock.sleep(0.05 * (attempt + 1))
                tried.clear()
                handle = self._pick_replica(state, tried)
                if handle is None:
                    continue
            tried.add(handle.worker_id)
            riders = await self._exchange(state, handle, riders)
            if not riders:
                return
            state.retries += len(riders)
            await self._backoff(attempt, riders[0].seq)
        for rider in riders:
            self._settle(state, rider, FleetError(
                f"{state.spec.name}: no replica answered after "
                f"{self.max_attempts} attempts "
                f"(last error: {rider.last_error})"))

    async def _exchange(self, state: _ModelState, handle: WorkerHandle,
                        riders: list[_Pending]) -> list[_Pending]:
        """One ``POST /v1/predict`` carrying ``riders`` to one replica.

        Settles every rider the replica answered for good (200, a 400
        no replica would read differently, a 504 deadline verdict) and
        returns the ones to send elsewhere: all of them after a
        transport failure, failed load or garbage 200 body; otherwise
        those whose own status was 409/429/5xx.  The replica's breaker
        and health tally record the exchange once: transport failures,
        garbage and 5xx count against it; an honest answer (including
        a worker-side 504) closes it; 409/429 are load, not sickness.
        """
        name, worker_id = state.spec.name, handle.worker_id
        breaker = self.breakers.get(worker_id)
        now = self.clock.now()
        requests = []
        http_timeout = 0.0
        for rider in riders:
            item = {"inputs": rider.payload, "priority": rider.priority}
            budget_s = PREDICT_TIMEOUT_S
            if rider.deadline_at is not None:
                # The worker sheds on its own clock; the grace margin
                # lets its 504 beat our transport timeout.
                remaining_s = rider.deadline_at - now
                item["deadline_ms"] = remaining_s * 1000.0
                budget_s = min(budget_s, remaining_s + 0.5)
            # The exchange lives as long as its most patient rider.
            http_timeout = max(http_timeout, budget_s)
            requests.append(item)
        body = json.dumps({"route_key": state.key,
                           "requests": requests}).encode()
        try:
            await self._ensure_loaded(state, handle)
            response = await self.pool.request(
                handle.host, handle.port, "POST", "/v1/predict",
                body=body, headers={"Content-Type": "application/json"},
                timeout=http_timeout)
            envelope, replies = _item_replies(response, len(riders))
        except (FleetConnectionError, FleetError, ProtocolError) as error:
            # Transport failure, failed load, or a 200 with a garbage
            # body (the replica is lying — never surface it; any
            # replica's honest answer is bitwise the same).  It may be
            # dying: flag it for the health loop, open its breaker a
            # notch, and go elsewhere.
            handle.consecutive_failures += 1
            if breaker is not None:
                breaker.record_failure()
            await self.pool.forget(handle.host, handle.port)
            for rider in riders:
                rider.last_error = f"{worker_id}: {error}"
            return riders
        retry = []
        statuses = set()
        for rider, reply in zip(riders, replies):
            status = reply.pop("status")
            statuses.add(status)
            if status == 200:
                self._settle(state, rider, {**envelope, **reply})
            elif status == 400:
                # The request itself is bad; no replica will differ.
                self._settle(state, rider, FleetError(
                    f"{name}: rejected by {worker_id}: "
                    f"{reply.get('error')}"))
            elif status == 504:
                # The worker shed it: the deadline verdict is final.
                self._settle(state, rider, FleetDeadlineError(
                    f"{name}: {worker_id} shed the request: "
                    f"{reply.get('error')}"))
            else:
                rider.last_error = f"{status} {reply.get('error')}"
                retry.append(rider)
        if 409 in statuses:
            # Placement raced an eviction: reload on the next attempt.
            handle.hosted.discard(state.key)
        if breaker is not None:
            if statuses - {200, 400, 504, 409, 429}:
                breaker.record_failure()
            elif statuses & {200, 504}:
                breaker.record_success()
        return retry

    async def _backoff(self, attempt: int, token: int) -> None:
        await self.clock.sleep(backoff_delay(
            attempt, base_s=0.02, cap_s=0.5, seed=0, token=token))

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(failure_threshold=self.breaker_threshold,
                              cooldown_s=self.breaker_cooldown_s,
                              clock=self.clock.now)

    def _pick_replica(self, state: _ModelState,
                      tried: set[str]) -> WorkerHandle | None:
        placement = self._placement(state)
        untried = [h for h in placement if h.worker_id not in tried]
        if not untried:
            return None
        # Breaker-open replicas are skipped — the fast path around a
        # sick worker while the health loop decides on eviction.  If
        # *every* candidate's breaker is open, probe anyway: failing
        # the request outright would turn a transient blip into an
        # outage, and a half-open probe is how breakers re-close.
        allowed = [h for h in untried
                   if (breaker := self.breakers.get(h.worker_id)) is None
                   or breaker.allow()]
        candidates = allowed or untried
        state.rr += 1
        return candidates[state.rr % len(candidates)]

    # -- background loops ---------------------------------------------------

    async def _health_loop(self) -> None:
        while not self._closing:
            await asyncio.sleep(self.health_interval_s)
            for worker_id, handle in list(self.manager.workers.items()):
                if handle.alive and await probe_health(handle):
                    handle.consecutive_failures = 0
                    handle.healthy = True
                    continue
                handle.consecutive_failures += 1
                if (handle.consecutive_failures >= self.health_failures
                        or not handle.alive):
                    handle.healthy = False
                    await self._evict_and_respawn(worker_id, handle)

    async def _evict_and_respawn(self, worker_id: str,
                                 handle: WorkerHandle) -> None:
        self.evictions += 1
        self.ring.remove(worker_id)
        self.manager.evict(worker_id)
        self.breakers.pop(worker_id, None)
        await self.pool.forget(handle.host, handle.port)
        if not self._closing \
                and len(self.manager.workers) < self.num_workers:
            try:
                replacement = await self.manager.spawn()
            except Exception:       # noqa: BLE001 - retried next tick
                return
            self.ring.add(replacement.worker_id)
            self.breakers[replacement.worker_id] = self._new_breaker()
            self.respawns += 1

    # -- HTTP front door ----------------------------------------------------

    async def _handle(self, request: HttpRequest) -> HttpResponse:
        try:
            return await self._route(request)
        except ProtocolError as error:
            # Valid HTTP, but not a body this endpoint accepts.
            return error_response(400, str(error), reason="bad_request")

    async def _route(self, request: HttpRequest) -> HttpResponse:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return json_response({
                "ok": self._running and not self._closing,
                "workers": len(self.manager.workers) if self.manager else 0,
                "models": sorted(self.models)})
        if route == ("GET", "/v1/models"):
            return json_response({"models": [
                {"name": state.spec.name, "kind": state.spec.kind,
                 "route_key": state.key,
                 "replicas": self.replicas_per_model,
                 "placement": [h.worker_id
                               for h in self._placement(state)]}
                for state in self.models.values()]})
        if route == ("POST", "/v1/predict"):
            return await self._handle_predict(request)
        if route == ("GET", "/metrics"):
            return json_response(await self.metrics())
        if request.path.startswith(_ARTIFACT_PREFIX):
            return await self._handle_artifact(request)
        return error_response(404, f"no route {request.method} "
                                   f"{request.path} on this gateway")

    async def _handle_predict(self, request: HttpRequest) -> HttpResponse:
        if self._closing or not self._running:
            return error_response(503, "fleet is draining; "
                                       "not accepting new requests",
                                  reason="draining")
        payload = request.json_object()
        model = payload.get("model")
        if not isinstance(model, str) or model not in self.models:
            return error_response(
                404, f"unknown model {model!r}; deployed: "
                     f"{sorted(self.models)}", reason="unknown_model")
        inputs, deadline_ms, priority = predict_fields(payload)
        try:
            reply = await self.predict(model, inputs,
                                       deadline_ms=deadline_ms,
                                       priority=priority)
        except FleetAdmissionError as error:
            return error_response(
                429, str(error), reason="queue_full",
                headers={"Retry-After": f"{error.retry_after_s:g}"})
        except FleetDeadlineError as error:
            return error_response(504, str(error),
                                  reason="deadline_exceeded")
        except FleetError as error:
            return error_response(503, str(error),
                                  reason="dispatch_failed")
        except (TypeError, ValueError) as error:
            return error_response(400, str(error))
        return json_response(reply)

    async def _handle_artifact(self, request: HttpRequest) -> HttpResponse:
        key = request.path[len(_ARTIFACT_PREFIX):]
        if request.method == "GET":
            try:
                found = self.blobs.get(key)
            except NetworkArtifactError as error:
                return error_response(400, str(error))
            if found is None:
                return error_response(404, f"no artifact blob for "
                                           f"route key {key[:16]}…")
            data, digest = found
            return HttpResponse(
                status=200,
                headers={"Content-Type": "application/x-tar",
                         SHA_HEADER: digest},
                body=data)
        if request.method == "PUT":
            declared = request.headers.get(SHA_HEADER.lower())
            if not declared:
                return error_response(400, f"PUT requires the "
                                           f"{SHA_HEADER} header")
            try:
                self.blobs.put(key, request.body, declared)
            except NetworkArtifactError as error:
                return error_response(400, str(error))
            return json_response({"ok": True, "sha256": declared},
                                 status=201)
        return error_response(405, f"artifact plane supports GET/PUT, "
                                   f"not {request.method}")

    # -- observability ------------------------------------------------------

    async def metrics(self) -> dict:
        """Fleet counters + live per-worker ``/metrics`` snapshots."""
        workers: dict[str, Any] = {}
        for worker_id, handle in list(self.manager.workers.items()):
            entry: dict[str, Any] = {
                "port": handle.port, "healthy": handle.healthy,
                "alive": handle.alive,
                "hosted": sorted(handle.hosted)}
            try:
                response = await self.pool.request(
                    handle.host, handle.port, "GET", "/metrics",
                    timeout=5.0)
                if response.status == 200:
                    entry["metrics"] = response.json()
            except FleetConnectionError:
                entry["metrics"] = None
            workers[worker_id] = entry
        return {
            "fleet": {
                "workers": len(self.manager.workers),
                "evictions": self.evictions,
                "respawns": self.respawns,
                "store_blobs": self.blobs.keys() if self.blobs else [],
                "store_evictions": (self.blobs.evictions
                                    if self.blobs else 0),
                "breaker_opens": sum(b.opens
                                     for b in self.breakers.values()),
                "breakers": {worker_id: {"state": breaker.state,
                                         "opens": breaker.opens}
                             for worker_id, breaker
                             in sorted(self.breakers.items())},
                "models": {
                    state.spec.name: {
                        "route_key": state.key,
                        "replicas": self.replicas_per_model,
                        "queue_depth": len(state.queue),
                        "inflight": state.inflight,
                        "served": state.served,
                        "failed": state.failed,
                        "retries": state.retries,
                        "sheds": state.sheds,
                        "rejections": state.rejections,
                    } for state in self.models.values()},
            },
            "workers": workers,
        }


async def _cancel_and_wait(tasks: list[asyncio.Task],
                           poll_s: float = 0.2) -> None:
    """Cancel tasks and wait until every one has actually finished.

    A ``cancel()`` is delivered once, and a task can absorb it in any
    code it awaits that catches ``CancelledError`` without re-raising.
    The dispatch and health loops await code this module does not own —
    ``PumaFleet.pool`` is replaceable, and an ``asyncio.wait_for`` there
    drops a cancel that races the inner result on Python < 3.12.  A task
    that absorbed its cancel parks on its next ``await``, where a plain
    ``cancel() + gather()`` would wait for it forever; re-issuing
    ``cancel()`` until ``asyncio.wait`` reports every task done bounds
    shutdown without trusting every ``await`` on the path.
    """
    pending = {task for task in tasks if not task.done()}
    while pending:
        for task in pending:
            task.cancel()
        _, pending = await asyncio.wait(pending, timeout=poll_s)


def _item_replies(response: HttpResponse,
                  count: int) -> tuple[dict, list[dict]]:
    """One exchange's reply as ``(envelope, per-rider outcomes)``.

    A 200 must carry ``replies``: one object with an integer ``status``
    per rider, in order; the envelope (``model``, ``worker``) is what
    every 200 rider's reply shares.  Anything else under a 200 is a
    garbage body (:class:`ProtocolError`).  A non-200 response (409 not
    hosted, a whole-exchange 500) is every rider's outcome.
    """
    if response.status != 200:
        outcome = {"status": response.status,
                   "error": _error_text(response)}
        return {}, [dict(outcome) for _ in range(count)]
    envelope = response.json()
    replies = (envelope.pop("replies", None)
               if isinstance(envelope, dict) else None)
    if not isinstance(replies, list) or len(replies) != count \
            or not all(isinstance(reply, dict)
                       and isinstance(reply.get("status"), int)
                       for reply in replies):
        raise ProtocolError(f"garbage 200 body: no reply item for each "
                            f"of {count} request(s)")
    return envelope, replies


def _error_text(response: HttpResponse) -> str:
    try:
        parsed = response.json()
        if isinstance(parsed, dict) and "error" in parsed:
            return str(parsed["error"])
    except Exception:  # noqa: BLE001 - body may be anything
        pass
    return response.body[:200].decode("utf-8", "replace")

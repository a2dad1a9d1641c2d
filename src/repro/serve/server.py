"""PumaServer: an async serving front-end with SLO-aware micro-batching.

The programmed crossbars are a fixed endpoint (Section 3.2.5: weights are
written once at configuration time); serving is software's job.
:class:`PumaServer` is that layer: concurrent clients submit single
inferences (optionally carrying a ``priority`` and a ``deadline_s``
budget), the scheduler (:mod:`repro.serve.scheduler`) orders the
queue and decides when the forming batch dispatches, and each client gets
back its own :class:`~repro.serve.types.RunResult`.  Because batched
execution is bitwise identical to sequential single-input runs (the
engine's core guarantee), coalescing is invisible to clients except in
latency and throughput.

Batch formation is **work-conserving by default**: an idle engine takes
whatever is queued the moment it arrives, and requests that arrive
while a pass is in flight form the next batch.  The weights are
stationary, so a batch buys throughput but is never needed for
efficiency — nothing waits on a clock unless the caller asks for it
with an explicit ``batch_window_s``.

The queue is priority-then-earliest-deadline (EDF) order with an
early-close rule: an explicit window also closes when the most urgent
queued deadline can no longer afford waiting, given the EWMA-observed
per-batch service time.  It degenerates to exact FIFO when no request
carries a priority or deadline.

The serve loop does three things: it pops up to ``max_batch_size``
riders, runs them as one ``predict`` pass on the event loop, and
resolves each rider with its lane of the result.  It yields once after
each pass (``PumaServer._serve_batch`` says why).

All wall-clock decisions go through an injectable :class:`Clock`
(:mod:`repro.serve.clock`), so the deterministic test harness drives
windows, deadlines, and EDF order on virtual time.

Usage::

    engine = InferenceEngine(model, seed=0)
    async with PumaServer(engine, max_batch_size=16) as server:
        results = await asyncio.gather(
            *(server.submit({"x": x}, deadline_s=0.2) for x in requests))
    print(server.counters.summary())
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.serve.clock import Clock, MonotonicClock
from repro.serve.scheduler import BatchScheduler
from repro.serve.sharding import ShardedEngine
from repro.serve.types import InferenceRequest, RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine import InferenceEngine


def check_priority(priority) -> int:
    """``priority`` as an ``int``, or :class:`ValueError`.

    The one rule for every way in — :meth:`PumaServer.admit`,
    ``PumaFleet.predict`` and the fleet's wire fields: a priority is an
    integer.  A boolean, a fraction, a non-finite float or a string is
    refused, never truncated or parsed.

    >>> check_priority(3), check_priority(2.0)
    (3, 2)
    """
    try:
        if isinstance(priority, bool) or int(priority) != priority:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"bad priority {priority!r} "
                         f"(must be an integer)") from None
    return int(priority)


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before it reached an engine.

    Raised to the submitter when a deadline-carrying request is shed at
    batch-formation time (it never occupies a batch lane) or was
    already expired on arrival.  The fleet maps this to HTTP 504 with
    reason ``deadline_exceeded``.
    """


class AdmissionError(RuntimeError):
    """The server's bounded queue is full; the request was not enqueued.

    Fast rejection is the point: under a burst the client gets this
    immediately (HTTP 429 + ``Retry-After`` at the fleet layer) instead
    of queueing toward an inevitable timeout.
    """


@dataclass
class ServerCounters:
    """Aggregate serving statistics, updated per coalesced batch.

    Attributes:
        max_batch_size: the server's batching limit (denominator of
            :attr:`mean_occupancy`).
        requests_served: requests answered successfully.
        requests_failed: requests answered with an exception.
        requests_shed: deadline-expired requests failed at batch
            formation or on arrival (they never occupy a lane).
        requests_rejected: requests refused at admission (queue full).
        batches_formed: engine passes executed.
        lanes_simulated: total batch lanes across all passes (equals
            ``requests_served`` + failed lanes).
    """

    max_batch_size: int = 1
    requests_served: int = 0
    requests_failed: int = 0
    requests_shed: int = 0
    requests_rejected: int = 0
    batches_formed: int = 0
    lanes_simulated: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests coalesced per simulator pass."""
        if self.batches_formed == 0:
            return 0.0
        return self.lanes_simulated / self.batches_formed

    @property
    def mean_occupancy(self) -> float:
        """Mean batch fill fraction relative to ``max_batch_size``."""
        return self.mean_batch_size / self.max_batch_size

    def summary(self) -> str:
        return (f"requests served: {self.requests_served}, "
                f"batches formed: {self.batches_formed}, "
                f"mean batch size: {self.mean_batch_size:.2f} "
                f"({self.mean_occupancy * 100:.0f}% of "
                f"max {self.max_batch_size})")


@dataclass
class _Pending:
    """A queued request plus the future its client is awaiting."""

    request: InferenceRequest
    future: "asyncio.Future[RunResult]" = field(repr=False)
    # Absolute clock.now() after which the request is shed, or None.
    deadline_at: float | None = None
    priority: int = 0


class PumaServer:
    """Queueing + scheduled micro-batching front-end over one engine.

    Args:
        engine: the :class:`~repro.engine.InferenceEngine` to serve.  The
            engine's compiled program and seed are fixed for the server's
            lifetime (program the crossbars once, stream requests through).
        max_batch_size: most requests coalesced into one simulator pass.
        batch_window_s: how long an *idle* engine holds an under-full
            batch open waiting for more arrivals.  ``0`` (the default)
            never holds: coalescing comes only from requests already
            queued — those that arrived together or during the previous
            pass.  A positive window trades that latency for fill (the
            EDF early-close rule can only shorten it, never extend it).
        num_shards: replica nodes the *modelled* node group has: each
            coalesced micro-batch runs as that many sequential shard
            passes (:class:`~repro.serve.sharding.ShardedEngine`) whose
            merged stats are cycles = max, energy = sum.  1 (the
            default) serves every batch as one pass.  Per-request
            results are bitwise identical either way; host CPUs are
            spent by fleet workers, not here.
        artifact_dir: persistent artifact store directory
            (:mod:`repro.store`).  On :meth:`start` the engine
            warm-starts from (or populates) the store — a freshly-spawned
            serving process skips compilation, crossbar programming, and
            tape recording when a prior process left an artifact.
        max_queue_depth: admission bound; when this many requests are
            already waiting, :meth:`submit` raises
            :class:`AdmissionError` instead of enqueueing (``None`` =
            unbounded, the pre-resilience behavior).
        clock: time source for windows, deadlines, and EDF decisions
            (default: real monotonic time).  Tests inject a
            :class:`~repro.serve.clock.VirtualClock`.

    Requests are float-first: clients submit 1-D float vectors per model
    input and receive dequantized floats (plus the fixed-point words) in
    their :class:`RunResult`.  Validation happens at ``admit`` time —
    *before* any counter or queue-slot side effect — so a malformed
    request fails fast in the caller instead of poisoning a batch.
    """

    def __init__(self, engine: "InferenceEngine", *,
                 max_batch_size: int = 16,
                 batch_window_s: float = 0.0,
                 num_shards: int = 1,
                 artifact_dir=None,
                 max_queue_depth: int | None = None,
                 clock: Clock | None = None) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, "
                             f"got {max_batch_size}")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, "
                             f"got {max_queue_depth}")
        self.engine = engine
        self.max_batch_size = max_batch_size
        self.batch_window_s = batch_window_s
        self.num_shards = num_shards
        self.artifact_dir = artifact_dir
        self.max_queue_depth = max_queue_depth
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._scheduler = BatchScheduler(max_batch_size=max_batch_size,
                                         batch_window_s=batch_window_s)
        self.counters = ServerCounters(max_batch_size=max_batch_size)
        self._arrival: asyncio.Event | None = None
        self._batcher_task: asyncio.Task | None = None
        # What runs a pass: the engine, or a ShardedEngine over it.
        self._runner = (ShardedEngine(engine, num_shards=num_shards)
                        if num_shards > 1 else engine)
        # The riders of the pass being formed or run (the crash path
        # fails them with the queue).
        self._claimed: list[_Pending] = []
        self._closed = False
        self._next_request_id = 0

    @property
    def scheduler(self) -> BatchScheduler:
        """The live scheduler (counters, service-time EWMA)."""
        return self._scheduler

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "PumaServer":
        """Spawn the batching loop; idempotent."""
        if self._batcher_task is None:
            if self.artifact_dir is not None or \
                    self.engine.artifact_dir is not None:
                # Cross-process warm start: adopt (or write) the on-disk
                # artifact before serving, with a tape pre-recorded for
                # full coalesced batches.
                self.engine.ensure_artifacts(self.artifact_dir,
                                             batch=self.max_batch_size)
            self._arrival = asyncio.Event()
            self._closed = False
            self._batcher_task = asyncio.create_task(self._serve_loop())
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Shut down without abandoning anyone.

        With ``drain=True`` (the default) every request already queued is
        still served before the batching loop exits — shutdown is
        invisible to clients that made it into the queue.  With
        ``drain=False`` the in-flight micro-batch (the one already
        executing on the engine) completes, but requests still waiting in
        the queue fail immediately with a clear :class:`RuntimeError`
        instead of being served — the fast path for tearing down a
        misbehaving replica.

        Either way the method guarantees **no pending future is ever
        abandoned**: even if the batching loop died mid-batch (its
        exception is re-raised here), every queued request has been
        failed with the loop's error rather than left hanging.
        """
        if self._batcher_task is None:
            return
        self._closed = True
        if not drain:
            self._fail_queued(RuntimeError(
                "PumaServer stopped before this request was served "
                "(stop(drain=False) fails queued requests; the in-flight "
                "micro-batch still completes)"))
        self._arrival.set()
        try:
            await self._batcher_task
        finally:
            self._batcher_task = None
            self._arrival = None

    async def __aenter__(self) -> "PumaServer":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # -- client API --------------------------------------------------------

    async def submit(self, inputs: dict[str, np.ndarray], *,
                     deadline_s: float | None = None,
                     priority: int = 0) -> RunResult:
        """Submit one inference: :meth:`admit`, then await its result."""
        return await self.admit(inputs, deadline_s=deadline_s,
                                priority=priority)

    def admit(self, inputs: dict[str, np.ndarray], *,
              deadline_s: float | None = None,
              priority: int = 0) -> "asyncio.Future[RunResult]":
        """The synchronous half of :meth:`submit`: validate, shed on
        arrival, apply the admission bound and enqueue one inference
        (float 1-D vectors by input name); returns the future its result
        lands on.  Riders admitted in one loop turn form one batch.

        Args:
            inputs: 1-D float vector per model input name.
            deadline_s: remaining time budget in seconds; the request is
                shed (:class:`DeadlineExceeded`) if it has not reached an
                engine pass when the budget runs out.  Must be finite.
            priority: an integer; larger = served strictly sooner
                (ties broken by deadline, then arrival).

        The future resolves to this request's :class:`RunResult` once the
        batch it was coalesced into completes.  Raises :class:`ValueError`
        for unknown/missing input names, wrong vector lengths, a
        non-finite ``deadline_s``, or a priority that is not an integer
        (:func:`check_priority`); :class:`RuntimeError` if the server is
        not running; :class:`DeadlineExceeded` if the deadline already
        expired on arrival (counted as shed — the request will never be
        servable, so it is not charged against the queue bound);
        and :class:`AdmissionError` if the bounded queue is full.

        Ordering note: all *validation* happens before any side effect —
        a rejected request never increments a counter, consumes a
        request id, or occupies a queue slot.
        """
        if self._batcher_task is None or self._closed:
            raise RuntimeError("server is not running (use 'async with "
                               "PumaServer(engine):' or await start())")
        # Pure validation first: no counter, id, or queue-slot side
        # effects until the request is known to be well-formed.
        request_inputs = {name: np.asarray(values, dtype=np.float64)
                          for name, values in inputs.items()}
        self.engine.validate_request(request_inputs)
        priority = check_priority(priority)
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if not math.isfinite(deadline_s):
                raise ValueError(
                    f"deadline_s must be finite, got {deadline_s} "
                    f"(omit it for no deadline)")
        if deadline_s is not None and deadline_s <= 0:
            self.counters.requests_shed += 1
            raise DeadlineExceeded(
                f"deadline expired {-deadline_s * 1000:.0f}ms before "
                f"the request was enqueued")
        if self.max_queue_depth is not None and \
                len(self._scheduler) >= self.max_queue_depth:
            self.counters.requests_rejected += 1
            raise AdmissionError(
                f"queue full ({self.max_queue_depth} requests waiting); "
                f"retry later")
        deadline_at = (self._clock.now() + deadline_s
                       if deadline_s is not None else None)
        request = InferenceRequest(
            inputs=request_inputs, request_id=self._next_request_id)
        self._next_request_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._scheduler.push(
            _Pending(request, future, deadline_at, priority),
            priority=priority, deadline_at=deadline_at)
        self._arrival.set()
        return future

    # -- shared loop helpers -----------------------------------------------

    async def _wait_arrival(self, timeout: float | None) -> None:
        """Park until a new arrival/stop signal, or ``timeout`` clock-secs.

        The caller must have *cleared* the arrival event before checking
        the condition it is waiting on (a submit between the check and
        this wait then completes the event immediately — no lost wakeup).
        """
        if timeout is None:
            await self._arrival.wait()
            return
        waiter = asyncio.ensure_future(self._arrival.wait())
        sleeper = asyncio.ensure_future(self._clock.sleep(timeout))
        _done, pending = await asyncio.wait(
            {waiter, sleeper}, return_when=asyncio.FIRST_COMPLETED)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    def _shed_expired_queued(self) -> None:
        """Shed every queued request whose deadline has passed.

        Shedding happens at batch-formation time, before a lane is
        spent: a request whose deadline already passed gets a prompt
        :class:`DeadlineExceeded` instead of riding (and slowing) a
        batch whose answer nobody is waiting for anymore.
        """
        for pending in self._scheduler.pop_expired(self._clock.now()):
            self.counters.requests_shed += 1
            if not pending.future.done():
                pending.future.set_exception(DeadlineExceeded(
                    f"deadline passed while request "
                    f"{pending.request.request_id} waited in the "
                    f"batch queue"))

    def _fail_queued(self, error: BaseException) -> None:
        """Resolve every still-queued request with ``error`` (no hangs)."""
        for pending in self._scheduler.drain():
            self.counters.requests_failed += 1
            if not pending.future.done():
                pending.future.set_exception(error)

    def _crash(self, error: BaseException) -> RuntimeError:
        """Fail the claimed riders + queue after a loop crash; wrap it."""
        failure = RuntimeError(
            f"PumaServer batching loop crashed: "
            f"{type(error).__name__}: {error}")
        failure.__cause__ = error
        self._fail_riders(self._claimed, failure)
        self._claimed = []
        self._fail_queued(failure)
        return failure

    def _fail_riders(self, riders: list[_Pending],
                     error: BaseException) -> None:
        self.counters.requests_failed += len(riders)
        for pending in riders:
            if not pending.future.done():
                pending.future.set_exception(error)

    # -- the serve loop ----------------------------------------------------

    async def _serve_loop(self) -> None:
        window_started_at: float | None = None
        try:
            while True:
                self._arrival.clear()
                self._shed_expired_queued()
                depth = len(self._scheduler)
                if depth == 0:
                    window_started_at = None
                    if self._closed:
                        return
                    await self._wait_arrival(None)
                    continue
                if not self._closed and depth < self.max_batch_size:
                    # Under-full queue: with no window (the default) the
                    # first hold_for is <= 0 and the batch is whatever is
                    # queued.  An explicit window is held per the
                    # scheduler (deadline pressure closes it early),
                    # re-evaluated on every arrival.
                    if window_started_at is None:
                        window_started_at = self._clock.now()
                    hold = self._scheduler.hold_for(
                        self._clock.now(), window_started_at)
                    if hold > 0:
                        await self._wait_arrival(hold)
                        continue
                window_started_at = None
                self._claimed = self._scheduler.pop_batch(
                    self.max_batch_size)
                self.counters.batches_formed += 1
                self.counters.lanes_simulated += len(self._claimed)
                await self._serve_batch()
        except BaseException as error:
            # The loop itself crashed (not a failed pass — _serve_batch
            # hands those to the riders).  A dead loop must not leave
            # clients awaiting futures that will never resolve: fail the
            # claimed riders and everything still queued, then surface
            # the error to stop().
            failure = self._crash(error)
            if isinstance(error, asyncio.CancelledError):
                raise
            raise failure from error

    async def _serve_batch(self) -> None:
        """One ``predict`` pass over the claimed riders, on the loop.

        The pass is GIL-bound, so a thread hop bought it no concurrency.
        Its outcome — a result to slice per lane, or the exception the
        pass raised — goes to the riders' futures; nothing a pass raises
        escapes to kill the serve loop.  The one yield after it lets
        sibling servers and new arrivals in between passes.
        """
        riders = self._claimed
        started_at = self._clock.now()
        try:
            # Looked up per pass: tests wrap the engine's predict.
            result = self._runner.predict({
                name: np.stack([p.request.inputs[name] for p in riders])
                for name in riders[0].request.inputs})
        except Exception as error:  # noqa: BLE001 - fail every rider
            self._fail_riders(riders, error)
        else:
            self._scheduler.observe_service(
                len(riders), self._clock.now() - started_at)
            for index, pending in enumerate(riders):
                self.counters.requests_served += 1
                if not pending.future.done():
                    pending.future.set_result(result.lane(index))
        self._claimed = []
        await asyncio.sleep(0)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """One observable snapshot of this server's health.

        Combines the per-server batching counters and the scheduler's
        queue-side accounting (policy, admission/dispatch/shed/early-
        close counts, service-time EWMA) with the process-wide cache
        counters every serving layer shares — the execution-tape cache
        (recordings/replays/**fallbacks**), the compile cache
        (hits/misses), and the artifact store (saves/loads/rejections) —
        so an operator (or the fleet ``/metrics`` endpoint,
        :mod:`repro.fleet`) can see cache health per worker without
        poking process internals.
        """
        from repro.engine import compile_cache_info, tape_cache_info
        from repro.store import store_info

        return {
            "requests_served": self.counters.requests_served,
            "requests_failed": self.counters.requests_failed,
            "requests_shed": self.counters.requests_shed,
            "requests_rejected": self.counters.requests_rejected,
            "batches_formed": self.counters.batches_formed,
            "lanes_simulated": self.counters.lanes_simulated,
            "mean_batch_size": self.counters.mean_batch_size,
            "mean_occupancy": self.counters.mean_occupancy,
            "max_batch_size": self.max_batch_size,
            "queue_depth": len(self._scheduler),
            "running": self._batcher_task is not None and not self._closed,
            "scheduler": self._scheduler.stats(),
            "tape_cache": tape_cache_info()._asdict(),
            "compile_cache": compile_cache_info()._asdict(),
            "artifact_store": store_info()._asdict(),
        }

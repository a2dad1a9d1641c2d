"""PumaServer: an async serving front-end with work-conserving batching.

The programmed crossbars are a fixed endpoint (Section 3.2.5: weights are
written once at configuration time); serving is software's job.
:class:`PumaServer` is that layer: concurrent clients submit single
inferences (optionally carrying a ``priority`` and a ``deadline_s``
budget), the EDF queue (:mod:`repro.serve.scheduler`) orders them, and
each client gets back its own :class:`~repro.serve.types.RunResult`.
Because batched execution is bitwise identical to sequential
single-input runs (the engine's core guarantee), coalescing is
invisible to clients except in latency and throughput.

Batch formation is **work-conserving**: an idle engine takes whatever
is queued the moment it arrives, and requests that arrive while a pass
is in flight form the next batch.  The weights are stationary, so a
batch buys throughput but is never needed for efficiency — nothing
waits on a clock for company.

The serve loop does three things: it pops up to ``max_batch_size``
riders, runs them as one ``predict`` pass on the event loop, and
resolves each rider with its lane of the result.  It yields once after
each pass (``PumaServer._serve_batch`` says why).

Deadlines are measured on an injectable :class:`Clock`
(:mod:`repro.serve.clock`), so the deterministic test harness drives
them on virtual time.

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
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.serve.clock import Clock, MonotonicClock
from repro.serve.scheduler import BatchScheduler, _Pending
from repro.serve.types import RunResult

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


def check_deadline(deadline, name: str = "deadline") -> float | None:
    """A deadline budget as a ``float`` (``None`` stays ``None``), or
    :class:`ValueError`.

    The one rule for every way in — :meth:`PumaServer.admit`'s
    ``deadline_s``, ``PumaFleet.predict``'s ``deadline_ms`` and the
    fleet's wire field: a deadline is a finite real number.  A boolean,
    a string or a non-finite value is refused, never parsed.  A budget
    that is already spent (``<= 0``) passes; its owner sheds it.

    >>> check_deadline(250), check_deadline(None)
    (250.0, None)
    """
    if deadline is None:
        return None
    if isinstance(deadline, bool) or not isinstance(deadline, numbers.Real) \
            or not math.isfinite(deadline):
        raise ValueError(f"bad {name} {deadline!r} (must be a finite "
                         f"number; omit it for no deadline)")
    return float(deadline)


def check_vector(values, name: str = "x") -> np.ndarray:
    """Input vector ``name`` as a float64 array, or :class:`ValueError`.

    The one rule for every way in — :meth:`PumaServer.admit`,
    ``PumaFleet.predict`` and the fleet's wire: an input holds integers
    or floats.  A boolean, a string or a ``null`` is refused, never
    parsed or cast, and so is an integer too large for int64 (numpy
    types it as an object).  Shape, length and NaN are the engine's
    rules (:meth:`repro.engine.InferenceEngine.validate_request`).

    >>> check_vector([1, 2.5])
    array([1. , 2.5])
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad input {name!r}: {error}") from None
    # numpy types [True, 0.5] as floats: the list itself shows the bool.
    if arr.dtype.kind not in "iuf" or (
            isinstance(values, list) and bool in map(type, values)):
        raise ValueError(f"bad input {name!r}: values must be integers "
                         f"or floats")
    return arr.astype(np.float64, copy=False)


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


class PumaServer:
    """Queueing + work-conserving micro-batching over one engine.

    Args:
        engine: the :class:`~repro.engine.InferenceEngine` to serve.  The
            engine's compiled program and seed are fixed for the server's
            lifetime (program the crossbars once, stream requests through).
            An engine built with an ``artifact_dir`` warm-starts from (or
            populates) that store on :meth:`start`.
        max_batch_size: most requests coalesced into one simulator pass.
        max_queue_depth: admission bound; when this many requests are
            already waiting, :meth:`submit` raises
            :class:`AdmissionError` instead of enqueueing (``None`` =
            unbounded).
        clock: time source for deadlines (default: real monotonic
            time); tests inject a :class:`~repro.serve.clock.VirtualClock`.

    Requests are float-first: clients submit 1-D float vectors per model
    input and receive dequantized floats (plus the fixed-point words) in
    their :class:`RunResult`.  Validation happens at ``admit`` time —
    *before* any counter or queue-slot side effect — so a malformed
    request fails fast in the caller instead of poisoning a batch.
    """

    def __init__(self, engine: "InferenceEngine", *,
                 max_batch_size: int = 16,
                 max_queue_depth: int | None = None,
                 clock: Clock | None = None) -> None:
        # The live EDF queue (counters, service-time EWMA).
        self.scheduler = BatchScheduler(max_batch_size=max_batch_size,
                                        max_queue_depth=max_queue_depth)
        self.engine = engine
        self.max_batch_size = max_batch_size
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self.counters = ServerCounters(max_batch_size=max_batch_size)
        self._batcher_task: asyncio.Task | None = None
        # The riders of the pass being run (the crash path fails them
        # with the queue).
        self._claimed: list[_Pending] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "PumaServer":
        """Spawn the batching loop; idempotent."""
        if self._batcher_task is None:
            if self.engine.artifact_dir is not None:
                # Cross-process warm start: adopt (or write) the on-disk
                # artifact before serving, with a tape pre-recorded for
                # full coalesced batches.
                self.engine.ensure_artifacts(batch=self.max_batch_size)
            self.scheduler.closed = False
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
        self.scheduler.close()
        if not drain:
            self._fail_queued(RuntimeError(
                "PumaServer stopped before this request was served "
                "(stop(drain=False) fails queued requests; the in-flight "
                "micro-batch still completes)"))
        try:
            await self._batcher_task
        finally:
            self._batcher_task = None

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
                engine pass when the budget runs out.  A finite number
                (:func:`check_deadline`).
            priority: an integer; larger = served strictly sooner
                (ties broken by deadline, then arrival).

        The future resolves to this request's :class:`RunResult` once the
        batch it was coalesced into completes.  Raises :class:`ValueError`
        for values that are not numeric vectors (:func:`check_vector`),
        unknown/missing input
        names, wrong vector lengths, a
        ``deadline_s`` that is not a finite number
        (:func:`check_deadline`), or a priority that is not an integer
        (:func:`check_priority`); :class:`RuntimeError` if the server is
        not running; :class:`DeadlineExceeded` if the deadline already
        expired on arrival (counted as shed — the request will never be
        servable, so it is not charged against the queue bound);
        and :class:`AdmissionError` if the bounded queue is full.

        Ordering note: all *validation* happens before any side effect —
        a rejected request never increments a counter, consumes an
        arrival number, or occupies a queue slot.
        """
        if self._batcher_task is None or self.scheduler.closed:
            raise RuntimeError("server is not running (use 'async with "
                               "PumaServer(engine):' or await start())")
        # Pure validation first: no side effects until the request is
        # known to be well-formed.
        request_inputs = {name: check_vector(values, name)
                          for name, values in inputs.items()}
        self.engine.validate_request(request_inputs)
        priority = check_priority(priority)
        deadline_s = check_deadline(deadline_s, "deadline_s")
        if deadline_s is not None and deadline_s <= 0:
            self.counters.requests_shed += 1
            raise DeadlineExceeded(
                f"deadline expired {-deadline_s * 1000:.0f}ms before "
                f"the request was enqueued")
        if self.scheduler.full:
            self.counters.requests_rejected += 1
            raise AdmissionError(
                f"queue full ({self.scheduler.max_queue_depth} requests "
                f"waiting); retry later")
        deadline_at = (self._clock.now() + deadline_s
                       if deadline_s is not None else None)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.scheduler.push(request_inputs, future, priority=priority,
                            deadline_at=deadline_at)
        return future

    # -- shared loop helpers -----------------------------------------------

    def _shed_expired_queued(self) -> None:
        """Shed every queued request whose deadline has passed.

        Shedding happens at batch-formation time, before a lane is
        spent: a request whose deadline already passed gets a prompt
        :class:`DeadlineExceeded` instead of riding (and slowing) a
        batch whose answer nobody is waiting for anymore.
        """
        for pending in self.scheduler.pop_expired(self._clock.now()):
            self.counters.requests_shed += 1
            if not pending.future.done():
                pending.future.set_exception(DeadlineExceeded(
                    f"deadline passed while request {pending.seq} "
                    f"waited in the batch queue"))

    def _fail_queued(self, error: BaseException) -> None:
        """Resolve every still-queued request with ``error`` (no hangs)."""
        self._fail_riders(self.scheduler.drain(), error)

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
        queue = self.scheduler
        try:
            while True:
                self._shed_expired_queued()
                if not len(queue):
                    if queue.closed:
                        return
                    await queue.wait()
                    continue
                self._claimed = queue.pop_batch()
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
            result = self.engine.predict({
                name: np.stack([p.payload[name] for p in riders])
                for name in riders[0].payload})
        except Exception as error:  # noqa: BLE001 - fail every rider
            self._fail_riders(riders, error)
        else:
            self.scheduler.observe_service(
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

        Combines the per-server batching counters and the queue's
        accounting (policy, admission/dispatch/shed counts, per-size
        service-time EWMA) with the process-wide cache counters every
        serving layer shares — the execution-tape cache
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
            "queue_depth": len(self.scheduler),
            "running": (self._batcher_task is not None
                        and not self.scheduler.closed),
            "scheduler": self.scheduler.stats(),
            "tape_cache": tape_cache_info()._asdict(),
            "compile_cache": compile_cache_info()._asdict(),
            "artifact_store": store_info()._asdict(),
        }

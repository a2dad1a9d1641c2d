"""Load generation: deterministic bursty traces + an async replay client.

The fleet's acceptance story is *serving SLOs under realistic traffic*,
and realistic traffic is neither uniform nor single-model: arrivals come
in bursts, and heavy models share the wire with light ones.  This module
provides both halves of the load test:

* :func:`bursty_trace` — a **deterministic** arrival schedule: Poisson
  arrivals at a base rate, periodically multiplied through burst
  windows, with models drawn from a weighted mix.  Seeded
  ``numpy.random.default_rng`` end to end, so two runs (or two fleet
  sizes under comparison) replay the *identical* request sequence;
* :func:`run_trace` — an open-loop asyncio replay: each request fires at
  its scheduled offset (late if the fleet is saturated — queueing shows
  up as latency, exactly like real overload) against the gateway's
  ``POST /v1/predict``, over pooled keep-alive connections;
* :class:`LoadReport` — per-model and overall p50/p99 latency, achieved
  throughput, and the failure count split into typed buckets (what
  ``cli fleet`` and the fault soak in ``tests/test_fleet_e2e.py``
  assert on).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.http import (
    ConnectionPool,
    FleetConnectionError,
    FleetTimeoutError,
)


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, which model, which input seed."""

    at_s: float
    model: str
    request_seed: int


def bursty_trace(models: list[str], num_requests: int, *,
                 base_rate_rps: float = 50.0,
                 burst_every_s: float = 2.0,
                 burst_len_s: float = 0.5,
                 burst_multiplier: float = 4.0,
                 mix: list[float] | None = None,
                 seed: int = 0) -> list[Arrival]:
    """A deterministic mixed-model arrival schedule.

    Arrivals are exponential inter-arrival times at ``base_rate_rps``,
    except inside periodic burst windows (every ``burst_every_s``, for
    ``burst_len_s``) where the instantaneous rate is multiplied by
    ``burst_multiplier`` — the on/off burst shape that stresses queueing
    far more than its average rate suggests.  ``mix`` weights the model
    draw (uniform when omitted).

    Deterministic: same arguments, same schedule, bit for bit.
    """
    if not models:
        raise ValueError("need at least one model name")
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if base_rate_rps <= 0:
        raise ValueError("base_rate_rps must be positive")
    weights = np.full(len(models), 1.0 / len(models)) if mix is None \
        else np.asarray(mix, dtype=np.float64)
    if weights.shape != (len(models),) or (weights < 0).any() \
            or weights.sum() == 0:
        raise ValueError(f"mix must be {len(models)} non-negative weights")
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    arrivals: list[Arrival] = []
    now = 0.0
    for index in range(num_requests):
        in_burst = burst_every_s > 0 and \
            (now % burst_every_s) < burst_len_s
        rate = base_rate_rps * (burst_multiplier if in_burst else 1.0)
        now += float(rng.exponential(1.0 / rate))
        model = models[int(rng.choice(len(models), p=weights))]
        arrivals.append(Arrival(at_s=now, model=model,
                                request_seed=seed * 1_000_003 + index))
    return arrivals


@dataclass
class LoadReport:
    """What a replay measured: latencies, throughput, failures.

    ``failed`` is the total; it splits exactly into three typed
    buckets, because "failed" hides the distinction the fault soak
    must assert on:

    * ``timeouts`` — the client-side request timeout lapsed with *no*
      reply: the hang detector.  A resilient fleet keeps this at zero
      even under faults (it answers 5xx/429/504 instead of going
      silent);
    * ``rejections`` — the fleet answered with a non-200 status (shed,
      admission-refused, 5xx): loud, typed failure.  ``statuses``
      histograms them;
    * ``transport_errors`` — the connection dropped/reset mid-exchange.
    """

    num_requests: int
    completed: int
    failed: int
    elapsed_s: float
    timeouts: int = 0
    rejections: int = 0
    transport_errors: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    latencies_s: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 \
            else 0.0

    def percentile(self, q: float, model: str | None = None) -> float:
        """Latency percentile in seconds (pooled, or one model's).

        Linearly interpolated between order statistics (numpy's default
        ``linear`` method), so p99 of 100 samples sits between the two
        largest values instead of snapping to either.  Returns ``nan``
        when no request completed — use :meth:`to_dict` for a
        JSON-safe rendering (``nan`` is not valid JSON).
        """
        if model is None:
            values = [v for per_model in self.latencies_s.values()
                      for v in per_model]
        else:
            values = self.latencies_s.get(model, [])
        if not values:
            return float("nan")
        return float(np.percentile(np.asarray(values), q))

    def _percentile_ms(self, q: float, model: str | None = None
                       ) -> float | None:
        """Millisecond percentile for JSON: ``None`` instead of a
        non-finite value (an all-failed trace used to serialize
        ``NaN``, which ``json.dumps`` emits but no strict parser —
        including the CI dashboard — accepts)."""
        seconds = self.percentile(q, model)
        return seconds * 1e3 if np.isfinite(seconds) else None

    def to_dict(self) -> dict:
        """Strictly JSON-serializable for every report, including one with
        zero completed requests (percentiles become ``null``).
        """
        per_model = {
            model: {
                "requests": len(values),
                "p50_ms": self._percentile_ms(50, model),
                "p99_ms": self._percentile_ms(99, model),
            } for model, values in sorted(self.latencies_s.items())}
        return {
            "num_requests": self.num_requests,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "rejections": self.rejections,
            "transport_errors": self.transport_errors,
            "statuses": {str(status): count for status, count
                         in sorted(self.statuses.items())},
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self._percentile_ms(50),
            "p99_ms": self._percentile_ms(99),
            "per_model": per_model,
        }

    def summary(self) -> str:
        return (f"{self.completed}/{self.num_requests} ok "
                f"({self.failed} failed: {self.timeouts} timeout, "
                f"{self.rejections} rejected, "
                f"{self.transport_errors} transport) "
                f"in {self.elapsed_s:.2f}s — "
                f"{self.throughput_rps:.1f} req/s, "
                f"p50 {self.percentile(50) * 1e3:.1f} ms, "
                f"p99 {self.percentile(99) * 1e3:.1f} ms")


async def run_trace(host: str, port: int, trace: list[Arrival],
                    inputs_for, *, time_scale: float = 1.0,
                    request_timeout_s: float = 120.0,
                    max_errors_kept: int = 20,
                    deadline_ms: float | None = None,
                    on_reply=None) -> LoadReport:
    """Open-loop replay of a trace against a fleet front door.

    Args:
        host / port: the gateway address.
        trace: the arrival schedule (:func:`bursty_trace`).
        inputs_for: ``inputs_for(arrival) -> dict[str, list[float]]`` —
            the request body builder (seed it from
            ``arrival.request_seed`` for determinism).
        time_scale: multiply every scheduled offset (2.0 = half speed).
        request_timeout_s: per-request ceiling; lapses count as
            ``timeouts`` (the hang bucket).
        deadline_ms: when given, every request carries this end-to-end
            deadline; expired requests come back 504 (a *rejection*,
            not a timeout — the fleet answered).
        on_reply: optional ``on_reply(arrival, response)`` called for
            every 200 reply before it is counted — the hook the fault
            soak uses to compare each completed response bitwise
            against the single-engine reference.

    Every request is its own task firing at its scheduled offset —
    arrivals never wait for each other, so fleet saturation surfaces as
    queueing latency (and eventually timeouts), not a slower offered
    load.
    """
    pool = ConnectionPool()
    report = LoadReport(num_requests=len(trace), completed=0, failed=0,
                        elapsed_s=0.0)
    start = time.monotonic()

    async def fire(arrival: Arrival) -> None:
        delay = arrival.at_s * time_scale - (time.monotonic() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        payload: dict = {"model": arrival.model,
                         "inputs": inputs_for(arrival)}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        body = json.dumps(payload).encode()
        sent = time.monotonic()
        try:
            response = await pool.request(
                host, port, "POST", "/v1/predict", body=body,
                headers={"Content-Type": "application/json"},
                timeout=request_timeout_s)
        except FleetTimeoutError as error:
            # No reply at all within the client timeout: the one
            # failure mode a resilient fleet must never produce.
            report.failed += 1
            report.timeouts += 1
            if len(report.errors) < max_errors_kept:
                report.errors.append(f"{arrival.model}: {error}")
            return
        except FleetConnectionError as error:
            report.failed += 1
            report.transport_errors += 1
            if len(report.errors) < max_errors_kept:
                report.errors.append(f"{arrival.model}: {error}")
            return
        latency = time.monotonic() - sent
        if response.status == 200:
            if on_reply is not None:
                on_reply(arrival, response)
            report.completed += 1
            report.latencies_s.setdefault(arrival.model, []).append(latency)
        else:
            report.failed += 1
            report.rejections += 1
            report.statuses[response.status] = \
                report.statuses.get(response.status, 0) + 1
            if len(report.errors) < max_errors_kept:
                report.errors.append(
                    f"{arrival.model}: {response.status} "
                    f"{response.body[:120]!r}")

    try:
        await asyncio.gather(*(fire(arrival) for arrival in trace))
    finally:
        await pool.close()
    report.elapsed_s = time.monotonic() - start
    return report


def default_inputs_builder(input_layouts: dict[str, dict[str, int]]):
    """A deterministic request builder over known input layouts.

    ``input_layouts`` maps model name -> {input name: length}.  Returns
    a callable for :func:`run_trace` that draws each request's vectors
    from ``default_rng(arrival.request_seed)`` in sorted input order —
    so the same trace produces the same request bodies everywhere (the
    property the bitwise fleet-vs-engine comparisons rely on).
    """
    def inputs_for(arrival: Arrival) -> dict[str, list[float]]:
        layout = input_layouts[arrival.model]
        rng = np.random.default_rng(arrival.request_seed)
        return {name: rng.uniform(-1.0, 1.0, size=length).tolist()
                for name, length in sorted(layout.items())}
    return inputs_for

"""Resilience primitives: fault plans, injectors, breakers, backoff, LRU.

Everything in :mod:`repro.fleet.resilience` is seeded and
clock-injectable, so these tests drive fault windows, breaker cooldowns,
and backoff schedules deterministically — no sleeps, no real time.  The
worker-facing half (the chaos middleware intercepting live HTTP
traffic) runs an in-process :class:`FleetWorker` over real sockets,
mirroring ``tests/test_fleet.py``'s idiom; the cross-process story,
chaos soak included, is ``tests/test_fleet_e2e.py``.
"""

import asyncio
import json

import pytest

from repro.fleet import FleetModelSpec, FleetWorker
from repro.fleet.http import FleetConnectionError, HttpConnection
from repro.fleet.models import route_key
from repro.fleet.netstore import BlobStore, blob_digest
from repro.fleet.resilience import (
    FAULT_KINDS,
    GATEWAY_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    CircuitBreaker,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    backoff_delay,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120.0))


class FakeClock:
    """A manual monotonic clock for windows/cooldowns."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestFaultEvents:
    def test_every_kind_is_routed_somewhere(self):
        assert set(WORKER_FAULT_KINDS) | set(GATEWAY_FAULT_KINDS) \
            == set(FAULT_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultEvent("meteor")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kind="drop", at_s=-1.0), "must be >= 0"),
        (dict(kind="drop", count=0), "count must be >= 1"),
        (dict(kind="delay"), "positive delay_s"),
        (dict(kind="slow"), "positive delay_s"),
        (dict(kind="hang"), "positive duration_s"),
    ])
    def test_malformed_events_rejected(self, kwargs, message):
        with pytest.raises(FaultPlanError, match=message):
            FaultEvent(**kwargs)

    def test_from_dict_requires_a_kind(self):
        with pytest.raises(FaultPlanError, match="'kind'"):
            FaultEvent.from_dict({"at_s": 1.0})
        with pytest.raises(FaultPlanError, match="malformed"):
            FaultEvent.from_dict({"kind": "drop", "at_s": "soon"})


class TestFaultPlan:
    def test_round_trip_dict_and_file(self, tmp_path):
        plan = FaultPlan.sample(seed=5, workers=3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = plan.save(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded == plan
        # The saved file is plain JSON a human can edit.
        assert json.loads(path.read_text())["seed"] == 5

    def test_sample_covers_all_kinds_deterministically(self):
        plan = FaultPlan.sample(seed=9)
        assert {event.kind for event in plan.events} == set(FAULT_KINDS)
        assert plan == FaultPlan.sample(seed=9)
        assert plan != FaultPlan.sample(seed=10)

    def test_worker_and_gateway_slices(self):
        plan = FaultPlan(events=(
            FaultEvent("drop", worker=0),
            FaultEvent("drop", worker=1),
            FaultEvent("error"),                    # worker=None: all
            FaultEvent("corrupt_blob"),
        ))
        kinds_w0 = [e.kind for e in plan.for_worker(0)]
        assert kinds_w0 == ["drop", "error"]
        assert [e.kind for e in plan.for_worker(7)] == ["error"]
        assert [e.kind for e in plan.gateway_events()] == ["corrupt_blob"]
        # corrupt_blob never rides to a worker, drops never to a gateway.
        assert all(e.kind != "corrupt_blob" for e in plan.for_worker(0))

    def test_malformed_plans_rejected(self, tmp_path):
        with pytest.raises(FaultPlanError, match="must be an object"):
            FaultPlan.from_dict([1, 2])
        with pytest.raises(FaultPlanError, match="must be a list"):
            FaultPlan.from_dict({"events": "nope"})
        with pytest.raises(FaultPlanError, match="seed must be an int"):
            FaultPlan.from_dict({"seed": "zero"})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultPlanError):
            FaultPlan.load(bad)
        with pytest.raises(FaultPlanError):
            FaultPlan.load(tmp_path / "missing.json")
        with pytest.raises(FaultPlanError, match="workers must be >= 1"):
            FaultPlan.sample(workers=0)


class TestFaultInjector:
    def test_windows_open_and_close_on_the_clock(self):
        clock = FakeClock()
        injector = FaultInjector(clock=clock)
        injector.arm([FaultEvent("error", at_s=1.0, duration_s=2.0)])
        assert not injector.decide("/v1/predict").faulted
        clock.now = 1.5
        decision = injector.decide("/v1/predict")
        assert decision.error and not decision.garbage
        clock.now = 3.5                         # window closed
        assert not injector.decide("/v1/predict").faulted

    def test_count_budget_is_consumed(self):
        clock = FakeClock(1.0)
        injector = FaultInjector(clock=clock)
        injector.arm([FaultEvent("drop", duration_s=100.0, count=2)],
                     now=0.0)
        assert injector.decide("/a").drop
        assert injector.decide("/b").drop
        assert not injector.decide("/c").drop    # budget spent
        assert injector.fired == {"drop": 2}
        assert injector.active_kinds() == []

    def test_path_filter_and_protected_paths(self):
        clock = FakeClock(0.5)
        injector = FaultInjector(clock=clock)
        injector.arm([
            FaultEvent("error", duration_s=10.0, path="/v1/predict"),
            FaultEvent("drop", duration_s=10.0),
        ], now=0.0)
        assert not injector.decide("/metrics").error     # path filtered
        assert injector.decide("/metrics").drop          # unfiltered
        # Control endpoints are never faulted, by any event.
        assert not injector.decide("/v1/chaos").faulted
        assert not injector.decide("/v1/shutdown").faulted

    def test_hang_sleeps_to_window_end_and_delays_stack(self):
        clock = FakeClock(2.0)
        injector = FaultInjector(clock=clock)
        injector.arm([
            FaultEvent("hang", at_s=1.0, duration_s=3.0),
            FaultEvent("slow", duration_s=10.0, delay_s=0.25),
            FaultEvent("delay", duration_s=10.0, delay_s=0.5),
        ], now=0.0)
        decision = injector.decide("/v1/predict")
        # hang until t=4 (2s away) wins the max; delay+slow stack on it.
        assert decision.sleep_s == pytest.approx(2.0 + 0.25 + 0.5)

    def test_garbage_flag_travels(self):
        clock = FakeClock(0.0)
        injector = FaultInjector(clock=clock)
        injector.arm([FaultEvent("error", duration_s=1.0, garbage=True)],
                     now=0.0)
        decision = injector.decide("/v1/predict")
        assert decision.error and decision.garbage

    def test_take_and_crash_due_consume(self):
        clock = FakeClock(0.0)
        injector = FaultInjector(clock=clock)
        injector.arm([FaultEvent("corrupt_blob", count=1),
                      FaultEvent("crash", at_s=5.0)], now=0.0)
        assert injector.take("corrupt_blob") is not None
        assert injector.take("corrupt_blob") is None     # consumed
        assert not injector.crash_due()
        clock.now = 6.0
        assert injector.crash_due()
        ledger = injector.ledger()
        assert ledger["fired"] == {"corrupt_blob": 1, "crash": 1}
        injector.disarm()
        assert injector.ledger()["armed"] == 0

    def test_corrupt_flips_one_byte_deterministically(self):
        injector = FaultInjector(seed=3)
        data = bytes(range(256)) * 4
        corrupted = injector.corrupt(data)
        assert corrupted != data
        assert len(corrupted) == len(data)
        diffs = [i for i, (a, b) in enumerate(zip(data, corrupted))
                 if a != b]
        assert len(diffs) == 1
        assert corrupted[diffs[0]] == data[diffs[0]] ^ 0xFF
        # Same seed + same fired count -> same byte; and the declared
        # digest no longer matches, which is the whole point.
        assert FaultInjector(seed=3).corrupt(data) == corrupted
        assert blob_digest(corrupted) != blob_digest(data)
        assert injector.corrupt(b"") == b""

    def test_crash_timer_fires_replaceable_callback(self):
        async def main():
            died = asyncio.Event()
            clock = FakeClock(0.0)
            injector = FaultInjector(clock=clock, on_crash=died.set)
            injector.arm([FaultEvent("crash", at_s=0.0)])
            await asyncio.wait_for(died.wait(), timeout=5.0)
            assert injector.fired == {"crash": 1}

        run(main())


class TestCircuitBreaker:
    def test_full_state_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=1.0,
                                 clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"        # below threshold
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.opens == 1
        clock.now = 1.5
        assert breaker.state == "half-open" and breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.now = 1.0
        assert breaker.state == "half-open"
        breaker.record_failure()                # the probe failed
        assert breaker.state == "open"
        assert breaker.opens == 2
        clock.now = 1.5                         # old cooldown: still open
        assert not breaker.allow()
        clock.now = 2.0
        assert breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"        # never 2 in a row

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=-1.0)


class TestBackoff:
    def test_deterministic_and_capped(self):
        schedule = [backoff_delay(a, base_s=0.02, cap_s=0.5, seed=1,
                                  token=9) for a in range(12)]
        assert schedule == [backoff_delay(a, base_s=0.02, cap_s=0.5,
                                          seed=1, token=9)
                            for a in range(12)]
        for attempt, delay in enumerate(schedule):
            raw = min(0.5, 0.02 * 2 ** attempt)
            assert raw / 2 <= delay <= raw      # jitter stays in range
        assert max(schedule) <= 0.5

    def test_tokens_decorrelate(self):
        a = [backoff_delay(n, token=1) for n in range(6)]
        b = [backoff_delay(n, token=2) for n in range(6)]
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_delay(-1)
        with pytest.raises(ValueError, match="positive"):
            backoff_delay(0, base_s=0.0)


class TestBlobStoreLRU:
    def _put(self, store, key, size):
        data = key.encode() * size
        store.put(key, data, blob_digest(data))
        return data

    def test_unbounded_never_evicts(self, tmp_path):
        store = BlobStore(tmp_path, max_bytes=None)
        for key in ("aa", "bb", "cc"):
            self._put(store, key, 100)
        assert store.evictions == 0
        assert store.keys() == ["aa", "bb", "cc"]

    def test_put_evicts_least_recently_used(self, tmp_path):
        store = BlobStore(tmp_path, max_bytes=500)
        self._put(store, "aa", 100)             # 200 bytes
        self._put(store, "bb", 100)
        store.get("aa")                         # refresh: bb is now LRU
        self._put(store, "cc", 100)             # 600 > 500: evict bb
        assert store.evictions == 1
        assert store.keys() == ["aa", "cc"]
        assert store.get("bb") is None
        # The sidecar went with the blob — no half-present key on disk.
        assert not (tmp_path / "bb.sha256").exists()

    def test_incoming_key_is_never_its_own_victim(self, tmp_path):
        store = BlobStore(tmp_path, max_bytes=250)
        self._put(store, "aa", 100)
        data = self._put(store, "aa", 110)      # replace: evict no one
        assert store.evictions == 0
        got = store.get("aa")
        assert got is not None and got[0] == data

    def test_oversized_blob_still_lands_after_clearing_shelf(self, tmp_path):
        store = BlobStore(tmp_path, max_bytes=300)
        self._put(store, "aa", 100)
        big = self._put(store, "bb", 400)       # bigger than the cap
        assert store.keys() == ["bb"]           # best effort: aa evicted
        got = store.get("bb")
        assert got is not None and got[0] == big

    def test_recency_rebuilt_from_disk_order(self, tmp_path):
        import os

        store = BlobStore(tmp_path, max_bytes=None)
        for key in ("aa", "bb", "cc"):
            self._put(store, key, 50)
        # Make on-disk mtimes say: bb oldest, then cc, then aa.
        for age, key in enumerate(("aa", "cc", "bb")):
            os.utime(tmp_path / f"{key}.tar", (1000 - age, 1000 - age))
        reopened = BlobStore(tmp_path, max_bytes=350)
        self._put(reopened, "dd", 50)           # 300 -> 400: evict 1 LRU
        assert reopened.evictions == 1
        assert reopened.keys() == ["aa", "cc", "dd"]   # bb was LRU

    def test_sidecar_only_key_reads_as_absent(self, tmp_path):
        store = BlobStore(tmp_path)
        (tmp_path / "ee.sha256").write_text("feed")
        assert not store.has("ee")
        assert store.get("ee") is None

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            BlobStore(tmp_path, max_bytes=0)


MLP_SPEC = FleetModelSpec("tiny", "mlp", {"dims": [8, 6, 4]}, seed=2)


class TestWorkerChaosMiddleware:
    """The injector wired into a live worker's HTTP plane."""

    def test_drop_error_garbage_and_disarm(self, tmp_path):
        async def main():
            worker = FleetWorker("w0", None, str(tmp_path / "work"),
                                 max_batch_size=2)
            await worker.start()
            try:
                connection = HttpConnection(worker.http.host,
                                            worker.http.port)
                # Arm over the wire, exactly as the gateway does.
                response = await connection.request(
                    "POST", "/v1/chaos", body=json.dumps({
                        "seed": 4,
                        "events": [{"kind": "drop", "duration_s": 60.0,
                                    "count": 1}]}).encode())
                assert response.status == 200
                assert response.json()["chaos"]["active"] == ["drop"]
                with pytest.raises(FleetConnectionError):
                    await connection.request("GET", "/healthz")
                await connection.close()

                connection = HttpConnection(worker.http.host,
                                            worker.http.port)
                # Budget spent: traffic flows again.
                response = await connection.request("GET", "/healthz")
                assert response.json()["ok"] is True

                # A clean 500 with a machine-readable reason...
                await connection.request(
                    "POST", "/v1/chaos", body=json.dumps({
                        "events": [{"kind": "error", "duration_s": 60.0,
                                    "count": 1}]}).encode())
                response = await connection.request("GET", "/metrics")
                assert response.status == 500
                assert response.json()["reason"] == "chaos_error"

                # ...vs a garbage 200 body that refuses to parse.
                await connection.request(
                    "POST", "/v1/chaos", body=json.dumps({
                        "events": [{"kind": "error", "duration_s": 60.0,
                                    "garbage": True,
                                    "count": 1}]}).encode())
                response = await connection.request("GET", "/metrics")
                assert response.status == 200
                with pytest.raises(ValueError):
                    response.json()

                # The ledger made it into /metrics; disarm clears arming.
                response = await connection.request("GET", "/metrics")
                assert response.json()["chaos"]["fired"] == \
                    {"drop": 1, "error": 2}
                response = await connection.request(
                    "POST", "/v1/chaos", body=b'{"disarm": true}')
                assert response.json()["chaos"]["armed"] == 0

                # A malformed plan is refused loudly.
                response = await connection.request(
                    "POST", "/v1/chaos", body=json.dumps({
                        "events": [{"kind": "meteor"}]}).encode())
                assert response.status == 400
                assert response.json()["reason"] == "bad_fault_plan"
                await connection.close()
            finally:
                await worker.close()

        run(main())

    def test_bootstrap_events_arm_at_start_and_protect_controls(
            self, tmp_path):
        async def main():
            worker = FleetWorker(
                "w1", None, str(tmp_path / "work"), max_batch_size=2,
                fault_events=(FaultEvent("error", duration_s=60.0),),
                chaos_seed=7)
            assert worker.injector.ledger()["armed"] == 0   # not yet
            await worker.start()
            try:
                assert worker.injector.seed == 7
                connection = HttpConnection(worker.http.host,
                                            worker.http.port)
                response = await connection.request("GET", "/healthz")
                assert response.status == 500       # fault is live
                # The control plane stays reachable regardless.
                response = await connection.request(
                    "POST", "/v1/chaos", body=b'{"disarm": true}')
                assert response.status == 200
                response = await connection.request("GET", "/healthz")
                assert response.status == 200
                await connection.close()
            finally:
                await worker.close()

        run(main())

    def test_deadline_shed_and_bad_deadline_at_the_worker(self, tmp_path):
        async def main():
            worker = FleetWorker("w2", None, str(tmp_path / "work"),
                                 max_batch_size=2, max_queue_depth=1)
            await worker.start()
            try:
                key = route_key(MLP_SPEC)
                await worker.load_model(key, MLP_SPEC)
                connection = HttpConnection(worker.http.host,
                                            worker.http.port)
                # An already-spent budget is shed before enqueueing.
                response = await connection.request(
                    "POST", "/v1/predict", body=json.dumps({
                        "route_key": key,
                        "inputs": {"x": [0.1] * 8},
                        "deadline_ms": -5}).encode())
                assert response.status == 504
                assert response.json()["reason"] == "deadline_exceeded"
                assert worker.deadline_rejections == 1

                response = await connection.request(
                    "POST", "/v1/predict", body=json.dumps({
                        "route_key": key,
                        "inputs": {"x": [0.1] * 8},
                        "deadline_ms": "tomorrow"}).encode())
                assert response.status == 400
                await connection.close()
            finally:
                await worker.close()

        run(main())

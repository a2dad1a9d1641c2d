"""Resilience primitives: breakers, backoff, LRU, and the test transport.

:mod:`repro.fleet.resilience` is seeded and clock-injectable, so these
tests drive breaker cooldowns and backoff schedules deterministically —
no sleeps, no real time.  The fault windows of
``tests/fleet_faults.py``'s :class:`FaultyPool` are driven the same way;
the cross-process story, fault soak included, is
``tests/test_fleet_e2e.py``.  The worker half runs an in-process
:class:`FleetWorker` over real sockets, mirroring ``tests/test_fleet.py``.
"""

import asyncio
import json

import pytest

from fleet_faults import Fault, FaultyPool
from repro.fleet import FleetModelSpec, FleetWorker, PumaFleet
from repro.fleet.http import (
    FleetConnectionError,
    FleetTimeoutError,
    HttpConnection,
    ProtocolError,
)
from repro.fleet.models import route_key
from repro.fleet.netstore import BlobStore, blob_digest
from repro.fleet.resilience import CircuitBreaker, backoff_delay
from repro.serve import VirtualClock


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120.0))


class FakeClock:
    """A manual monotonic clock for windows/cooldowns."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestFaultyPool:
    """The test transport's window and budget logic (``fleet_faults``)."""

    def test_nothing_fires_before_arm_and_windows_follow_the_clock(self):
        clock = FakeClock()
        pool = FaultyPool([Fault("error", at_s=1.0, duration_s=2.0)],
                          clock=clock)
        clock.now = 1.5
        assert pool.decide("w0", "/v1/predict") == (0.0, "send")
        pool.arm(now=0.0)
        clock.now = 0.5
        assert pool.decide("w0", "/v1/predict") == (0.0, "send")
        clock.now = 1.5
        assert pool.decide("w0", "/v1/predict") == (0.0, "error")
        clock.now = 3.5                         # window closed
        assert pool.decide("w0", "/v1/predict") == (0.0, "send")
        assert pool.fired == {"error": 1}

    def test_count_budget_is_consumed(self):
        pool = FaultyPool([Fault("drop", count=2)], clock=FakeClock(1.0))
        pool.arm(now=0.0)
        assert [pool.decide("w0", path)[1] for path in ("/a", "/b", "/c")] \
            == ["drop", "drop", "send"]
        assert pool.fired == {"drop": 2}

    def test_worker_and_path_filters(self):
        pool = FaultyPool([
            Fault("error", worker="w1", path="/v1/predict"),
            Fault("error", worker="w0", garbage=True),
        ], clock=FakeClock())
        pool.arm(now=0.0)
        assert pool.decide("w1", "/metrics") == (0.0, "send")
        assert pool.decide("w1", "/v1/predict") == (0.0, "error")
        assert pool.decide("w0", "/metrics") == (0.0, "garbage")
        assert pool.decide(None, "/v1/predict") == (0.0, "send")

    def test_hang_sleeps_to_window_end_and_delays_stack(self):
        pool = FaultyPool([
            Fault("hang", at_s=1.0, duration_s=3.0),
            Fault("slow", duration_s=10.0, delay_s=0.25),
            Fault("delay", duration_s=10.0, delay_s=0.5),
            Fault("error", duration_s=10.0),
            Fault("drop", duration_s=10.0),
        ], clock=FakeClock(2.0))
        pool.arm(now=0.0)
        sleep_s, outcome = pool.decide("w0", "/v1/predict")
        # hang until t=4 (2s away) wins the max; delay+slow stack on it,
        # and a drop beats an error.
        assert sleep_s == pytest.approx(2.0 + 0.25 + 0.5)
        assert outcome == "drop"

    def test_faulted_requests_never_reach_the_peer(self):
        """Nothing listens on the target, so only an exchange that is
        really sent would fail to connect."""
        async def send(fault, timeout=None):
            pool = FaultyPool([fault])
            pool.arm()
            try:
                return await pool.request("127.0.0.1", 9, "GET", "/x",
                                          timeout=timeout)
            finally:
                await pool.close()

        async def main():
            with pytest.raises(FleetConnectionError, match="injected"):
                await send(Fault("drop"))
            with pytest.raises(FleetTimeoutError, match="injected hang"):
                await send(Fault("hang", duration_s=30.0), timeout=0.05)
            response = await send(Fault("error"))
            assert (response.status, response.json()["reason"]) \
                == (500, "injected_error")
            response = await send(Fault("error", garbage=True))
            assert response.status == 200
            with pytest.raises(ProtocolError):
                response.json()

        run(main())

    def test_corrupt_flips_one_byte_deterministically(self):
        data = bytes(range(256)) * 4
        corrupted = FaultyPool([], seed=3).corrupt(data)
        diffs = [i for i, (a, b) in enumerate(zip(data, corrupted))
                 if a != b]
        assert len(corrupted) == len(data) and len(diffs) == 1
        assert corrupted[diffs[0]] == data[diffs[0]] ^ 0xFF
        # Same seed, same byte; and the recorded digest goes stale,
        # which is what the pulling worker must catch.
        assert FaultyPool([], seed=3).corrupt(data) == corrupted
        assert blob_digest(corrupted) != blob_digest(data)

    def test_malformed_faults_rejected(self):
        for kwargs, message in [
                (dict(kind="meteor"), "unknown fault kind"),
                (dict(kind="delay"), "positive delay_s"),
                (dict(kind="hang"), "positive duration_s"),
                (dict(kind="crash"), "target worker")]:
            with pytest.raises(ValueError, match=message):
                Fault(**kwargs)


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

    def test_fleet_breakers_run_on_the_fleet_clock(self, tmp_path):
        """Cooldowns read the clock the fleet was given, like every
        other gateway deadline and backoff decision."""
        async def main():
            clock = VirtualClock()
            fleet = PumaFleet([MLP_SPEC], work_dir=str(tmp_path),
                              clock=clock, breaker_threshold=2,
                              breaker_cooldown_s=0.5)
            breaker = fleet._new_breaker()
            breaker.record_failure()
            breaker.record_failure()
            assert breaker.state == "open"
            await clock.advance(0.5)
            assert breaker.state == "half-open"

        run(main())

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
    """A live worker's own resilience: deadlines shed before work."""

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

"""Fleet end-to-end: real worker processes behind a real gateway.

These tests spawn actual OS processes (multiprocessing ``spawn``) and
talk to them over real sockets, asserting the fleet-level invariant of
``docs/guarantees.md``:

    a fleet response == a single-engine ``run_batch`` on the same
    request, **bitwise on the output words** — for MLP/LSTM/CNN, ideal
    and noisy crossbars, no matter which replica answers, including
    after a worker is killed mid-trace and the request is retried.

Plus the operational guarantees: a cold worker warm-starts from the
networked artifact store without recompiling, graceful shutdown drains
with zero dropped requests, and every fault kind of
``tests/fleet_faults.py`` ends in a typed answer, never a wrong one.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from fleet_faults import (
    FAULT_KINDS,
    Fault,
    FaultyPool,
    bursty_offsets,
    open_loop,
)
from repro.fleet import FleetModelSpec, PumaFleet, build_engine
from repro.fleet.http import ConnectionPool

NOISY = {"write_noise_sigma": 0.05}

# The full workload cross: every paper model class, ideal and noisy.
SPECS = [
    FleetModelSpec("mlp-ideal", "mlp", {"dims": [32, 24, 10]}, seed=3),
    FleetModelSpec("mlp-noisy", "mlp", {"dims": [32, 24, 10]}, seed=3,
                   crossbar=NOISY),
    FleetModelSpec("lstm-ideal", "lstm",
                   {"input_size": 8, "hidden_size": 12, "output_size": 6},
                   seed=5),
    FleetModelSpec("lstm-noisy", "lstm",
                   {"input_size": 8, "hidden_size": 12, "output_size": 6},
                   seed=5, crossbar=NOISY),
    FleetModelSpec("cnn-ideal", "cnn_small", {}, seed=7),
    FleetModelSpec("cnn-noisy", "cnn_small", {}, seed=7, crossbar=NOISY),
]


def run(coro, timeout=600.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def request_inputs(spec: FleetModelSpec, request_seed: int):
    """Deterministic float inputs for one request against ``spec``."""
    rng = np.random.default_rng(request_seed)
    if spec.kind == "mlp":
        return {"x": rng.uniform(-1, 1, spec.params["dims"][0])}
    if spec.kind in ("lstm", "rnn"):
        size = spec.params["input_size"]
        steps = spec.params.get("seq_len", 2)
        return {f"x{i}": rng.uniform(-1, 1, size) for i in range(steps)}
    return {"image": rng.uniform(-1, 1, 64)}           # cnn_small


@pytest.fixture(scope="module")
def references():
    """Local single-engine reference words per (model, request seed)."""
    engines = {spec.name: build_engine(spec) for spec in SPECS}

    def reference(spec: FleetModelSpec, request_seed: int):
        result = engines[spec.name].predict(
            request_inputs(spec, request_seed))
        return {name: words.tolist() for name, words in result.items()}

    return reference


class TestFleetBitwise:
    def test_all_models_bitwise_and_network_warm_start(self, tmp_path,
                                                       references):
        """The tentpole assertion: 6 models, 2 workers, bitwise replies.

        Every model is placed on both workers (replicas=2), so each
        model cold-builds on one worker and **must** warm-start over the
        network on the other — which the worker metrics then prove
        (loads from the network, zero compile-cache misses).
        """
        async def main():
            async with PumaFleet(SPECS, num_workers=2,
                                 replicas_per_model=2,
                                 work_dir=str(tmp_path),
                                 max_batch_size=4,
                                 health_interval_s=1.0) as fleet:
                for spec in SPECS:
                    replies = await asyncio.gather(*(
                        fleet.predict(spec.name,
                                      request_inputs(spec, seed))
                        for seed in (11, 12, 13)))
                    for seed, reply in zip((11, 12, 13), replies):
                        assert reply["words"] == references(spec, seed), \
                            f"{spec.name} words differ from the " \
                            f"single-engine reference (seed {seed})"

                metrics = await fleet.metrics()
                sources: dict[str, list[str]] = {}
                for worker in metrics["workers"].values():
                    worker_metrics = worker.get("metrics")
                    assert worker_metrics is not None
                    for key, hosted in worker_metrics["models"].items():
                        sources.setdefault(key, []).append(
                            hosted["source"])
                        assert hosted["warm_start"] == \
                            (hosted["source"] == "network")
                # 6 models x 2 replicas on 2 workers: each model built
                # cold exactly once; its second copy came over the wire.
                assert len(sources) == len(SPECS)
                for key, seen in sources.items():
                    assert sorted(seen) == ["cold", "network"], \
                        f"model {key[:12]} replicas loaded via {seen}"
                blobs = metrics["fleet"]["store_blobs"]
                assert len(blobs) == len(SPECS)

        run(main())

    def test_restarted_fleet_warm_starts_without_recompiling(
            self, tmp_path, references):
        """A brand-new fleet on the same store never recompiles.

        The blob store lives on disk under ``work_dir``, so a second
        fleet started over the same directory spawns **fresh** worker
        processes (``spawn``, empty caches) that must warm-start every
        model over the network.  The worker's process-global compile
        cache proves it: zero misses means the compiler never ran.
        """
        specs = [SPECS[1], SPECS[2]]        # mlp-noisy + lstm-ideal

        async def main():
            async with PumaFleet(specs, num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=4) as fleet:
                for spec in specs:
                    reply = await fleet.predict(
                        spec.name, request_inputs(spec, 31))
                    assert reply["words"] == references(spec, 31)

            async with PumaFleet(specs, num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=4) as fleet:
                for spec in specs:
                    reply = await fleet.predict(
                        spec.name, request_inputs(spec, 31))
                    assert reply["words"] == references(spec, 31)
                metrics = await fleet.metrics()
                (worker,) = metrics["workers"].values()
                hosted = worker["metrics"]["models"]
                assert len(hosted) == len(specs)
                for entry in hosted.values():
                    assert entry["source"] == "network"
                    assert entry["warm_start"]
                    # Process-global counter: the whole worker process
                    # never compiled anything.
                    assert entry["server"]["compile_cache"]["misses"] == 0
                    assert entry["server"]["artifact_store"]["loads"] >= 1

        run(main())

    def test_front_door_http_predict(self, tmp_path, references):
        """The HTTP path end to end: client -> gateway -> worker."""
        spec = SPECS[0]

        async def main():
            async with PumaFleet([spec], num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=4) as fleet:
                pool = ConnectionPool()
                try:
                    inputs = {name: values.tolist() for name, values
                              in request_inputs(spec, 21).items()}
                    response = await pool.request(
                        fleet.host, fleet.http.port, "POST",
                        "/v1/predict",
                        body=json.dumps({"model": spec.name,
                                         "inputs": inputs}).encode(),
                        timeout=120.0)
                    assert response.status == 200
                    assert response.json()["words"] == \
                        references(spec, 21)

                    response = await pool.request(
                        fleet.host, fleet.http.port, "GET", "/v1/models")
                    listed = response.json()["models"]
                    assert [m["name"] for m in listed] == [spec.name]
                    assert listed[0]["placement"]

                    response = await pool.request(
                        fleet.host, fleet.http.port, "POST",
                        "/v1/predict",
                        body=json.dumps({"model": "nope",
                                         "inputs": {}}).encode())
                    assert response.status == 404
                finally:
                    await pool.close()

        run(main())


class TestFleetFailurePaths:
    def test_worker_killed_mid_trace_retries_bitwise(self, tmp_path,
                                                     references):
        """Kill a replica while a trace is in flight.

        Every request must still complete, every reply must still be
        bitwise-identical to the single-engine reference (the retried
        requests ran on a *different* replica — determinism is what
        makes that safe), and the health loop must evict + respawn.
        """
        spec = SPECS[0]

        async def main():
            async with PumaFleet([spec], num_workers=2,
                                 replicas_per_model=2,
                                 work_dir=str(tmp_path),
                                 max_batch_size=4,
                                 health_interval_s=0.2,
                                 health_failures=1,
                                 max_attempts=4) as fleet:
                seeds = list(range(100, 130))

                async def one(seed):
                    return seed, await fleet.predict(
                        spec.name, request_inputs(spec, seed))

                tasks = [asyncio.create_task(one(seed))
                         for seed in seeds]
                # Let a few complete, then kill one live replica.
                await asyncio.sleep(0.3)
                victim_id = next(iter(fleet.manager.workers))
                fleet.manager.workers[victim_id].process.terminate()

                replies = await asyncio.gather(*tasks)
                assert len(replies) == len(seeds)
                for seed, reply in replies:
                    assert reply["words"] == references(spec, seed), \
                        f"retried request (seed {seed}) diverged"

                deadline = time.monotonic() + 60
                while fleet.evictions < 1 and time.monotonic() < deadline:
                    await asyncio.sleep(0.1)
                assert fleet.evictions >= 1
                deadline = time.monotonic() + 60
                while fleet.respawns < 1 and time.monotonic() < deadline:
                    await asyncio.sleep(0.1)
                assert fleet.respawns >= 1
                assert len(fleet.manager.workers) == 2
                # And the fleet still answers, bitwise, after recovery.
                reply = await fleet.predict(spec.name,
                                            request_inputs(spec, 999))
                assert reply["words"] == references(spec, 999)

        run(main())

    def test_graceful_stop_drains_zero_dropped(self, tmp_path,
                                               references):
        """stop(drain=True) serves everything already accepted."""
        spec = SPECS[0]

        async def main():
            fleet = PumaFleet([spec], num_workers=2,
                              replicas_per_model=2,
                              work_dir=str(tmp_path),
                              max_batch_size=4)
            await fleet.start()
            seeds = list(range(300, 324))
            tasks = [asyncio.create_task(
                fleet.predict(spec.name, request_inputs(spec, seed)))
                for seed in seeds]
            await asyncio.sleep(0)      # everything enqueued, none done
            await fleet.stop(drain=True)
            replies = await asyncio.gather(*tasks)
            for seed, reply in zip(seeds, replies):
                assert reply["words"] == references(spec, seed)
            served = sum(s.served for s in fleet.models.values())
            failed = sum(s.failed for s in fleet.models.values())
            assert served == len(seeds)
            assert failed == 0
            # New work after the drain is refused, not dropped silently.
            from repro.fleet import FleetError

            with pytest.raises(FleetError, match="not accepting"):
                await fleet.predict(spec.name, request_inputs(spec, 1))

        run(main())


class TestFleetResilience:
    """The resilience control plane, end to end over real processes.

    Every failure mode the fleet produces must be *typed*: a 4xx/5xx
    status plus a machine-readable ``reason`` — never a hang, never a
    silently dropped connection.  These tests drive each mode through
    the real front door, then all of them at once under load (the fault
    soak, ``test_all_seven_fault_kinds_at_once_under_load``).  Faults
    enter through :class:`fleet_faults.FaultyPool`, installed as the
    gateway's connection pool.
    """

    TINY = FleetModelSpec("tiny", "mlp", {"dims": [16, 12, 8]}, seed=1)

    def _reference(self, request_seed: int):
        engine = build_engine(self.TINY)
        result = engine.predict(request_inputs(self.TINY, request_seed))
        return {name: words.tolist() for name, words in result.items()}

    def test_deadline_504_typed_through_the_front_door(self, tmp_path):
        spec = self.TINY

        async def main():
            async with PumaFleet([spec], num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=4) as fleet:
                pool = ConnectionPool()
                try:
                    # An already-spent budget is shed before any work.
                    response = await pool.request(
                        fleet.host, fleet.http.port, "POST",
                        "/v1/predict", body=json.dumps({
                            "model": spec.name,
                            "inputs": {name: list(values) for name, values
                                       in request_inputs(spec, 1).items()},
                            "deadline_ms": -1}).encode())
                    assert response.status == 504
                    assert response.json()["reason"] == "deadline_exceeded"
                    # A bad deadline is a 400, not a crash.
                    response = await pool.request(
                        fleet.host, fleet.http.port, "POST",
                        "/v1/predict", body=json.dumps({
                            "model": spec.name,
                            "inputs": {},
                            "deadline_ms": "soon"}).encode())
                    assert response.status == 400
                    # Python's json reads NaN and Infinity: the front
                    # door refuses them before the request is queued.
                    inputs = json.dumps({
                        name: list(values) for name, values
                        in request_inputs(spec, 1).items()})
                    for raw in ("NaN", "Infinity"):
                        response = await pool.request(
                            fleet.host, fleet.http.port, "POST",
                            "/v1/predict", body=(
                                f'{{"model": "{spec.name}", "inputs": '
                                f'{inputs}, "deadline_ms": {raw}}}'
                            ).encode())
                        assert response.status == 400, raw
                        assert response.json()["reason"] == "bad_request"
                finally:
                    await pool.close()
                shed = sum(s.sheds for s in fleet.models.values())
                assert shed == 1
                state = fleet.models[spec.name]
                assert (state.served, state.failed, state.retries) == \
                    (0, 0, 0)

        run(main())

    def test_admission_429_with_retry_after_under_a_hang(self, tmp_path):
        """A hung replica backs up the gateway queue; the bounded queue
        turns the overflow into an immediate typed 429 + Retry-After,
        and the queued work still completes bitwise once the hang ends."""
        spec = self.TINY
        pool = FaultyPool([Fault("hang", duration_s=1.5,
                                 path="/v1/predict")])

        async def main():
            fleet = PumaFleet([spec], num_workers=1,
                              work_dir=str(tmp_path),
                              max_batch_size=4,
                              dispatch_concurrency=1,
                              max_queue_depth=1)
            fleet.pool = pool
            async with fleet:
                pool.arm(fleet)
                inflight = asyncio.create_task(
                    fleet.predict(spec.name, request_inputs(spec, 11)))
                await asyncio.sleep(0.2)      # dispatched into the hang
                queued = asyncio.create_task(
                    fleet.predict(spec.name, request_inputs(spec, 12)))
                await asyncio.sleep(0.2)      # fills the 1-deep queue
                client = ConnectionPool()
                try:
                    response = await client.request(
                        fleet.host, fleet.http.port, "POST",
                        "/v1/predict", body=json.dumps({
                            "model": spec.name,
                            "inputs": {name: list(values) for name, values
                                       in request_inputs(spec, 13).items()},
                        }).encode())
                    assert response.status == 429
                    assert response.json()["reason"] == "queue_full"
                    assert float(response.headers["retry-after"]) > 0
                finally:
                    await client.close()
                # The hang ends; everything accepted completes bitwise.
                replies = await asyncio.gather(inflight, queued)
                assert replies[0]["words"] == self._reference(11)
                assert replies[1]["words"] == self._reference(12)
                rejections = sum(s.rejections
                                 for s in fleet.models.values())
                assert rejections == 1
                # Only the first exchange met the hang.
                assert pool.fired == {"hang": 1}

        run(main())

    def test_constructor_fault_plan_faults_are_retried_bitwise(
            self, tmp_path):
        """Faults live from the first predict (drops + 5xx + garbage on
        worker 0) never surface to clients: the gateway retries on the
        other replica and every reply stays bitwise-correct."""
        spec = self.TINY
        pool = FaultyPool([
            Fault("drop", duration_s=30.0, worker="w0",
                  path="/v1/predict", count=2),
            Fault("error", duration_s=30.0, worker="w0",
                  path="/v1/predict", count=2),
            Fault("error", duration_s=30.0, worker="w0",
                  path="/v1/predict", garbage=True, count=2),
        ], seed=3)

        async def main():
            fleet = PumaFleet([spec], num_workers=2,
                              replicas_per_model=2,
                              work_dir=str(tmp_path),
                              max_batch_size=4,
                              max_attempts=4)
            fleet.pool = pool
            async with fleet:
                pool.arm(fleet)
                seeds = list(range(500, 516))
                replies = await asyncio.gather(
                    *(fleet.predict(spec.name, request_inputs(spec, seed))
                      for seed in seeds))
                for seed, reply in zip(seeds, replies):
                    assert reply["words"] == self._reference(seed), \
                        f"faulted-and-retried request {seed} diverged"
                fired = pool.fired
                assert fired.get("drop", 0) >= 1 \
                    or fired.get("error", 0) >= 1, (
                        f"no fault ever fired: {fired}")
                retried = sum(s.retries for s in fleet.models.values())
                assert retried >= 1

        run(main())

    def test_all_seven_fault_kinds_at_once_under_load(self, tmp_path):
        """The fault soak (``docs/guarantees.md``, degraded == correct):
        every fault kind armed at once against deadline-carrying
        traffic.  Every 200 stays bitwise, every failure is a typed
        429/503/504, the fleet never goes silent, the pool's ledger
        proves every kind fired, and a worker rejected the corrupted
        blob."""
        from repro.fleet import FleetError

        spec = self.TINY
        predict = "/v1/predict"
        # Request-level faults hit worker 0's predict path only (health
        # probes stay clean); the crash kills worker 1, whose
        # replacement pulls the corrupted blob when it loads the model.
        pool = FaultyPool([
            Fault("slow", at_s=0.0, duration_s=2.5, worker="w0",
                  path=predict, delay_s=0.02),
            Fault("drop", at_s=0.2, duration_s=0.6, worker="w0",
                  path=predict, count=2),
            Fault("delay", at_s=0.4, duration_s=0.8, worker="w0",
                  path=predict, delay_s=0.1, count=3),
            Fault("error", at_s=0.6, duration_s=0.8, worker="w0",
                  path=predict, count=2),
            Fault("error", at_s=0.8, duration_s=0.8, worker="w0",
                  path=predict, garbage=True, count=2),
            Fault("hang", at_s=1.2, duration_s=0.6, worker="w0",
                  path=predict),
            Fault("crash", at_s=0.5, worker="w1"),
            Fault("corrupt_blob", at_s=0.0, duration_s=60.0, count=1),
        ], seed=11)
        offsets = bursty_offsets(300, rate_rps=60.0, burst_every_s=1.0,
                                 burst_len_s=0.3, burst_multiplier=3.0,
                                 seed=22)
        request_seeds = [22 * 1_000_003 + i for i in range(len(offsets))]

        def payload(index):
            inputs = request_inputs(spec, request_seeds[index])
            return {"model": spec.name, "deadline_ms": 2000.0,
                    "inputs": {name: values.tolist()
                               for name, values in inputs.items()}}

        engine = build_engine(spec)
        wrong = []

        def check(index, response):
            reference = engine.predict(
                request_inputs(spec, request_seeds[index]))
            if response.json()["words"] != {
                    name: reference[name].tolist() for name in reference}:
                wrong.append(request_seeds[index])

        async def main():
            fleet = PumaFleet([spec], num_workers=2,
                              replicas_per_model=2,
                              work_dir=str(tmp_path),
                              max_batch_size=8,
                              max_queue_depth=256)
            fleet.pool = pool
            async with fleet:
                pool.arm(fleet)
                tally, errors = await open_loop(
                    fleet.host, fleet.http.port, offsets, payload, check)
                # The crash is replaced by a respawn, and the corrupted
                # blob is rejected when the replacement loads the
                # model: predict until both have happened.
                deadline = time.monotonic() + 60
                while True:
                    metrics = await fleet.metrics()
                    respawns = metrics["fleet"]["respawns"]
                    rejected = sum(
                        entry["metrics"]["network_store"]["rejections"]
                        for entry in metrics["workers"].values()
                        if entry.get("metrics"))
                    if (respawns and rejected
                            and set(pool.fired) >= set(FAULT_KINDS)) \
                            or time.monotonic() > deadline:
                        return tally, errors, respawns, rejected
                    try:
                        await fleet.predict(
                            spec.name,
                            request_inputs(spec, request_seeds[0]),
                            timeout=30.0)
                    except FleetError:
                        pass        # still recovering; that's why we poll
                    await asyncio.sleep(0.1)

        tally, errors, respawns, rejected = run(main())
        assert wrong == [], f"faults corrupted an answer: seeds {wrong}"
        assert tally["timeout"] == 0 and tally["transport"] == 0, (
            f"the fleet went silent: {errors}")
        statuses = set(tally) - {200, "timeout", "transport"}
        assert statuses <= {429, 503, 504}, (
            f"untyped failure under faults: {errors}")
        assert sum(tally[status] for status in {200} | statuses) \
            == len(offsets)
        assert respawns >= 1, "the crashed worker was never replaced"
        assert set(pool.fired) >= set(FAULT_KINDS), (
            f"never fired: {sorted(set(FAULT_KINDS) - set(pool.fired))}")
        assert rejected >= 1, "no worker rejected the corrupted blob"

    def test_stop_drain_bound_lapses_on_a_hung_worker(self, tmp_path):
        """stop(drain=True) with a hung worker: the bounded drain gives
        up at the bound and fails the stuck work loudly — shutdown is
        never held hostage (the former uncovered drain-timeout path)."""
        from repro.fleet import FleetError

        spec = self.TINY
        pool = FaultyPool([Fault("hang", duration_s=20.0,
                                 path="/v1/predict")])

        async def main():
            fleet = PumaFleet([spec], num_workers=1,
                              work_dir=str(tmp_path),
                              max_batch_size=4,
                              dispatch_concurrency=1)
            fleet.pool = pool
            await fleet.start()
            pool.arm(fleet)
            stuck = asyncio.create_task(
                fleet.predict(spec.name, request_inputs(spec, 7)))
            await asyncio.sleep(0.2)          # dispatched into the hang
            started = time.monotonic()
            await fleet.stop(drain=True, drain_timeout_s=0.3)
            assert time.monotonic() - started < 15.0, \
                "a hung worker held shutdown hostage"
            with pytest.raises(FleetError):
                await stuck
            assert not fleet._running

        run(main())

    def test_no_route_arms_a_fault(self, tmp_path):
        """Fault injection is not an endpoint: ``POST /v1/chaos`` is a
        404 at the gateway's front door and on a live worker alike."""
        body = json.dumps({"events": []}).encode()

        async def main():
            async with PumaFleet([self.TINY], num_workers=1,
                                 work_dir=str(tmp_path),
                                 preload=False) as fleet:
                worker = fleet.manager.workers["w0"]
                client = ConnectionPool()
                try:
                    for host, port in ((fleet.host, fleet.http.port),
                                       (worker.host, worker.port)):
                        response = await client.request(
                            host, port, "POST", "/v1/chaos", body=body)
                        assert response.status == 404, (port, response)
                finally:
                    await client.close()

        run(main())

    def test_artifact_eviction_races_inflight_traffic(self, tmp_path):
        """A size-capped store evicting under concurrent GET/PUT traffic
        never serves a half blob: every GET is either a 404 or the full
        bytes matching the digest it came with."""
        from repro.fleet.netstore import SHA_HEADER, blob_digest

        spec = self.TINY

        async def main():
            async with PumaFleet([spec], num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=4,
                                 blob_store_max_bytes=300_000) as fleet:
                pool = ConnectionPool()
                rng = np.random.default_rng(0)
                blobs = {f"{'abcd'[i] * 2}": rng.bytes(120_000)
                         for i in range(4)}

                async def put(key, data):
                    return await pool.request(
                        fleet.host, fleet.http.port, "PUT",
                        f"/v1/artifacts/{key}", body=data,
                        headers={SHA_HEADER: blob_digest(data)})

                async def get(key):
                    response = await pool.request(
                        fleet.host, fleet.http.port, "GET",
                        f"/v1/artifacts/{key}")
                    if response.status == 404:
                        return None
                    assert response.status == 200
                    digest = response.headers[SHA_HEADER.lower()]
                    assert blob_digest(response.body) == digest, \
                        "a GET observed a torn blob"
                    return response.body
                try:
                    first = dict(list(blobs.items())[:2])
                    for key, data in first.items():
                        assert (await put(key, data)).status == 201
                    # Interleave reads of the resident blobs with PUTs
                    # that must evict them to fit under the cap.
                    results = await asyncio.gather(
                        get("aa"), put("cc", blobs["cc"]), get("bb"),
                        put("dd", blobs["dd"]), get("aa"), get("cc"))
                    for key, body in zip(("aa", "bb", "aa", "cc"),
                                         (results[0], results[2],
                                          results[4], results[5])):
                        assert body is None or body == blobs[key]
                    metrics = await fleet.metrics()
                    assert metrics["fleet"]["store_evictions"] >= 1
                    # The store never exceeds its cap once the dust
                    # settles, and surviving keys read back intact.
                    assert fleet.blobs.total_bytes() <= 300_000
                    for key in fleet.blobs.keys():
                        if key in blobs:
                            body = await get(key)
                            assert body == blobs[key]
                finally:
                    await pool.close()

        run(main())

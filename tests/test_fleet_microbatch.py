"""Work-conserving micro-batches: one dispatch, one exchange, one batch.

The gateway coalesces whatever is queued for a model when a dispatcher
wakes and sends it to one replica in one ``POST /v1/predict``; the
worker pushes every rider into the hosted ``PumaServer`` in one loop
turn; the server (no hold by default) runs them as one engine pass.
These tests pin, over real worker processes:

* N requests made together are exactly one batch of N, for every N;
* every rider has its own outcome — a malformed or expired request
  fails alone, its co-riders are served bitwise;
* a transport fault on the exchange retries *every* rider on the other
  replica, bitwise and bounded;
* the gateway conserves requests: each ends in exactly one of
  served / failed / sheds / rejections, a caller that stopped waiting
  included;
* the worker still answers the single-request body unwrapped, and a
  JSON body that is not a request object is a 400, never a 500.
"""

import asyncio
import json

import numpy as np
import pytest

from fleet_faults import Fault, FaultyPool
from repro.fleet import (
    FleetAdmissionError,
    FleetDeadlineError,
    FleetError,
    FleetModelSpec,
    FleetWorker,
    PumaFleet,
    build_engine,
    route_key,
)
from repro.fleet.http import HttpConnection, HttpRequest
from repro.serve import VirtualClock

SPEC = FleetModelSpec("tiny", "mlp", {"dims": [16, 12, 4]}, seed=9)
MAX_BATCH = 8


def run(coro, timeout=300.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"x": rng.uniform(-1, 1, SPEC.params["dims"][0])}


@pytest.fixture(scope="module")
def reference():
    """``engine.run_batch`` words for one request, as JSON lists."""
    engine = build_engine(SPEC)

    def words(seed: int) -> dict:
        quantized = {name: engine.quantize(values)
                     for name, values in inputs(seed).items()}
        return {name: value.tolist()
                for name, value in engine.run_batch(quantized).items()}

    return words


async def server_stats(fleet: PumaFleet) -> dict:
    """``PumaServer.stats()`` of SPEC, summed over the workers hosting it."""
    metrics = await fleet.metrics()
    hosted = [entry["metrics"]["models"][route_key(SPEC)]["server"]
              for entry in metrics["workers"].values()
              if route_key(SPEC) in entry["metrics"]["models"]]
    return {"batches_formed": sum(s["batches_formed"] for s in hosted),
            "lanes_simulated": sum(s["lanes_simulated"] for s in hosted),
            "sizes": set().union(*(s["scheduler"]["service_time_ewma_s"]
                                   for s in hosted))}


def counters(fleet: PumaFleet) -> dict:
    state = fleet.models[SPEC.name]
    return {name: getattr(state, name) for name in
            ("served", "failed", "sheds", "rejections", "retries",
             "inflight")}


class TestOneDispatchOneBatch:
    def test_n_together_are_one_batch_of_n_for_every_n(self, tmp_path,
                                                       reference):
        async def main():
            async with PumaFleet([SPEC], num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=MAX_BATCH) as fleet:
                seed = 100
                for n in range(1, MAX_BATCH + 1):
                    before = await server_stats(fleet)
                    seeds = list(range(seed, seed + n))
                    seed += n
                    replies = await asyncio.gather(
                        *(fleet.predict(SPEC.name, inputs(s))
                          for s in seeds))
                    after = await server_stats(fleet)
                    assert after["batches_formed"] \
                        == before["batches_formed"] + 1, \
                        f"{n} requests made together split into batches"
                    assert after["lanes_simulated"] \
                        == before["lanes_simulated"] + n
                    assert str(n) in after["sizes"]
                    for s, reply in zip(seeds, replies):
                        assert reply["words"] == reference(s)
                        assert reply["model"] == SPEC.name
                        assert reply["worker"] == "w0"
                assert counters(fleet)["served"] == seed - 100

        run(main())

    def test_two_connections_form_one_batch_of_two(self, tmp_path,
                                                   reference):
        """Coalescing needs no client cooperation: two requests that
        reach the front door on two connections in the same instant
        leave as one exchange.  A non-object body on the same door is a
        400, and costs nobody a batch."""
        async def main():
            async with PumaFleet([SPEC], num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=MAX_BATCH) as fleet:
                connections = [HttpConnection(fleet.host, fleet.http.port)
                               for _ in range(2)]
                try:
                    for connection in connections:
                        await connection.connect()
                    before = await server_stats(fleet)
                    responses = await asyncio.gather(*(
                        connection.request(
                            "POST", "/v1/predict", body=json.dumps({
                                "model": SPEC.name,
                                "inputs": {"x": inputs(s)["x"].tolist()},
                            }).encode())
                        for s, connection in zip((7, 8), connections)))
                    after = await server_stats(fleet)
                    for s, response in zip((7, 8), responses):
                        assert response.status == 200
                        assert response.json()["words"] == reference(s)
                    assert after["batches_formed"] \
                        == before["batches_formed"] + 1
                    assert after["lanes_simulated"] \
                        == before["lanes_simulated"] + 2
                    for body in (b"[]", b"3", b'"x"', b"{nope"):
                        response = await connections[0].request(
                            "POST", "/v1/predict", body=body)
                        assert response.status == 400, body
                        assert response.json()["reason"] == "bad_request"
                    response = await connections[0].request(
                        "POST", "/v1/predict", body=json.dumps({
                            "model": SPEC.name, "priority": None,
                            "inputs": {"x": [0.0] * 16}}).encode())
                    assert response.status == 400
                    assert "priority" in response.json()["error"]
                finally:
                    for connection in connections:
                        await connection.close()

        run(main())


class TestPerRiderOutcomes:
    def test_bad_riders_fail_alone(self, tmp_path, reference):
        """One wrong-length input, one spent deadline, N-2 good: one
        micro-batch, three kinds of outcome.

        The gateway's clock is frozen, so the doomed rider's 1 µs
        budget never lapses *there*: it travels as ``deadline_ms`` and
        the worker — on real time — sheds it as that item's 504.
        """
        async def main():
            async with PumaFleet([SPEC], num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=MAX_BATCH,
                                 clock=VirtualClock()) as fleet:
                good = list(range(300, 300 + MAX_BATCH - 2))
                before = await server_stats(fleet)
                outcomes = await asyncio.gather(
                    fleet.predict(SPEC.name, {"x": np.zeros(5)}),
                    fleet.predict(SPEC.name, inputs(1), deadline_ms=1e-3),
                    *(fleet.predict(SPEC.name, inputs(s)) for s in good),
                    return_exceptions=True)
                after = await server_stats(fleet)
                wrong_length, expired, *replies = outcomes
                assert type(wrong_length) is FleetError
                assert "rejected by w0" in str(wrong_length)
                assert type(expired) is FleetDeadlineError
                assert "w0 shed the request" in str(expired)
                for s, reply in zip(good, replies):
                    assert reply["words"] == reference(s)
                # The good riders still ran together, as one batch.
                assert after["batches_formed"] \
                    == before["batches_formed"] + 1
                assert after["lanes_simulated"] \
                    == before["lanes_simulated"] + len(good)
                assert counters(fleet) == {
                    "served": len(good), "failed": 1, "sheds": 1,
                    "rejections": 0, "retries": 0, "inflight": 0}

        run(main())


class TestMicroBatchRetry:
    @pytest.mark.parametrize("fault", [
        Fault("drop", worker="w0", path="/v1/predict", count=1),
        Fault("error", worker="w0", path="/v1/predict", count=1,
              garbage=True),
    ], ids=["drop_connection", "garbage_body"])
    def test_a_faulted_exchange_retries_every_rider(self, tmp_path,
                                                    reference, fault):
        """Two micro-batches of N: the round-robin cursor sends exactly
        one of them to worker 0 first, where the fault eats the whole
        exchange.  Every one of its riders is retried — once — on
        worker 1, and all 2N replies stay bitwise."""
        n = 5

        async def main():
            fleet = PumaFleet([SPEC], num_workers=2,
                              replicas_per_model=2,
                              work_dir=str(tmp_path),
                              max_batch_size=MAX_BATCH,
                              max_attempts=3)
            fleet.pool = pool = FaultyPool([fault])
            async with fleet:
                pool.arm(fleet)
                for first in (500, 600):
                    seeds = list(range(first, first + n))
                    replies = await asyncio.gather(
                        *(fleet.predict(SPEC.name, inputs(s))
                          for s in seeds))
                    for s, reply in zip(seeds, replies):
                        assert reply["words"] == reference(s), \
                            f"retried rider {s} diverged"
                assert counters(fleet) == {
                    "served": 2 * n, "failed": 0, "sheds": 0,
                    "rejections": 0, "retries": n, "inflight": 0}
                assert sum(pool.fired.values()) == 1
                # The fault ate its exchange ahead of the server: three
                # exchanges in all, but each micro-batch ran only once.
                stats = await server_stats(fleet)
                assert stats["batches_formed"] == 2
                assert stats["lanes_simulated"] == 2 * n

        run(main())


class TestGatewayConservation:
    def test_every_request_ends_in_exactly_one_counter(self, tmp_path,
                                                       reference):
        async def main():
            async with PumaFleet([SPEC], num_workers=1,
                                 work_dir=str(tmp_path),
                                 max_batch_size=MAX_BATCH,
                                 max_queue_depth=12) as fleet:
                calls = []
                for i in range(20):          # 12 fit the queue, 8 bounce
                    calls.append(fleet.predict(
                        SPEC.name, inputs(700 + i), priority=i % 3))
                calls.append(fleet.predict(     # shed before the queue
                    SPEC.name, inputs(1), deadline_ms=-1.0))
                outcomes = await asyncio.gather(*calls,
                                                return_exceptions=True)
                # Second wave: mixed priorities, one malformed rider.
                wave = [fleet.predict(SPEC.name, inputs(800 + i),
                                      priority=i % 2, deadline_ms=60_000)
                        for i in range(6)]
                wave.append(fleet.predict(SPEC.name, {"x": np.zeros(3)}))
                outcomes += await asyncio.gather(*wave,
                                                 return_exceptions=True)
                served = [o for o in outcomes if isinstance(o, dict)]
                rejected = [o for o in outcomes
                            if isinstance(o, FleetAdmissionError)]
                shed = [o for o in outcomes
                        if isinstance(o, FleetDeadlineError)]
                failed = [o for o in outcomes if type(o) is FleetError]
                assert (len(served), len(rejected), len(shed),
                        len(failed)) == (18, 8, 1, 1)
                assert len(outcomes) == 28
                tally = counters(fleet)
                assert tally == {"served": 18, "failed": 1, "sheds": 1,
                                 "rejections": 8, "retries": 0,
                                 "inflight": 0}
                assert len(outcomes) == (tally["served"] + tally["failed"]
                                         + tally["sheds"]
                                         + tally["rejections"])
                for i in range(12):
                    assert outcomes[i]["words"] == reference(700 + i)
                # A higher priority never changes an answer, only order;
                # 12 queued together left as two exchanges (8 + 4).
                stats = await server_stats(fleet)
                assert stats["lanes_simulated"] == 18

        run(main())


    def test_a_caller_that_stops_waiting_counts_once(self, tmp_path,
                                                     reference):
        """``predict``'s own timeout lapses while its exchange hangs: the
        caller gets :class:`FleetError`, counted once in ``failed``.
        When the hung exchange completes, the dispatcher's settle of the
        abandoned request is a no-op — it is not also ``served``."""
        async def main():
            fleet = PumaFleet([SPEC], num_workers=1,
                              work_dir=str(tmp_path),
                              max_batch_size=MAX_BATCH)
            fleet.pool = pool = FaultyPool([Fault(
                "hang", duration_s=0.6, path="/v1/predict", count=1)])
            async with fleet:
                pool.arm(fleet)
                with pytest.raises(FleetError, match="no reply within"):
                    await fleet.predict(SPEC.name, inputs(1), timeout=0.2)
                while fleet.models[SPEC.name].inflight:
                    await asyncio.sleep(0.02)
                reply = await fleet.predict(SPEC.name, inputs(2))
                assert reply["words"] == reference(2)
                assert counters(fleet) == {
                    "served": 1, "failed": 1, "sheds": 0,
                    "rejections": 0, "retries": 0, "inflight": 0}
                assert pool.fired == {"hang": 1}

        run(main())


class TestWorkerWire:
    def test_legacy_body_batch_body_and_bad_bodies(self, tmp_path,
                                                   reference):
        """A bare worker: the single-request body is answered in the
        single-request shape, the micro-batch body item by item, and a
        body that is JSON but not a request is a 400."""
        async def main():
            worker = FleetWorker("w0", None, str(tmp_path),
                                 max_batch_size=MAX_BATCH)
            await worker.start()
            key = route_key(SPEC)
            try:
                await worker.load_model(key, SPEC)
                server = worker.hosted[key].server

                async def post(payload, path="/v1/predict"):
                    body = (payload if isinstance(payload, bytes)
                            else json.dumps(payload).encode())
                    response = await worker.handle(
                        HttpRequest("POST", path, body=body))
                    return response.status, json.loads(response.body)

                def item(seed, **extra):
                    return {"inputs": {"x": inputs(seed)["x"].tolist()},
                            **extra}

                # Legacy single-request body, legacy reply shape.
                status, reply = await post({"route_key": key, **item(1)})
                assert status == 200
                assert set(reply) == {"model", "worker", "execution",
                                      "outputs", "words"}
                assert reply["words"] == reference(1)
                status, reply = await post(
                    {"route_key": key, **item(1, deadline_ms=-1)})
                assert (status, reply["reason"]) == (504,
                                                     "deadline_exceeded")
                status, reply = await post(
                    {"route_key": key, "inputs": {"x": [0.0] * 3}})
                assert status == 400 and "error" in reply
                assert server.counters.batches_formed == 1

                # Micro-batch body: one batch, per-item statuses.  json
                # writes (and json.loads accepts) a bare NaN; it has no
                # fixed-point word, so it is that rider's 400.
                not_a_number = item(9)
                not_a_number["inputs"]["x"][0] = float("nan")
                status, reply = await post({"route_key": key, "requests": [
                    item(2), {"inputs": {"x": [0.0] * 3}},
                    item(3, deadline_ms=-5), item(4, priority=2),
                    item(5, priority=None), item(6, deadline_ms="soon"),
                    not_a_number, {"inputs": {"x": {"not": "a vector"}}}]})
                assert status == 200
                assert (reply["model"], reply["worker"]) == (SPEC.name,
                                                             "w0")
                statuses = [r["status"] for r in reply["replies"]]
                assert statuses == [200, 400, 504, 200, 400, 400, 400,
                                    400]
                assert reply["replies"][0]["words"] == reference(2)
                assert reply["replies"][3]["words"] == reference(4)
                assert reply["replies"][2]["reason"] == "deadline_exceeded"
                assert "priority" in reply["replies"][4]["error"]
                assert "NaN" in reply["replies"][6]["error"]
                assert server.counters.batches_formed == 2
                assert server.counters.lanes_simulated == 3

                # Valid JSON, not a request: 400, never a 500.
                for body in (b"[]", b"3", b'"x"', b"null", b"{nope"):
                    for path in ("/v1/predict", "/v1/models"):
                        status, reply = await post(body, path)
                        assert status == 400, (body, path, reply)
                        assert reply["reason"] == "bad_request"
                for requests in ([], {}, "x", [1], [item(1), None]):
                    status, reply = await post(
                        {"route_key": key, "requests": requests})
                    assert status == 400, requests
                    assert reply["reason"] == "bad_request"
                # Not hosted stays a whole-exchange 409.
                status, _ = await post({"route_key": "nope",
                                        "requests": [item(1)]})
                assert status == 409

                # A failed engine pass is each rider's own (retryable)
                # 500, in either body shape.
                def boom(_inputs):
                    raise ArithmeticError("pass failed")

                server.engine.predict = boom
                status, reply = await post(
                    {"route_key": key, "requests": [item(7), item(8)]})
                assert status == 200
                assert [r["status"] for r in reply["replies"]] == [500, 500]
                assert "ArithmeticError" in reply["replies"][0]["error"]
                status, reply = await post({"route_key": key, **item(7)})
                assert status == 500 and "ArithmeticError" in reply["error"]
            finally:
                await worker.close()

        run(main())

"""The pass runs on the loop: one request, one loop turn of host plumbing.

``PumaServer`` runs every ``predict`` pass on the event-loop thread (a
thread hop bought a GIL-bound pass no concurrency, only a futex wake
and a self-pipe write per pass) and yields exactly once after each
pass.  A fleet worker admits an exchange's riders in one synchronous
pass, with no Task per rider.  This file pins:

* host-cost ratchets — every pass runs on the loop thread; one
  ``POST /v1/predict``
  creates as many Tasks for 8 riders as for 1; an ``HttpConnection``
  request creates no Task, and an ``HttpServer`` one per connection
  however many requests it carries;
* fairness and coalescing after the hop is gone — two servers with deep
  queues on one loop alternate pass by pass; riders admitted between two
  passes of a deep queue join the next batch; a worker hosting two
  models answers ``GET /healthz`` and serves its idle model while the
  other has a deep queue.
"""

import asyncio
import json
import threading

import numpy as np

from repro import InferenceEngine, PumaServer, default_config
from repro.fleet import FleetModelSpec, FleetWorker, route_key
from repro.fleet.http import (
    HttpConnection,
    HttpRequest,
    HttpServer,
    json_response,
)
from repro.workloads.mlp import build_mlp_model

CONFIG = default_config()
DIMS = [32, 24, 10]


def mlp_engine(seed=3):
    return InferenceEngine(build_mlp_model(DIMS, seed=0), CONFIG, seed=seed)


def rows(count, seed=0):
    return np.random.default_rng(seed).normal(0.0, 0.5, (count, DIMS[0]))


def record_calls(engine, name, log, label):
    """Wrap ``engine.<name>`` to append ``label(args)`` per call."""
    real = getattr(engine, name)

    def wrapped(*args, **kwargs):
        log.append(label(*args))
        return real(*args, **kwargs)

    setattr(engine, name, wrapped)


def test_every_pass_runs_on_the_loop_thread():
    """``run_batch`` is every pass; a replayed pass derives its stats
    through ``_stats_for_batch``."""
    engine = mlp_engine()
    rng = np.random.default_rng(4)
    requests = [{name: rng.normal(0.0, 0.5, length)
                 for name, (_tile, _addr, length)
                 in engine.program.input_layout.items()} for _ in range(12)]

    async def scenario():
        async with PumaServer(engine, max_batch_size=4) as server:
            threads = []
            for name in ("run_batch", "_stats_for_batch"):
                record_calls(engine, name, threads,
                             lambda *_: threading.get_ident())
            results = await asyncio.gather(
                *(server.submit(request) for request in requests))
            return threads, results, threading.get_ident()

    threads, results, loop_thread = asyncio.run(scenario())
    assert len(results) == len(requests)
    assert len(threads) >= 3
    assert set(threads) == {loop_thread}


def test_passes_of_two_deep_queues_alternate():
    """Two servers on one loop, four full batches queued on each: their
    passes strictly alternate.  Without the yield after each pass one
    server would run all four before the other ran any."""
    engines = {"a": mlp_engine(seed=3), "b": mlp_engine(seed=5)}
    order = []
    for label, engine in engines.items():
        record_calls(engine, "predict", order, lambda *_, label=label: label)

    async def scenario():
        servers = [await PumaServer(engine, max_batch_size=4).start()
                   for engine in engines.values()]
        futures = [server.admit({"x": x})
                   for server in servers for x in rows(16, seed=6)]
        await asyncio.gather(*futures)
        for server in servers:
            await server.stop()
        return [server.counters.batches_formed for server in servers]

    assert asyncio.run(scenario()) == [4, 4]
    assert order in (["a", "b"] * 4, ["b", "a"] * 4)


def test_riders_admitted_between_passes_join_the_next_batch():
    """A deep queue (4 + 4 + 2 riders at batch 4).  A client woken by
    the first pass admits an urgent and a plain rider before the second
    pass forms: the urgent one rides the second pass, the plain one
    completes the third."""
    engine = mlp_engine()
    passes = []
    record_calls(engine, "predict", passes, lambda inputs: inputs["x"])
    xs = rows(12, seed=8)

    async def scenario():
        async with PumaServer(engine, max_batch_size=4) as server:
            queued = [server.admit({"x": x}) for x in xs[:10]]

            async def client():
                await queued[0]
                return [server.admit({"x": xs[10]}, priority=1),
                        server.admit({"x": xs[11]})]

            late = await asyncio.create_task(client())
            await asyncio.gather(*queued, *late)
            return server.counters

    counters = asyncio.run(scenario())
    assert (counters.batches_formed, counters.lanes_simulated) == (3, 12)

    def pass_of(x):
        index, = [i for i, batch in enumerate(passes)
                  if any(np.array_equal(row, x) for row in batch)]
        return index

    assert [len(batch) for batch in passes] == [4, 4, 4]
    assert [pass_of(x) for x in xs] == [0] * 4 + [1] * 3 + [2] * 3 + [1, 2]


SPECS = (FleetModelSpec("busy", "mlp", {"dims": [16, 12, 4]}, seed=9),
         FleetModelSpec("idle", "mlp", {"dims": [12, 8, 6]}, seed=2))


def item(spec, seed):
    x = np.random.default_rng(seed).uniform(-1, 1, spec.params["dims"][0])
    return {"inputs": {"x": x.tolist()}}


def test_one_exchange_creates_as_many_tasks_for_eight_riders_as_for_one(
        tmp_path):
    spec = SPECS[0]
    key = route_key(spec)

    async def scenario():
        worker = FleetWorker("w0", None, str(tmp_path), max_batch_size=8)
        await worker.start()
        try:
            await worker.load_model(key, spec)
            loop = asyncio.get_running_loop()
            created = []

            def counting(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(counting)
            tasks = {}
            for label, body in (
                    ("single", {"route_key": key, **item(spec, 1)}),
                    ("one", {"route_key": key,
                             "requests": [item(spec, 1)]}),
                    ("eight", {"route_key": key, "requests": [
                        item(spec, s) for s in range(8)]})):
                before = len(created)
                response = await worker.handle(HttpRequest(
                    "POST", "/v1/predict", body=json.dumps(body).encode()))
                assert response.status == 200
                tasks[label] = len(created) - before
            loop.set_task_factory(None)
            return tasks, worker.hosted[key].server.counters
        finally:
            await worker.close()

    tasks, counters = asyncio.run(scenario())
    assert tasks["one"] == tasks["eight"] == tasks["single"]
    assert (counters.batches_formed, counters.lanes_simulated) == (3, 10)


def count_tasks(loop, created):
    """Install a task factory that logs the module creating each Task."""
    def counting(loop, coro, **kwargs):
        created.append(coro.cr_frame.f_globals["__name__"])
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.set_task_factory(counting)


def test_http_requests_create_no_tasks_and_connections_one_each():
    """A request is one write and one future, its deadline a loop timer:
    no Task on either side of a connected exchange.  The server runs one
    Task per connection, for one request or for eight."""
    async def handler(request):
        return json_response({"ok": True})

    async def scenario():
        server = await HttpServer(handler).start()
        loop = asyncio.get_running_loop()
        warm = HttpConnection(server.host, server.port)
        connections = [HttpConnection(server.host, server.port)
                       for _ in range(2)]
        try:
            await warm.request("GET", "/")
            exchange, per_connection = [], []
            count_tasks(loop, exchange)
            for _ in range(5):
                await warm.request("POST", "/", body=b"{}", timeout=5.0)
            count_tasks(loop, per_connection)
            for connection, requests in zip(connections, (1, 8)):
                for _ in range(requests):
                    await connection.request("GET", "/", timeout=5.0)
            loop.set_task_factory(None)
            return exchange, per_connection
        finally:
            for connection in [warm, *connections]:
                await connection.close()
            await server.close()

    exchange, per_connection = asyncio.run(scenario())
    assert exchange == []
    # asyncio's own accept Task per connection is not the server's.
    assert [name for name in per_connection
            if not name.startswith("asyncio.")] == ["repro.fleet.http"] * 2


def test_worker_answers_while_one_model_has_a_deep_queue(tmp_path):
    busy_spec, idle_spec = SPECS
    keys = [route_key(spec) for spec in SPECS]

    async def scenario():
        worker = FleetWorker("w0", None, str(tmp_path), max_batch_size=8)
        await worker.start()
        connection = HttpConnection("127.0.0.1", worker.http.port)
        try:
            for key, spec in zip(keys, SPECS):
                await worker.load_model(key, spec)
            busy = worker.hosted[keys[0]].server
            x = np.asarray(item(busy_spec, 3)["inputs"]["x"])
            backlog = [busy.admit({"x": x}) for _ in range(8 * 40)]
            health = await connection.request("GET", "/healthz")
            depth_at_health = len(busy.scheduler)
            predict = await connection.request(
                "POST", "/v1/predict", body=json.dumps(
                    {"route_key": keys[1], **item(idle_spec, 4)}).encode())
            depth_at_predict = len(busy.scheduler)
            await asyncio.gather(*backlog)
            return health, depth_at_health, predict, depth_at_predict
        finally:
            await connection.close()
            await worker.close()

    health, depth_at_health, predict, depth_at_predict = \
        asyncio.run(scenario())
    assert health.status == 200
    assert health.json()["models"] == sorted(keys)
    assert depth_at_health > 0
    assert predict.status == 200 and predict.json()["model"] == "idle"
    assert depth_at_predict > 0

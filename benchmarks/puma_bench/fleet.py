"""The two fleet workloads: one deployment, two ways of loading it.

``fleet_http_closed2`` drives ``POST /v1/predict`` over two keep-alive
connections with zero think time: the unloaded latency path across all
ten hops.  ``fleet_queue_open250`` drives the same fleet through
in-process ``PumaFleet.predict`` on a 250 rps Poisson schedule with
priorities and deadlines, so the gateway queue, dispatch concurrency and
worker-side coalescing are engaged.  A change that helps one at the
other's expense shows as a pair.

Both use ``PumaFleet`` with its defaults, exactly one worker process,
and BENCH_PR7's three-model deployment.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.fleet import (
    FleetConnectionError,
    FleetError,
    FleetTimeoutError,
    FleetWorker,
    PumaFleet,
    WorkerManager,
    build_engine,
    route_key,
)
from repro.fleet.http import (
    ConnectionPool,
    HttpConnection,
    HttpRequest,
    HttpResponse,
    HttpServer,
)
from repro.serve.server import AdmissionError, DeadlineExceeded

from puma_bench import probes
from puma_bench.loadgen import (
    OpFailure,
    Phase,
    closed_loop,
    open_loop,
    poisson_schedule,
)
from puma_bench.measure import (
    SpanLog,
    cpu_seconds,
    median,
    now,
    percentile,
)
from puma_bench.models import CONFIG, FLEET_MIX, fleet_cases, fleet_specs
from puma_bench.pool import POOL_SIZE, STREAM_LENGTH, InputPool
from puma_bench.workload import (
    TraceReport,
    Workload,
    conservation_gap,
    engine_counter_metrics,
    unserved_sizes,
    warm_counters,
)

OP_TIMEOUT_S = 30.0
JSON_HEADERS = {"Content-Type": "application/json"}
OPEN_RATE_PER_S = 250.0
OPEN_DEADLINE_MS = 2000.0
PRIORITY1_SHARE = 0.25
MAX_BATCH = 16          # PumaFleet's default max_batch_size
ECHO_ROUND_TRIPS = 200


async def _exchange(pending) -> HttpResponse:
    """Await one HTTP exchange, mapping transport errors to failures."""
    try:
        return await pending
    except FleetTimeoutError as error:
        raise OpFailure("timeout", str(error)) from error
    except FleetConnectionError as error:
        raise OpFailure("transport", str(error)) from error


def _reply(response: HttpResponse) -> dict:
    if response.status != 200:
        raise OpFailure("rejected", f"{response.status} "
                                    f"{response.body[:120]!r}")
    return json.loads(response.body)


class FleetWorkload(Workload):
    """What both fleet workloads share: deployment, stream, peel levels."""

    # Batch sizes this load can produce at the worker; each needs stats.
    sizes: range = range(0)

    def prepare(self) -> None:
        self.specs = fleet_specs()
        self.names = [spec.name for spec in self.specs]
        self.keys = {spec.name: route_key(spec) for spec in self.specs}
        pool_size = 16 if self.smoke else POOL_SIZE
        if self.smoke:      # warm-up coverage is what a smoke run skips
            self.sizes = range(1, 3)
        for ordinal, spec in enumerate(self.specs):
            self.pools[spec.name] = InputPool(
                build_engine(spec, execution_mode="interpret"),
                self.seed, ordinal, size=pool_size)
        self.input_lists = {name: pool.input_lists()
                            for name, pool in self.pools.items()}
        self.word_lists = {name: pool.word_lists()
                           for name, pool in self.pools.items()}
        rng = np.random.default_rng([self.seed, len(self.specs)])
        self.stream_model = rng.choice(len(self.names), size=STREAM_LENGTH,
                                       p=FLEET_MIX)
        self.stream_entry = rng.integers(pool_size, size=STREAM_LENGTH)
        self.stream_priority = (rng.random(STREAM_LENGTH)
                                < PRIORITY1_SHARE).astype(int)
        self.schedule_rng = np.random.default_rng(
            [self.seed, len(self.specs) + 1])
        self.fleet: PumaFleet | None = None
        self.work_dir: Path | None = None
        self.local: FleetWorker | None = None
        self.worker_pool = ConnectionPool()
        self.send = self.outermost
        self.level = self.name
        self.on_local_worker = False
        # Wire bytes seen at the client and at the worker hop.
        self.wire = dict.fromkeys(("client_out", "client_in", "client_ops",
                                   "worker_out", "worker_in", "worker_ops"),
                                  0)

    def request(self, i: int) -> tuple[str, int, int]:
        j = i % STREAM_LENGTH
        return (self.names[self.stream_model[j]], int(self.stream_entry[j]),
                int(self.stream_priority[j]))

    # -- lifecycle ---------------------------------------------------------

    async def setup(self) -> None:
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                              dir=self.work_root))
        self.fleet = PumaFleet(self.specs, num_workers=1,
                               work_dir=self.work_dir)
        await self.fleet.start()
        snapshot = await self.fleet.metrics()
        (self.worker_id, entry), = snapshot["workers"].items()
        self.worker_pid = entry["metrics"]["pid"]
        await self.connect()
        await self.warm_until_quiet()

    async def teardown(self) -> None:
        await self.disconnect()
        await self.worker_pool.close()
        if self.local is not None:
            await self.local.close()
            self.local = None
        if self.fleet is not None:
            await self.fleet.stop()
            self.fleet = None
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    async def connect(self) -> None:
        """Open the client connections (none for in-process load)."""

    async def disconnect(self) -> None:
        """Close whatever :meth:`connect` opened."""

    def worker_pids(self) -> list[int]:
        return [self.worker_pid]

    async def worker_metrics(self) -> dict:
        """``/metrics`` of whichever worker the current level runs on."""
        if self.on_local_worker:
            return self.local.metrics()
        snapshot = await self.fleet.metrics()
        return snapshot["workers"][self.worker_id]["metrics"]

    async def server_stats(self) -> dict[str, dict]:
        """model name -> its hosting ``PumaServer.stats()``."""
        models = (await self.worker_metrics())["models"]
        return {hosted["name"]: hosted["server"]
                for hosted in models.values()}

    async def counters(self) -> dict[str, int]:
        # Cache counters are process-wide: any hosted server reports them.
        return warm_counters(next(iter((await self.server_stats()).values())))

    # -- warm-up -----------------------------------------------------------

    async def missing_sizes(self) -> list[tuple[str, int]]:
        return [(name, size)
                for name, stats in (await self.server_stats()).items()
                for size in unserved_sizes(stats, self.sizes)]

    async def burst(self, model: str, size: int) -> None:
        self.absorb_warmup(await closed_loop(
            "warm-up", lambda k: self.send(model, k, k % 2), size,
            iter(range(size))))

    async def confirm_round(self) -> None:
        self.absorb_warmup(await self.segment(0.05 if self.smoke else 0.25))

    # -- the op ------------------------------------------------------------

    async def op(self, i: int) -> None:
        name, k, priority = self.request(i)
        start = now()
        await self.send(name, k, priority)
        if self.spans is not None:
            self.spans.span(self.level, start, now(), None, i)

    def check_reply(self, name: str, k: int, reply: dict) -> None:
        if reply.get("words") != self.word_lists[name][k]:
            raise OpFailure("mismatch", f"{name}[{k}] words differ from "
                                        f"the interpreter reference")

    def check_words(self, name: str, k: int, words) -> None:
        if not self.pools[name].matches(k, words):
            raise OpFailure("mismatch", f"{name}[{k}] words differ from "
                                        f"the interpreter reference")

    async def outermost(self, name: str, k: int, priority: int) -> None:
        raise NotImplementedError

    def predict_options(self, priority: int) -> dict:
        """Deadline and priority as this workload's requests carry them."""
        return {}

    # -- peel levels, outermost first --------------------------------------

    async def predict_gateway(self, name, k, priority) -> None:
        try:
            reply = await self.fleet.predict(
                name, self.pools[name].arrays[k],
                **self.predict_options(priority))
        except FleetError as error:     # admission, deadline, exhausted
            raise OpFailure("rejected",
                            f"{type(error).__name__}: {error}") from error
        self.check_reply(name, k, reply)

    def worker_body(self, name: str, k: int, priority: int) -> bytes:
        """The body the gateway's dispatcher would send for this request."""
        return json.dumps({"route_key": self.keys[name],
                           "inputs": self.input_lists[name][k],
                           "priority": 0,
                           **self.predict_options(priority)}).encode()

    async def post_worker(self, name, k, priority) -> None:
        handle = self.fleet.manager.workers[self.worker_id]
        body = self.worker_body(name, k, priority)
        response = await _exchange(self.worker_pool.request(
            handle.host, handle.port, "POST", "/v1/predict", body=body,
            headers=JSON_HEADERS, timeout=OP_TIMEOUT_S))
        self.wire["worker_out"] += len(body)
        self.wire["worker_in"] += len(response.body)
        self.wire["worker_ops"] += 1
        self.check_reply(name, k, _reply(response))

    async def handle_worker(self, name, k, priority) -> None:
        response = await self.local.handle(HttpRequest(
            "POST", "/v1/predict",
            body=self.worker_body(name, k, priority)))
        self.check_reply(name, k, _reply(response))

    def submit_options(self, priority: int) -> dict:
        options = self.predict_options(priority)
        if "deadline_ms" in options:
            options["deadline_s"] = options.pop("deadline_ms") / 1e3
        return options

    async def submit_server(self, name, k, priority) -> None:
        server = self.local.hosted[self.keys[name]].server
        try:
            result = await server.submit(self.pools[name].arrays[k],
                                         **self.submit_options(priority))
        except (AdmissionError, DeadlineExceeded) as error:
            raise OpFailure("rejected",
                            f"{type(error).__name__}: {error}") from error
        self.check_words(name, k, result.words)

    async def predict_engine(self, name, k, priority) -> None:
        engine = self.local.hosted[self.keys[name]].server.engine
        self.check_words(name, k,
                         engine.predict(self.pools[name].arrays[k]).words)

    async def run_batch_engine(self, name, k, priority) -> None:
        engine = self.local.hosted[self.keys[name]].server.engine
        self.check_words(name, k,
                         engine.run_batch(self.quantized[name][k]).words)

    def levels(self) -> list[tuple[str, object]]:
        """(waterfall label, send function), outermost first."""
        return [("PumaFleet.predict", self.predict_gateway),
                ("HttpConnection->FleetWorker", self.post_worker),
                ("FleetWorker.handle", self.handle_worker),
                ("PumaServer.submit", self.submit_server),
                ("InferenceEngine.predict", self.predict_engine),
                ("InferenceEngine.run_batch", self.run_batch_engine)]

    # Which layer owns the gap between a level and the next one in.
    SELF_TIME = {
        "POST /v1/predict": "fleet.gateway.front_door_self_ms",
        "PumaFleet.predict": "fleet.gateway.self_ms",
        "HttpConnection->FleetWorker": "fleet.http.self_ms",
        "FleetWorker.handle": "fleet.worker.self_ms",
    }
    LEVEL_P50 = {
        "PumaFleet.predict": "fleet.gateway.predict_p50_ms",
        "HttpConnection->FleetWorker": "fleet.http.worker_rtt_ms",
        "FleetWorker.handle": "fleet.worker.handle_p50_ms",
        "PumaServer.submit": "serve.server.submit_p50_ms",
    }

    # -- the traced run ----------------------------------------------------

    async def start_local_worker(self) -> float:
        """An in-process ``FleetWorker`` warm-started off the gateway's
        artifact plane and warmed like the real one; returns load time."""
        self.local = FleetWorker(
            "bench-local", (self.fleet.host, self.fleet.http.port),
            str(self.work_dir / "bench-local"))
        t0 = now()
        for spec in self.specs:
            loaded = await self.local.load_model(self.keys[spec.name], spec)
            if loaded["source"] != "network":
                raise AssertionError(
                    f"{spec.name}: local worker built cold instead of "
                    f"loading the published artifact")
        load_ms = (now() - t0) * 1e3
        quantize = CONFIG.core.fixed_point.quantize
        self.quantized = {
            name: [{key: quantize(values) for key, values in entry.items()}
                   for entry in pool.arrays]
            for name, pool in self.pools.items()}
        self.on_local_worker, self.send = True, self.handle_worker
        try:
            await self.warm_until_quiet()
        finally:
            self.on_local_worker, self.send = False, self.outermost
        return load_ms

    async def run_level(self, label: str, send, seconds: float) -> Phase:
        self.level, self.send = label, send
        try:
            phase = await self.segment(seconds)
        finally:
            self.level, self.send = self.name, self.outermost
        phase.name = label
        return phase

    async def sample_queue_depth(self, depths: list[int]) -> None:
        while True:
            snapshot = await self.fleet.metrics()
            depths.append(max(model["queue_depth"] for model
                              in snapshot["fleet"]["models"].values()))
            await asyncio.sleep(0.5)

    async def trace(self, seconds: float, spans: SpanLog) -> TraceReport:
        report = TraceReport()
        metrics = report.metrics
        levels = self.levels()
        share = seconds / (len(levels) + 1)   # the outermost runs twice
        metrics["fleet.worker.load_model_ms"] = \
            await self.start_local_worker()

        (outer_label, outer_send), inner = levels[0], levels[1:]
        untraced = await self.run_level(outer_label, outer_send, share)
        self.spans = spans
        try:
            before = await self.fleet.metrics()
            depths: list[int] = []
            sampler = asyncio.create_task(self.sample_queue_depth(depths))
            cpu_before = cpu_seconds(self.worker_pids())
            try:
                outer = await self.run_level(outer_label, outer_send, share)
            finally:
                sampler.cancel()
            report.outer_cpu_s = cpu_seconds(self.worker_pids()) - cpu_before
            report.outer = outer
            after = await self.fleet.metrics()
            phases = [outer] + [await self.run_level(label, send, share)
                                for label, send in inner]
        finally:
            self.spans = None
        report.phases = [untraced] + phases
        report.untraced_p50_ms = median(untraced.latencies_ms())
        report.waterfall = [(phase.name, median(phase.latencies_ms()))
                            for phase in phases]
        report.traced_p50_ms = report.waterfall[0][1]
        p50 = dict(report.waterfall)

        for (label, value), (_inner, inner_value) in zip(
                report.waterfall, report.waterfall[1:]):
            if label in self.SELF_TIME:
                metrics[self.SELF_TIME[label]] = value - inner_value
        for label, name in self.LEVEL_P50.items():
            metrics[name] = p50[label]
        metrics["serve.server.overhead_per_batch_ms"] = (
            p50["PumaServer.submit"] - p50["InferenceEngine.predict"])
        self.client_metrics(metrics, outer, spans)
        self.fleet_metrics(metrics, before, after, depths)
        await self.probe_metrics(metrics, spans, outer)
        return report

    def client_metrics(self, metrics: dict, outer: Phase,
                       spans: SpanLog) -> None:
        by_model: dict[str, list[float]] = {name: [] for name in self.names}
        urgent: list[float] = []
        for i, latency in outer.samples:
            name, _k, priority = self.request(i)
            by_model[name].append(latency)
            if priority:
                urgent.append(latency)
        for name in self.names:
            metrics[f"client.{name}_p50_ms"] = median(by_model[name])
        if outer.late_ms:
            metrics["client.generator_late_p95_ms"] = \
                percentile(outer.late_ms, 95)
            metrics["client.priority1_p95_ms"] = percentile(urgent, 95)
        if self.wire["client_ops"]:
            metrics["client.json_encode_ms"] = median(
                spans.durations_ms("client.json_encode"))
            metrics["client.json_decode_ms"] = median(
                spans.durations_ms("client.json_decode"))
            metrics["client.request_bytes"] = \
                self.wire["client_out"] / self.wire["client_ops"]
            metrics["client.reply_bytes"] = \
                self.wire["client_in"] / self.wire["client_ops"]

    def fleet_metrics(self, metrics: dict, before: dict, after: dict,
                      depths: list[int]) -> None:
        """Deltas of the program's own counters across the outermost
        traced level (gateway, worker servers, schedulers, caches)."""
        def gateway(snapshot, field):
            return sum(model[field] for model
                       in snapshot["fleet"]["models"].values())

        def servers(snapshot):
            models = snapshot["workers"][self.worker_id]["metrics"]["models"]
            return [hosted["server"] for hosted in models.values()]

        def delta(path):
            return (sum(path(server) for server in servers(after))
                    - sum(path(server) for server in servers(before)))

        for field in ("retries", "sheds", "rejections"):
            metrics[f"fleet.gateway.{field}"] = \
                gateway(after, field) - gateway(before, field)
        metrics["fleet.gateway.breaker_opens"] = (
            after["fleet"]["breaker_opens"]
            - before["fleet"]["breaker_opens"])
        metrics["fleet.gateway.queue_depth_max"] = max(depths, default=0)
        batches = delta(lambda s: s["batches_formed"])
        lanes = delta(lambda s: s["lanes_simulated"])
        metrics["serve.server.batches_formed"] = batches
        metrics["serve.server.mean_batch_size"] = lanes / batches
        metrics["fleet.worker.mean_batch_size"] = lanes / batches
        metrics["serve.scheduler.early_closes"] = \
            delta(lambda s: s["scheduler"]["early_closes"])
        metrics["serve.scheduler.shed"] = \
            delta(lambda s: s["scheduler"]["shed"])
        metrics["serve.scheduler.conservation_gap"] = sum(
            conservation_gap(s["scheduler"]) for s in servers(after))
        ewma = [s["scheduler"]["service_time_ewma_s"][str(MAX_BATCH)] * 1e3
                for s in servers(after)
                if str(MAX_BATCH) in s["scheduler"]["service_time_ewma_s"]]
        if ewma:
            metrics["serve.scheduler.service_ewma_b16_ms"] = \
                sum(ewma) / len(ewma)
        # Cache counters are process-wide: any hosted server reports them.
        metrics.update(engine_counter_metrics(servers(before)[0],
                                              servers(after)[0]))
        store = after["workers"][self.worker_id]["metrics"]["network_store"]
        metrics["fleet.netstore.pushes"] = store["pushes"]
        metrics["fleet.netstore.blob_bytes"] = self.fleet.blobs.total_bytes()

    async def probe_metrics(self, metrics: dict, spans: SpanLog,
                            outer: Phase) -> None:
        """Layer probes on the fleet's own three models."""
        cases = fleet_cases()
        repeats = 2 if self.smoke else 20
        metrics.update(probes.cold_probe(cases, self.pools, spans,
                                         2 if self.smoke else 5))
        weighted: dict[str, float] = {}
        for case, share in zip(cases, FLEET_MIX):
            found = probes.engine_probes(case, self.pools[case.name],
                                         repeats)
            found.update(probes.store_probes(case, self.work_dir,
                                             self.pools[case.name]))
            for name, value in found.items():
                # Times are mix-weighted means; sizes and counts are sums.
                scale = share if name.endswith("_ms") else 1.0
                weighted[name] = weighted.get(name, 0.0) + scale * value
        metrics.update(weighted)
        metrics["serve.server.engine_busy_share"] = (
            metrics["serve.server.batches_formed"]
            * metrics["engine.predict_b1_ms"] / 1e3 / outer.wall_s)
        metrics["fleet.http.echo_rtt_ms"] = await self.echo_rtt_ms()
        manager = WorkerManager(str(self.work_dir / "spawn-probe"))
        t0 = now()
        await manager.spawn()
        metrics["fleet.manager.spawn_ms"] = (now() - t0) * 1e3
        await manager.close()

    async def echo_rtt_ms(self) -> float:
        """An ``HttpServer`` with a trivial handler and this workload's
        body sizes at the worker hop: the transport floor."""
        ops = max(1, self.wire["worker_ops"])
        request_body = b"x" * (self.wire["worker_out"] // ops)
        reply = HttpResponse(status=200, headers=dict(JSON_HEADERS),
                             body=b"y" * (self.wire["worker_in"] // ops))

        async def handler(_request: HttpRequest) -> HttpResponse:
            return reply

        server = await HttpServer(handler).start()
        connection = HttpConnection(server.host, server.port)
        times = []
        try:
            for _ in range(20 if self.smoke else ECHO_ROUND_TRIPS):
                t0 = now()
                await connection.request("POST", "/echo", body=request_body,
                                         headers=JSON_HEADERS,
                                         timeout=OP_TIMEOUT_S)
                times.append((now() - t0) * 1e3)
        finally:
            await connection.close()
            await server.close()
        return median(times)


class FleetHttpClosed2(FleetWorkload):
    name = "fleet_http_closed2"
    loop = "closed, 2 HTTP connections, zero think time"
    callers = 2
    sizes = range(1, callers + 1)

    async def connect(self) -> None:
        self.connections = [
            HttpConnection(self.fleet.host, self.fleet.http.port)
            for _ in range(self.callers)]

    async def disconnect(self) -> None:
        for connection in getattr(self, "connections", []):
            await connection.close()
        self.connections = []

    async def segment(self, seconds: float) -> Phase:
        return await closed_loop("timed", self.op, self.callers,
                                 self.indices, seconds)

    async def outermost(self, name, k, priority) -> None:
        t0 = now()
        body = json.dumps({"model": name,
                           "inputs": self.input_lists[name][k]}).encode()
        t1 = now()
        connection = self.connections.pop()
        try:
            response = await _exchange(connection.request(
                "POST", "/v1/predict", body=body, headers=JSON_HEADERS,
                timeout=OP_TIMEOUT_S))
        finally:
            self.connections.append(connection)
        t2 = now()
        reply = _reply(response)
        t3 = now()
        self.wire["client_out"] += len(body)
        self.wire["client_in"] += len(response.body)
        self.wire["client_ops"] += 1
        if self.spans is not None:
            self.spans.span("client.json_encode", t0, t1, self.level)
            self.spans.span("client.json_decode", t2, t3, self.level)
        self.check_reply(name, k, reply)

    def levels(self):
        return [("POST /v1/predict", self.outermost)] + super().levels()


class FleetQueueOpen250(FleetWorkload):
    name = "fleet_queue_open250"
    loop = "open, Poisson at 250 rps, timed from the due time"
    # A stall lets the queue coalesce up to a full batch, so every size
    # up to the fleet's max_batch_size needs its stats before timing.
    sizes = range(1, MAX_BATCH + 1)

    def prepare(self) -> None:
        super().prepare()
        self.next_index = 0

    def predict_options(self, priority: int) -> dict:
        return {"deadline_ms": OPEN_DEADLINE_MS, "priority": priority}

    async def segment(self, seconds: float) -> Phase:
        count = max(8, int(OPEN_RATE_PER_S * seconds))
        due = poisson_schedule(self.schedule_rng, OPEN_RATE_PER_S, count)
        first, self.next_index = self.next_index, self.next_index + count
        return await open_loop("timed", self.op, due, first)

    async def outermost(self, name, k, priority) -> None:
        await self.predict_gateway(name, k, priority)

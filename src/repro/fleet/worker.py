"""The fleet worker: one process, one HTTP plane, N hosted models.

A worker is a separate OS process (spawned by
:class:`repro.fleet.manager.WorkerManager`) running one asyncio loop
that serves a small HTTP API on an OS-assigned port:

* ``GET /healthz`` — liveness + which route keys are hosted;
* ``GET /metrics`` — per-model :meth:`PumaServer.stats` (batching
  counters plus the tape/compile/artifact cache counters) and the
  worker's network-store pull/push/rejection counters;
* ``POST /v1/models`` — host a model: **warm path** first (GET the
  artifact blob for the route key from the gateway's networked store,
  verify, unpack, :meth:`InferenceEngine.from_artifacts`), falling back
  to a **cold build** (compile + program + record, then PUT the packed
  artifact back so the *next* cold worker warm-starts);
* ``POST /v1/predict`` — admit a micro-batch (``{"route_key",
  "requests": [...]}``, one gateway dispatch) to the hosted model's
  :class:`~repro.serve.PumaServer` in one loop turn, so the riders
  reach the engine as one batch; each gets its own status in the reply.
  The single-request body (``{"route_key", "inputs", ...}``) is the
  one-element case of the same code, answered unwrapped;
* ``POST /v1/shutdown`` — graceful drain: every hosted server finishes
  its queue, then the process exits.

Every hosted model is a full ``PumaServer`` over a deterministic
:func:`~repro.fleet.models.build_engine` engine, so a worker's answers
are bitwise-identical to any other replica's — the property that makes
the gateway's retry-on-another-replica safe.

Engine construction (compile, crossbar programming, tape recording) runs
in a thread so ``/healthz`` stays responsive while a model loads.
Workers are started with the ``spawn`` method, **not** ``fork``: a
forked worker would inherit the parent's in-process compile/state/tape
caches copy-on-write, silently turning every "cold" start warm and
masking exactly the networked-store behavior the fleet exists to
provide (and that its tests verify).
"""

from __future__ import annotations

import asyncio
import os
import signal

import numpy as np

from repro.fleet.http import (
    FleetConnectionError,
    HttpConnection,
    HttpRequest,
    HttpResponse,
    HttpServer,
    ProtocolError,
    error_response,
    json_response,
)
from repro.fleet.models import FleetModelError, FleetModelSpec, build_engine
from repro.fleet.netstore import (
    SHA_HEADER,
    NetworkArtifactError,
    blob_digest,
    pack_artifact_dir,
    unpack_artifact_blob,
)
from repro.serve.server import (
    AdmissionError,
    DeadlineExceeded,
    check_deadline,
    check_priority,
)
from repro.store import ArtifactError

# Artifact blobs are multi-MB; give transfers more room than a health
# ping but still bounded (a wedged gateway must not wedge model loads).
STORE_TIMEOUT_S = 60.0


class _HostedModel:
    """One model this worker serves: spec + engine + its PumaServer."""

    def __init__(self, spec: FleetModelSpec, server,
                 warm_start: bool, source: str) -> None:
        self.spec = spec
        self.server = server
        self.warm_start = warm_start      # True: loaded from the network
        self.source = source              # "network" | "cold"


class FleetWorker:
    """The in-process half of a worker (testable without multiprocessing).

    Args:
        worker_id: the gateway-assigned id (``w0``, ``w1``, …).
        store_address: ``(host, port)`` of the gateway's artifact plane,
            or ``None`` to always cold-build (standalone/testing).
        work_dir: scratch directory for unpacked/saved artifacts.
        max_batch_size: per-model ``PumaServer`` batching limit.
        max_queue_depth: per-model admission bound handed to each hosted
            :class:`~repro.serve.PumaServer` (``None`` = unbounded).
    """

    def __init__(self, worker_id: str,
                 store_address: tuple[str, int] | None,
                 work_dir: str, *, max_batch_size: int = 16,
                 host: str = "127.0.0.1",
                 max_queue_depth: int | None = None) -> None:
        self.worker_id = worker_id
        self.store_address = store_address
        self.work_dir = work_dir
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.hosted: dict[str, _HostedModel] = {}
        self.shutdown = asyncio.Event()
        self.drain_on_shutdown = True
        self.http = HttpServer(self.handle, host=host)
        self._load_locks: dict[str, asyncio.Lock] = {}
        self.store_pulls = 0
        self.store_pushes = 0
        self.store_rejections = 0
        self.deadline_rejections = 0

    # -- request routing ----------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        try:
            return await self._route(request)
        except ProtocolError as error:
            # Valid HTTP, but not a body this endpoint accepts.
            return error_response(400, str(error), reason="bad_request")

    async def _route(self, request: HttpRequest) -> HttpResponse:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return json_response({"ok": True, "worker": self.worker_id,
                                  "pid": os.getpid(),
                                  "models": sorted(self.hosted)})
        if route == ("GET", "/metrics"):
            return json_response(self.metrics())
        if route == ("POST", "/v1/models"):
            return await self.handle_load(request)
        if route == ("POST", "/v1/predict"):
            return await self.handle_predict(request)
        if route == ("POST", "/v1/shutdown"):
            return self.handle_shutdown(request)
        return error_response(404, f"no route {request.method} "
                                   f"{request.path} on this worker")

    def metrics(self) -> dict:
        return {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "deadline_rejections": self.deadline_rejections,
            "network_store": {"pulls": self.store_pulls,
                              "pushes": self.store_pushes,
                              "rejections": self.store_rejections},
            "models": {
                key: {"name": hosted.spec.name,
                      "warm_start": hosted.warm_start,
                      "source": hosted.source,
                      "server": hosted.server.stats()}
                for key, hosted in self.hosted.items()},
        }

    # -- model loading (network warm start, cold fallback) ------------------

    async def _pull_blob(self, key: str) -> tuple[bytes, str] | None:
        """Fetch the blob for ``key`` from the gateway store, or ``None``."""
        if self.store_address is None:
            return None
        connection = HttpConnection(*self.store_address)
        try:
            response = await connection.request(
                "GET", f"/v1/artifacts/{key}", timeout=STORE_TIMEOUT_S)
        except FleetConnectionError:
            return None
        finally:
            await connection.close()
        if response.status != 200:
            return None
        self.store_pulls += 1
        return response.body, response.headers.get(SHA_HEADER.lower(), "")

    async def _push_blob(self, key: str, data: bytes) -> None:
        if self.store_address is None:
            return
        connection = HttpConnection(*self.store_address)
        try:
            response = await connection.request(
                "PUT", f"/v1/artifacts/{key}", body=data,
                headers={SHA_HEADER: blob_digest(data)},
                timeout=STORE_TIMEOUT_S)
            if response.status in (200, 201):
                self.store_pushes += 1
        except FleetConnectionError:
            pass          # best-effort: the artifact still exists locally
        finally:
            await connection.close()

    async def load_model(self, key: str, spec: FleetModelSpec) -> dict:
        """Host ``spec`` under route key ``key`` (idempotent).

        Warm path: pull the blob, verify its transport hash, unpack, and
        re-validate through :func:`repro.store.load_artifact` inside
        ``from_artifacts``.  *Any* failure along that chain — missing
        blob, hash mismatch, corrupt tar, manifest rejection — counts a
        rejection (when a blob existed) and falls back to the cold
        build, which then publishes a fresh blob for later workers.
        """
        lock = self._load_locks.setdefault(key, asyncio.Lock())
        async with lock:
            if key in self.hosted:
                hosted = self.hosted[key]
                return {"ok": True, "already_loaded": True,
                        "warm_start": hosted.warm_start,
                        "source": hosted.source}
            engine = None
            source = "cold"
            pulled = await self._pull_blob(key)
            if pulled is not None:
                data, sha = pulled
                unpack_dir = os.path.join(self.work_dir, f"pulled-{key[:16]}")
                try:
                    unpack_artifact_blob(data, unpack_dir,
                                         expected_sha256=sha or None)
                    engine = await asyncio.to_thread(
                        _engine_from_artifact, unpack_dir)
                    source = "network"
                except (NetworkArtifactError, ArtifactError):
                    self.store_rejections += 1
                    engine = None
            if engine is None:
                engine, artifact_path = await asyncio.to_thread(
                    _engine_cold_build, spec,
                    os.path.join(self.work_dir, "artifacts"),
                    self.max_batch_size)
                if artifact_path is not None:
                    await self._push_blob(
                        key, await asyncio.to_thread(
                            pack_artifact_dir, artifact_path))
            from repro.serve import PumaServer

            server = PumaServer(engine,
                                max_batch_size=self.max_batch_size,
                                max_queue_depth=self.max_queue_depth)
            await server.start()
            self.hosted[key] = _HostedModel(
                spec, server, warm_start=(source == "network"),
                source=source)
            return {"ok": True, "already_loaded": False,
                    "warm_start": source == "network", "source": source}

    async def handle_load(self, request: HttpRequest) -> HttpResponse:
        payload = request.json_object()
        try:
            spec = FleetModelSpec.from_dict(payload.get("spec"))
            key = payload.get("route_key")
            if not isinstance(key, str) or not key:
                raise FleetModelError("missing route_key")
        except FleetModelError as error:
            return error_response(400, str(error))
        return json_response(await self.load_model(key, spec))

    # -- inference ----------------------------------------------------------

    async def handle_predict(self, request: HttpRequest) -> HttpResponse:
        payload = request.json_object()
        key = payload.get("route_key")
        hosted = self.hosted.get(key) if isinstance(key, str) else None
        if hosted is None:
            # The gateway loads before dispatching; reaching here means a
            # placement raced an eviction.  409 is retryable fleet-side.
            return error_response(
                409, f"model {key!r} is not hosted on {self.worker_id}")
        items, wrapped = predict_items(payload)
        # Every rider is admitted in this loop turn, before the server's
        # batcher wakes: one exchange lands as one batch.
        admitted = [self._admit_item(hosted, item) for item in items]
        replies = [await self._reply(future) for future in admitted]
        envelope = {"model": hosted.spec.name, "worker": self.worker_id}
        if wrapped:
            return json_response({**envelope, "replies": replies})
        reply, = replies
        status = reply.pop("status")
        if status == 200:
            return json_response({**envelope, **reply})
        return error_response(
            status, reply["error"], reason=reply.get("reason"),
            headers={"Retry-After": "1"} if status == 429 else None)

    def _admit_item(self, hosted: _HostedModel,
                    item: dict) -> asyncio.Future:
        """Admit one rider: the future of its result, already failed when
        the rider could not be admitted."""
        try:
            inputs, deadline_ms, priority = predict_fields(item)
            # admit sheds a budget spent in flight (gateway queue + wire).
            return hosted.server.admit(
                inputs, priority=priority,
                deadline_s=None if deadline_ms is None else deadline_ms / 1e3)
        except Exception as error:  # noqa: BLE001 - fail this rider only
            future = asyncio.get_running_loop().create_future()
            future.set_exception(error)
            return future

    async def _reply(self, future: asyncio.Future) -> dict:
        """One rider's outcome as a reply item (never raises)."""
        try:
            result = await future
        except ValueError as error:
            return _failed(400, str(error))
        except DeadlineExceeded as error:
            self.deadline_rejections += 1
            return _failed(504, str(error), "deadline_exceeded")
        except AdmissionError as error:
            return _failed(429, str(error), "queue_full")
        except RuntimeError as error:               # draining/stopped
            return _failed(503, str(error), "not_serving")
        except Exception as error:  # noqa: BLE001 - fail this rider only
            # The pass itself failed; co-riders keep their own outcomes
            # and the gateway retries this one elsewhere.
            return _failed(500, f"{type(error).__name__}: {error}")
        return {
            "status": 200,
            "execution": result.execution,
            "outputs": {name: np.asarray(values).tolist()
                        for name, values in result.outputs.items()},
            "words": {name: np.asarray(words).tolist()
                      for name, words in result.words.items()},
        }

    # -- lifecycle ----------------------------------------------------------

    def handle_shutdown(self, request: HttpRequest) -> HttpResponse:
        drain = True
        if request.body:
            try:
                drain = bool(request.json().get("drain", True))
            except Exception:
                drain = True
        self.drain_on_shutdown = drain
        self.shutdown.set()
        return json_response({"ok": True, "draining": drain})

    async def start(self) -> "FleetWorker":
        os.makedirs(self.work_dir, exist_ok=True)
        await self.http.start()
        return self

    async def run_until_shutdown(self) -> None:
        await self.shutdown.wait()
        for hosted in self.hosted.values():
            await hosted.server.stop(drain=self.drain_on_shutdown)
        await self.http.close()

    async def close(self) -> None:
        """Immediate teardown (tests); prefer the shutdown endpoint."""
        for hosted in self.hosted.values():
            await hosted.server.stop(drain=False)
        self.hosted.clear()
        await self.http.close()


def predict_items(payload: dict) -> tuple[list[dict], bool]:
    """The riders of one ``POST /v1/predict`` body, and whether they
    came wrapped in ``requests`` (and so are answered in ``replies``).

    A body without ``requests`` is itself the only rider.  Raises
    :class:`ProtocolError` when ``requests`` is not a non-empty list of
    objects.
    """
    if "requests" not in payload:
        return [payload], False
    items = payload["requests"]
    if not isinstance(items, list) or not items \
            or not all(isinstance(item, dict) for item in items):
        raise ProtocolError("'requests' must be a non-empty list of "
                            "request objects")
    return items, True


def predict_fields(item: dict) -> tuple[dict, float | None, int]:
    """``(inputs, deadline_ms, priority)`` of one predict request, typed.

    The one reading of these wire fields, shared by the gateway's front
    door and the worker.  Raises :class:`ProtocolError` naming the
    field that is missing or has the wrong type.  A deadline follows
    :func:`~repro.serve.check_deadline` (Python's ``json`` reads
    ``NaN`` and ``Infinity``; they are refused like ``true`` and
    ``"250"``) and a priority :func:`~repro.serve.check_priority`: the
    rules the in-process APIs apply too.
    """
    inputs = item.get("inputs")
    if not isinstance(inputs, dict):
        raise ProtocolError("predict body needs an 'inputs' object of "
                            "float vectors")
    try:
        deadline_ms = check_deadline(item.get("deadline_ms"), "deadline_ms")
        priority = check_priority(item.get("priority", 0))
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    return inputs, deadline_ms, priority


def _failed(status: int, message: str, reason: str | None = None) -> dict:
    """One rider's failure as a reply item (``error_response``'s body
    plus the status the rider would have got on its own)."""
    item = {"status": status, "error": message}
    if reason is not None:
        item["reason"] = reason
    return item


def _engine_from_artifact(path: str):
    """Thread-side warm start (blocking: hash, inflate, re-program)."""
    from repro.engine import InferenceEngine

    return InferenceEngine.from_artifacts(path)


def _engine_cold_build(spec: FleetModelSpec, artifact_base: str,
                       batch: int):
    """Thread-side cold build: compile + program + record + save."""
    engine = build_engine(spec, artifact_dir=artifact_base)
    try:
        artifact_path = engine.ensure_artifacts(batch=batch)
    except ArtifactError:
        artifact_path = None        # seed=None etc.: serve without a blob
    return engine, artifact_path


async def _worker_main(bootstrap: dict, conn) -> None:
    worker = FleetWorker(
        worker_id=bootstrap["worker_id"],
        store_address=tuple(bootstrap["store_address"])
        if bootstrap.get("store_address") else None,
        work_dir=bootstrap["work_dir"],
        max_batch_size=bootstrap.get("max_batch_size", 16),
        host=bootstrap.get("host", "127.0.0.1"),
        max_queue_depth=bootstrap.get("max_queue_depth"))
    await worker.start()
    conn.send({"ok": True, "port": worker.http.port, "pid": os.getpid()})
    conn.close()
    await worker.run_until_shutdown()


def run_worker(bootstrap: dict, conn) -> None:
    """Process entry point (must stay module-level picklable for spawn).

    A worker ignores SIGINT: Ctrl-C in a terminal signals the whole
    process group, and the gateway, which owns each worker's life,
    drains its workers itself (``/v1/shutdown``, else a terminate).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    asyncio.run(_worker_main(bootstrap, conn))


def worker_bootstrap(worker_id: str, work_dir: str, *,
                     store_address: tuple[str, int] | None = None,
                     max_batch_size: int = 16,
                     host: str = "127.0.0.1",
                     max_queue_depth: int | None = None) -> dict:
    """The picklable config dict :func:`run_worker` consumes."""
    return {"worker_id": worker_id, "work_dir": work_dir,
            "store_address": list(store_address) if store_address else None,
            "max_batch_size": max_batch_size,
            "host": host,
            "max_queue_depth": max_queue_depth}

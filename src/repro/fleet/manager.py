"""Worker lifecycle: spawn, readiness, eviction, respawn.

The manager owns the boring-but-critical half of a fleet — processes:

* **Spawn** — workers start via the multiprocessing ``spawn`` method
  (never ``fork``: a forked worker inherits the parent's warm
  compile/state/tape caches copy-on-write, which would silently defeat
  the networked warm-start path and its tests).  The child binds port 0
  and reports its OS-assigned port back over a pipe.
* **Readiness** — a worker is not *ready* until its ``/healthz`` answers
  over real HTTP; the manager polls with a deadline so a wedged child
  becomes a spawn failure, not a hung fleet.
* **Lifeline** — the manager keeps its end of that pipe open for the
  worker's whole life.  The kernel closes it when the gateway dies, by
  any means (``SIGKILL`` included), and a worker reads that EOF as
  "gateway gone": it drains and exits instead of serving on, orphaned.
* **Eviction & respawn** — the gateway's health loop calls
  :meth:`evict` after consecutive probe failures; the process is
  terminated (then killed) and a replacement with a fresh id is spawned,
  warm-starting its models off the networked store.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

from repro.fleet.http import FleetConnectionError, HttpConnection
from repro.fleet.worker import run_worker, worker_bootstrap

READY_TIMEOUT_S = 60.0
HEALTH_TIMEOUT_S = 5.0


class WorkerSpawnError(RuntimeError):
    """A worker process failed to start or report readiness in time."""


@dataclass
class WorkerHandle:
    """One live worker process as the gateway sees it."""

    worker_id: str
    process: mp.process.BaseProcess
    lifeline: Connection      # closed when the worker is let go
    host: str
    port: int
    healthy: bool = True
    consecutive_failures: int = 0
    hosted: set[str] = field(default_factory=set)   # route keys loaded

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


async def probe_health(handle: WorkerHandle,
                       timeout: float = HEALTH_TIMEOUT_S) -> bool:
    """One ``/healthz`` round-trip; ``False`` on any failure."""
    connection = HttpConnection(handle.host, handle.port)
    try:
        response = await connection.request("GET", "/healthz",
                                            timeout=timeout)
        return response.status == 200 and bool(response.json().get("ok"))
    except (FleetConnectionError, ValueError):
        return False
    finally:
        await connection.close()


class WorkerManager:
    """Spawns and reaps fleet worker processes.

    Args:
        work_dir: per-fleet scratch root; each worker gets a
            subdirectory for its unpacked/saved artifacts.
        store_address: the gateway's artifact plane, passed to workers.
        max_batch_size: per-model server batching limit, uniform
            across the fleet.
        max_queue_depth: per-model admission bound, uniform across the
            fleet (``None`` = unbounded).
    """

    def __init__(self, work_dir: str, *,
                 store_address: tuple[str, int] | None = None,
                 max_batch_size: int = 16,
                 host: str = "127.0.0.1",
                 max_queue_depth: int | None = None) -> None:
        self.work_dir = work_dir
        self.store_address = store_address
        self.max_batch_size = max_batch_size
        self.host = host
        self.max_queue_depth = max_queue_depth
        self.workers: dict[str, WorkerHandle] = {}
        self._ids = itertools.count()
        self._context = mp.get_context("spawn")

    async def spawn(self) -> WorkerHandle:
        """Start one worker and wait until it serves ``/healthz``."""
        worker_id = f"w{next(self._ids)}"
        bootstrap = worker_bootstrap(
            worker_id, f"{self.work_dir}/{worker_id}",
            store_address=self.store_address,
            max_batch_size=self.max_batch_size,
            host=self.host,
            max_queue_depth=self.max_queue_depth)
        # Duplex: the worker writes its hello, then waits to read EOF.
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=run_worker, args=(bootstrap, child_conn),
            name=f"fleet-{worker_id}", daemon=True)
        process.start()
        child_conn.close()
        deadline = time.monotonic() + READY_TIMEOUT_S
        try:
            hello = await asyncio.to_thread(
                _recv_with_deadline, parent_conn, process, deadline)
        except WorkerSpawnError:
            _terminate(process, parent_conn)
            raise
        handle = WorkerHandle(worker_id=worker_id, process=process,
                              lifeline=parent_conn, host=self.host,
                              port=int(hello["port"]))
        while not await probe_health(handle):
            if time.monotonic() > deadline or not process.is_alive():
                _terminate(process, parent_conn)
                raise WorkerSpawnError(
                    f"{worker_id} (pid {process.pid}) reported port "
                    f"{handle.port} but never became healthy")
            await asyncio.sleep(0.05)
        self.workers[worker_id] = handle
        return handle

    async def spawn_many(self, count: int) -> list[WorkerHandle]:
        return [await self.spawn() for _ in range(count)]

    def evict(self, worker_id: str) -> WorkerHandle | None:
        """Forget and terminate one worker (health loop, shutdown)."""
        handle = self.workers.pop(worker_id, None)
        if handle is not None:
            _terminate(handle.process, handle.lifeline)
        return handle

    async def shutdown_worker(self, handle: WorkerHandle, *,
                              drain: bool = True,
                              timeout: float = 30.0) -> bool:
        """Graceful stop: ``/v1/shutdown`` then join; terminate on lapse."""
        connection = HttpConnection(handle.host, handle.port)
        try:
            await connection.request(
                "POST", "/v1/shutdown",
                body=b'{"drain": %s}' % (b"true" if drain else b"false"),
                headers={"Content-Type": "application/json"},
                timeout=HEALTH_TIMEOUT_S)
        except FleetConnectionError:
            pass                      # already dead is fine for shutdown
        finally:
            await connection.close()
        deadline = time.monotonic() + timeout
        while handle.process.is_alive():
            if time.monotonic() > deadline:
                _terminate(handle.process, handle.lifeline)
                return False
            await asyncio.sleep(0.02)
        handle.lifeline.close()
        self.workers.pop(handle.worker_id, None)
        return True

    async def close(self, *, drain: bool = True) -> None:
        for handle in list(self.workers.values()):
            await self.shutdown_worker(handle, drain=drain)
        for handle in list(self.workers.values()):
            _terminate(handle.process, handle.lifeline)
        self.workers.clear()


def _recv_with_deadline(conn, process, deadline: float) -> dict:
    """Blocking pipe read with a deadline (runs in a thread)."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerSpawnError(
                f"worker pid {process.pid} did not report its port within "
                f"the readiness deadline")
        if conn.poll(min(remaining, 0.1)):
            try:
                return conn.recv()
            except (EOFError, OSError) as error:
                raise WorkerSpawnError(
                    f"worker pid {process.pid} died before reporting its "
                    f"port: {error}") from error
        if not process.is_alive():
            raise WorkerSpawnError(
                f"worker pid {process.pid} exited with code "
                f"{process.exitcode} before reporting its port")


def _terminate(process, lifeline: Connection) -> None:
    """Stop ``process`` (terminate, then kill) and close its lifeline."""
    lifeline.close()
    if process.is_alive():
        process.terminate()
        process.join(timeout=5.0)
    if process.is_alive():           # pragma: no cover - last resort
        process.kill()
        process.join(timeout=5.0)

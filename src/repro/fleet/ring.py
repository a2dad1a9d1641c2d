"""Consistent-hash ring: which workers host which model.

Placement is by consistent hashing on the model's route key (the
compilation-identity digest from :func:`repro.fleet.models.route_key`),
the classic trick for cache-affine routing: each worker owns many
pseudo-random points on a hash circle, and a key is served by the first
``count`` *distinct* workers clockwise from the key's own point.

Why this shape for a PUMA fleet specifically: a model's replicas should
**share warm artifacts**.  Programming crossbars and recording execution
tapes is the expensive, pay-once part (Section 3.2.5 of the paper); the
ring keeps a model pinned to a stable subset of workers so that cost is
paid ``replicas`` times, not ``workers`` times — and when a worker joins
or leaves, only the keys adjacent to its points move (``~K/N`` of them),
so evicting a worker and respawning its replacement doesn't cold-start
the whole fleet.

Deterministic by construction (SHA-256 over ``worker_id:vnode`` /
route-key strings, no process salt), so the gateway can be restarted —
or a second gateway consulted — and compute identical placements.
"""

from __future__ import annotations

import bisect
import hashlib

DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """A stable 64-bit position on the circle for one label."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent-hash placement of route keys onto worker ids.

    Example::

        ring = HashRing(["w0", "w1", "w2"])
        primary, backup = ring.replicas("abc123", 2)
        ring.replicas("abc123", 2) == [primary, backup]   # stable
    """

    def __init__(self, workers: list[str] | None = None,
                 vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = vnodes
        self._points: list[int] = []       # sorted circle positions
        self._owner: dict[int, str] = {}   # position -> worker id
        self._workers: set[str] = set()
        for worker in workers or []:
            self.add(worker)

    @property
    def workers(self) -> set[str]:
        return set(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def add(self, worker: str) -> None:
        """Add a worker's virtual nodes; no-op if already present."""
        if worker in self._workers:
            return
        self._workers.add(worker)
        for vnode in range(self._vnodes):
            point = _point(f"{worker}:{vnode}")
            # SHA-256 collisions across distinct labels are not a
            # realistic concern; keep first owner if one ever happened.
            if point not in self._owner:
                self._owner[point] = worker
                bisect.insort(self._points, point)

    def remove(self, worker: str) -> None:
        """Remove a worker's virtual nodes; no-op if absent."""
        if worker not in self._workers:
            return
        self._workers.discard(worker)
        keep = [p for p in self._points if self._owner[p] != worker]
        for point in self._points:
            if self._owner[point] == worker:
                del self._owner[point]
        self._points = keep

    def replicas(self, key: str, count: int = 1) -> list[str]:
        """The first ``count`` distinct workers clockwise from ``key``.

        Returns fewer than ``count`` when the ring holds fewer workers,
        and ``[]`` on an empty ring.  Order matters: index 0 is the
        primary (dispatch prefers it), later entries are the failover
        order — stable for a given ring membership.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not self._points:
            return []
        start = bisect.bisect(self._points, _point(key))
        chosen: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            point = self._points[(start + offset) % len(self._points)]
            worker = self._owner[point]
            if worker not in seen:
                seen.add(worker)
                chosen.append(worker)
                if len(chosen) == count:
                    break
        return chosen

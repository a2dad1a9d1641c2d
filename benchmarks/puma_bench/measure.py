"""Clocks, host probes and the span log shared by every workload.

All wall-clock numbers come from ``time.perf_counter``; CPU time and
memory are read from the kernel (``time.process_time``, ``/proc/<pid>/stat``,
``/proc/<pid>/status``) so a worker process is charged to the workload
that spawned it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent

# A run is set-up, warm-up, then this many timed segments; every timing
# metric is computed per segment and reported as the median over them.
SEGMENTS = 5

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def now() -> float:
    return time.perf_counter()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def relative_iqr(values) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 runs).

    The driver's acceptance rule and ``compare`` both use exactly
    ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


# -- host ------------------------------------------------------------------


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record() -> dict:
    return {
        "git_sha": git_sha(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


# -- CPU and memory --------------------------------------------------------


def process_cpu_s(pid: int) -> float:
    """User+system CPU seconds a live process has used so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name may hold spaces; fields are counted after ")".
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_seconds(worker_pids=()) -> float:
    """CPU seconds of this process (all threads) plus the given workers."""
    return (time.process_time()
            + sum(process_cpu_s(pid) for pid in worker_pids))


def process_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def peak_rss_mb(worker_pids=()) -> float:
    """This process's ``ru_maxrss`` plus each worker's ``VmHWM``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(process_peak_rss_mb(pid) for pid in worker_pids)


# -- spans -----------------------------------------------------------------


class SpanLog:
    """In-memory span and counter log, written as JSON lines at the end.

    A span is (name, start, end, parent, request id); spans of one
    request share the request id.  Nothing is written while a run is
    measuring.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: list[tuple] = []

    def span(self, name: str, start: float, end: float,
             parent: str | None = None, rid: int | None = None) -> None:
        self.spans.append((name, start, end, parent, rid))

    def counter_snapshot(self, where: str, values: dict) -> None:
        self.counters.append((where, now(), dict(values)))

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3
                for span_name, start, end, _p, _r in self.spans
                if span_name == name]

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, rid in self.spans:
                out.write(json.dumps({
                    "span": name, "start": start, "end": end,
                    "parent": parent, "rid": rid}) + "\n")
            for where, at, values in self.counters:
                out.write(json.dumps({
                    "counters": where, "at": at, "values": values}) + "\n")

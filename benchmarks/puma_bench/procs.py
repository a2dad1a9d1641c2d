"""Leave no process behind: every exit from ``run.py`` ends here.

A fleet run starts one worker process with ``spawn``, and the first
``spawn`` also starts multiprocessing's resource tracker.  The worker is
stopped by ``PumaFleet.stop``; the tracker is not anybody's to stop: it
ignores SIGINT and SIGTERM and ends only when its pipe from this process
closes, which is *after* this process has exited.  To whoever started
the benchmark that is a process still running when the run returned.

``adopt_orphans`` makes this process the reaper of everything below it,
and ``stop_children`` closes the tracker's pipe, then terminates, kills
if need be, and waits for whatever is still a child.  Standard library
only, so it can run before and after everything else.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36
TERM_GRACE_S = 5.0
KILL_GRACE_S = 5.0


def adopt_orphans() -> None:
    """Have orphaned descendants re-parented to this process (Linux), so
    that :func:`stop_children` can see and wait for them too."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):       # not Linux: direct children only
        pass


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks still run."""
    def handler(signum, _frame):
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, handler)


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    own, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:                     # ended while we were looking
            continue
        # The command name may hold spaces; fields are counted after ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == own:
            found.append(int(entry.name))
    return found


def _reap(pids: list[int], deadline: float) -> list[int]:
    """Wait for ``pids`` until ``deadline``; returns those still alive."""
    alive = list(pids)
    while alive:
        for pid in list(alive):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:       # somebody else waited for it
                done = pid
            if done:
                alive.remove(pid)
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    return alive


def _stop_resource_tracker() -> None:
    """Close the tracker's pipe and wait for it.  ``_stop`` is private to
    multiprocessing; without it the sweep below kills the tracker."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def _signal(pids: list[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def stop_children() -> None:
    """Stop every process below this one and wait until each has ended."""
    _stop_resource_tracker()
    # Orphans re-parented to us show up as new children: sweep until none.
    while pids := children():
        alive = _reap(pids, time.monotonic())
        _signal(alive, signal.SIGTERM)
        alive = _reap(alive, time.monotonic() + TERM_GRACE_S)
        _signal(alive, signal.SIGKILL)
        if _reap(alive, time.monotonic() + KILL_GRACE_S):
            return                          # unkillable: nothing more to do

"""puma_bench entry script.

    python3 benchmarks/puma_bench/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
    python3 benchmarks/puma_bench/run.py compare A.json... -- B.json...
    python3 benchmarks/puma_bench/run.py --update-golden

See README.md in this directory.
"""

import ctypes
import os
import sys
import time
from pathlib import Path

_PROCESS_STARTED = time.perf_counter()

# Single-threaded BLAS, set before numpy is imported anywhere; spawned
# fleet workers inherit the environment.  Two cores are shared by the
# harness and one worker, and a BLAS pool on top of that measures the
# scheduler, not the program.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

# One malloc arena.  glibc gives each thread its own, and which thread's
# arena a cold build happens to grow moved peak memory of identical runs
# between 173 and 247 MB; with one arena they agree within 2%.  The
# environment variable reaches spawned workers, mallopt this process.
os.environ["MALLOC_ARENA_MAX"] = "1"
try:
    ctypes.CDLL(None).mallopt(-8, 1)        # M_ARENA_MAX
except (OSError, AttributeError):           # not glibc: leave malloc alone
    pass

_HERE = Path(__file__).resolve().parent
# benchmarks/ makes the puma_bench package importable; src/ is repro.
# Fleet workers start with "spawn" and re-import this module, so the
# path set-up runs there too -- and the entry point below must not.
for _path in (_HERE.parent, _HERE.parent.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

if __name__ == "__main__":
    from puma_bench import procs

    # Whatever way this process ends, nothing it started outlives it.
    procs.adopt_orphans()
    procs.exit_on_sigterm()
    try:
        from puma_bench.cli import main

        status = main(sys.argv[1:], _PROCESS_STARTED)
        sys.stdout.flush()
    finally:
        procs.stop_children()
    sys.exit(status)

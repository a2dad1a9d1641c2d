"""Command line of the harness (``run.py`` is the entry script).

``run.py --workload NAME --seed N --seconds S --trace 0|1`` is one run
in this process; its last line of output is the result object the
benchmark contract asks for.  ``--workload all`` (the default) runs
every workload, each in a fresh interpreter so that peak memory and
cold caches are honest.  ``run.py compare A.json... -- B.json...``
judges two sets of run records against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
from pathlib import Path

from puma_bench import compare, runner, sweep
from puma_bench.measure import BENCH_DIR
from puma_bench.workload import NotWarm

DEFAULT_SEED = 11
SMOKE_SECONDS = 0.5
EXIT_INVALID = 2


def parser() -> argparse.ArgumentParser:
    declared = runner.declared()
    p = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=[*runner.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seeds the input pools, request stream and "
                        "arrival schedule (default %(default)s)")
    p.add_argument("--seconds", type=float,
                   default=float(declared["run_seconds"]),
                   help="timed seconds per run, split into five segments "
                        "(default %(default)s)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: the traced run (layer waterfall, per-layer "
                        "metrics); with --workload all, run both")
    p.add_argument("--smoke", action="store_true",
                   help="tiny counts: checks the plumbing, not the system; "
                        "validity flags are shown but not enforced")
    p.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                   help="directory for run records and span logs")
    p.add_argument("--update-golden", action="store_true",
                   help="rewrite golden/sim_cold_sweep.json from the "
                        "harness interpreter and exit")
    return p


def render(record: dict) -> str:
    """Every metric by name with its unit, and the counts per phase."""
    lines = [f"== {record['workload']} ({record['loop']}) seed "
             f"{record['seed']} trace {record['trace']} =="]
    lines += [f"  {line}" for line in record["phases"]]
    if record["trace"]:
        if record["waterfall"]:
            lines.append("  waterfall (p50 ms at each public entry point; "
                         "self = this level minus the next):")
            inner = record["waterfall"][1:] + [(None, 0.0)]
            for (label, ms), (_next, next_ms) in zip(record["waterfall"],
                                                     inner):
                lines.append(f"    {label:<30} {ms:9.3f} ms   "
                             f"self {ms - next_ms:8.3f} ms")
        if record["parts"]:
            total = sum(ms for _step, ms in record["parts"])
            lines.append("  spans that add up to one op (median ms):")
            lines += [f"    {step:<30} {ms:9.3f} ms"
                      for step, ms in record["parts"]]
            lines.append(f"    {'sum':<30} {total:9.3f} ms = "
                         f"{total / record['traced_p50_ms']:.3f} of the "
                         f"op's {record['traced_p50_ms']:.3f} ms"
                         + ("" if record["span_coverage_ok"]
                            else "  SPAN COVERAGE OUTSIDE 5%"))
        lines.append(
            f"  tracing overhead: outermost p50 {record['traced_p50_ms']:.3f}"
            f" ms traced vs {record['untraced_p50_ms']:.3f} ms untraced = "
            f"{record['trace_overhead_share']:+.3f}"
            + ("" if record["trace_overhead_ok"]
               else "  OUTSIDE 10% (noise or real overhead: rerun)"))
    else:
        lines.append(f"  warm={str(record['warm']).lower()} "
                     f"saturated={str(record['saturated']).lower()} "
                     f"set-ups {record['setup_times_s']}")
    skipped = set(record.get("not_exercised", ()))
    diagnostics = record.get("diagnostics", {})
    for name, metric in {**record["metrics"], **diagnostics}.items():
        spread = ("" if metric["min"] == metric["max"] else
                  f"   [segments {metric['min']:.6g} .. {metric['max']:.6g}]")
        note = ("   (layer not exercised by this workload)"
                if name in skipped else
                "   (diagnostic, unbounded)" if name in diagnostics else "")
        lines.append(f"  {name:<38} {metric['value']:>14.6g} "
                     f"{metric['unit']}{spread}{note}")
    return "\n".join(lines)


def contract_line(record: dict) -> str:
    """The last line of a run: the object the benchmark contract reads."""
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()}})


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool,
            out_dir: Path, process_started: float) -> dict:
    """One run in this process; writes and returns its record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = runner.WORKLOADS[name](seed, smoke, out_dir)
    if smoke:
        seconds = min(seconds, SMOKE_SECONDS)
    if trace:
        record = asyncio.run(runner.run_traced(workload, seconds, out_dir))
    else:
        record = asyncio.run(
            runner.run_timed(workload, seconds, process_started))
    path = out_dir / (f"{name}-seed{seed}-trace{trace}-"
                      f"{int(record['started_unix'] * 1e3)}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["record_path"] = str(path)
    return record


def run_all(args) -> int:
    """Every workload, each (workload, run) in a fresh interpreter."""
    status = 0
    for name in runner.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", str(args.out)]
            if args.smoke:
                command.append("--smoke")
            status = max(status, subprocess.run(command).returncode)
    return status


def main(argv: list[str], process_started: float) -> int:
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    args = parser().parse_args(argv)
    if args.update_golden:
        sweep.write_golden(args.seed)
        print(f"wrote {sweep.GOLDEN_PATH}")
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_one(args.workload, args.seed, args.seconds, args.trace,
                         args.smoke, args.out, process_started)
    except (runner.InvalidRun, NotWarm) as error:
        print(f"INVALID RUN: {error}", file=sys.stderr)
        return EXIT_INVALID
    print(render(record))
    print(f"  record: {record['record_path']}")
    print(contract_line(record))
    return 0

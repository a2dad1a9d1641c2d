"""``run.py compare A.json... -- B.json...``: two sets of runs, judged.

For every workload x end-to-end metric this prints both medians, the
run-to-run spread (inter-quartile distance over the median, the larger
of the two sets) and a verdict against the bound in ``BENCHMARK.json``:

* ``within``     B's median is no worse than A's by more than the bound;
* ``regressed``  it is worse by more than the bound;
* ``improved``   it is better by more than A's own spread and at least
                 nine tenths of B's runs beat A's median;
* ``unresolved`` the spread exceeds the bound, so the runs cannot tell
                 (unless every run of B beats every run of A).

Metrics whose bound is (numerically) zero are simulated, not measured:
they must be identical.  The exit code is 1 when anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from puma_bench.measure import REPO_ROOT, relative_iqr

EXACT_BOUND = 1e-6


def load(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per timed, non-smoke run record."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record["trace"] or record["smoke"]:
            continue
        per_metric = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values


def judge(a: list[float], b: list[float], better: str,
          bound: float) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)``; ``worse_by`` > 0 means B is worse."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median_b - median_a) / abs(median_a)
    spread = max(relative_iqr(a), relative_iqr(b))

    def beats(new: float, old: float) -> bool:
        return sign * (new - old) < 0

    if bound <= EXACT_BOUND:
        if sorted(a) == sorted(b) or abs(worse_by) <= bound:
            return "within", worse_by, spread
        return ("regressed" if worse_by > 0 else "improved"), worse_by, spread
    if spread > bound:
        if all(beats(new, old) for new in b for old in a):
            return "improved", worse_by, spread
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "regressed", worse_by, spread
    wins = sum(beats(new, median_a) for new in b)
    if -worse_by > relative_iqr(a) and wins >= 0.9 * len(b):
        return "improved", worse_by, spread
    return "within", worse_by, spread


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare A.json... -- B.json...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    a_runs, b_runs = load(argv[:split]), load(argv[split + 1:])
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':<22} {'metric':<20} {'A median':>12} "
          f"{'B median':>12} {'B worse by':>11} {'spread':>8} "
          f"{'bound':>7}  verdict")
    tally: dict[str, int] = {}
    for workload in declared["workloads"]:
        name = workload["name"]
        if name not in a_runs or name not in b_runs:
            print(f"{name:<22} (no timed runs on both sides)")
            continue
        for metric in declared["end_to_end"]:
            a = a_runs[name][metric["name"]]
            b = b_runs[name][metric["name"]]
            verdict, worse_by, spread = judge(a, b, metric["better"],
                                              metric["bound"])
            tally[verdict] = tally.get(verdict, 0) + 1
            print(f"{name:<22} {metric['name']:<20} "
                  f"{statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {worse_by:>+11.2%} "
                  f"{spread:>8.2%} {metric['bound']:>7.2g}  {verdict} "
                  f"(n={len(a)},{len(b)})")
    print("  ".join(f"{verdict}: {count}"
                    for verdict, count in sorted(tally.items())))
    return 1 if tally.get("regressed") else 0

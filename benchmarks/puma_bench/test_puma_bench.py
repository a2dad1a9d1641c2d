"""Self-test of the puma_bench harness (tier-1 collects this file).

Four things are pinned: ``BENCHMARK.json`` keeps to the benchmark
contract, every workload prints every declared metric with its unit on a
``--smoke`` run, the correctness check has teeth -- one flipped word
in one reply is a failed op -- and a run leaves no process behind.
"""

import asyncio
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from puma_bench import cli, runner
from puma_bench.compare import judge
from puma_bench.loadgen import OpFailure, closed_loop, open_loop
from puma_bench.measure import BENCH_DIR, REPO_ROOT
from puma_bench.models import mlp_case
from puma_bench.pool import InputPool

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())["metrics"]


def test_benchmark_json_keeps_to_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["benchmarks/puma_bench"]
    assert DECLARED["command"][-1].startswith(DECLARED["paths"][0] + "/")
    assert isinstance(DECLARED["run_seconds"], int)
    assert 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in DECLARED[group]]
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in DECLARED["end_to_end"])
    assert set(runner.WORKLOADS) == {w["name"]
                                     for w in DECLARED["workloads"]}


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    workloads = {w["name"] for w in DECLARED["workloads"]}
    assert set(LAYERS) == {m["name"] for m in DECLARED["per_layer"]}
    for name, entry in LAYERS.items():
        assert name.startswith(entry["layer"] + "."), name
        assert entry["moves"], f"{name} moves nothing"
        for metric, workload in entry["moves"]:
            assert metric in end_to_end, (name, metric)
            assert workload in workloads, (name, workload)
        # The demoted end-to-end metrics are watched, not bounded.
        for metric, workload in entry.get("watch", ()):
            assert metric in ("client.latency_p95_ms",
                              "client.cpu_ms_per_op"), (name, metric)
            assert workload in workloads, (name, workload)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(runner.WORKLOADS))
def test_smoke_prints_every_declared_metric(workload, trace, tmp_path):
    record = cli.run_one(workload, seed=5, seconds=cli.SMOKE_SECONDS,
                         trace=trace, smoke=True, out_dir=tmp_path,
                         process_started=0.0)
    assert record["failed"] == 0, record["phases"]
    printed = cli.render(record)
    result = json.loads(cli.contract_line(record))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[group]}
    for metric in DECLARED[group]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                         rf"{re.escape(metric['unit'])}\b", printed, re.M), \
            f"{metric['name']} [{metric['unit']}] not printed"
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert set(record["not_exercised"]) < set(LAYERS)
        assert Path(record["span_log"]).stat().st_size > 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in DECLARED["end_to_end"]), "a metric read 0"
        for name in ("client.latency_p95_ms", "client.cpu_ms_per_op"):
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+ ms\b.*"
                             rf"diagnostic", printed, re.M), name


def test_a_flipped_word_is_a_failed_op():
    """The bitwise check has teeth, in both load loops."""
    pool = InputPool(mlp_case("mlp", [8, 6, 4]).engine("interpret"),
                     seed=3, ordinal=0, size=4)

    async def op(i: int) -> None:
        words = {name: rows[i % pool.size].copy()
                 for name, rows in pool.words.items()}
        if i == 2:
            words["out"][1] ^= 1        # one bit of one word
        if not pool.matches(i % pool.size, words):
            raise OpFailure("mismatch", f"entry {i}")

    closed = asyncio.run(closed_loop("closed", op, 2, iter(range(6))))
    assert (closed.attempted, closed.ok, closed.failed) == (6, 5, 1)
    assert closed.failures["mismatch"] == 1
    assert 2 not in [i for i, _latency in closed.samples]
    opened = asyncio.run(open_loop("open", op, np.arange(1, 7) * 1e-3, 0))
    assert (opened.attempted, opened.failed) == (6, 1)
    assert opened.failures["mismatch"] == 1 and len(opened.late_ms) == 6


def test_failures_are_split_by_kind():
    kinds = itertools.cycle(("timeout", "rejected", "transport"))

    async def op(i: int) -> None:
        if i % 2:
            raise OpFailure(next(kinds))
        if i == 4:
            raise ValueError("not an OpFailure")

    phase = asyncio.run(closed_loop("kinds", op, 1, iter(range(8))))
    assert phase.failures == {"timeout": 2, "rejected": 1, "transport": 1,
                              "mismatch": 0, "error": 1}
    assert phase.ok == 3 and "attempted 8 ok 3 failed 5" in phase.line()


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05]
    assert judge(steady, [10.2, 10.1, 10.0, 10.15], "lower", 0.10)[0] \
        == "within"
    assert judge(steady, [12.0, 12.1, 11.9, 12.2], "lower", 0.10)[0] \
        == "regressed"
    assert judge(steady, [8.0, 8.1, 7.9, 8.2], "lower", 0.10)[0] \
        == "improved"
    assert judge(steady, [8.0, 8.1, 7.9, 8.2], "higher", 0.10)[0] \
        == "regressed"
    noisy = [10.0, 14.0, 7.0, 12.0]
    assert judge(noisy, [11.0, 15.0, 8.0, 9.0], "lower", 0.10)[0] \
        == "unresolved"
    # Simulated metrics are exact: any difference is a verdict.
    assert judge([5644, 5644], [5644, 5644], "lower", 1e-9)[0] == "within"
    assert judge([5644, 5644], [5645, 5645], "lower", 1e-9)[0] \
        == "regressed"


LEFTOVERS = """
import os, subprocess, sys, time
sys.path.insert(0, sys.argv[1])
from puma_bench import procs
procs.TERM_GRACE_S = 0.3
procs.adopt_orphans()
deaf = "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN)"
# A child that ignores SIGTERM (as the resource tracker does), and one
# that starts a grandchild, tells us its pid and exits: an orphan.
stubborn = subprocess.Popen([sys.executable, "-c", deaf + "; time.sleep(60)"])
parent = subprocess.Popen(
    [sys.executable, "-c", "import subprocess, sys; print(subprocess.Popen("
     "[sys.executable, '-c', 'import time; time.sleep(60)']).pid)"],
    stdout=subprocess.PIPE, text=True)
orphan = int(parent.stdout.readline())
time.sleep(0.2)         # let the stubborn one install its handler
procs.stop_children()
alive = [pid for pid in (stubborn.pid, parent.pid, orphan)
         if os.path.exists(f"/proc/{pid}")]
print("children", procs.children(), "alive", alive)
"""


def test_no_process_outlives_a_run():
    """``procs.stop_children`` ends and reaps a child that ignores
    SIGTERM and an orphaned grandchild; run in an interpreter of its own
    so the sweep cannot touch pytest's children."""
    done = subprocess.run(
        [sys.executable, "-c", LEFTOVERS, str(BENCH_DIR.parent)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "children [] alive []"
    entry = (BENCH_DIR / "run.py").read_text()
    assert "finally:\n        procs.stop_children()" in entry

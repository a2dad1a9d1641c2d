"""Documentation health: internal links resolve, doctests run, and the
pages keep naming real tests.

Six failure modes this guards against:

* a docs page linking to a file or heading that was renamed away
  (``[text](path#anchor)`` targets are resolved against the repo and
  against GitHub-style heading slugs);
* example code in public docstrings rotting (the facade modules'
  ``>>>`` examples run under :mod:`doctest` — CI also runs
  ``pytest --doctest-modules`` over them, but running here keeps the
  check inside the tier-1 suite);
* guarantees/serving pages citing enforcement tests that no longer
  exist (every ``tests/...py`` / ``benchmarks/...py`` path mentioned in
  a docs page must be a real file);
* the measurement estate ``benchmarks/puma_bench/`` replaced growing
  back: a second harness beside it, a per-PR record file at the root,
  or prose that still points at either;
* fault injection growing back into the product (``src/``) instead of
  living in the tests;
* continuous batching, the gateway autoscaler or the product load
  generator growing back into ``src/``.
"""

import doctest
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
_REPO_PATH = re.compile(r"\b((?:tests|benchmarks)/[\w/]+\.py)\b")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_slugs(markdown: str) -> set[str]:
    return {
        github_slug(line.lstrip("#"))
        for line in markdown.splitlines()
        if line.startswith("#")
    }


def test_docs_pages_exist():
    assert (ROOT / "docs" / "architecture.md").is_file()
    assert (ROOT / "docs" / "serving.md").is_file()
    assert (ROOT / "docs" / "guarantees.md").is_file()


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_internal_links_resolve(doc):
    text = doc.read_text()
    broken = []
    for target in _LINK.findall(_CODE_FENCE.sub("", text)):
        if "://" in target or target.startswith("mailto:"):
            continue                      # external; not checked offline
        path_part, _, anchor = target.partition("#")
        resolved = (doc.parent / path_part).resolve() if path_part else doc
        if path_part and not resolved.exists():
            broken.append(f"{doc.name}: missing target {target!r}")
            continue
        if anchor:
            if not (resolved.is_file() and resolved.suffix == ".md"):
                continue
            if anchor not in heading_slugs(resolved.read_text()):
                broken.append(f"{doc.name}: dead anchor {target!r}")
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_cited_tests_exist(doc):
    """Every tests/... or benchmarks/... path a page cites must exist."""
    missing = [
        cited for cited in set(_REPO_PATH.findall(doc.read_text()))
        if not (ROOT / cited).is_file()
    ]
    assert not missing, f"{doc.name} cites missing files: {missing}"


# -- one measurement estate ---------------------------------------------------

# Spelled in halves so this file is not its own offender: the retired
# per-PR benches, the host-parallelism surface ShardedEngine lost when it
# became a model of replication rather than a worker pool, and the
# per-width runtime probe that the recording check replaced.
_RETIRED = re.compile(
    "BENCH" "_PR|benchmarks/" "bench_"
    "|shard" "_policy|shard" "_executor|apportion" "_lanes"
    "|shard" "_throughput|ShardExecution" "Error|SHARD" "_POLICIES"
    "|_verify" "_optimized|verified" "_batches|failed" "-verification"
    "|unoptimiz" "able")
_POOL_IMPORT = re.compile(
    r"^\s*(?:import|from)\s+(?:multiprocessing|concurrent)\b", re.M)
# History and the driver's task statement may name what was retired; the
# harness's own comments explain what it replaced.
_MAY_NAME_RETIRED = ("CHANGES.md", "ROADMAP.md", "ISSUE.md",
                     "benchmarks/puma_bench/")


def test_retired_benches_stay_retired():
    """``benchmarks/`` holds exactly ``puma_bench/``, no per-PR record
    sits at the root, the sharding model imports no worker pool, and no
    tracked source, doc or workflow names anything retired."""
    assert sorted(p.name for p in (ROOT / "benchmarks").iterdir()
                  if p.name != "__pycache__") == ["puma_bench"]
    assert not list(ROOT.glob("BENCH" "_PR*"))
    assert not _POOL_IMPORT.search(
        (ROOT / "src/repro/serve/sharding.py").read_text())
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout: no tracked-file list")
    tracked = subprocess.run(
        ["git", "ls-files", "*.md", "*.py", "*.yml"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.splitlines()
    offenders = [
        f"{name}:{number}: {line.strip()}"
        for name in tracked
        if not name.startswith(_MAY_NAME_RETIRED) and (ROOT / name).is_file()
        for number, line in enumerate(
            (ROOT / name).read_text().splitlines(), start=1)
        if _RETIRED.search(line)]
    assert not offenders, "\n".join(offenders)


# Fault injection lives in tests/fleet_faults.py; the product carries no
# injector and no route that arms one.  Spelled in halves so this file
# is not its own offender.
_FAULT_SURFACE = re.compile(
    "/v1/" "chaos|--" "chaos|Fault" "Plan|Fault" "Injector|Fault" "Event"
    "|Drop" "Connection|arm" "_chaos|fault" "_plan")


def _src_lines_matching(pattern: re.Pattern) -> list[str]:
    """Every ``src/`` line ``pattern`` finds, as ``path:number: line``."""
    return [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src").rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        for number, line in enumerate(
            path.read_text(errors="replace").splitlines(), start=1)
        if pattern.search(line)]


def test_no_fault_injection_in_the_product():
    """Nothing under ``src/`` can inject a fault into the fleet."""
    offenders = _src_lines_matching(_FAULT_SURFACE)
    assert not offenders, "\n".join(offenders)


# Continuous batching, the gateway autoscaler, the product load
# generator and the batch window's hold ran only under tests, the CLI
# and examples; the product serves one way, whatever is queued as one
# pass, on a constant replica count, and load comes from
# benchmarks/puma_bench.  Spelled in halves so this file is not its own
# offender.
_RETIRED_SERVING = re.compile(
    "Continuous" "Batcher|continuous" "=|auto" "scal|private" "_replayer"
    "|re" "fills|load" "gen|bursty" "_trace|run" "_trace|Load" "Report"
    "|batch" "_window|hold" "_for|window" "_started")


def test_retired_serving_mechanisms_stay_retired():
    """Nothing under ``src/`` names continuous batching, autoscaling,
    the load generator or the batch window's hold."""
    offenders = _src_lines_matching(_RETIRED_SERVING)
    assert not offenders, "\n".join(offenders)


# -- doctests on the facade modules -----------------------------------------

FACADE_MODULES = ["repro.store", "repro.serve.sharding",
                  "repro.serve.scheduler", "repro.fleet.resilience"]


@pytest.mark.parametrize("module_name", FACADE_MODULES)
def test_facade_doctests(module_name):
    module = __import__(module_name, fromlist=["_"])
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} lost its doctests"
    assert results.failed == 0


def test_readme_quickstart_runs():
    """The README's engine quickstart is living code, not prose."""
    import numpy as np

    from repro import InferenceEngine
    from repro.workloads.mlp import build_mlp_model

    engine = InferenceEngine(build_mlp_model([64, 150, 150, 14]), seed=0)
    x = np.zeros((2, 64))
    result = engine.predict({"x": x})
    assert result.outputs["out"].shape == (2, 14)
    assert result.cycles_per_inference > 0

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report [EXHIBIT ...]`` — regenerate paper tables/figures (default all);
* ``run GRAPH.json --input name=val,val,...`` — import a JSON graph
  (see :mod:`repro.compiler.importer`), compile through the
  :class:`~repro.engine.InferenceEngine`, simulate, and print the
  :class:`~repro.serve.RunResult` summary (float outputs + cycle/energy
  stats).  ``--batch-file FILE.json`` runs a whole request list as one
  SIMD-over-batch pass; ``--shards K`` models it spread over K replica
  nodes (bitwise-identical outputs; cycles = max, energy = sum);
* ``serve GRAPH.json`` — demo of the async serving front-end: N
  concurrent clients stream through :class:`~repro.serve.PumaServer`
  and the batching counters are printed; ``--shards K`` models each
  coalesced micro-batch spread over K replica nodes;
* ``warm GRAPH.json --artifact-dir DIR`` — pre-build the persistent
  artifact (compilation + programmed crossbars + execution tapes, see
  :mod:`repro.store`) so later ``run``/``serve`` invocations — separate
  processes — warm-start with ``--artifact-dir DIR``;
* ``fleet DEPLOYMENT.json`` — start a multi-process serving fleet
  (:mod:`repro.fleet`): N workers behind one HTTP front door, whose
  URL is printed; it serves until SIGINT or SIGTERM, then drains
  queued work and exits 0.  It sends no load: any HTTP client can, and
  ``benchmarks/puma_bench`` measures the fleet under load;
* ``lint GRAPH.json`` — compile a graph and run the static verifier
  (:mod:`repro.analysis`); prints every diagnostic and exits non-zero
  when errors are found;
* ``disasm GRAPH.json`` — compile a graph and print the per-core/tile
  assembly listings;
* ``metrics`` — the Table 6 node metrics for the default configuration.

Exit codes follow one convention across every subcommand:

* ``0`` — clean;
* ``1`` — diagnostics or validation failure (lint errors, unknown or
  malformed inputs, unreadable graph/batch files);
* ``2`` — usage error (bad flag combinations, out-of-range options,
  unknown exhibit names; also argparse's own code for bad syntax).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

EXIT_OK = 0
EXIT_FAILURE = 1   # diagnostics or validation failure
EXIT_USAGE = 2     # usage error


class CliError(Exception):
    """A user-facing CLI failure: message to stderr, exit with ``code``."""

    def __init__(self, message: str, code: int = EXIT_FAILURE) -> None:
        super().__init__(message)
        self.code = code


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.figures.runner import EXHIBITS, run_all

    if not args.exhibits:
        run_all(stream=sys.stdout)
        return EXIT_OK
    by_name = {name.lower().replace(" ", ""): module
               for name, module in EXHIBITS}
    for requested in args.exhibits:
        key = requested.lower().replace(" ", "").replace("_", "")
        module = by_name.get(key)
        if module is None:
            raise CliError(
                f"unknown exhibit {requested!r}; choose from: "
                f"{', '.join(sorted(by_name))}", EXIT_USAGE)
        print(module.render())
        print()
    return EXIT_OK


def _parse_inputs(pairs: list[str]) -> dict[str, np.ndarray]:
    inputs = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(
                f"--input expects name=v1,v2,... got {pair!r}", EXIT_USAGE)
        name, values = pair.split("=", 1)
        try:
            inputs[name] = np.array([float(v) for v in values.split(",")])
        except ValueError:
            raise CliError(
                f"--input {name}: values must be numbers, got {values!r}",
                EXIT_USAGE) from None
    return inputs


def _import_graph(path: str):
    from repro.compiler.importer import GraphImportError, import_graph_file

    try:
        return import_graph_file(path)
    except (GraphImportError, OSError) as error:
        raise CliError(f"{path}: {error}") from error


def _build_engine(path: str, seed: int = 0, execution_mode: str = "auto",
                  artifact_dir: str | None = None):
    from repro import default_config
    from repro.engine import InferenceEngine

    return InferenceEngine(_import_graph(path), default_config(),
                           seed=seed, execution_mode=execution_mode,
                           artifact_dir=artifact_dir)


def _fill_missing_inputs(engine, provided: dict[str, np.ndarray],
                         seed: int) -> dict[str, np.ndarray] | None:
    """Complete a float request, randomizing absent inputs (with a note).

    Returns None (after printing to stderr) if a provided name does not
    exist in the compiled program — a typo'd name must fail loudly, not
    silently fall back to random values.
    """
    layout = engine.program.input_layout
    unknown = sorted(set(provided) - set(layout))
    if unknown:
        print(f"unknown input name(s): {', '.join(unknown)}; program "
              f"inputs are: {', '.join(sorted(layout))}", file=sys.stderr)
        return None
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, (_tile, _addr, length) in layout.items():
        if name in provided:
            inputs[name] = provided[name]
        else:
            inputs[name] = rng.normal(0, 0.3, size=length)
            print(f"(input {name!r} not provided; using random values)")
    return inputs


def _cmd_run(args: argparse.Namespace) -> int:
    if args.batch_file and args.input:
        raise CliError(
            "--input and --batch-file are mutually exclusive: the batch "
            "file carries every request's inputs", EXIT_USAGE)
    if args.shards < 1:
        raise CliError("--shards must be >= 1", EXIT_USAGE)
    engine = _build_engine(args.graph, seed=args.seed,
                           execution_mode=args.execution_mode,
                           artifact_dir=args.artifact_dir)
    if args.batch_file:
        return _run_batch_file(engine, args.batch_file, args.shards)
    if args.shards > 1:
        raise CliError(
            "--shards applies to --batch-file runs (a single inference "
            "has one lane to shard)", EXIT_USAGE)
    provided = _parse_inputs(args.input or [])
    inputs = _fill_missing_inputs(engine, provided, args.seed)
    if inputs is None:
        return EXIT_FAILURE
    try:
        result = engine.predict(inputs)
    except ValueError as error:
        raise CliError(f"invalid input: {error}") from error
    print(result.summary())
    return EXIT_OK


def _run_batch_file(engine, path: str, shards: int = 1) -> int:
    """One SIMD-over-batch pass over a JSON list of requests.

    The file holds ``[{"x": [..], ...}, ...]`` — one object per request,
    float values, every request naming every model input.  With
    ``shards > 1`` the batch is modelled as spread over that many
    replica nodes (bitwise identical outputs; merged stats count cycles
    as the max over the concurrent shards).
    """
    try:
        with open(path) as handle:
            requests = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CliError(f"{path}: {error}") from error
    if not isinstance(requests, list) or not requests or \
            not all(isinstance(req, dict) for req in requests):
        raise CliError(f"{path}: expected a non-empty JSON list of "
                       "{input name: [values]} objects")
    try:
        stacked = {
            name: np.stack([np.asarray(req[name], dtype=np.float64)
                            for req in requests])
            for name in requests[0]
        }
    except KeyError as missing:
        raise CliError(
            f"{path}: every request must name input {missing}") from None
    except (ValueError, TypeError) as error:
        raise CliError(
            f"{path}: malformed request values (every request must give "
            f"the same-length numeric lists): {error}") from error
    try:
        if shards > 1:
            from repro.serve import ShardedEngine

            result = ShardedEngine(engine,
                                   num_shards=shards).predict(stacked)
        else:
            result = engine.predict(stacked)
    except ValueError as error:
        raise CliError(f"invalid batch: {error}") from error
    for index in range(len(requests)):
        lane = result.lane(index)
        for name, values in lane.outputs.items():
            print(f"[{index}] {name} = "
                  f"{np.array2string(values, precision=4)}")
    print()
    if result.shard_stats is not None:
        print(f"sharded x{len(result.shard_stats)}: cycles below are the "
              f"max over the concurrent shards, energy the sum")
    print(f"batch {result.batch}: {result.cycles} cycles total, "
          f"{result.cycles_per_inference:.0f} cycles/inference, "
          f"{result.energy_per_inference_j * 1e9:.3f} nJ/inference")
    print(result.stats.summary())
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """Headless serving demo: concurrent clients, dynamic batching."""
    import asyncio

    from repro.engine import compile_cache_info, tape_cache_info
    from repro.serve import PumaServer

    if args.shards < 1:
        raise CliError("--shards must be >= 1", EXIT_USAGE)
    engine = _build_engine(args.graph, seed=args.seed,
                           execution_mode=args.execution_mode,
                           artifact_dir=args.artifact_dir)
    layout = engine.program.input_layout
    rng = np.random.default_rng(args.seed)
    requests = [
        {name: rng.normal(0, 0.3, size=length)
         for name, (_t, _a, length) in layout.items()}
        for _ in range(args.requests)
    ]

    async def serve_all():
        async with PumaServer(engine, max_batch_size=args.max_batch,
                              batch_window_s=args.window,
                              num_shards=args.shards,
                              artifact_dir=args.artifact_dir) as server:
            results = await asyncio.gather(
                *(server.submit(request) for request in requests))
        return results, server.counters

    results, counters = asyncio.run(serve_all())
    for index, result in enumerate(results):
        for name in result:
            print(f"[{index}] {name} = "
                  f"{np.array2string(result.outputs[name], precision=4)}")
    print()
    print(counters.summary())
    print(f"compile cache: {compile_cache_info()}")
    print(f"tape cache: {tape_cache_info()}")
    if args.artifact_dir:
        from repro.store import store_info

        print(f"artifact store: {store_info()}")
    return EXIT_OK


def _cmd_warm(args: argparse.Namespace) -> int:
    """Pre-build the persistent artifact for a graph (cross-process warm).

    Compiles, programs the crossbars, records the batch-generic
    execution tape with timing stats derived for every requested batch
    size, and writes the artifact keyed by (model, config, crossbar
    model, seed) under ``--artifact-dir``.  A later ``run``/``serve`` in
    a brand-new process pointed at the same directory starts from that
    state instead of rebuilding it.
    """
    from repro.store import store_info

    batches = sorted(set(args.batch or [1]))
    if any(b < 1 for b in batches):
        raise CliError("--batch sizes must be >= 1", EXIT_USAGE)
    engine = _build_engine(args.graph, seed=args.seed,
                           artifact_dir=args.artifact_dir)
    engine.warm()
    for batch in batches:
        engine.warm(batch=batch)
    path = engine.save_artifacts()
    print(f"artifact: {path}")
    print(f"programmed states: {len(engine.compiled.programmed_states)}, "
          f"execution tapes: {len(engine.compiled.execution_tapes)} "
          f"(batch-generic; stats for batches "
          f"{', '.join(str(b) for b in batches)})")
    print(f"artifact store: {store_info()}")
    return EXIT_OK


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Start a serving fleet and serve until SIGINT or SIGTERM.

    Loads a deployment (a JSON list of fleet model specs), spawns the
    workers behind one HTTP front door and prints its URL.  Either
    signal leaves the fleet's ``async with``, so queued work drains
    before the workers exit, and the command exits 0.  It sends no
    load; any HTTP client can.
    """
    import asyncio
    import signal
    import tempfile

    from repro.fleet import FleetModelError, FleetModelSpec, PumaFleet

    if args.workers < 1:
        raise CliError("--workers must be >= 1", EXIT_USAGE)
    try:
        with open(args.deployment, encoding="utf-8") as handle:
            described = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CliError(f"{args.deployment}: {error}") from error
    if not isinstance(described, list) or not described:
        raise CliError(f"{args.deployment}: expected a non-empty JSON "
                       "list of fleet model specs")
    try:
        specs = [FleetModelSpec.from_dict(entry) for entry in described]
    except FleetModelError as error:
        raise CliError(f"{args.deployment}: {error}") from error

    async def serve(work_dir: str) -> None:
        # Handlers, not asyncio.run's own SIGINT handling: before Python
        # 3.11 that is a KeyboardInterrupt through the running fleet.
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        async with PumaFleet(specs, num_workers=args.workers,
                             work_dir=work_dir,
                             max_batch_size=args.max_batch) as fleet:
            print(f"fleet up: {args.workers} worker(s) behind "
                  f"{fleet.url}", flush=True)
            await stopping.wait()

    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as scratch:
        asyncio.run(serve(args.work_dir or scratch))
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    """Compile a graph and run the static verifier over the program.

    Prints every diagnostic (check id, severity, tile/core/pc location,
    message) and the summary line.  Exit code 0 when no error-severity
    diagnostics were found, 1 otherwise; ``--strict`` also fails on
    warnings.
    """
    from repro import compile_model, default_config
    from repro.analysis import analyze_program

    config = default_config()
    compiled = compile_model(_import_graph(args.graph), config)
    report = analyze_program(compiled.program, config)
    print(f"{args.graph}: {report.program_name} "
          f"({compiled.program.total_instructions()} instructions)")
    if report.diagnostics:
        print(report.render())
    else:
        print(report.summary())
    clean_bill = report.clean_bill_digest()
    if clean_bill is not None:
        print(f"clean bill: {clean_bill[:16]} "
              f"(analyzer v{_analyzer_version()})")
    if report.has_errors:
        return EXIT_FAILURE
    if args.strict and report.warnings:
        return EXIT_FAILURE
    return EXIT_OK


def _analyzer_version() -> int:
    from repro.analysis import ANALYZER_VERSION

    return ANALYZER_VERSION


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.isa.assembler import disassemble

    engine = _build_engine(args.graph)
    for tile_id, tile in sorted(engine.compiled.program.tiles.items()):
        if tile.tile_instructions:
            print(f"; ---- tile {tile_id} control stream")
            print(disassemble(tile.tile_instructions, numbered=True))
        for core_id, core in sorted(tile.cores.items()):
            print(f"; ---- tile {tile_id} core {core_id}")
            print(disassemble(core.instructions, numbered=True))
    return EXIT_OK


def _cmd_metrics(_args: argparse.Namespace) -> int:
    from repro.energy.area import node_metrics

    metrics = node_metrics()
    print(f"peak throughput : {metrics.peak_tops:.2f} TOPS/s")
    print(f"area            : {metrics.area_mm2:.1f} mm2")
    print(f"power           : {metrics.power_w:.1f} W")
    print(f"area efficiency : {metrics.tops_per_mm2:.3f} TOPS/s/mm2")
    print(f"power efficiency: {metrics.tops_per_w:.3f} TOPS/s/W")
    print(f"weight capacity : {metrics.weight_capacity_bytes / 2**20:.0f} MB")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PUMA reproduction: compile, simulate, and regenerate "
                    "the paper's results.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="regenerate tables/figures")
    report.add_argument("exhibits", nargs="*",
                        help="e.g. table6 fig11 (default: all)")
    report.set_defaults(fn=_cmd_report)

    run = sub.add_parser("run", help="compile and simulate a JSON graph")
    run.add_argument("graph", help="path to the graph description (JSON)")
    run.add_argument("--input", action="append", metavar="NAME=V1,V2,...",
                     help="input values (repeatable)")
    run.add_argument("--batch-file", metavar="REQUESTS.json",
                     help="JSON list of {input: [values]} requests, run "
                          "as one SIMD-over-batch pass")
    run.add_argument("--shards", type=int, default=1,
                     help="model a --batch-file run spread over N replica "
                          "nodes: cycles = max over shards, energy = sum "
                          "(default 1: one node)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--execution-mode", default="auto",
                     choices=("auto", "replay", "interpret"),
                     help="trace-replay fast path on repeated runs (auto, "
                          "the default), strict replay, or always the "
                          "event-driven interpreter")
    run.add_argument("--artifact-dir", metavar="DIR",
                     help="persistent artifact store: warm-start from a "
                          "'repro warm' artifact when one matches")
    run.set_defaults(fn=_cmd_run)

    warm = sub.add_parser(
        "warm", help="pre-build the persistent artifact for a graph")
    warm.add_argument("graph", help="path to the graph description (JSON)")
    warm.add_argument("--artifact-dir", metavar="DIR", required=True,
                      help="directory the artifact is written under "
                           "(keyed by model/config/crossbar/seed)")
    warm.add_argument("--batch", type=int, action="append", metavar="N",
                      help="record an execution tape for this batch size "
                           "(repeatable; default: 1)")
    warm.add_argument("--seed", type=int, default=0)
    warm.set_defaults(fn=_cmd_warm)

    serve = sub.add_parser(
        "serve", help="async serving demo (queue + dynamic batching)")
    serve.add_argument("graph", help="path to the graph description (JSON)")
    serve.add_argument("--requests", type=int, default=16,
                       help="number of concurrent clients (default 16)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="dynamic batching limit (default 8)")
    serve.add_argument("--window", type=float, default=0.0,
                       help="seconds an idle engine holds an under-full "
                            "batch open for more arrivals (default 0: "
                            "work-conserving, dispatch whatever is queued)")
    serve.add_argument("--shards", type=int, default=1,
                       help="model each coalesced micro-batch spread over "
                            "N replica nodes: cycles = max over shards, "
                            "energy = sum (default 1)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--execution-mode", default="auto",
                       choices=("auto", "replay", "interpret"),
                       help="trace-replay fast path on repeated batches "
                            "(auto, the default), strict replay, or always "
                            "the event-driven interpreter")
    serve.add_argument("--artifact-dir", metavar="DIR",
                       help="persistent artifact store: warm-start from "
                            "(and refresh) a 'repro warm' artifact")
    serve.set_defaults(fn=_cmd_serve)

    fleet = sub.add_parser(
        "fleet", help="start a multi-worker serving fleet and serve "
                      "until SIGINT/SIGTERM")
    fleet.add_argument("deployment",
                       help="JSON list of fleet model specs, e.g. "
                            '[{"name": "mlp", "kind": "mlp", '
                            '"params": {"dims": [32, 24, 10]}}]')
    fleet.add_argument("--workers", type=int, default=2,
                       help="worker processes to spawn (default 2)")
    fleet.add_argument("--max-batch", type=int, default=8,
                       help="per-worker dynamic batching limit (default 8)")
    fleet.add_argument("--work-dir", metavar="DIR",
                       help="fleet scratch + artifact blob store "
                            "(default: a temporary directory)")
    fleet.set_defaults(fn=_cmd_fleet)

    lint = sub.add_parser(
        "lint", help="compile a JSON graph and run the static verifier")
    lint.add_argument("graph", help="path to the graph description (JSON)")
    lint.add_argument("--strict", action="store_true",
                      help="also exit non-zero on warnings")
    lint.set_defaults(fn=_cmd_lint)

    disasm = sub.add_parser("disasm",
                            help="compile a JSON graph and print assembly")
    disasm.add_argument("graph")
    disasm.set_defaults(fn=_cmd_disasm)

    metrics = sub.add_parser("metrics", help="Table 6 node metrics")
    metrics.set_defaults(fn=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as error:
        print(error, file=sys.stderr)
        return error.code


if __name__ == "__main__":
    raise SystemExit(main())

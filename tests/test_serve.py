"""The serving API: typed results, float-first predict, async batching.

Covers the serving-layer contracts:

* :class:`RunResult` is both a typed result (float views, stats,
  latency/energy summaries) and a mapping over the raw fixed-point words
  (the legacy contract);
* ``InferenceEngine.predict`` validates float inputs against the compiled
  ``input_layout`` up front — unknown/missing names, wrong lengths, and
  inconsistent batch sizes raise a clear ``ValueError`` instead of
  failing deep inside the simulator;
* :class:`PumaServer` coalesces N concurrent single requests into fewer
  than N simulator passes, and every per-request output is bitwise
  identical to the sequential single-input reference;
* the compile cache is keyed by dataclass *fields* (with hit/miss
  counters).

Note: ``tests/`` may construct :class:`Simulator` directly (the simulator
has its own unit tests); the grep-enforced API boundary below covers the
library, examples, and benchmarks.
"""

import asyncio
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro import (
    InferenceEngine,
    PumaServer,
    RunResult,
    default_config,
    quick_run,
)
from repro.engine import (
    clear_compile_cache,
    compile_cache_info,
    compile_cached,
)
from repro.serve import ServerCounters, VirtualClock
from repro.workloads.mlp import build_mlp_model, mlp_reference

CFG = default_config()
DIMS = [32, 24, 10]


@pytest.fixture()
def engine():
    return InferenceEngine(build_mlp_model(DIMS, seed=0), CFG, seed=3)


def float_inputs(batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.5, size=(batch, DIMS[0]))


# ---------------------------------------------------------------------------
# RunResult


class TestRunResult:
    def test_mapping_over_fixed_point_words(self, engine):
        result = engine.run_batch({"x": engine.quantize(float_inputs(3))})
        assert isinstance(result, RunResult)
        assert set(result) == {"out"}
        assert len(result) == 1
        assert result["out"].dtype == np.int64
        assert result["out"].shape == (3, DIMS[-1])
        assert "out" in result

    def test_float_views_roundtrip(self, engine):
        xs = float_inputs(4)
        result = engine.predict({"x": xs})
        np.testing.assert_array_equal(
            result.outputs["out"], engine.dequantize(result["out"]))
        np.testing.assert_array_equal(result.output("out"),
                                      result.outputs["out"])
        # single-output models may omit the name
        np.testing.assert_array_equal(result.output(),
                                      result.outputs["out"])

    def test_latency_energy_summaries(self, engine):
        result = engine.predict({"x": float_inputs(5)})
        assert result.batch == 5
        assert result.cycles == result.stats.cycles > 0
        assert result.energy_j == result.stats.total_energy_j > 0
        assert result.cycles_per_inference == result.cycles / 5
        assert result.energy_per_inference_j == result.energy_j / 5
        assert result.latency_ns == pytest.approx(
            result.cycles * CFG.cycle_ns)

    def test_summary_text(self, engine):
        text = engine.predict({"x": float_inputs(1)[0]}).summary()
        assert "out =" in text
        assert "cycles:" in text
        assert "energy:" in text

    def test_lane_slicing(self, engine):
        result = engine.predict({"x": float_inputs(4)})
        for i in range(4):
            lane = result.lane(i)
            np.testing.assert_array_equal(lane["out"], result["out"][i])
            assert lane["out"].ndim == 1
            assert lane.batch == 4  # the pass the lane rode in
            assert lane.stats is result.stats

    def test_predict_matches_reference(self, engine):
        xs = float_inputs(6)
        result = engine.predict({"x": xs})
        expected = mlp_reference(DIMS, xs, seed=0)
        assert np.abs(result.outputs["out"] - expected).max() < 0.1

    def test_predict_equals_manual_quantize_run(self, engine):
        xs = float_inputs(3)
        via_predict = engine.predict({"x": xs})
        via_words = engine.run_batch({"x": engine.quantize(xs)})
        np.testing.assert_array_equal(via_predict["out"], via_words["out"])

    def test_quick_run_helper(self):
        xs = float_inputs(2)
        result = quick_run(build_mlp_model(DIMS, seed=0), {"x": xs}, CFG,
                           seed=3)
        assert isinstance(result, RunResult)
        assert result.outputs["out"].shape == (2, DIMS[-1])


# ---------------------------------------------------------------------------
# Input validation (the _infer_batch / predict edge cases)


class TestInputValidation:
    def test_unknown_input_name(self, engine):
        with pytest.raises(ValueError, match=r"unknown input name.*'y'"):
            engine.predict({"x": float_inputs(1)[0],
                            "y": float_inputs(1)[0]})

    def test_missing_input_name(self, engine):
        with pytest.raises(ValueError, match=r"missing input.*'x'"):
            engine.predict({})

    def test_wrong_length_raises_before_simulation(self, engine):
        with pytest.raises(ValueError, match=r"'x' expects 32 values"):
            engine.predict({"x": np.zeros(31)})

    def test_wrong_length_2d(self, engine):
        with pytest.raises(ValueError, match=r"'x' expects 32 values"):
            engine.run_batch({"x": np.zeros((4, 7), dtype=np.int64)})

    def test_three_dimensional_input_rejected(self, engine):
        with pytest.raises(ValueError, match="1-D or \\(batch, length\\)"):
            engine.predict({"x": np.zeros((2, 3, DIMS[0]))})

    def test_inconsistent_batch_sizes(self):
        model = build_mlp_model(DIMS, seed=0)
        engine = InferenceEngine(model, CFG)
        with pytest.raises(ValueError, match="inconsistent batch"):
            engine._infer_batch({"a": np.zeros((2, 8)),
                                 "b": np.zeros((3, 8))})

    def test_broadcast_1d_mixed_with_matrix(self):
        """1-D inputs broadcast across the batch set by 2-D inputs."""
        from repro import ConstMatrix, InVector, Model, OutVector, tanh

        rng = np.random.default_rng(3)
        model = Model.create("two_in")
        x = InVector.create(model, 16, "x")
        y = InVector.create(model, 16, "y")
        z = OutVector.create(model, 8, "z")
        a = ConstMatrix.create(model, 16, 8, "A",
                               rng.normal(0, 0.1, (16, 8)))
        b = ConstMatrix.create(model, 16, 8, "B",
                               rng.normal(0, 0.1, (16, 8)))
        z.assign(tanh(a @ x + b @ y))
        engine = InferenceEngine(model, CFG, seed=1)

        xs = rng.normal(0, 0.5, size=(3, 16))
        y_shared = rng.normal(0, 0.5, size=16)
        assert engine._infer_batch({"x": xs, "y": y_shared}) == 3
        batched = engine.predict({"x": xs, "y": y_shared})
        assert batched["z"].shape == (3, 8)
        for lane in range(3):
            single = engine.predict({"x": xs[lane], "y": y_shared})
            np.testing.assert_array_equal(batched["z"][lane], single["z"])

    def test_validate_request_rejects_matrices(self, engine):
        with pytest.raises(ValueError, match="1-D vector"):
            engine.validate_request({"x": float_inputs(2)})
        engine.validate_request({"x": float_inputs(1)[0]})  # ok


# ---------------------------------------------------------------------------
# Compile cache: field-based fingerprint + info counters


class TestCompileCache:
    def test_hits_misses_entries(self):
        clear_compile_cache()
        model = build_mlp_model([16, 8], seed=0)
        compile_cached(model, CFG)
        assert compile_cache_info() == (0, 1, 1)
        compile_cached(model, CFG)
        assert compile_cache_info() == (1, 1, 1)
        compile_cached(model, CFG.with_core(vfu_width=4))
        assert compile_cache_info() == (1, 2, 2)
        clear_compile_cache()
        assert compile_cache_info() == (0, 0, 0)

    def test_fingerprint_discriminates_nested_fields(self):
        clear_compile_cache()
        model = build_mlp_model([16, 8], seed=0)
        a = compile_cached(model, CFG)
        b = compile_cached(model, CFG.with_tile(num_cores=4))
        assert a is not b
        # equal-valued configs built independently share one entry
        c = compile_cached(model, default_config())
        assert c is a
        assert compile_cache_info().hits == 1

    def test_options_part_of_key(self):
        from repro.compiler.options import CompilerOptions

        clear_compile_cache()
        model = build_mlp_model([16, 8], seed=0)
        a = compile_cached(model, CFG, CompilerOptions())
        b = compile_cached(model, CFG, CompilerOptions(coalesce_mvms=False))
        assert a is not b
        assert compile_cached(model, CFG, CompilerOptions()) is a


# ---------------------------------------------------------------------------
# PumaServer: queueing + dynamic batching


def serve(coro):
    return asyncio.run(coro)


async def until(predicate, yields=500):
    """Yield to the event loop until ``predicate()`` holds.

    Pure cooperative yields — no real sleeps, no wall-clock dependence —
    so tests driven on a :class:`VirtualClock` stay deterministic.
    """
    for _ in range(yields):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError(
        f"condition not reached within {yields} event-loop yields")


class TestPumaServer:
    def test_concurrent_requests_coalesce_and_match_sequential(self, engine):
        """The acceptance property: N concurrent clients, < N passes,
        bitwise-identical per-request outputs."""
        n = 6
        xs = float_inputs(n, seed=11)

        async def scenario():
            async with PumaServer(engine, max_batch_size=8) as server:
                results = await asyncio.gather(
                    *(server.submit({"x": xs[i]}) for i in range(n)))
            return results, server.counters

        results, counters = serve(scenario())
        assert counters.requests_served == n
        assert counters.batches_formed < n
        reference = engine.run_sequential({"x": engine.quantize(xs)})
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result["out"],
                                          reference["out"][i])
            assert result["out"].ndim == 1

    def test_max_batch_size_bounds_passes(self, engine):
        n, cap = 7, 3
        xs = float_inputs(n, seed=2)

        async def scenario():
            async with PumaServer(engine, max_batch_size=cap) as server:
                await asyncio.gather(
                    *(server.submit({"x": xs[i]}) for i in range(n)))
            return server.counters

        counters = serve(scenario())
        assert counters.requests_served == n
        assert counters.batches_formed >= -(-n // cap)  # ceil(n / cap)
        assert counters.lanes_simulated == n
        assert 0 < counters.mean_batch_size <= cap
        assert 0 < counters.mean_occupancy <= 1

    def test_single_request(self, engine):
        async def scenario():
            async with PumaServer(engine) as server:
                return await server.submit({"x": float_inputs(1)[0]})

        result = serve(scenario())
        assert result["out"].shape == (DIMS[-1],)
        assert result.batch == 1

    def test_invalid_request_fails_fast(self, engine):
        async def scenario():
            async with PumaServer(engine) as server:
                with pytest.raises(ValueError, match="unknown input"):
                    await server.submit({"typo": float_inputs(1)[0]})
                with pytest.raises(ValueError, match="1-D vector"):
                    await server.submit({"x": float_inputs(2)})
                # a good request still goes through afterwards
                return await server.submit({"x": float_inputs(1)[0]})

        assert serve(scenario())["out"].shape == (DIMS[-1],)

    @pytest.mark.parametrize("warmed", [False, True])
    def test_nan_rider_fails_alone(self, engine, warmed):
        """NaN has no fixed-point word.  Unrejected, it failed the whole
        batch on a cold engine (the interpreter's range check) and was
        served as finite garbage on a warm one (replay has no check);
        rejected at submit, it never meets the two good riders."""
        xs = float_inputs(3, seed=8)
        references = [engine.predict({"x": x}).words for x in xs[::2]]
        if not warmed:
            engine = InferenceEngine(build_mlp_model(DIMS, seed=0), CFG,
                                     seed=3, execution_mode="interpret")
        xs[1, 4] = np.nan

        async def scenario():
            async with PumaServer(engine, max_batch_size=4) as server:
                outcomes = await asyncio.gather(
                    *(server.submit({"x": x}) for x in xs),
                    return_exceptions=True)
                return outcomes, server.counters

        (good, bad, also_good), counters = serve(scenario())
        assert isinstance(bad, ValueError)
        assert "'x' contains NaN" in str(bad)
        for result, reference in zip((good, also_good), references):
            np.testing.assert_array_equal(result["out"], reference["out"])
        assert counters.batches_formed == 1
        assert counters.requests_failed == 0
        with pytest.raises(ValueError, match="'x' contains NaN"):
            engine.predict({"x": xs})
        # +/-inf saturates, which is defined: still served.
        xs[1, 4] = np.inf
        assert np.isfinite(engine.predict({"x": xs}).outputs["out"]).all()

    def test_submit_requires_running_server(self, engine):
        server = PumaServer(engine)

        async def scenario():
            with pytest.raises(RuntimeError, match="not running"):
                await server.submit({"x": float_inputs(1)[0]})

        serve(scenario())

    def test_stop_serves_queued_requests(self, engine):
        """Graceful shutdown: stop() drains the queue before exiting.

        The three requests are admitted before the serve loop first
        runs, so all of them are still queued when stop() is called.
        """

        async def scenario():
            server = await PumaServer(engine, max_batch_size=4,
                                      clock=VirtualClock()).start()
            futures = [server.admit({"x": float_inputs(1, seed=i)[0]})
                       for i in range(3)]
            assert len(server.scheduler) == 3
            await server.stop()
            return await asyncio.gather(*futures)

        results = serve(scenario())
        assert len(results) == 3
        assert all(r["out"].shape == (DIMS[-1],) for r in results)

    def test_counters_summary_text(self):
        counters = ServerCounters(max_batch_size=8, requests_served=6,
                                  batches_formed=2, lanes_simulated=6)
        text = counters.summary()
        assert "requests served: 6" in text
        assert "batches formed: 2" in text
        assert "3.00" in text  # mean batch size


# ---------------------------------------------------------------------------
# API boundary: the facade is the only way in


def test_no_direct_simulator_construction_outside_facade():
    """Grep-enforced: ``Simulator(...)`` may only be constructed inside
    ``repro/sim/`` and ``repro/engine.py``.  Library code, examples, and
    benchmarks must go through the engine/serving facade.  (``tests/``
    exercises the simulator directly by design.)
    """
    root = Path(__file__).resolve().parent.parent
    pattern = re.compile(r"\bSimulator\(")
    offenders = []
    for top in ("src/repro", "examples", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel.startswith("src/repro/sim/") or \
                    rel == "src/repro/engine.py":
                continue
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                if pattern.search(line):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "direct Simulator(...) construction outside repro/sim and "
        "repro/engine:\n" + "\n".join(offenders))


# ---------------------------------------------------------------------------
# Graceful shutdown: no request is ever abandoned


class TestGracefulShutdown:
    """stop() must never leave a client awaiting a future forever.

    Three contracts (the PR-7 shutdown fix):

    * ``stop(drain=True)`` serves everything queued (existing behavior);
    * ``stop(drain=False)`` completes the in-flight micro-batch but fails
      still-queued requests with a clear error, immediately;
    * a crashed batching loop fails the claimed batch and everything
      queued with the loop's error instead of hanging them.
    """

    def test_stop_without_drain_fails_queued_with_clear_error(self, engine):
        n = 12

        async def scenario():
            server = await PumaServer(engine, max_batch_size=2).start()
            xs = float_inputs(n, seed=7)
            tasks = [asyncio.create_task(server.submit({"x": xs[i]}))
                     for i in range(n)]
            # Let the loop claim (at most) the first micro-batch, then
            # abort while the rest are still queued.
            await asyncio.sleep(0)
            await server.stop(drain=False)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, server.counters

        outcomes, counters = serve(scenario())
        served = [o for o in outcomes if isinstance(o, RunResult)]
        failed = [o for o in outcomes if isinstance(o, Exception)]
        assert len(served) + len(failed) == n     # nobody hangs
        assert failed, "an immediate abort must fail the queued requests"
        for error in failed:
            assert isinstance(error, RuntimeError)
            assert "stopped before this request was served" in str(error)
        # Counters balance: every request is accounted for exactly once.
        assert counters.requests_served == len(served)
        assert counters.requests_failed == len(failed)

    def test_stop_with_drain_serves_concurrent_stragglers(self, engine):
        """Clients racing stop(drain=True) either get served or get the
        not-running error at submit time — never a hang."""
        n = 10

        async def scenario():
            server = await PumaServer(engine, max_batch_size=4).start()
            xs = float_inputs(n, seed=3)

            async def client(i):
                await asyncio.sleep(0.0005 * i)
                return await server.submit({"x": xs[i]})

            tasks = [asyncio.create_task(client(i)) for i in range(n)]
            await asyncio.sleep(0.001)
            await server.stop()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = serve(scenario())
        assert len(outcomes) == n
        for outcome in outcomes:
            assert isinstance(outcome, (RunResult, RuntimeError))
            if isinstance(outcome, RuntimeError):
                assert "not running" in str(outcome)

    def test_crashed_batch_loop_fails_queued_not_hangs(self, engine):
        class Boom(Exception):
            pass

        async def scenario():
            server = await PumaServer(engine, max_batch_size=2).start()

            async def explode():
                raise Boom("induced loop crash")

            server._serve_batch = explode
            xs = float_inputs(6, seed=1)
            tasks = [asyncio.create_task(server.submit({"x": xs[i]}))
                     for i in range(6)]
            await asyncio.sleep(0)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            with pytest.raises(RuntimeError, match="batching loop crashed"):
                await server.stop()
            return outcomes

        outcomes = serve(scenario())
        assert len(outcomes) == 6
        for outcome in outcomes:
            assert isinstance(outcome, RuntimeError)
            assert "batching loop crashed" in str(outcome)


# ---------------------------------------------------------------------------
# Cache-health observability


class TestServerStats:
    def test_stats_expose_cache_counters(self, engine):
        async def scenario():
            async with PumaServer(engine, max_batch_size=4) as server:
                xs = float_inputs(4, seed=9)
                await asyncio.gather(
                    *(server.submit({"x": xs[i]}) for i in range(4)))
                return server.stats()

        stats = serve(scenario())
        assert stats["requests_served"] == 4
        assert stats["batches_formed"] >= 1
        # The process-wide cache counters ride along, so per-worker cache
        # health is observable from the serving layer (fleet /metrics).
        for section, fields in (
                ("tape_cache", ("entries", "recordings", "replays",
                                "fallbacks")),
                ("compile_cache", ("hits", "misses", "entries")),
                ("artifact_store", ("saves", "loads", "rejections"))):
            assert set(fields) <= set(stats[section]), section
            assert all(isinstance(stats[section][f], int) for f in fields)
        assert stats["queue_depth"] == 0

    def test_stats_expose_scheduler_section(self, engine):
        async def scenario():
            async with PumaServer(engine, max_batch_size=4) as server:
                xs = float_inputs(3, seed=13)
                await asyncio.gather(
                    *(server.submit({"x": xs[i]}, priority=i)
                      for i in range(3)))
                return server.stats()

        stats = serve(scenario())
        sched = stats["scheduler"]
        assert sched["policy"] == "edf"      # the default
        assert sched["admitted"] == 3
        # Conservation with an empty queue: everything admitted was
        # dispatched, shed, or drained.
        assert sched["admitted"] == (sched["dispatched"] + sched["shed"]
                                     + sched["drained"])
        assert sched["queue_depth"] == 0
        assert isinstance(sched["early_closes"], int)
        assert isinstance(sched["service_time_ewma_s"], dict)


# ---------------------------------------------------------------------------
# Deadlines + admission control (the resilience layer's serve-side half)


class TestDeadlinesAndAdmission:
    def test_expired_on_arrival_is_shed_before_enqueue(self, engine):
        from repro.serve import DeadlineExceeded

        async def scenario():
            async with PumaServer(engine) as server:
                with pytest.raises(DeadlineExceeded, match="expired"):
                    await server.submit({"x": float_inputs(1)[0]},
                                        deadline_s=-0.1)
                return server.counters

        counters = serve(scenario())
        assert counters.requests_shed == 1
        assert counters.batches_formed == 0     # never occupied a lane

    def test_deadline_shed_at_batch_formation(self, engine):
        """A request that expires while queued is failed at batch
        formation — promptly, and without spending a batch lane on an
        answer nobody awaits — while fresh requests still get served.

        Runs entirely on the virtual clock: the 20 ms budget lapses via
        ``clock.advance``, not a real sleep, so the expiry is exact."""
        from repro.serve import DeadlineExceeded

        async def scenario():
            clock = VirtualClock()
            server = await PumaServer(engine, max_batch_size=2,
                                      clock=clock).start()
            gate = asyncio.Event()
            original = server._serve_batch

            async def gated():
                await gate.wait()
                return await original()

            server._serve_batch = gated
            xs = float_inputs(3, seed=4)
            blocker = asyncio.create_task(server.submit({"x": xs[0]}))
            # The loop claims the blocker and parks at the gate.
            await until(
                lambda: server.scheduler.counters.dispatched == 1)
            doomed = asyncio.create_task(
                server.submit({"x": xs[1]}, deadline_s=0.02))
            fresh = asyncio.create_task(server.submit({"x": xs[2]}))
            await until(lambda: len(server.scheduler) == 2)
            await clock.advance(0.05)   # doomed's budget lapses queued
            gate.set()
            outcomes = await asyncio.gather(blocker, doomed, fresh,
                                            return_exceptions=True)
            await server.stop()
            return outcomes, server.counters

        (blocked, doomed, fresh), counters = serve(scenario())
        assert isinstance(blocked, RunResult)
        assert isinstance(doomed, DeadlineExceeded)
        assert "deadline" in str(doomed)
        assert isinstance(fresh, RunResult)
        assert counters.requests_shed == 1
        assert counters.requests_served == 2

    def test_admission_bound_rejects_fast_then_recovers(self, engine):
        from repro.serve import AdmissionError

        async def scenario():
            server = await PumaServer(engine, max_batch_size=1,
                                      max_queue_depth=1).start()
            gate = asyncio.Event()
            original = server._serve_batch

            async def gated():
                await gate.wait()
                return await original()

            server._serve_batch = gated
            xs = float_inputs(3, seed=6)
            inflight = asyncio.create_task(server.submit({"x": xs[0]}))
            # Claimed and parked at the gate — no timing races.
            await until(
                lambda: server.scheduler.counters.dispatched == 1)
            queued = asyncio.create_task(server.submit({"x": xs[1]}))
            await until(lambda: len(server.scheduler) == 1)
            with pytest.raises(AdmissionError, match="queue full"):
                await server.submit({"x": xs[2]})
            gate.set()                  # drain; admission recovers
            served = await asyncio.gather(inflight, queued)
            recovered = await server.submit({"x": xs[2]})
            await server.stop()
            return served, recovered, server.counters

        served, recovered, counters = serve(scenario())
        assert all(isinstance(r, RunResult) for r in served)
        assert isinstance(recovered, RunResult)
        assert counters.requests_rejected == 1
        assert counters.requests_served == 3

    def test_stats_expose_shed_and_rejected(self, engine):
        from repro.serve import DeadlineExceeded

        async def scenario():
            async with PumaServer(engine, max_queue_depth=4) as server:
                with pytest.raises(DeadlineExceeded):
                    await server.submit({"x": float_inputs(1)[0]},
                                        deadline_s=0.0)
                return server.stats()

        stats = serve(scenario())
        assert stats["requests_shed"] == 1
        assert stats["requests_rejected"] == 0

    def test_queue_depth_validation(self, engine):
        with pytest.raises(ValueError, match="max_queue_depth"):
            PumaServer(engine, max_queue_depth=0)


# ---------------------------------------------------------------------------
# The deterministic-time harness


class TestVirtualClockHarness:
    """The virtual clock itself, then the server driven on it."""

    def test_virtual_clock_wakes_sleepers_in_order(self):
        async def scenario():
            clock = VirtualClock()
            wakes = []

            async def sleeper(name, delay):
                await clock.sleep(delay)
                wakes.append((name, clock.now()))

            tasks = [asyncio.create_task(sleeper("late", 2.0)),
                     asyncio.create_task(sleeper("early", 1.0))]
            await asyncio.sleep(0)
            assert clock.pending_sleepers == 2
            await clock.advance(1.5)
            # Only the earlier sleeper woke, at exactly its wake time.
            assert wakes == [("early", 1.0)]
            assert clock.now() == 1.5
            assert clock.pending_sleepers == 1
            await clock.advance(1.0)
            await asyncio.gather(*tasks)
            return wakes, clock.now()

        wakes, now = serve(scenario())
        assert wakes == [("early", 1.0), ("late", 2.0)]
        assert now == 2.5

    def test_virtual_clock_rejects_negative_advance(self):
        async def scenario():
            with pytest.raises(ValueError, match="backwards"):
                await VirtualClock().advance(-0.1)

        serve(scenario())

    def test_five_second_pass_costs_zero_wall_seconds(self, engine):
        """The point of the harness: a pass gated on 5 seconds of the
        clock keeps two requests queued behind it and releases them
        purely in virtual time — the test asserts the mid-pass state
        exactly, and never sleeps for real."""

        async def scenario():
            clock = VirtualClock()
            server = await PumaServer(engine, max_batch_size=8,
                                      clock=clock).start()
            original = server._serve_batch

            async def five_seconds():
                await clock.sleep(5.0)
                return await original()

            server._serve_batch = five_seconds
            xs = float_inputs(3, seed=21)
            blocker = asyncio.create_task(server.submit({"x": xs[0]}))
            # The batching loop claims the blocker and parks on the clock.
            await until(lambda: clock.pending_sleepers == 1)
            riders = [asyncio.create_task(server.submit({"x": xs[i]}))
                      for i in (1, 2)]
            await until(lambda: len(server.scheduler) == 2)
            # Mid-pass: both requests queued, nothing served yet.
            assert server.counters.requests_served == 0
            await clock.advance(5.0)
            # The two queued riders form the next pass, which parks.
            await until(lambda: server.counters.requests_served == 1
                        and clock.pending_sleepers == 1)
            await clock.advance(5.0)
            results = await asyncio.gather(blocker, *riders)
            counters = server.counters
            await server.stop()
            return results, counters

        started = time.monotonic()
        results, counters = serve(scenario())
        elapsed = time.monotonic() - started
        assert counters.requests_served == 3
        assert counters.batches_formed == 2   # the queued two coalesced
        assert all(r["out"].shape == (DIMS[-1],) for r in results)
        assert elapsed < 2.0, "the 5 s passes must not cost wall time"

    def test_deadline_lapsed_behind_a_long_pass_is_shed(self, engine):
        """A request whose 1 s budget lapses while a 10 s pass runs is
        shed when the next batch forms, never riding it; the patient
        request queued beside it is served.  Deadlines are measured on
        the injected clock."""
        from repro.serve import DeadlineExceeded

        async def scenario():
            clock = VirtualClock()
            server = await PumaServer(engine, max_batch_size=8,
                                      clock=clock).start()
            original = server._serve_batch

            async def ten_seconds():
                await clock.sleep(10.0)
                return await original()

            server._serve_batch = ten_seconds
            xs = float_inputs(3, seed=17)
            blocker = asyncio.create_task(server.submit({"x": xs[2]}))
            await until(lambda: clock.pending_sleepers == 1)
            doomed = asyncio.create_task(
                server.submit({"x": xs[0]}, deadline_s=1.0))
            patient = asyncio.create_task(server.submit({"x": xs[1]}))
            await until(lambda: len(server.scheduler) == 2)
            await clock.advance(1.0)
            # The budget lapsed mid-pass; only batch formation sheds.
            assert not doomed.done()
            assert len(server.scheduler) == 2
            await clock.advance(9.0)     # the rest of the long pass
            outcome = await asyncio.wait_for(
                asyncio.gather(doomed, return_exceptions=True), 1.0)
            assert isinstance(outcome[0], DeadlineExceeded)
            assert not patient.done()
            assert len(server.scheduler) == 0   # patient rides alone
            await until(lambda: clock.pending_sleepers == 1)
            await clock.advance(10.0)
            result = await patient
            await blocker
            counters = server.counters
            await server.stop()
            return result, counters

        result, counters = serve(scenario())
        assert result["out"].shape == (DIMS[-1],)
        assert counters.requests_shed == 1
        assert counters.requests_served == 2
        assert counters.lanes_simulated == 2

    def test_an_idle_server_never_consults_the_clock(self, engine):
        """Work-conserving: an idle server answers a lone request
        without ever asking the clock to sleep — there is no hold to
        wait out — and a burst made in one loop turn is still one
        batch."""

        class CountingClock(VirtualClock):
            sleeps = 0

            async def sleep(self, delay):
                self.sleeps += 1
                await super().sleep(delay)

        async def scenario():
            clock = CountingClock()
            server = await PumaServer(engine, max_batch_size=8,
                                      clock=clock).start()
            xs = float_inputs(5, seed=33)
            # Never advanced: a server waiting on the clock would hang.
            lone = await asyncio.wait_for(server.submit({"x": xs[0]}), 30)
            assert server.counters.batches_formed == 1
            burst = await asyncio.wait_for(asyncio.gather(
                *(server.submit({"x": xs[i]}) for i in range(1, 5))), 30)
            stats = server.stats()
            await server.stop()
            return lone, burst, stats, clock

        lone, burst, stats, clock = serve(scenario())
        assert clock.sleeps == 0 and clock.now() == 0.0
        assert (stats["batches_formed"], stats["lanes_simulated"]) == (2, 5)
        assert sorted(stats["scheduler"]["service_time_ewma_s"]) == \
            ["1", "4"]
        assert stats["scheduler"]["early_closes"] == 0
        xs = float_inputs(5, seed=33)
        for x, result in zip(xs, [lone, *burst]):
            assert np.array_equal(result["out"],
                                  engine.predict({"x": x})["out"])


# ---------------------------------------------------------------------------
# Submit side-effect ordering (PR 10 regression guard)


class TestSubmitSideEffectOrdering:
    """A rejected submit leaves NO trace.

    Validation runs strictly before any side effect: a request that
    fails (bad inputs, bad priority, non-finite deadline, expired
    deadline, full queue) must never consume an arrival number, occupy a
    queue slot, or touch any counter other than the one naming its own
    outcome.  Previously an expired-deadline request arriving at a full
    queue was *rejected* (charged against the queue it could never
    join); it is now shed first — the deadline check precedes the
    admission check.
    """

    def test_rejected_submits_leave_no_trace(self, engine):
        from repro.serve import AdmissionError, DeadlineExceeded

        async def scenario():
            server = await PumaServer(engine, max_batch_size=8,
                                      max_queue_depth=1).start()
            xs = float_inputs(4, seed=5)
            # Park one request: admitted before the serve loop first
            # runs, and nothing below yields to the loop (each refused
            # submit raises before its first suspension), so it stays
            # queued, filling the 1-deep queue, while we probe.
            parked = server.admit({"x": xs[0]})
            assert len(server.scheduler) == 1

            def snapshot():
                return (server.scheduler.counters.admitted,
                        len(server.scheduler),
                        server.counters.requests_served,
                        server.counters.requests_failed,
                        server.counters.requests_shed,
                        server.counters.requests_rejected)

            baseline = snapshot()
            assert baseline[0] == 1      # one arrival numbered so far

            # Pure-validation failures: nothing moves, not even the
            # shed/rejected counters.
            with pytest.raises(ValueError, match="unknown input"):
                await server.submit({"typo": xs[1]})
            with pytest.raises(ValueError, match="1-D vector"):
                await server.submit({"x": float_inputs(2)})
            with pytest.raises(ValueError):
                await server.submit({"x": xs[1]}, priority="urgent")
            with pytest.raises(ValueError, match="finite"):
                await server.submit({"x": xs[1]}, deadline_s=math.nan)
            with pytest.raises(ValueError, match="finite"):
                await server.submit({"x": xs[1]}, deadline_s=math.inf)
            # A deadline is a number: never parsed, never a boolean.
            with pytest.raises(ValueError, match="finite"):
                await server.submit({"x": xs[1]}, deadline_s="0.5")
            with pytest.raises(ValueError, match="finite"):
                await server.submit({"x": xs[1]}, deadline_s=True)
            # An input vector holds numbers: a JSON integer too large for
            # a float, a string, a boolean and a null are refused, never
            # cast (check_vector).
            width = DIMS[0]
            for bad in ([10**400], ["0.5"], [True], [None]):
                with pytest.raises(ValueError, match="integers or floats"):
                    await server.submit({"x": bad + [0.0] * (width - 1)})
            assert snapshot() == baseline

            # Expired deadline into a FULL queue: shed, not rejected —
            # and still no arrival number or queue slot consumed.
            with pytest.raises(DeadlineExceeded, match="expired"):
                await server.submit({"x": xs[1]}, deadline_s=-0.5)
            assert server.counters.requests_shed == 1
            assert server.counters.requests_rejected == 0
            assert server.scheduler.counters.admitted == baseline[0]
            assert len(server.scheduler) == 1

            # Queue full: rejected, arrival number still not consumed.
            with pytest.raises(AdmissionError, match="queue full"):
                await server.submit({"x": xs[1]})
            assert server.counters.requests_rejected == 1
            assert server.scheduler.counters.admitted == baseline[0]
            assert len(server.scheduler) == 1

            # The parked request was untouched by any of the above.
            result = await parked
            stats = server.stats()
            await server.stop()
            return result, stats

        result, stats = serve(scenario())
        assert result["out"].shape == (DIMS[-1],)
        sched = stats["scheduler"]
        assert sched["admitted"] == 1 == sched["dispatched"]
        assert sched["shed"] == 0 and sched["drained"] == 0
        assert stats["requests_served"] == 1

    @pytest.mark.parametrize("priority", [1.9, True, "3", math.inf,
                                          math.nan])
    def test_priority_must_be_an_integer(self, engine, priority):
        """The wire's priority rule holds in process too: a boolean, a
        fraction, a string or a non-finite float is a ValueError,
        never truncated or parsed, and leaves no trace."""
        async def scenario():
            async with PumaServer(engine) as server:
                x = float_inputs(1)[0]
                with pytest.raises(ValueError, match="must be an integer"):
                    server.admit({"x": x}, priority=priority)
                with pytest.raises(ValueError, match="must be an integer"):
                    await server.submit({"x": x}, deadline_s=-1.0,
                                        priority=priority)
                assert server.scheduler.counters.admitted == 0
                assert len(server.scheduler) == 0
                assert server.counters.requests_shed == 0

        serve(scenario())

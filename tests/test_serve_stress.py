"""Concurrency stress tests for the async serving front-end.

64+ concurrent clients with randomized arrival times hammer one
:class:`PumaServer`; every response must be bitwise identical to its
sequential single-input reference (no request may be lost, duplicated,
swapped between lanes, or served from the wrong batch), and the server
counters must balance exactly: requests served + failed == lanes
simulated, summed over the batches actually formed.

The same battery runs against a sharded server (``num_shards > 1``) —
the shard/merge layer must be invisible to clients.
"""

import asyncio

import numpy as np
import pytest

from repro import InferenceEngine, PumaServer
from repro.workloads.mlp import build_mlp_model

DIMS = [24, 16, 10]
NUM_CLIENTS = 72


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(build_mlp_model(DIMS, seed=0), seed=0)


@pytest.fixture(scope="module")
def workload(engine):
    """Per-client float vectors plus their bitwise reference words."""
    rng = np.random.default_rng(5)
    xs = [rng.normal(0.0, 0.4, size=DIMS[0]) for _ in range(NUM_CLIENTS)]
    references = [engine.predict({"x": x}) for x in xs]
    return xs, references


async def _client(server, x, delay, rng_jitter):
    await asyncio.sleep(delay)
    return await server.submit({"x": x})


def _run_stress(engine, *, num_shards=1, max_batch_size=8, seed=11):
    """Drive NUM_CLIENTS mixed-arrival clients; return (results,
    server)."""
    rng = np.random.default_rng(seed)
    # Three arrival regimes: a thundering herd at t=0, a trickle, and a
    # late burst — exercising full, partial, and timed-out batches.
    delays = np.concatenate([
        np.zeros(NUM_CLIENTS // 3),
        rng.uniform(0.0, 0.02, size=NUM_CLIENTS // 3),
        np.full(NUM_CLIENTS - 2 * (NUM_CLIENTS // 3), 0.025),
    ])

    async def run(xs):
        server = PumaServer(engine, max_batch_size=max_batch_size,
                            batch_window_s=0.004, num_shards=num_shards)
        async with server:
            results = await asyncio.gather(
                *(_client(server, x, delay, rng)
                  for x, delay in zip(xs, delays)))
        return results, server

    return run


@pytest.mark.parametrize("num_shards", [1, 2, 3],
                         ids=["unsharded", "sharded-x2", "sharded-x3"])
def test_stress_bitwise_and_counter_consistency(engine, workload,
                                                num_shards):
    xs, references = workload
    results, server = asyncio.run(
        _run_stress(engine, num_shards=num_shards)(xs))

    # Every client got exactly its own answer, bit for bit.
    assert len(results) == NUM_CLIENTS
    for result, reference in zip(results, references):
        assert set(result) == set(reference)
        for name in reference:
            assert np.array_equal(result[name], reference[name])

    # Counters balance: nothing lost, nothing double-served.
    counters = server.counters
    assert counters.requests_served == NUM_CLIENTS
    assert counters.requests_failed == 0
    assert counters.lanes_simulated == NUM_CLIENTS
    assert 1 <= counters.batches_formed <= NUM_CLIENTS
    assert counters.batches_formed >= -(-NUM_CLIENTS //
                                        counters.max_batch_size)
    assert counters.mean_batch_size == pytest.approx(
        NUM_CLIENTS / counters.batches_formed)
    assert 0.0 < counters.mean_occupancy <= 1.0


def test_stress_mixed_priority_deadline_clients(engine, workload):
    """Interleaved urgent and background clients under EDF.

    Every third client is urgent: priority 2 with a (loose) deadline;
    the rest are background with no deadline.  The scheduler may
    reorder freely, but: every response stays bitwise-correct for *its*
    client (no lane swaps under reordering), the deadline-carrying
    cohort completes 100%, and the scheduler's conservation law holds.
    """
    xs, references = workload
    rng = np.random.default_rng(37)
    priorities = [2 if i % 3 == 0 else 0 for i in range(NUM_CLIENTS)]
    deadlines = [10.0 if p else None for p in priorities]

    async def run():
        server = PumaServer(engine, max_batch_size=8,
                            batch_window_s=0.004)
        async with server:
            async def client(i):
                await asyncio.sleep(float(rng.uniform(0, 0.02)))
                return await server.submit({"x": xs[i]},
                                           priority=priorities[i],
                                           deadline_s=deadlines[i])

            outcomes = await asyncio.gather(
                *(client(i) for i in range(NUM_CLIENTS)),
                return_exceptions=True)
            stats = server.stats()
        return outcomes, stats, server

    outcomes, stats, server = asyncio.run(run())
    urgent_done = 0
    for i, outcome in enumerate(outcomes):
        assert not isinstance(outcome, Exception), f"client {i}: {outcome}"
        for name in references[i]:
            assert np.array_equal(outcome[name], references[i][name])
        if priorities[i]:
            urgent_done += 1
    # The tight-deadline cohort completes in full.
    assert urgent_done == sum(1 for p in priorities if p)
    sched = stats["scheduler"]
    assert sched["policy"] == "edf"
    assert sched["admitted"] == NUM_CLIENTS
    assert sched["admitted"] == (sched["dispatched"] + sched["shed"]
                                 + sched["drained"])
    assert sched["shed"] == 0
    assert server.counters.requests_served == NUM_CLIENTS
    assert server.counters.requests_failed == 0


def test_stress_rejects_after_stop(engine):
    async def run():
        server = PumaServer(engine, max_batch_size=4)
        async with server:
            await server.submit(
                {"x": np.zeros(DIMS[0], dtype=np.float64)})
        with pytest.raises(RuntimeError, match="not running"):
            await server.submit(
                {"x": np.zeros(DIMS[0], dtype=np.float64)})

    asyncio.run(run())

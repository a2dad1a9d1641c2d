"""Sharded serving: model a batch spread over replica nodes.

PUMA reaches production throughput by spatial replication — many nodes,
each holding a copy of the programmed weights, each serving a slice of
the traffic (Section 7.3).  :class:`repro.serve.ShardedEngine` is the
*model* of that node group: it splits a ``(batch, length)`` request into
N shards, runs each shard as its own pass of the one
:class:`~repro.engine.InferenceEngine` (replicas would share its
compilation, programmed crossbars and tape, so a shard pass on it is a
replica's pass), and merges the results **bitwise identically** to a
single pass.  Merged stats model the replicas running side by side:
cycles are the max over shards (the modelled throughput win), energy and
instruction counters the sum.

``num_shards`` sets how many replicas the modelled node group has; it
spends no host CPUs.  To use N cores, run N fleet workers
(``PumaFleet(num_workers=N)``, see ``examples/fleet_serving.py``).

The example finishes with the same model behind the async front-end:
``PumaServer(engine, num_shards=...)`` splits every dynamically-formed
micro-batch into shard passes.

Run:  python examples/sharded_serving.py
"""

import asyncio

import numpy as np

from repro.engine import InferenceEngine
from repro.serve import PumaServer, ShardedEngine
from repro.workloads.mlp import FIGURE4_MLP_DIMS, build_mlp_model

BATCH = 64
SHARDS = 4


def main() -> None:
    dims = list(FIGURE4_MLP_DIMS)
    engine = InferenceEngine(build_mlp_model(dims, seed=0), seed=0)
    print(f"compiled {dims} MLP onto {engine.compiled.num_mvmus_used} MVMUs; "
          f"replicas share the compilation and programmed crossbars")

    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 0.5, size=(BATCH, dims[0]))

    single = engine.predict({"x": x})
    print(f"single engine: batch {BATCH} in one pass, "
          f"{single.cycles} simulated cycles "
          f"({single.cycles_per_inference:.0f}/inference)")

    merged = ShardedEngine(engine, num_shards=SHARDS).predict({"x": x})
    assert all(np.array_equal(single[name], merged[name]) for name in single)
    per_shard = [s.cycles for s in merged.shard_stats]
    print(f"{SHARDS} shards:     lanes split {per_shard} cycles/shard, "
          f"merged cycles = max = {merged.cycles} "
          f"({single.cycles / merged.cycles:.1f}x modelled speedup)")
    print(f"outputs bitwise identical to the single engine; energy "
          f"{merged.energy_j * 1e6:.1f} uJ total "
          f"(sum over replicas, was {single.energy_j * 1e6:.1f})")

    # The same model behind the async server: micro-batches formed from
    # concurrent clients are split into shard passes transparently.
    async def serve() -> None:
        requests = [x[i] for i in range(16)]
        async with PumaServer(engine, max_batch_size=8,
                              num_shards=SHARDS) as server:
            results = await asyncio.gather(
                *(server.submit({"x": r}) for r in requests))
        for i, result in enumerate(results):
            expect = single.lane(i) if i < BATCH else None
            assert expect is None or np.array_equal(result["out"],
                                                    expect["out"])
        print(f"served {len(requests)} concurrent clients sharded: "
              f"{server.counters.summary()}")

    asyncio.run(serve())
    print("OK")


if __name__ == "__main__":
    main()

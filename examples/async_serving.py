"""Async serving: concurrent clients, dynamic micro-batching, one engine.

The PUMA deployment model (Section 3.2.5 + 7.3): program the crossbars
once, then serve a stream of requests through them.
:class:`~repro.serve.PumaServer` is the software front-end for that —
clients submit single float-vector requests concurrently; the server
coalesces whatever is waiting (up to ``max_batch_size``) into one
SIMD-over-batch pass and hands each client its own
:class:`~repro.serve.RunResult`.  Nothing waits on a clock for company:
requests that arrive together, or while a pass runs, form one batch.

The script fires 32 clients in three waves, verifies every response is
bitwise identical to the sequential single-input reference, and prints
the batching counters: each wave coalesces through concurrency alone.

Run:  python examples/async_serving.py
"""

import asyncio

import numpy as np

from repro import InferenceEngine, PumaServer
from repro.engine import compile_cache_info
from repro.workloads.mlp import FIGURE4_MLP_DIMS, build_mlp_model

CLIENTS = 32
MAX_BATCH = 8


async def client(server: PumaServer, x: np.ndarray, delay_s: float):
    """One user: arrive after ``delay_s``, submit, await the result."""
    await asyncio.sleep(delay_s)
    return await server.submit({"x": x})


async def main() -> None:
    dims = list(FIGURE4_MLP_DIMS)
    engine = InferenceEngine(build_mlp_model(dims, seed=0), seed=0)
    rng = np.random.default_rng(1)
    xs = rng.normal(0.0, 0.5, size=(CLIENTS, dims[0]))
    # Deterministic staggered arrivals: three waves of concurrent users.
    delays = [0.01 * (i % 3) for i in range(CLIENTS)]

    async with PumaServer(engine, max_batch_size=MAX_BATCH) as server:
        results = await asyncio.gather(
            *(client(server, xs[i], delays[i]) for i in range(CLIENTS)))
        counters = server.counters

    print(f"served {counters.requests_served} requests in "
          f"{counters.batches_formed} simulator passes "
          f"(mean batch {counters.mean_batch_size:.1f}, "
          f"{counters.mean_occupancy * 100:.0f}% of max {MAX_BATCH})")
    assert counters.batches_formed < CLIENTS, \
        "dynamic batching must coalesce concurrent requests"

    # Every per-request result is bitwise the sequential reference.
    reference = engine.run_sequential({"x": engine.quantize(xs)})
    for i, result in enumerate(results):
        assert np.array_equal(result["out"], reference["out"][i]), i
    print("all responses bitwise identical to the sequential reference")

    sample = results[0]
    print(f"request 0 rode in a batch of {sample.batch}: "
          f"{sample.cycles_per_inference:.0f} cycles/inference, "
          f"{sample.energy_per_inference_j * 1e9:.1f} nJ/inference")
    print(f"compile cache: {compile_cache_info()}")
    print("OK")


if __name__ == "__main__":
    asyncio.run(main())

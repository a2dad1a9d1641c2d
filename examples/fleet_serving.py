"""Fleet serving: worker processes, a networked store, one front door.

PUMA's production story (Section 7.3) is many accelerator nodes serving
the same programmed models behind one endpoint.  :mod:`repro.fleet` is
that layer in miniature, with every moving part real: worker processes
are spawned (not forked — they start with cold caches, like a fresh
node), artifacts move over HTTP with integrity hashes, and the front
door routes by consistent hashing on each model's route key.

This example walks the lifecycle an operator would see:

1. deploy three models onto a 2-worker fleet — each model cold-builds
   on one worker, which publishes its artifact blob; the *other* worker
   warm-starts over the network without ever running the compiler;
2. send a concurrent burst of requests across all three models and
   check every reply **bitwise** against a local single-engine build —
   which replica answered, and which requests shared a batch, is
   unobservable by design;
3. kill a worker and watch the health loop evict and respawn it; the
   replacement warm-starts off the networked store too;
4. stop the fleet gracefully — queued requests drain, nothing drops.

Load at a fixed arrival rate, with latency percentiles, is
``benchmarks/puma_bench``'s job; ``python -m repro fleet DEPLOY.json``
starts a fleet that serves any HTTP client until SIGINT or SIGTERM.

Run:  python examples/fleet_serving.py
"""

import asyncio
import tempfile
import time

import numpy as np

from repro.fleet import FleetModelSpec, PumaFleet, build_engine

SPECS = [
    FleetModelSpec("mlp", "mlp", {"dims": [32, 24, 10]}),
    FleetModelSpec("lstm", "lstm",
                   {"input_size": 8, "hidden_size": 12, "output_size": 6}),
    FleetModelSpec("noisy-mlp", "mlp", {"dims": [32, 24, 10]},
                   crossbar={"write_noise_sigma": 0.05}),
]
LAYOUTS = {
    "mlp": {"x": 32},
    "lstm": {"x0": 8, "x1": 8},
    "noisy-mlp": {"x": 32},
}


def request_inputs(model: str, seed: int) -> dict[str, np.ndarray]:
    """Deterministic float inputs for one request against ``model``."""
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-1.0, 1.0, size=length)
            for name, length in sorted(LAYOUTS[model].items())}


async def demo(work_dir: str) -> None:
    async with PumaFleet(SPECS, num_workers=2, replicas_per_model=2,
                         work_dir=work_dir, max_batch_size=8,
                         health_interval_s=0.2,
                         health_failures=1) as fleet:
        print(f"fleet up at {fleet.url}: 2 workers, "
              f"{len(SPECS)} models, 2 replicas each")

        # -- 1. who built, who warm-started ----------------------------
        metrics = await fleet.metrics()
        for worker_id, entry in sorted(metrics["workers"].items()):
            hosted = ", ".join(
                f"{m['name']} ({m['source']})"
                for m in entry["metrics"]["models"].values())
            print(f"  {worker_id}: {hosted}")
        print(f"  blob store: {len(metrics['fleet']['store_blobs'])} "
              f"artifacts (one per model — replicas pulled, not rebuilt)")

        # -- 2. a concurrent burst, every reply checked bitwise -------
        engines = {spec.name: build_engine(spec) for spec in SPECS}
        requests = [(spec.name, request_inputs(spec.name, seed))
                    for seed, spec in enumerate(SPECS * 16)]
        started = time.monotonic()
        replies = await asyncio.gather(
            *(fleet.predict(model, inputs) for model, inputs in requests))
        elapsed = time.monotonic() - started
        for (model, inputs), reply in zip(requests, replies):
            reference = engines[model].predict(inputs)
            assert reply["words"] == {name: reference[name].tolist()
                                      for name in reference}, model
        answered_by = sorted({reply["worker"] for reply in replies})
        print(f"burst: {len(requests)} concurrent requests in {elapsed:.2f}s, "
              f"answered by {', '.join(answered_by)}; every reply "
              f"bitwise identical to the local engine")

        # -- 3. kill a worker; the fleet heals -------------------------
        victim = next(iter(fleet.manager.workers))
        fleet.manager.workers[victim].process.terminate()
        print(f"killed {victim}; requests keep flowing while the "
              f"health loop evicts + respawns...")
        model, inputs = requests[0]
        reply = await fleet.predict(model, inputs)
        assert reply["words"] == replies[0]["words"]
        deadline = time.monotonic() + 30
        while fleet.respawns < 1 and time.monotonic() < deadline:
            await asyncio.sleep(0.1)
        print(f"evictions {fleet.evictions}, respawns {fleet.respawns}, "
              f"workers {len(fleet.manager.workers)}")

    # -- 4. the context manager exit above was the graceful drain ------
    print("fleet stopped: queued work drained, workers shut down")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-fleet-demo-") as tmp:
        asyncio.run(demo(tmp))


if __name__ == "__main__":
    main()

"""Server throughput — coalescing batches and exported counters.

Runs the async batch-inference service in-process, fires a burst of
concurrent same-session requests, and records the service's
throughput/latency counters into ``BENCH_results.json`` — the CI artifact
then carries server numbers alongside the engine/backend floors, so serving
regressions are visible PR-over-PR the same way kernel regressions are.

This harness is sized to run everywhere (single CPU included): it asserts
behavioural properties (all requests answered, coalescing happened, counters
consistent), not a parallel-speedup floor — that lives in
``test_sharded_throughput.py``.
"""

from __future__ import annotations

import asyncio
import os
import time

import _record
from repro.engine.server import InferenceService
from repro.engine.shard import shutdown_pool
from repro.models import get_benchmark

NUM_REQUESTS = 8 if os.environ.get("REPRO_FAST_BENCH") else 16
PARTICLES = 2_000 if os.environ.get("REPRO_FAST_BENCH") else 5_000
MODEL = "weight"


def _payload(seed: int) -> dict:
    bench = get_benchmark(MODEL)
    return {
        "id": f"bench-{seed}",
        "model": bench.model_source,
        "guide": bench.guide_source,
        "engine": "is",
        "sites": [0],
        "params": {
            "num_particles": PARTICLES,
            "seed": seed,
            "obs_values": list(bench.obs_values),
            "guide_args": [8.5, 0.0],
            "shards": 4,
        },
    }


def test_server_burst_coalesces_and_exports_counters():
    async def burst():
        service = InferenceService(workers=2, batch_window_s=0.005)
        await service.start()
        try:
            before = service.counters.snapshot()
            started = time.perf_counter()
            responses = await asyncio.gather(
                *[service.submit(_payload(seed)) for seed in range(NUM_REQUESTS)]
            )
            elapsed = time.perf_counter() - started
            counters = service.counters.snapshot()
            # The counts are the process's: this burst's share is the growth.
            for key in ("coalesced_requests_total", "batches_total", "requests_total",
                        "particles_total"):
                counters[key] -= before[key]
            return responses, elapsed, counters
        finally:
            await service.stop()

    responses, elapsed, counters = asyncio.run(burst())

    assert len(responses) == NUM_REQUESTS
    assert all(r["ok"] for r in responses)
    # Distinct seeds -> distinct estimates, all near the conjugate mean 9.14.
    means = [r["posterior_means"]["0"] for r in responses]
    assert len(set(means)) == NUM_REQUESTS
    assert all(abs(m - 9.14) < 0.5 for m in means)
    # The burst coalesced: some requests shared a dispatch batch.
    assert counters["coalesced_requests_total"] > 0
    assert counters["batches_total"] < NUM_REQUESTS
    assert counters["requests_total"] == NUM_REQUESTS
    assert counters["particles_total"] == NUM_REQUESTS * PARTICLES
    # Histogram-derived latency percentiles ride along in the snapshot —
    # the artifact carries tail latency, not just the mean.
    assert 0.0 < counters["latency_s_p50"] <= counters["latency_s_p90"]
    assert counters["latency_s_p90"] <= counters["latency_s_p99"]

    throughput = NUM_REQUESTS / elapsed
    print(
        f"\nserver burst: {NUM_REQUESTS} requests x {PARTICLES} particles in "
        f"{elapsed * 1e3:.1f}ms ({throughput:.1f} req/s, "
        f"{counters['coalesced_requests_total']} coalesced over "
        f"{counters['batches_total']} batches, latency p50/p99 "
        f"{counters['latency_s_p50'] * 1e3:.1f}/{counters['latency_s_p99'] * 1e3:.1f}ms)"
    )
    _record.record(
        suite="server_throughput", model=MODEL, engine="is", backend="interp",
        particles=PARTICLES, wall_time_s=elapsed,
        requests=NUM_REQUESTS, requests_per_s=throughput,
        latency_s_p50=counters["latency_s_p50"],
        latency_s_p90=counters["latency_s_p90"],
        latency_s_p99=counters["latency_s_p99"],
        counters=counters,
    )
    shutdown_pool()

"""Coalesced ``is`` waves vs per-request runs on the batch server.

Submits bursts of 8 concurrent same-session ``is`` requests (``weight``,
``shards=4``) to an :class:`~repro.engine.server.InferenceService` with two
workers, alternating two modes burst by burst: the server's coalesced pool
wave, and per-request runs (simulated by making the wave return no
outcomes, so every member goes through ``run_engine``).  Prints the median
burst wall time per mode and checks that both modes give identical answers.
``docs/serving.md`` records a run of it.

Usage::

    PYTHONPATH=src python benchmarks/coalesced_wave.py [bursts]
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time

from repro.engine.server import InferenceService
from repro.models import get_benchmark

BENCH = get_benchmark("weight")
BURST = 8


def _payload(seed: int, particles: int) -> dict:
    return {
        "model": BENCH.model_source,
        "guide": BENCH.guide_source,
        "engine": "is",
        "sites": [0],
        "params": {
            "num_particles": particles,
            "seed": seed,
            "obs_values": list(BENCH.obs_values),
            "guide_args": [8.5, 0.0],
            "shards": 4,
        },
    }


async def _burst(service: InferenceService, particles: int):
    started = time.perf_counter()
    responses = await asyncio.gather(
        *[service.submit(_payload(1000 + i, particles)) for i in range(BURST)]
    )
    elapsed = time.perf_counter() - started
    assert all(r["ok"] for r in responses), responses
    assert max(r["server"]["batch_size"] for r in responses) > 1, "burst did not coalesce"
    return elapsed, [r["posterior_means"]["0"] for r in responses]


async def measure(particles: int, bursts: int) -> dict:
    """Median burst wall time (seconds) per mode at ``particles``."""
    service = InferenceService(workers=2, batch_window_s=0.005)
    await service.start()
    wave = service._run_is_wave
    modes = {"wave": wave, "per-request": lambda group: {}}
    times = {mode: [] for mode in modes}
    answers = {}
    try:
        await _burst(service, particles)  # warm the pool and the caches
        for i in range(bursts):
            order = list(modes) if i % 2 == 0 else list(reversed(list(modes)))
            for mode in order:
                service._run_is_wave = modes[mode]
                elapsed, means = await _burst(service, particles)
                times[mode].append(elapsed)
                answers.setdefault(mode, means)
    finally:
        service._run_is_wave = wave
        await service.stop()
    assert answers["wave"] == answers["per-request"], answers
    return {mode: statistics.median(values) for mode, values in times.items()}


def main() -> None:
    bursts = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    for particles in (2_000, 20_000):
        medians = asyncio.run(measure(particles, bursts))
        print(
            f"{particles} particles: wave {medians['wave'] * 1e3:.1f} ms, "
            f"per-request {medians['per-request'] * 1e3:.1f} ms "
            f"(median of {bursts} bursts, identical answers)"
        )


if __name__ == "__main__":
    main()

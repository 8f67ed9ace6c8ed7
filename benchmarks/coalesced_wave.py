"""Coalesced ``is`` waves vs per-request runs on the batch server.

Submits bursts of 8 concurrent same-session ``is`` requests (``weight``,
``shards=4``) to an :class:`~repro.engine.server.InferenceService` with two
workers, alternating two modes burst by burst: the coalesced pool wave
(:func:`~repro.engine.api.run_engine_batch`), and per-request runs
(simulated by making the batch call raise, so every member runs alone
through ``run_engine``).  Prints the median burst wall time per mode and
checks that every wave-mode burst ran as one pool wave with an outcome for
each of its 8 members, that both modes give identical answers, and that
every wave-mode response's ``diagnostics`` has the same keys (``run_metrics``
included) and the same ``fallback_reason`` as its per-request twin.
``docs/serving.md`` records a run of it.

Usage::

    PYTHONPATH=src python benchmarks/coalesced_wave.py [bursts]
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time

import repro.engine.server as server
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
    return elapsed, responses


def _check_diagnostics(wave: list, alone: list) -> None:
    """Wave-mode diagnostics carry what per-request diagnostics carry."""
    for got, want in zip(wave, alone):
        got, want = got["diagnostics"], want["diagnostics"]
        assert "run_metrics" in got, f"wave response lacks run_metrics: {sorted(got)}"
        assert set(got) == set(want), (sorted(got), sorted(want))
        assert got.get("fallback_reason") == want.get("fallback_reason"), (got, want)


async def measure(particles: int, bursts: int) -> dict:
    """Median burst wall time (seconds) per mode at ``particles``."""
    service = InferenceService(workers=2, batch_window_s=0.005)
    await service.start()
    batch = server.run_engine_batch
    wave_sizes = []

    def counted_wave(name, session, requests):
        outcomes = batch(name, session, requests)
        wave_sizes.append(len(outcomes))
        return outcomes

    def no_wave(name, session, requests):
        raise RuntimeError("per-request mode: members run alone")

    modes = {"wave": counted_wave, "per-request": no_wave}
    times = {mode: [] for mode in modes}
    answers = {}
    try:
        await _burst(service, particles)  # warm the pool and the caches
        for i in range(bursts):
            order = list(modes) if i % 2 == 0 else list(reversed(list(modes)))
            for mode in order:
                server.run_engine_batch = modes[mode]
                wave_sizes.clear()
                elapsed, responses = await _burst(service, particles)
                if mode == "wave":
                    assert wave_sizes == [BURST], f"burst ran as waves of {wave_sizes}"
                times[mode].append(elapsed)
                answers.setdefault(mode, responses)
    finally:
        server.run_engine_batch = batch
        await service.stop()
    means = {
        mode: [r["posterior_means"]["0"] for r in responses]
        for mode, responses in answers.items()
    }
    assert means["wave"] == means["per-request"], means
    _check_diagnostics(answers["wave"], answers["per-request"])
    return {mode: statistics.median(values) for mode, values in times.items()}


def main() -> None:
    bursts = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    for particles in (2_000, 20_000):
        medians = asyncio.run(measure(particles, bursts))
        print(
            f"{particles} particles: wave {medians['wave'] * 1e3:.1f} ms, "
            f"per-request {medians['per-request'] * 1e3:.1f} ms "
            f"(median of {bursts} bursts, identical answers and diagnostics)"
        )


if __name__ == "__main__":
    main()

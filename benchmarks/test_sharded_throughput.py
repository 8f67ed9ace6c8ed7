"""Sharded throughput — the process pool must actually buy wall time.

The sharded execution layer's determinism contract says worker count never
changes *results*; this harness pins that it does change *throughput*: on the
compiled backend, running a fixed 4-shard plan over 4 workers must be at
least 2x faster than running the same plan on 1 worker (inline), measured on
the ``switching`` model whose divergent-branch sub-kernels give each shard
real compute relative to the result transport.

The comparison is deliberately shard-plan-fixed (``shards=4`` both sides), so
the two measurements execute bit-identical computations — the harness also
asserts the results are equal, which makes the speedup an apples-to-apples
distribution win, not an estimator change.

Skipped when fewer than 4 CPUs are available or no process pool can be
created (the speedup floor is meaningless without real parallel hardware).
"""

from __future__ import annotations

import os

import pytest

import _record
from repro.engine import ProgramSession
from repro.engine.shard import pool_available, shutdown_pool
from repro.models import get_benchmark

NUM_PARTICLES = 200_000 if os.environ.get("REPRO_FAST_BENCH") else 400_000
SHARDS = 4
WORKERS = 4
MIN_SPEEDUP = 2.0
MODEL = "switching"


def _cpu_count() -> int:
    return os.cpu_count() or 1


def _session() -> ProgramSession:
    bench = get_benchmark(MODEL)
    return ProgramSession(
        bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry
    )


def _run(session: ProgramSession, workers: int):
    bench = get_benchmark(MODEL)
    return session.infer(
        "is",
        num_particles=NUM_PARTICLES,
        obs_values=bench.obs_values,
        seed=0,
        backend="compiled",
        workers=workers,
        shards=SHARDS,
    )


@pytest.mark.skipif(_cpu_count() < 4, reason="needs >= 4 CPUs for a meaningful speedup floor")
def test_four_workers_at_least_2x_over_one_worker():
    """Acceptance: >= 2x at 4 workers over 1 worker on the compiled backend."""
    if not pool_available(WORKERS):
        pytest.skip("no multiprocessing pool in this environment")
    session = _session()
    session.compiled_kernel()  # compile once outside the timed region
    _run(session, WORKERS)  # warm the pool (fork, per-worker kernel caches)

    one_seconds, one_result = _record.best_of(3, lambda: _run(session, 1))
    four_seconds, four_result = _record.best_of(3, lambda: _run(session, WORKERS))

    speedup = one_seconds / four_seconds
    print(
        f"\n{MODEL} @ {NUM_PARTICLES} particles, {SHARDS} shards: "
        f"1 worker {one_seconds * 1e3:.1f}ms, {WORKERS} workers "
        f"{four_seconds * 1e3:.1f}ms -> {speedup:.2f}x"
    )
    _record.record(
        suite="sharded_throughput", model=MODEL, engine="is", backend="compiled",
        particles=NUM_PARTICLES, wall_time_s=four_seconds,
        speedup=speedup, baseline="workers=1",
        one_worker_wall_time_s=one_seconds, shards=SHARDS, workers=WORKERS,
    )

    # Same shard plan -> bit-identical results; the speedup is pure scheduling.
    assert four_result.posterior_mean(0) == one_result.posterior_mean(0)
    assert four_result.log_evidence() == one_result.log_evidence()
    assert speedup >= MIN_SPEEDUP

    shutdown_pool()


def test_sharded_run_is_deterministic_and_sane():
    """Cheap no-pool check that runs everywhere: the benchmark configuration
    is reproducible (same seed + plan -> identical numbers) and produces a
    usable population.  Statistical agreement across engines/backends is
    pinned by the conformance and determinism suites."""
    import math

    bench = get_benchmark(MODEL)
    session = _session()

    def once():
        return session.infer(
            "is", num_particles=20_000, obs_values=bench.obs_values, seed=0,
            backend="compiled", workers=1, shards=SHARDS,
        )

    first, second = once(), once()
    assert first.posterior_mean(0) == second.posterior_mean(0)
    assert first.log_evidence() == second.log_evidence()
    assert math.isfinite(first.log_evidence())
    assert first.effective_sample_size() >= 1.0

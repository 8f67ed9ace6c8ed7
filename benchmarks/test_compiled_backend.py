"""Compiled batched backend — the compiled kernel vs the interpretive vectorizer.

The compiled backend exists to remove per-site interpreter dispatch and,
above all, the interpretive runtime's *group re-execution*: when a lockstep
particle population diverges at a branch, ``ParticleVectorizer`` re-runs
each subgroup from scratch (replaying recorded values), paying the whole
prefix's kernel cost once per split level.  The compiled kernel partitions
index sets and schedules every arm inside one emitted function instead, so
its total lane work stays linear in the program size.

Recursion makes the re-execution quadratic: every recursive call splits
the population again, and each split group replays its whole prefix, while
the compiled loop kernel runs each unfolding once per group.

This harness pins the claim on the library models where groups split:

* ``switching`` (5 announced branches, up to 32 control-flow groups),
  ``jump`` (asymmetric branch arms with branch-dependent latents) and the
  tail-recursive ``randomwalk`` (one split per level of recursion) must run
  at least 3x faster compiled than interpreted at 10k particles;
* both backends must produce bitwise-identical log-weights — the compiled
  path is an execution-strategy change, not a new estimator (the full
  model-by-model guarantee lives in ``tests/conformance/test_backend_parity.py``);
* every compilable library model's compiled-vs-interp timing is recorded in
  the ``BENCH_results.json`` artifact so the perf trajectory is tracked
  PR-over-PR even for the models where kernel cost, not dispatch,
  dominates.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import _record
from repro.core.semantics import traces as tr
from repro.engine import InferenceRequest, ProgramSession, make_particle_runner
from repro.models import all_benchmarks, get_benchmark

#: The CI fast-benchmark smoke job sets REPRO_FAST_BENCH=1 to run with
#: reduced particle counts; re-execution overhead *grows* relative to kernel
#: time as n shrinks, so the 3x floor is insensitive to the reduction.
NUM_PARTICLES = 3_000 if os.environ.get("REPRO_FAST_BENCH") else 10_000
MIN_SPEEDUP = 3.0

#: Models whose groups split — at branches, or at every level of recursion —
#: where the compiled path-tree schedule must beat interpretive group
#: re-execution by the headline margin.
HEADLINE_MODELS = ("switching", "jump", "randomwalk")


def _runners(name: str):
    bench = get_benchmark(name)
    session = ProgramSession(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry, typecheck=False,
    )
    obs = tuple(tr.ValP(v) for v in bench.obs_values)
    guide_args = tuple(bench.guide_param_inits.values()) if bench.guide_param_inits else ()
    interp, compiled = (
        make_particle_runner(
            session, InferenceRequest(obs_trace=obs, guide_args=guide_args, backend=backend)
        )
        for backend in ("interp", "compiled")
    )
    return interp, compiled


@pytest.mark.parametrize("name", HEADLINE_MODELS)
def test_compiled_backend_at_least_3x_on_divergent_models(name: str):
    """Acceptance: >= 3x over the interpretive vectorizer at 10k particles."""
    interp, compiled = _runners(name)
    assert type(compiled).__name__ == "CompiledParticleRunner", (
        f"{name} unexpectedly fell back: {getattr(compiled, 'fallback_reason', None)}"
    )

    interp_s, interp_run = _record.best_of(
        3, lambda: interp.run(NUM_PARTICLES, np.random.default_rng(0))
    )
    compiled_s, compiled_run = _record.best_of(
        3, lambda: compiled.run(NUM_PARTICLES, np.random.default_rng(0))
    )

    speedup = interp_s / compiled_s
    print(
        f"\n{name} @ {NUM_PARTICLES} particles: interp {interp_s * 1e3:.1f}ms "
        f"({interp_run.num_groups} groups), compiled {compiled_s * 1e3:.1f}ms "
        f"-> {speedup:.1f}x"
    )
    _record.record(
        suite="compiled_backend", model=name, engine="is", backend="compiled",
        particles=NUM_PARTICLES, wall_time_s=compiled_s,
        speedup=speedup, baseline="interp",
        interp_wall_time_s=interp_s, num_groups=interp_run.num_groups,
    )

    # Same seed, same bits: the backends are one estimator, two runtimes.
    assert np.array_equal(interp_run.model_log_weights, compiled_run.model_log_weights)
    assert np.array_equal(interp_run.guide_log_weights, compiled_run.guide_log_weights)
    assert speedup >= MIN_SPEEDUP


def test_compiled_backend_recorded_across_library():
    """Record compiled-vs-interp timings for every compilable library model.

    No speedup floor here — on shared-control-flow models the NumPy kernels
    (RNG draws, densities) dominate both backends and the margin is modest;
    the artifact keeps the trajectory visible.  Bitwise agreement *is*
    asserted for every model the compiler accepts.
    """
    measured = 0
    for bench in all_benchmarks():
        if not bench.expressible or bench.name == "outliers":
            continue  # outliers' MCMC guide takes per-draw arguments
        interp, compiled = _runners(bench.name)
        if type(compiled).__name__ != "CompiledParticleRunner":
            continue  # non-tail recursive models fall back; nothing to compare
        n = max(NUM_PARTICLES // 5, 1000)
        interp_s, r1 = _record.best_of(2, lambda: interp.run(n, np.random.default_rng(1)))
        compiled_s, r2 = _record.best_of(2, lambda: compiled.run(n, np.random.default_rng(1)))
        assert np.array_equal(r1.model_log_weights, r2.model_log_weights), bench.name
        assert np.array_equal(r1.guide_log_weights, r2.guide_log_weights), bench.name
        _record.record(
            suite="compiled_backend_survey", model=bench.name, engine="is",
            backend="compiled", particles=n, wall_time_s=compiled_s,
            speedup=interp_s / compiled_s, baseline="interp",
            interp_wall_time_s=interp_s,
        )
        measured += 1
    assert measured >= 10  # the survey covers the compilable library


def test_compiled_backend_serves_smc_and_svi():
    """The backend flag reaches the other engines (smoke, with parity)."""
    bench = get_benchmark("switching")
    session = ProgramSession(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry,
    )
    smc_i = session.infer("smc", num_particles=600, obs_values=bench.obs_values,
                          seed=5, backend="interp")
    smc_c = session.infer("smc", num_particles=600, obs_values=bench.obs_values,
                          seed=5, backend="compiled")
    assert smc_c.posterior_mean(0) == smc_i.posterior_mean(0)
    assert smc_c.log_evidence() == smc_i.log_evidence()
    assert smc_c.diagnostics()["backend"] == "compiled"
    assert session.compiled_kernel()[0] is not None

"""Cross-engine conformance: every engine targets the same posterior.

For library models whose posterior is available in closed form (conjugacy)
or by exact enumeration (finite discrete latents, linear-Gaussian algebra),
the ``is``, ``smc``, ``mh``, and ``svi`` engines must all recover the true
posterior means within a Monte-Carlo tolerance.  The golden values are
checked in below with their derivations; they were computed independently
of any engine (conjugate updates, 2^k enumeration, precision-matrix solve),
so a regression in any runtime layer — batched distributions, the lockstep
scheduler, resampling, chain pooling, the SVI reweighting pass — shows up
as a disagreement here.

Boolean latent sites are exposed as 0/1 by ``site_values``, so the golden
"mean" of a Bernoulli site is its posterior probability of ``True``.
"""

import os
from dataclasses import dataclass, field
from typing import Dict, Tuple

import pytest

from repro.engine import ProgramSession
from repro.models import get_benchmark
from repro.obs import REGISTRY

ENGINES = ("is", "smc", "mh", "svi")

#: CI sets REPRO_CONFORMANCE_WORKERS=2 on one job so the sharded process-pool
#: path is exercised against the golden posteriors on every PR, compiled SVI
#: rescoring included; the engines that ignore shard controls (mh here)
#: simply run as usual.
WORKERS = int(os.environ.get("REPRO_CONFORMANCE_WORKERS", "1"))


@dataclass(frozen=True)
class ConformanceCase:
    """One model with exact posterior site means and engine settings."""

    name: str
    #: site index -> exact posterior mean
    golden: Dict[int, float]
    tolerance: float
    #: MH pools sequential chains, so it gets extra Monte-Carlo slack.
    mh_tolerance_factor: float = 1.5
    num_particles: int = 4000
    guide_args: Tuple[object, ...] = ()
    #: SVI optimisation settings (empty dict = fixed guide, no optimisation).
    svi: Dict[str, object] = field(default_factory=dict)


CASES = [
    # Conjugate normal-normal: prior N(8.5, 1), likelihood N(w, 0.75), y=9.5.
    # Posterior mean = (8.5/1 + 9.5/0.5625) / (1/1 + 1/0.5625) = 9.14.
    ConformanceCase(
        name="weight",
        golden={0: 9.14},
        tolerance=0.1,
        guide_args=(8.5, 0.0),
        svi=dict(
            guide_params={"loc": 8.5, "log_scale": 0.0},
            num_steps=40, learning_rate=0.1,
        ),
    ),
    # Conjugate beta-Bernoulli: prior Beta(2, 2), observations (T,T,F,T,T).
    # Posterior Beta(6, 3), mean 6/9 = 2/3.
    ConformanceCase(name="coin", golden={0: 2.0 / 3.0}, tolerance=0.04),
    # Exact enumeration over (rain, sprinkler) with grass-wet observed True:
    # P(rain | wet) = 0.339515 (CPTs in models/library.py).
    ConformanceCase(name="sprinkler", golden={0: 0.339515}, tolerance=0.04),
    # Exact enumeration over (burglary, earthquake) with alarm observed True:
    # P(burglary | alarm) = 0.378411.
    ConformanceCase(name="burglary", golden={0: 0.378411}, tolerance=0.04),
    # Exact enumeration over the 2^4 state paths with Gaussian emissions and
    # observations (0.8, 1.1, -0.9, -1.2):
    # P(s_t = 1 | y) = (0.892642, 0.884778, 0.146949, 0.057596).
    ConformanceCase(
        name="hmm",
        golden={0: 0.892642, 1: 0.884778, 2: 0.146949, 3: 0.057596},
        tolerance=0.05,
    ),
    # Linear-Gaussian smoother: x1 ~ N(0,1), x_{t+1} ~ N(x_t, 1),
    # y_t ~ N(x_t, 0.5), observations (0.4, 0.9, 1.3, 1.9).  Solving the
    # tridiagonal precision system gives the smoothed means
    # (0.414619, 0.887716, 1.311675, 1.782335).
    ConformanceCase(
        name="kalman",
        golden={0: 0.414619, 1: 0.887716, 2: 1.311675, 3: 1.782335},
        tolerance=0.12,
        mh_tolerance_factor=2.0,
    ),
]


def _session(case: ConformanceCase) -> ProgramSession:
    bench = get_benchmark(case.name)
    return ProgramSession(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry,
    )


def _run(case: ConformanceCase, engine: str, seed: int, backend: str = "interp"):
    bench = get_benchmark(case.name)
    kwargs: Dict[str, object] = dict(
        num_particles=case.num_particles,
        obs_values=bench.obs_values,
        seed=seed,
        guide_args=case.guide_args,
        workers=WORKERS,
        backend=backend,
    )
    if engine == "svi":
        kwargs.update(case.svi)
        if case.svi:
            # Optimisation batches are small; the posterior pass is not.
            kwargs["num_particles"] = 128
            kwargs["final_particles"] = case.num_particles
    return _session(case).infer(engine, **kwargs)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_engines_agree_with_exact_posterior(case: ConformanceCase, engine: str):
    result = _run(case, engine, seed=0)
    tolerance = case.tolerance
    if engine == "mh":
        tolerance *= case.mh_tolerance_factor
    for site, exact in case.golden.items():
        measured = result.posterior_mean(site)
        assert measured == pytest.approx(exact, abs=tolerance), (
            f"{case.name}/{engine}: site {site} posterior mean {measured:.4f} "
            f"vs exact {exact:.4f} (tol {tolerance})"
        )


def test_fitted_svi_on_the_compiled_backend():
    """Fitted SVI on the compiled backend reaches the golden mean and
    rescores every recorded group on the compiled pass: no compiled-backend
    fallback is counted, across shards and either shard transport when
    ``REPRO_CONFORMANCE_WORKERS`` is above one."""
    case = next(case for case in CASES if case.svi)
    mark = REGISTRY.mark()
    result = _run(case, "svi", seed=0, backend="compiled")
    moved = {
        key: change
        for key, change in REGISTRY.delta(mark).items()
        if key.startswith("repro_compiled_fallback_total")
    }
    assert moved == {}, moved
    assert result.diagnostics()["backend"] == "compiled"
    for site, exact in case.golden.items():
        assert result.posterior_mean(site) == pytest.approx(exact, abs=case.tolerance)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_engines_agree_with_each_other(case: ConformanceCase):
    """Pairwise agreement on site 0, independent of the golden values."""
    means = {engine: _run(case, engine, seed=1).posterior_mean(0) for engine in ENGINES}
    spread = max(means.values()) - min(means.values())
    budget = 2.0 * case.tolerance * case.mh_tolerance_factor
    assert spread <= budget, f"{case.name}: engine spread {spread:.4f} > {budget:.4f} ({means})"


def test_all_sessions_are_certified():
    """The conformance pairs all carry the paper's absolute-continuity certificate."""
    for case in CASES:
        session = _session(case)
        assert session.certified, f"{case.name}: {session.certification_reason}"


def test_log_evidence_agrees_between_is_and_smc():
    """Both weight-based engines estimate the same normalising constant."""
    for case in CASES:
        if case.name == "kalman":
            evidence_tolerance = 0.2
        else:
            evidence_tolerance = 0.1
        is_result = _run(case, "is", seed=2)
        smc_result = _run(case, "smc", seed=3)
        assert is_result.log_evidence() == pytest.approx(
            smc_result.log_evidence(), abs=evidence_tolerance
        ), case.name

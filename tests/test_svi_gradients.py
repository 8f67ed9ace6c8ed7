"""Property tests: score-function gradients vs finite differences of the ELBO.

The score-function estimator never differentiates the ELBO directly — it
rescans the recorded particle groups under perturbed parameters to measure
per-particle scores ``∂_θ log q_θ``.  These tests pin the identity

    E[(f - b) ∂_θ log q_θ]  ==  ∂_θ ELBO(θ)

by comparing the estimator against central finite differences of
:func:`repro.engine.svi.estimate_elbo_batched` computed under common random
numbers (the same seed produces the same underlying draws on both sides of
the perturbation, so the difference isolates the effect of θ).  Both sides
are Monte-Carlo estimates, so agreement is within a stochastic tolerance.

Covered guide families:

* ``weight``: Normal guide with an exp-reparameterized scale (2 real params);
* ``weight`` with ``WeighGuideP``: Normal guide whose scale parameter is
  constrained positive by a ParamStore softplus transform (exercises the
  chain rule through the transform);
* ``vae``: two-site factorized Normal guide (4 real params);
* ``coin`` with ``CoinGuideP``: Beta guide with two positive shape params.
"""

import numpy as np
import pytest

from repro.core.parser import parse_program
from repro.core.semantics import traces as tr
from repro.engine import ProgramSession
from repro.engine.params import store_from_inits
from repro.engine.svi import (
    elbo_and_score_gradient,
    estimate_elbo_batched,
    guide_entry_params,
)
from repro.models import (
    COIN_GUIDE_PARAM_SOURCE,
    WEIGHT_GUIDE_POSITIVE_SOURCE,
    get_benchmark,
)
from tests.conftest import session_request

NUM_PARTICLES = 4000
SEED = 123
FD_EPSILON = 1e-3
#: Stochastic agreement tolerance: both sides are MC estimates over the same
#: draws, so residual disagreement comes from the score-vs-difference
#: estimator gap (empirically < 0.3 at 4000 particles on every family).
ABS_TOL = 0.35
REL_TOL = 0.2


def _families():
    weight = get_benchmark("weight")
    vae = get_benchmark("vae")
    coin = get_benchmark("coin")
    return {
        "weight-exp-scale": (
            weight.model_program(), weight.guide_program(),
            weight.model_entry, weight.guide_entry,
            store_from_inits({"loc": 8.0, "log_scale": 0.3}),
            (tr.ValP(9.5),),
        ),
        "weight-positive-scale": (
            weight.model_program(), parse_program(WEIGHT_GUIDE_POSITIVE_SOURCE),
            weight.model_entry, "WeighGuideP",
            store_from_inits({"loc": 8.0, "scale": 1.3}, {"scale": "positive"}),
            (tr.ValP(9.5),),
        ),
        "vae-factorized-normal": (
            vae.model_program(), vae.guide_program(),
            vae.model_entry, vae.guide_entry,
            store_from_inits({"m1": 0.2, "s1": 0.1, "m2": -0.1, "s2": 0.0}),
            tuple(tr.ValP(x) for x in vae.obs_values),
        ),
        "coin-beta": (
            coin.model_program(), parse_program(COIN_GUIDE_PARAM_SOURCE),
            coin.model_entry, "CoinGuideP",
            store_from_inits({"a": 2.0, "b": 2.0}, {"a": "positive", "b": "positive"}),
            tuple(tr.ValP(x) for x in coin.obs_values),
        ),
    }


def _finite_difference_gradient(model, guide, model_entry, guide_entry, store, obs):
    """Central differences of the batched ELBO under common random numbers."""
    param_names = guide_entry_params(guide, guide_entry)
    gradient = {}
    for name, index in store.coordinates():
        values = []
        for delta in (+FD_EPSILON, -FD_EPSILON):
            estimate = estimate_elbo_batched(*session_request(
                model, guide, model_entry, guide_entry, obs_trace=obs, num_particles=NUM_PARTICLES,
                guide_args=store.perturbed(name, index, delta).guide_args(param_names), seed=SEED,
            ))
            values.append(estimate.value)
        gradient.setdefault(name, {})[index] = (values[0] - values[1]) / (2.0 * FD_EPSILON)
    return gradient


def _assert_gradients_agree(score_grads, fd_grads, store, label):
    for name, index in store.coordinates():
        score = float(np.asarray(score_grads[name]).flat[index])
        finite_difference = fd_grads[name][index]
        assert np.isfinite(score) and np.isfinite(finite_difference), (label, name)
        tolerance = ABS_TOL + REL_TOL * abs(finite_difference)
        assert abs(score - finite_difference) <= tolerance, (
            f"{label}.{name}[{index}]: score-function {score:.4f} vs "
            f"finite-difference {finite_difference:.4f} (tol {tolerance:.4f})"
        )


@pytest.mark.parametrize("family", sorted(_families()))
def test_score_gradient_matches_finite_differences(family):
    model, guide, model_entry, guide_entry, store, obs = _families()[family]
    estimate = elbo_and_score_gradient(*session_request(
        model, guide, model_entry, guide_entry, obs_trace=obs, num_particles=NUM_PARTICLES,
        seed=SEED,
    ), store)
    assert estimate.num_infinite == 0
    fd = _finite_difference_gradient(model, guide, model_entry, guide_entry, store, obs)
    _assert_gradients_agree(estimate.grads, fd, store, family)


@pytest.mark.parametrize("family", ["vae-factorized-normal", "coin-beta"])
def test_rao_blackwellized_gradient_matches_finite_differences(family):
    """Per-site RB changes the variance, never the target of the estimator."""
    model, guide, model_entry, guide_entry, store, obs = _families()[family]
    estimate = elbo_and_score_gradient(*session_request(
        model, guide, model_entry, guide_entry, obs_trace=obs, num_particles=NUM_PARTICLES,
        rao_blackwellize=True, seed=SEED,
    ), store)
    fd = _finite_difference_gradient(model, guide, model_entry, guide_entry, store, obs)
    _assert_gradients_agree(estimate.grads, fd, store, f"rb-{family}")


def test_parameter_branch_flip_under_perturbation_is_dropped_not_fatal():
    """Regression: a pure parameter branch sitting exactly on its threshold.

    The ±ε rescore re-evaluates the (scalar) predicate under the perturbed
    parameter; one side takes the other arm, whose message sequence differs
    from the recorded one.  That replay mismatch must drop the group from
    the affected coordinate's gradient — not escape as a
    ChannelProtocolError that aborts the whole fit.
    """
    model = parse_program(
        """
        proc M() consume latent provide obs {
          w <- sample.recv{latent}(Normal(0.0, 2.0));
          _ <- sample.send{obs}(Normal(w, 1.0));
          return(w)
        }
        """
    )
    guide = parse_program(
        """
        proc G(t: real) provide latent {
          if t < 0.0 {
            w <- sample.send{latent}(Normal(t, 1.0));
            u <- sample.send{latent}(Normal(0.0, 1.0));
            return(w)
          } else {
            w <- sample.send{latent}(Normal(t, 1.0));
            return(w)
          }
        }
        """
    )
    store = store_from_inits({"t": 0.0})  # exactly on the branch threshold
    estimate = elbo_and_score_gradient(*session_request(
        model, guide, "M", "G", obs_trace=(tr.ValP(0.5),), num_particles=64, seed=11,
    ), store)
    # At t=0 the else-arm runs (one latent site); the t-ε rescore takes the
    # then-arm, mismatches the recorded log, and every particle is dropped
    # for the 't' coordinate — the gradient defaults to zero, finitely.
    assert float(np.asarray(estimate.grads["t"])) == 0.0
    assert np.isfinite(estimate.elbo.value)


def test_partial_pure_branch_flip_is_dropped_on_both_backends():
    """Regression: a pure branch on a per-particle value that flips for only
    part of a group under the ±ε perturbation.

    The replay would have to split the group, and the interpreter's internal
    split signal escaped ``svi`` (the compiled pass diverts to that replay).
    It is a replay mismatch like a whole-group flip: the group drops out of
    that coordinate's gradient, identically on both backends.
    """
    session = ProgramSession.from_sources(
        """
        proc M() consume latent provide obs {
          s <- sample.recv{latent}(Unif);
          c <- sample.recv{latent}(Ber(0.5));
          _ <- sample.send{obs}(Normal(s, 1.0));
          return(s)
        }
        """,
        """
        proc G(theta: real) provide latent {
          s <- sample.send{latent}(Unif);
          c <- if s < theta {
            sample.send{latent}(Ber(0.8))
          } else {
            sample.send{latent}(Ber(0.3))
          };
          return(c)
        }
        """,
    )
    answers = []
    for backend in ("interp", "compiled"):
        result = session.infer(
            "svi", num_particles=2000, obs_values=[0.8], seed=0, num_steps=3,
            guide_params={"theta": 0.5}, score_epsilon=0.05, backend=backend,
        )
        assert result.diagnostics()["backend"] == backend
        answers.append(
            (result.posterior_mean(0), result.log_evidence(),
             result.diagnostics()["elbo_history"])
        )
    assert answers[0] == answers[1]
    assert np.isfinite(answers[0][0])


def test_gradient_of_unused_coordinate_is_zero():
    """A parameter the guide never consumes in-density must get a zero score."""
    model = get_benchmark("weight").model_program()
    guide = parse_program(
        """
        proc G(loc: real, unused: real) provide latent {
          weight <- sample.send{latent}(Normal(loc, 1.0));
          return(weight)
        }
        """
    )
    store = store_from_inits({"loc": 9.0, "unused": 3.0})
    estimate = elbo_and_score_gradient(*session_request(
        model, guide, "Weigh", "G", obs_trace=(tr.ValP(9.5),), num_particles=500, seed=7,
    ), store)
    assert float(np.asarray(estimate.grads["unused"])) == pytest.approx(0.0, abs=1e-9)
    assert float(np.asarray(estimate.grads["loc"])) != 0.0

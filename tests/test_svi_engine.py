"""Unit tests for the vectorized SVI stack: transforms, ParamStore, engines.

The gradient-correctness property tests live in ``test_svi_gradients.py``
and the cross-engine posterior agreement checks in ``tests/conformance``;
this file covers the plumbing: constraint transforms round-trip, the store
builds guide arguments, ``fit_svi`` converges on the conjugate weight model
and never steps on degenerate batches, and both SVI engines answer the
registry's uniform result interface.
"""

import math

import numpy as np
import pytest

from repro.core.parser import parse_program
from repro.core.semantics import traces as tr
from repro.engine import ProgramSession, available_engines
from repro.engine.params import ParamStore, get_transform, store_from_inits
from repro.engine.svi import (
    estimate_elbo_batched,
    fit_svi,
    make_optimizer,
)
from repro.errors import InferenceError
from repro.inference.vi import estimate_elbo
from repro.minipyro.infer.optim import Adam
from repro.models import get_benchmark
from tests.conftest import session_request

WEIGHT_POSTERIOR_MEAN = (8.5 / 1.0 + 9.5 / 0.5625) / (1.0 / 1.0 + 1.0 / 0.5625)
WEIGHT_POSTERIOR_STD = math.sqrt(1.0 / (1.0 / 1.0 + 1.0 / 0.5625))


class TestTransforms:
    @pytest.mark.parametrize("name", ["real", "positive", "unit"])
    @pytest.mark.parametrize("value", [0.25, 1.0e-3, 0.9])
    def test_scalar_round_trip(self, name, value):
        transform = get_transform(name)
        assert float(transform.forward(transform.inverse(np.asarray(value)))) == pytest.approx(
            value, rel=1e-9
        )

    def test_positive_forward_is_positive_and_stable(self):
        transform = get_transform("positive")
        u = np.array([-50.0, -1.0, 0.0, 1.0, 50.0, 800.0])
        c = transform.forward(u)
        assert np.all(c > 0.0)
        assert np.all(np.isfinite(c))
        # For large u, softplus(u) ~ u.
        assert float(c[-1]) == pytest.approx(800.0)

    def test_unit_forward_stays_inside_interval(self):
        transform = get_transform("unit")
        c = transform.forward(np.array([-40.0, 0.0, 40.0]))
        assert np.all((c > 0.0) & (c < 1.0))

    def test_simplex_round_trip_and_normalisation(self):
        transform = get_transform("simplex")
        weights = np.array([0.2, 0.5, 0.3])
        out = transform.forward(transform.inverse(weights))
        assert np.allclose(out, weights)
        assert float(out.sum()) == pytest.approx(1.0)

    def test_invalid_initialisations_rejected(self):
        with pytest.raises(InferenceError):
            get_transform("positive").inverse(np.asarray(-1.0))
        with pytest.raises(InferenceError):
            get_transform("unit").inverse(np.asarray(1.5))
        with pytest.raises(InferenceError):
            get_transform("simplex").inverse(np.asarray([0.5, -0.1]))
        with pytest.raises(InferenceError):
            get_transform("does-not-exist")


class TestParamStore:
    def test_guide_args_follow_declaration_order(self):
        store = store_from_inits({"b": 2.0, "a": 1.0})
        assert store.guide_args(("a", "b")) == (1.0, 2.0)

    def test_constrained_values_apply_transforms(self):
        store = store_from_inits({"scale": 2.5}, {"scale": "positive"})
        assert store.constrained("scale") == pytest.approx(2.5)
        # The optimiser-facing value is unconstrained (softplus inverse).
        assert float(store.unconstrained_dict()["scale"]) != pytest.approx(2.5)

    def test_vector_round_trip(self):
        store = store_from_inits({"loc": 1.0, "w": np.array([0.2, 0.3, 0.5])}, {"w": "simplex"})
        theta = store.vector()
        assert theta.size == store.size == 4
        clone = store.copy()
        clone.load_vector(theta + 0.0)
        assert np.allclose(clone.vector(), theta)

    def test_perturbed_touches_one_coordinate(self):
        store = store_from_inits({"loc": 1.0, "w": np.array([0.2, 0.8])}, {"w": "simplex"})
        bumped = store.perturbed("w", 1, 0.1)
        assert float(store.vector()[2]) == pytest.approx(float(bumped.vector()[2]) - 0.1)
        assert np.allclose(store.vector()[[0, 1]], bumped.vector()[[0, 1]])

    def test_missing_parameter_rejected(self):
        store = store_from_inits({"loc": 1.0})
        with pytest.raises(InferenceError):
            store.guide_args(("loc", "scale"))

    def test_constraint_for_unknown_parameter_rejected(self):
        with pytest.raises(InferenceError):
            store_from_inits({"loc": 1.0}, {"scalee": "positive"})

    def test_duplicate_registration_rejected(self):
        store = ParamStore()
        store.register("x", 1.0)
        with pytest.raises(InferenceError):
            store.register("x", 2.0)


class TestBatchedELBO:
    def test_matches_sequential_estimator_semantics(self):
        bench = get_benchmark("weight")
        model, guide = bench.model_program(), bench.guide_program()

        batched = estimate_elbo_batched(*session_request(
            model, guide, bench.model_entry, bench.guide_entry, obs_trace=(tr.ValP(9.5),),
            num_particles=4000, guide_args=(8.5, 0.0), seed=0,
        ))

        def family(theta):
            return guide, bench.guide_entry, (float(theta[0]), float(theta[1]))

        sequential = estimate_elbo(
            model, family, np.array([8.5, 0.0]), bench.model_entry,
            obs_trace=(tr.ValP(9.5),), num_particles=4000,
            rng=np.random.default_rng(1),
        )
        assert batched.num_particles == 4000
        assert batched.value == pytest.approx(sequential.value, abs=0.1)

    def test_elbo_bounded_by_log_evidence(self):
        bench = get_benchmark("weight")
        log_evidence = -0.5 * (9.5 - 8.5) ** 2 / 1.5625 - 0.5 * math.log(2 * math.pi * 1.5625)
        estimate = estimate_elbo_batched(*session_request(
            bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
            obs_trace=(tr.ValP(9.5),), num_particles=4000, guide_args=(8.5, 0.0), seed=2,
        ))
        assert estimate.value < log_evidence + 0.05


class TestFitSVI:
    def _fit(self, **kwargs):
        bench = get_benchmark("weight")
        store = store_from_inits({"loc": 8.5, "log_scale": 0.0})
        defaults = dict(num_steps=60, num_particles=64, seed=0)
        defaults.update(kwargs)
        return fit_svi(*session_request(
            bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
            obs_trace=(tr.ValP(9.5),), **defaults,
        ), store, optimizer=Adam(lr=0.1)), store

    def test_converges_to_conjugate_posterior(self):
        result, store = self._fit()
        fitted = result.fitted_params()
        assert fitted["loc"] == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.2)
        assert math.exp(fitted["log_scale"]) == pytest.approx(WEIGHT_POSTERIOR_STD, abs=0.2)
        assert result.num_steps == 60
        # The ELBO trend is upward (tail average beats head average).
        head = np.mean(result.elbo_history[:10])
        tail = np.mean(result.elbo_history[-10:])
        assert tail > head

    def test_rao_blackwellized_fit_also_converges(self):
        result, _ = self._fit(rao_blackwellize=True)
        assert result.fitted_params()["loc"] == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.2)

    def test_store_updated_in_place(self):
        result, store = self._fit(num_steps=5)
        assert result.store is store
        assert store.constrained("loc") != pytest.approx(8.5)

    def test_rejects_degenerate_particle_counts(self):
        bench = get_benchmark("weight")
        store = store_from_inits({"loc": 8.5, "log_scale": 0.0})
        with pytest.raises(InferenceError):
            fit_svi(*session_request(
                bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
                obs_trace=(tr.ValP(9.5),), num_steps=1, num_particles=1,
            ), store)

    def test_out_of_support_batches_do_not_move_parameters(self):
        # Gamma-supported latent, Normal guide centred at a negative value:
        # essentially every batch contains out-of-support proposals, and with
        # loc=-40 effectively *all* particles are out of support.
        model = parse_program(
            """
            proc M() consume latent provide obs {
              v <- sample.recv{latent}(Gamma(2.0, 1.0));
              _ <- sample.send{obs}(Normal(v, 1.0));
              return(v)
            }
            """
        )
        guide = parse_program(
            """
            proc G(loc: real) provide latent {
              v <- sample.send{latent}(Normal(loc, 1.0));
              return(v)
            }
            """
        )
        store = store_from_inits({"loc": -40.0})
        result = fit_svi(*session_request(
            model, guide, "M", "G", obs_trace=(tr.ValP(1.0),), num_steps=5, num_particles=16,
            seed=3,
        ), store)
        assert all(value == -math.inf for value in result.elbo_history)
        assert all(count == 16 for count in result.num_infinite_history)
        assert store.constrained("loc") == pytest.approx(-40.0)


class TestSVIEngines:
    def test_both_svi_engines_registered(self):
        assert {"svi", "svi-fd"} <= set(available_engines())

    def _weight_session(self):
        bench = get_benchmark("weight")
        return ProgramSession(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
        )

    def test_vectorized_engine_recovers_posterior_mean(self):
        session = self._weight_session()
        result = session.infer(
            "svi", num_particles=128, obs_values=(9.5,), seed=0,
            guide_params={"loc": 8.5, "log_scale": 0.0},
            num_steps=50, learning_rate=0.1, final_particles=4000,
        )
        assert result.posterior_mean(0) == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.15)
        diagnostics = result.diagnostics()
        assert diagnostics["engine"] == "svi"
        assert diagnostics["num_steps"] == 50
        assert diagnostics["elbo_history"][-1] > diagnostics["elbo_history"][0]
        assert set(diagnostics["fitted_params"]) == {"loc", "log_scale"}
        assert result.log_evidence() is not None
        assert result.effective_sample_size() > 100

    def test_finite_difference_engine_recovers_posterior_mean(self):
        session = self._weight_session()
        result = session.infer(
            "svi-fd", num_particles=8, obs_values=(9.5,), seed=0,
            guide_params={"loc": 8.5, "log_scale": 0.0},
            num_steps=40, learning_rate=0.2, final_particles=4000,
        )
        assert result.posterior_mean(0) == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.35)
        assert result.diagnostics()["engine"] == "svi-fd"

    def test_fixed_guide_without_params_degenerates_to_reweighting(self):
        bench = get_benchmark("coin")
        session = ProgramSession(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
        )
        result = session.infer(
            "svi", num_particles=4000,
            obs_values=(True, True, False, True, True), seed=0,
        )
        # Beta(2,2) prior and 4/5 successes: posterior Beta(6, 3), mean 2/3.
        assert result.posterior_mean(0) == pytest.approx(2.0 / 3.0, abs=0.05)
        assert result.diagnostics()["num_steps"] == 0

    def test_incomplete_guide_params_rejected(self):
        session = self._weight_session()
        with pytest.raises(InferenceError):
            session.infer(
                "svi", obs_values=(9.5,), guide_params={"loc": 8.5}, num_steps=1,
            )
        with pytest.raises(InferenceError):
            session.infer(
                "svi", obs_values=(9.5,),
                guide_params={"loc": 8.5, "log_scale": 0.0, "typo": 1.0}, num_steps=1,
            )

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(InferenceError):
            make_optimizer("lbfgs", 0.1)

    def test_non_positive_final_particles_rejected(self):
        session = self._weight_session()
        for engine in ("svi", "svi-fd"):
            with pytest.raises(InferenceError, match="final_particles"):
                session.infer(
                    engine, obs_values=(9.5,), final_particles=0,
                    guide_params={"loc": 8.5, "log_scale": 0.0}, num_steps=0,
                )

    def test_finite_difference_engine_rejects_rao_blackwellize(self):
        session = self._weight_session()
        with pytest.raises(InferenceError, match="rao_blackwellize"):
            session.infer(
                "svi-fd", obs_values=(9.5,), rao_blackwellize=True,
                guide_params={"loc": 8.5, "log_scale": 0.0}, num_steps=1,
            )

    def test_finite_difference_engine_honours_optimizer_choice(self):
        """`svi-fd` must thread request.optimizer through, not silently run

        the legacy decayed ascent: identical seeds with different optimisers
        have to produce different fitted parameters.
        """
        session = self._weight_session()
        fitted = {}
        for optimizer in ("adam", "sgd"):
            result = session.infer(
                "svi-fd", num_particles=8, obs_values=(9.5,), seed=3,
                guide_params={"loc": 8.5, "log_scale": 0.0},
                num_steps=10, learning_rate=0.1, optimizer=optimizer,
                final_particles=10,
            )
            fitted[optimizer] = result.diagnostics()["fitted_params"]["loc"]
        assert fitted["adam"] != pytest.approx(fitted["sgd"], abs=1e-9)

    def test_branch_dependent_model_with_parameterized_guide(self):
        """The paper's Fig. 5 pair with the parameterized VI guide (Guide2).

        Exercises gradient estimation across *multiple control-flow groups*:
        particles split at the model's branch, and every group is rescored
        separately at the perturbed parameters.  The fitted guide must both
        raise the ELBO and become a sharper importance proposal than the
        prior-like initialisation.
        """
        from repro.models.library import EX1_GUIDE_VI_SOURCE

        bench = get_benchmark("ex-1")
        session = ProgramSession(
            bench.model_program(), parse_program(EX1_GUIDE_VI_SOURCE),
            bench.model_entry, "Guide2",
        )
        assert session.certified
        result = session.infer(
            "svi", num_particles=256, obs_values=(0.8,), seed=0,
            guide_params={"t1": 0.0, "t2": 0.0, "t3": 0.0, "t4": 0.0},
            num_steps=30, learning_rate=0.1, final_particles=4000,
        )
        diagnostics = result.diagnostics()
        assert diagnostics["elbo_history"][-1] > diagnostics["elbo_history"][0] + 0.5
        # Posterior mean of @x agrees with the IS reference (Fig. 2: ~2.8).
        assert result.posterior_mean(0) == pytest.approx(2.8, abs=0.3)
        # The fitted guide is a far better proposal than 4000 prior draws
        # would be: most of the final pass's particles carry real weight.
        assert result.effective_sample_size() > 1000

    def test_positive_constraint_through_engine(self):
        from repro.models import WEIGHT_GUIDE_POSITIVE_SOURCE

        bench = get_benchmark("weight")
        session = ProgramSession(
            bench.model_program(), parse_program(WEIGHT_GUIDE_POSITIVE_SOURCE),
            bench.model_entry, "WeighGuideP",
        )
        result = session.infer(
            "svi", num_particles=128, obs_values=(9.5,), seed=0,
            guide_params={"loc": 8.5, "scale": 1.0},
            param_constraints={"scale": "positive"},
            num_steps=50, learning_rate=0.1, final_particles=4000,
        )
        fitted = result.diagnostics()["fitted_params"]
        assert fitted["scale"] > 0.0
        assert result.posterior_mean(0) == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.15)

"""The inference-engine registry, SMC engine, and program sessions."""

import math

import numpy as np
import pytest

from repro.core.semantics import traces as tr
from repro.engine import (
    InferenceRequest,
    ProgramSession,
    available_engines,
    clear_session_cache,
    get_engine,
    smc,
)
from repro.engine.smc import systematic_resample
from repro.errors import InferenceError
from repro.models import get_benchmark
from repro.utils.numerics import sum_rows
from tests.conftest import session_request

#: Conjugate normal-normal posterior mean for the "weight" model at y = 9.5.
WEIGHT_POSTERIOR_MEAN = (8.5 / 1.0 + 9.5 / 0.5625) / (1.0 / 1.0 + 1.0 / 0.5625)


@pytest.fixture(autouse=True)
def _fresh_session_cache():
    clear_session_cache()
    yield
    clear_session_cache()


@pytest.fixture
def ex1_session():
    bench = get_benchmark("ex-1")
    return ProgramSession.from_sources(bench.model_source, bench.guide_source)


class TestRegistry:
    def test_all_engines_registered(self):
        assert {"is", "is-sequential", "smc", "mh"} <= set(available_engines())

    def test_unknown_engine_raises(self):
        with pytest.raises(InferenceError, match="unknown inference engine"):
            get_engine("does-not-exist")

    def test_every_engine_estimates_the_fig2_posterior(self, ex1_session):
        means = {}
        for engine in ["is", "is-sequential", "smc", "mh"]:
            result = ex1_session.infer(
                engine, num_particles=2000, obs_values=[0.8], seed=0
            )
            means[engine] = result.posterior_mean(0)
        # All engines target the same posterior (mean ~2.8, prior mean 2.0).
        for engine, mean in means.items():
            assert mean > 2.2, (engine, mean)
            assert abs(mean - means["is"]) < 0.35, (engine, means)

    def test_request_object_and_kwargs_are_exclusive(self, ex1_session):
        request = InferenceRequest(num_particles=10, obs_values=[0.8])
        with pytest.raises(InferenceError):
            ex1_session.infer("is", request=request, num_particles=20)


class TestProgramSession:
    def test_from_sources_is_cached(self):
        bench = get_benchmark("ex-1")
        first = ProgramSession.from_sources(bench.model_source, bench.guide_source)
        second = ProgramSession.from_sources(bench.model_source, bench.guide_source)
        assert first is second

    def test_certified_pair(self, ex1_session):
        assert ex1_session.certified
        assert ex1_session.certification_reason is None
        ex1_session.require_certified()
        assert ex1_session.model_entry == "Model"
        assert ex1_session.guide_entry == "Guide1"

    def test_uncertified_pair_reports_reason(self):
        bench = get_benchmark("ex-1")
        from repro.models.library import EX1_GUIDE_UNSOUND_IS_SOURCE

        session = ProgramSession.from_sources(
            bench.model_source, EX1_GUIDE_UNSOUND_IS_SOURCE
        )
        assert not session.certified
        assert session.certification_reason
        with pytest.raises(InferenceError, match="not certified"):
            session.require_certified()

    def test_typecheck_can_be_skipped(self):
        bench = get_benchmark("ex-1")
        session = ProgramSession.from_sources(
            bench.model_source, bench.guide_source, typecheck=False
        )
        assert session.check is None
        with pytest.raises(InferenceError, match="skipped typechecking"):
            session.require_certified()

    def test_obs_trace_takes_precedence_over_values(self):
        request = InferenceRequest(obs_values=[1.0], obs_trace=(tr.ValP(2.0),))
        assert request.resolved_obs_trace() == (tr.ValP(2.0),)
        assert InferenceRequest(obs_values=[1.0]).resolved_obs_trace() == (tr.ValP(1.0),)
        assert InferenceRequest().resolved_obs_trace() is None


class TestRequestScreen:
    """A request refuses any field no run could use when it is built, so
    in-process callers meet the wire's screen."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_particles", 0, "num_particles"), ("workers", 0, "workers"),
            ("shards", 1.5, "shards"), ("backend", "gpu", "backend"),
            ("seed", -1, "seed"), ("seed", True, "seed"), ("seed", "abc", "seed"),
            ("model_args", 5, "model_args"), ("guide_args", "x", "guide_args"),
            ("obs_values", 3, "obs_values"), ("ess_threshold", -0.5, "ess_threshold"),
            ("rejuvenate", "no", "rejuvenate"), ("num_chains", 0, "num_chains"),
            ("burn_in", -1, "burn_in"), ("num_steps", -1, "num_steps"),
            ("optimizer", "nope", "optimizer"), ("learning_rate", 0.0, "learning_rate"),
            ("guide_params", 5, "guide_params"),
            ("param_constraints", {"loc": "nope"}, "constraint"),
            ("param_constraints", {"loc": []}, "constraint"), ("optimizer", [], "optimizer"),
            ("score_epsilon", float("inf"), "score_epsilon"),
            ("final_particles", 0, "final_particles"),
        ],
        ids=repr,
    )
    def test_unusable_fields_are_refused_at_construction(self, field, value, message):
        with pytest.raises(InferenceError, match=message):
            InferenceRequest(**{field: value})

    def test_in_process_values_are_admitted(self):
        request = InferenceRequest(
            seed=np.random.default_rng(0), obs_values=np.array([0.5, 1.0]),
            obs_trace=(tr.ValP(1.0),), model_args=[1.0], num_steps=0,
        )
        assert request.resolved_obs_trace() == (tr.ValP(1.0),)

    def test_engines_meet_the_screen_in_process(self, ex1_session):
        with pytest.raises(InferenceError, match="num_chains"):
            ex1_session.infer("mh", num_chains=0, obs_values=[0.8])
        with pytest.raises(InferenceError, match="seed"):
            ex1_session.infer("is", seed=-1, obs_values=[0.8])


class TestSMC:
    def test_recovers_conjugate_posterior(self):
        bench = get_benchmark("weight")
        result = smc(*session_request(
            bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
            obs_trace=(tr.ValP(9.5),), num_particles=4000, guide_args=(8.5, 0.0), seed=0,
        ))
        assert result.posterior_mean(0) == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.15)
        assert math.isfinite(result.log_evidence())

    def test_multi_step_annealing_resamples_on_ess_collapse(self):
        bench = get_benchmark("kalman")
        obs_trace = tuple(tr.ValP(v) for v in bench.obs_values)
        result = smc(*session_request(
            bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=1500, ess_threshold=0.9, seed=0,
        ))
        assert len(result.ess_history) == len(bench.obs_values)
        assert result.resample_steps, "a 0.9 ESS threshold must trigger resampling"
        assert len(result.rejuvenation_rates) == len(result.resample_steps)
        # Pointwise agreement with importance sampling on the same pair.
        from repro.inference import importance_sampling

        reference = importance_sampling(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_samples=4000, rng=np.random.default_rng(1),
        )
        assert result.posterior_mean(3) == pytest.approx(
            reference.posterior_expectation_of_site(3), abs=0.3
        )

    def test_rejuvenation_can_be_disabled(self):
        bench = get_benchmark("kalman")
        obs_trace = tuple(tr.ValP(v) for v in bench.obs_values)
        result = smc(*session_request(
            bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=500, ess_threshold=0.9, rejuvenate=False, seed=0,
        ))
        assert result.rejuvenation_rates == []

    def test_branch_dependent_observation_counts_are_handled(self):
        """Regression: rejuvenation used to crash (or silently broadcast) when
        a proposal run's obs-score matrix had a different width than the
        current population's — which happens whenever the number of observe
        statements depends on a latent branch."""
        from repro.core.parser import parse_program

        model = parse_program(
            """
            proc M() consume latent provide obs {
              gate <- sample.recv{latent}(Ber(0.5));
              _ <- sample.send{obs}(Normal(0.0, 1.0));
              if gate {
                observe(Normal(0.0, 1.0), 0.3);
                observe(Normal(0.0, 1.0), 0.4);
                return(gate)
              } else {
                return(gate)
              }
            }
            """
        )
        guide = parse_program(
            """
            proc G() provide latent {
              gate <- sample.send{latent}(Ber(0.5));
              return(gate)
            }
            """
        )
        for seed in range(4):
            try:
                result = smc(*session_request(
                    model, guide, "M", "G", obs_trace=(tr.ValP(0.1),), num_particles=16,
                    ess_threshold=1.01, seed=seed,
                ))
            except InferenceError as err:
                # A proposal path revealed more steps than the schedule: the
                # engine must refuse loudly, never broadcast-corrupt weights.
                assert "branch-dependent" in str(err)
            else:
                assert math.isfinite(result.log_evidence())

    def test_requires_observations(self):
        bench = get_benchmark("ex-1")
        with pytest.raises(InferenceError, match="non-empty observation trace"):
            smc(*session_request(
                bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
                obs_trace=None, num_particles=10,
            ))

    def test_log_evidence_matches_importance_sampling(self):
        bench = get_benchmark("ex-1")
        obs_trace = (tr.ValP(0.8),)
        result = smc(*session_request(
            bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=4000, seed=2,
        ))
        from repro.inference import importance_sampling

        reference = importance_sampling(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_samples=4000, rng=np.random.default_rng(3),
        )
        assert result.log_evidence() == pytest.approx(reference.log_evidence(), abs=0.2)


class TestSystematicResample:
    def test_concentrated_weights_select_the_heavy_particle(self):
        weights = np.asarray([0.0, 0.0, 1.0, 0.0])
        indices = systematic_resample(weights, np.random.default_rng(0))
        assert np.all(indices == 2)

    def test_uniform_weights_cover_all_particles(self):
        weights = np.full(8, 1.0 / 8.0)
        indices = systematic_resample(weights, np.random.default_rng(0))
        assert sorted(indices) == list(range(8))

    @staticmethod
    def _searchsorted_resample(weights, rng):
        """The binary-search formulation the linear-time resampler must equal."""
        n = len(weights)
        positions = (rng.random() + np.arange(n)) / n
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        return np.searchsorted(cumulative, positions)

    @staticmethod
    def _normalized(log_weights):
        weights = np.exp(log_weights - np.max(log_weights))
        return weights / weights.sum()

    def _adversarial_weights(self):
        gen = np.random.default_rng(11)
        yield np.ones(1)
        for n in (2, 3, 7, 64, 1000, 20000, 50000):
            one_hot = np.zeros(n)
            one_hot[gen.integers(n)] = 1.0
            yield one_hot
            sparse = np.where(gen.random(n) < 0.05, gen.random(n), 0.0)
            sparse[0] += 1e-3
            yield sparse / sparse.sum()
            yield np.full(n, 1.0 / n)
            yield self._normalized(gen.standard_normal(n) * 1e-12)  # near-uniform
            yield self._normalized(gen.standard_normal(n))
            yield self._normalized(-gen.standard_cauchy(n) ** 2)  # heavy-tailed
        for n in (2, 5, 300, 4000):
            # The cumulative sum reaches past 1.0 before its last entry.
            for trial in range(50):
                weights = gen.random(n)
                weights /= weights.sum()
                weights[-1] = 0.0
                weights[gen.integers(n - 1)] += 1e-15 * (trial + 1)
                yield weights

    def test_linear_time_resampler_equals_binary_search(self):
        overshoots = 0
        for case, weights in enumerate(self._adversarial_weights()):
            overshoots += bool(np.cumsum(weights)[:-1].max(initial=0.0) > 1.0)
            for seed in range(3):
                expected = self._searchsorted_resample(weights, np.random.default_rng(seed))
                got = systematic_resample(weights, np.random.default_rng(seed))
                assert got.dtype == expected.dtype, case
                assert np.array_equal(got, expected), (case, len(weights), seed)
        assert overshoots > 0  # the overshooting cumulative sums were exercised

    def test_cumulative_sums_on_the_positions(self):
        """Cumulative weights equal to a position, or one or two ulps beside
        it, where a rounded count of the positions below is off by one."""
        gen = np.random.default_rng(12)
        for trial in range(60):
            n, seed = int(gen.integers(2, 400)), trial % 3
            u = np.random.default_rng(seed).random()
            positions = (u + np.arange(n)) / n
            cumulative = positions[np.sort(gen.choice(n, size=n - 1))]
            for _ in range(2):
                step = gen.integers(-1, 2, size=n - 1)
                toward = np.where(step > 0, np.inf, -np.inf)
                cumulative = np.where(step == 0, cumulative, np.nextafter(cumulative, toward))
            cumulative = np.append(np.maximum.accumulate(np.clip(cumulative, 0.0, 1.0)), 1.0)
            weights = np.diff(cumulative, prepend=0.0)
            expected = self._searchsorted_resample(weights, np.random.default_rng(seed))
            got = systematic_resample(weights, np.random.default_rng(seed))
            assert np.array_equal(got, expected), (trial, n, seed)

    def test_a_zero_draw_puts_positions_on_cumulative_sums(self):
        class ZeroDraw:
            def random(self):
                return 0.0

        for n in (1, 2, 3, 10, 1000):
            for weights in (np.full(n, 1.0 / n), np.eye(n)[0], np.eye(n)[-1]):
                expected = self._searchsorted_resample(weights, ZeroDraw())
                assert np.array_equal(systematic_resample(weights, ZeroDraw()), expected), n


class TestSumRows:
    """``sum_rows`` adds whole rows in NumPy's row-sum order, bit for bit."""

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    def test_matches_numpy_row_sums_bitwise(self):
        gen = np.random.default_rng(5)
        n = 37
        for k in list(range(0, 301)) + [513]:
            rows = gen.standard_normal((k, n)) * np.exp(gen.uniform(-40.0, 40.0, (k, n)))
            rows[gen.random((k, n)) < 0.05] = -np.inf
            rows[gen.random((k, n)) < 0.05] = -0.0
            rows[:, 0] = -0.0  # a column of negative zeros keeps NumPy's zero start
            expected = np.ascontiguousarray(rows.T).sum(axis=1)
            for layout in (rows, np.asfortranarray(rows)):  # contiguous and strided rows
                assert np.array_equal(self._bits(sum_rows(layout)), self._bits(expected)), k


class TestObsScoreRows:
    """The step-major ``(T, n)`` observation scores SMC tempers over."""

    def test_jump_rows_scatter_every_leaf(self):
        from repro.engine.backend import make_particle_runner

        bench = get_benchmark("jump")
        session = ProgramSession.from_sources(bench.model_source, bench.guide_source)
        runner = make_particle_runner(session, InferenceRequest(
            obs_trace=tuple(tr.ValP(v) for v in bench.obs_values), backend="compiled",
        ))
        run = runner.run(20000, np.random.default_rng(2))
        assert len(run.leaves) == 32
        rows = run.obs_score_rows()
        assert rows.shape == (len(bench.obs_values), 20000)
        assert rows.flags.c_contiguous
        for leaf in run.leaves:
            assert len(leaf.obs_scores) == len(bench.obs_values)
            for t, scores in enumerate(leaf.obs_scores):
                assert np.array_equal(rows[t, leaf.indices], scores)

    def test_paths_with_fewer_observations_score_zero(self):
        from repro.core.parser import parse_program
        from repro.engine.vectorize import ParticleVectorizer

        model = parse_program(
            """
            proc M() consume latent provide obs {
              gate <- sample.recv{latent}(Ber(0.5));
              _ <- sample.send{obs}(Normal(0.0, 1.0));
              if gate {
                observe(Normal(0.0, 1.0), 0.3);
                observe(Normal(0.0, 1.0), 0.4);
                return(gate)
              } else {
                return(gate)
              }
            }
            """
        )
        guide = parse_program(
            """
            proc G() provide latent {
              gate <- sample.send{latent}(Ber(0.5));
              return(gate)
            }
            """
        )
        run = ParticleVectorizer(model, guide, "M", "G", obs_trace=(tr.ValP(0.1),)).run(
            200, np.random.default_rng(0)
        )
        rows = run.obs_score_rows()
        assert rows.shape == (3, 200)
        assert sorted(len(leaf.obs_scores) for leaf in run.leaves) == [1, 3]
        for leaf in run.leaves:
            for t in range(3):
                if t < len(leaf.obs_scores):
                    assert np.array_equal(rows[t, leaf.indices], leaf.obs_scores[t])
                else:
                    assert np.all(rows[t, leaf.indices] == 0.0)


class TestParallelMH:
    def test_pooled_chains_recover_conjugate_posterior(self):
        bench = get_benchmark("weight")
        session = ProgramSession.from_sources(bench.model_source, bench.guide_source)
        result = session.infer(
            "mh",
            num_particles=4000,
            num_chains=4,
            burn_in=150,
            obs_values=[9.5],
            seed=0,
            guide_args=(9.0, 0.0),
        )
        assert result.posterior_mean(0) == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.2)
        diagnostics = result.diagnostics()
        assert diagnostics["num_chains"] == 4
        assert all(0.0 < rate <= 1.0 for rate in diagnostics["acceptance_rates"])
        assert diagnostics["gelman_rubin_site0"] == pytest.approx(1.0, abs=0.2)

"""Tests for the primitive-distribution substrate."""

import math

import numpy as np
import pytest
import scipy.special
from scipy import stats

from repro.core import ast
from repro.core import types as ty
from repro.core.parser import parse_program
from repro.dists import (
    Bernoulli,
    Beta,
    Categorical,
    Gamma,
    Geometric,
    Normal,
    Poisson,
    Uniform01,
    make_distribution,
)
from repro.dists import special
from repro.dists.continuous import TruncatedNormal
from repro.dists.discrete import Delta
from repro.engine import ProgramSession
from repro.errors import EvaluationError
from repro.models import get_benchmark

RNG = np.random.default_rng(7)

ALL_DISTS = [
    Normal(0.3, 1.2),
    Gamma(2.0, 1.5),
    Beta(2.0, 3.0),
    Uniform01(),
    Bernoulli(0.3),
    Categorical([1.0, 2.0, 3.0]),
    Geometric(0.4),
    Poisson(2.5),
]


class TestLogProbAgainstScipy:
    def test_normal(self):
        d = Normal(1.0, 2.0)
        for x in [-3.0, 0.0, 1.0, 4.5]:
            assert d.log_prob(x) == pytest.approx(stats.norm.logpdf(x, 1.0, 2.0))

    def test_gamma(self):
        d = Gamma(2.5, 1.5)
        for x in [0.1, 1.0, 3.7]:
            assert d.log_prob(x) == pytest.approx(
                stats.gamma.logpdf(x, 2.5, scale=1.0 / 1.5)
            )

    def test_beta(self):
        d = Beta(2.0, 5.0)
        for x in [0.1, 0.5, 0.9]:
            assert d.log_prob(x) == pytest.approx(stats.beta.logpdf(x, 2.0, 5.0))

    def test_uniform(self):
        d = Uniform01()
        assert d.log_prob(0.3) == 0.0
        assert d.log_prob(1.3) == -math.inf

    def test_bernoulli(self):
        d = Bernoulli(0.3)
        assert d.log_prob(True) == pytest.approx(math.log(0.3))
        assert d.log_prob(False) == pytest.approx(math.log(0.7))

    def test_categorical(self):
        d = Categorical([1.0, 1.0, 2.0])
        assert d.log_prob(2) == pytest.approx(math.log(0.5))
        assert d.log_prob(0) == pytest.approx(math.log(0.25))

    def test_geometric(self):
        d = Geometric(0.4)
        for k in [0, 1, 5]:
            assert d.log_prob(k) == pytest.approx(stats.geom.logpmf(k + 1, 0.4))

    def test_poisson(self):
        d = Poisson(2.5)
        for k in [0, 2, 7]:
            assert d.log_prob(k) == pytest.approx(stats.poisson.logpmf(k, 2.5))

    def test_truncated_normal(self):
        d = TruncatedNormal(0.0, 1.0, 0.0, 2.0)
        assert d.log_prob(1.0) == pytest.approx(
            stats.truncnorm.logpdf(1.0, 0.0, 2.0, loc=0.0, scale=1.0)
        )
        assert d.log_prob(3.0) == -math.inf


class TestSupport:
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.name)
    def test_samples_lie_in_support(self, dist):
        rng = np.random.default_rng(42)
        for _ in range(200):
            value = dist.sample(rng)
            assert dist.in_support(value)
            assert dist.log_prob(value) > -math.inf

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.name)
    def test_support_matches_declared_support_type(self, dist):
        rng = np.random.default_rng(43)
        for _ in range(100):
            value = dist.sample(rng)
            assert ty.value_has_type(value, dist.support_type)

    @pytest.mark.parametrize(
        "dist,bad_value",
        [
            (Gamma(2.0, 1.0), -0.5),
            (Gamma(2.0, 1.0), 0.0),
            (Beta(2.0, 2.0), 1.0),
            (Uniform01(), 0.0),
            (Bernoulli(0.5), 1),
            (Categorical([1.0, 1.0]), 2),
            (Geometric(0.5), -1),
            (Poisson(1.0), 2.5),
            (Normal(0.0, 1.0), float("nan")),
        ],
    )
    def test_out_of_support_values(self, dist, bad_value):
        assert not dist.in_support(bad_value)
        assert dist.log_prob(bad_value) == -math.inf
        assert dist.prob(bad_value) == 0.0

    def test_booleans_are_not_numbers(self):
        assert not Normal(0.0, 1.0).in_support(True)
        assert not Poisson(1.0).in_support(False)

    def test_integral_floats_accepted_by_discrete_dists(self):
        assert Poisson(1.0).in_support(3.0)
        assert Geometric(0.5).in_support(2.0)


class TestMoments:
    def test_sample_means(self):
        rng = np.random.default_rng(3)
        for dist in [Normal(2.0, 1.0), Gamma(3.0, 2.0), Beta(2.0, 2.0), Poisson(4.0)]:
            samples = [dist.sample(rng) for _ in range(4000)]
            assert float(np.mean(samples)) == pytest.approx(dist.expected_value(), abs=0.15)

    def test_bernoulli_mean(self):
        rng = np.random.default_rng(4)
        samples = [Bernoulli(0.3).sample(rng) for _ in range(4000)]
        assert float(np.mean(samples)) == pytest.approx(0.3, abs=0.03)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: Normal(0.0, 0.0),
            lambda: Normal(float("nan"), 1.0),
            lambda: Gamma(-1.0, 1.0),
            lambda: Beta(0.0, 1.0),
            lambda: Bernoulli(1.5),
            lambda: Geometric(0.0),
            lambda: Poisson(-2.0),
            lambda: Categorical([]),
            lambda: Categorical([1.0, -1.0]),
            lambda: TruncatedNormal(0.0, 1.0, 2.0, 1.0),
        ],
    )
    def test_invalid_parameters_rejected(self, builder):
        with pytest.raises(ValueError):
            builder()

    def test_equality_and_hash(self):
        assert Normal(0.0, 1.0) == Normal(0.0, 1.0)
        assert Normal(0.0, 1.0) != Normal(0.0, 2.0)
        assert hash(Beta(1.0, 2.0)) == hash(Beta(1.0, 2.0))
        assert Normal(0.0, 1.0) != Gamma(1.0, 1.0)

    def test_repr_contains_parameters(self):
        assert "2.0" in repr(Gamma(2.0, 1.0))


class TestDelta:
    def test_point_mass(self):
        d = Delta(3.0)
        assert d.log_prob(3.0) == 0.0
        assert d.log_prob(2.0) == -math.inf
        assert d.sample(RNG) == 3.0


class TestFactory:
    @pytest.mark.parametrize(
        "kind,args,expected",
        [
            (ast.DistKind.NORMAL, (0.0, 1.0), Normal(0.0, 1.0)),
            (ast.DistKind.GAMMA, (2.0, 1.0), Gamma(2.0, 1.0)),
            (ast.DistKind.BETA, (1.0, 1.0), Beta(1.0, 1.0)),
            (ast.DistKind.UNIF, (), Uniform01()),
            (ast.DistKind.BER, (0.5,), Bernoulli(0.5)),
            (ast.DistKind.CAT, (1.0, 2.0), Categorical([1.0, 2.0])),
            (ast.DistKind.GEO, (0.5,), Geometric(0.5)),
            (ast.DistKind.POIS, (3.0,), Poisson(3.0)),
        ],
    )
    def test_make_distribution(self, kind, args, expected):
        assert make_distribution(kind, args) == expected

    def test_factory_rejects_bad_arity(self):
        with pytest.raises(EvaluationError):
            make_distribution(ast.DistKind.NORMAL, (1.0,))

    def test_factory_rejects_bad_values(self):
        with pytest.raises(EvaluationError):
            make_distribution(ast.DistKind.GAMMA, (-1.0, 1.0))


def _hexes(value):
    return [float(v).hex() for v in np.ravel(value)]


class TestGammaln:
    """``repro.dists.special.gammaln`` answers scalar integers 1-12 from its
    table and everything else through scipy, equal to
    ``scipy.special.gammaln`` bit for bit and in type either way."""

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("kind", [float, np.float64, int])
    def test_table_matches_scipy(self, k, kind):
        x = kind(k)
        want = scipy.special.gammaln(x)
        got = special.gammaln(x)
        assert special.in_table(x)
        assert type(got) is type(want) is np.float64
        assert float(got).hex() == float(want).hex()

    @pytest.mark.parametrize(
        "x",
        [
            np.arange(1.0, 13.0),
            np.array([0.5, 2.0, 12.5, 13.0]),
            np.array(3.0),
            0.5, 12.5, 13.0, 13, 0.0, 0, -1.0, -1, -2.5, 1e300,
            math.nan, math.inf, -math.inf, np.float32(3.0), True,
        ],
        ids=repr,
    )
    def test_other_arguments_go_to_scipy(self, x):
        want = scipy.special.gammaln(x)
        got = special.gammaln(x)
        assert not special.in_table(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert _hexes(got) == _hexes(want)

    @staticmethod
    def _pair(dist: str):
        body = "x <- sample.{}{{latent}}(" + dist + "); return(x)"
        return (
            parse_program("proc M() consume latent { " + body.format("recv") + " }"),
            parse_program("proc G() provide latent { " + body.format("send") + " }"),
        )

    @pytest.mark.parametrize(
        "dist,leaves",
        [
            ("Beta(2.0, 2.0)", False),
            ("Beta(2, 10)", False),
            ("Gamma(12.0, 0.5)", False),
            ("Normal(0.0, 1.0)", False),
            ("Beta(6.0, 7.0)", True),  # gammaln(alpha + beta) = gammaln(13)
            ("Beta(0.5, 2.0)", True),
            ("Gamma(12.5, 1.0)", True),
            ("Gamma(2.0 * 1.0, 1.0)", True),  # no number literal
            ("Pois(3.0)", True),
        ],
    )
    def test_a_pair_leaves_the_table_through_its_gammaln_arguments(self, dist, leaves):
        assert special.leaves_table(self._pair(dist)) is leaves

    @pytest.mark.parametrize(
        "name", ["lr", "aircraft", "ex-1", "gp-dsl", "coin", "jump", "seasonal", "branching"]
    )
    def test_only_a_pair_that_leaves_the_table_calls_scipy(self, name, monkeypatch):
        """Every library pair with a Gamma or Beta site: one the predicate
        keeps inside the table never reaches scipy on either backend."""
        calls = []
        real = scipy.special.gammaln

        def counting(x):
            calls.append(x)
            return real(x)

        bench = get_benchmark(name)
        session = ProgramSession.from_sources(
            bench.model_source, bench.guide_source,
            model_entry=bench.model_entry, guide_entry=bench.guide_entry,
        )
        monkeypatch.setattr(scipy.special, "gammaln", counting)
        for backend in ("interp", "compiled"):
            for engine in ("is", "smc"):
                session.infer(
                    engine, num_particles=100, seed=1, backend=backend,
                    obs_values=list(bench.obs_values),
                    guide_args=tuple(bench.guide_param_inits.values()),
                )
        leaves = special.leaves_table((session.model_program, session.guide_program))
        assert leaves is (name == "branching")
        assert bool(calls) is leaves

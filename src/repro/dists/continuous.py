"""Continuous primitive distributions: Normal, Gamma, Beta, Uniform(0,1)."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from repro.core import ast
from repro.core import types as ty
from repro.dists.base import Distribution, as_float_batch, is_real_number

LOG_2PI = math.log(2.0 * math.pi)


# -- batched log-density kernels ------------------------------------------------
#
# One implementation per family, shared by the scalar-parameter batch methods
# below and by the engine's per-particle-parameter BatchedDist: parameters may
# be Python scalars or arrays broadcasting against the value batch.  Values
# outside the support map to -inf, mirroring the scalar ``log_prob`` exactly.


def normal_log_prob_kernel(mean, stddev, x: np.ndarray) -> np.ndarray:
    ok = np.isfinite(x)
    with np.errstate(over="ignore"):
        z = (np.where(ok, x, 0.0) - mean) / stddev
        lp = -0.5 * z * z - np.log(stddev) - 0.5 * LOG_2PI
    return np.where(ok, lp, -np.inf)


# -- in-bounds kernels -----------------------------------------------------------
#
# Each ``*_log_prob_inbounds`` function computes exactly what the masked
# kernel above it computes *when every value is in the support*: the masking
# ``np.where(ok, x, neutral)`` passes ``x`` through unchanged and the final
# ``np.where(ok, lp, -inf)`` passes ``lp`` through unchanged, so dropping
# both is a pure strength reduction with bitwise-identical results (the
# arithmetic expressions keep the masked kernels' association order).  The
# compiled batched backend calls these when the value's provenance (the
# family that sampled it) proves support membership; anything else must go
# through the masked kernel.  Each family's record in
# :data:`repro.dists.FAMILIES` pairs the two, and
# ``test_inbounds_score_helpers_match_batched_dist`` in
# ``tests/test_fused_codegen.py`` pins their bitwise agreement on in-support
# draws, per family.  Unlike the masked kernels these enter no
# ``np.errstate`` context of their own — the compiled kernels hold one
# ``errstate(over="ignore")`` for the whole run (a per-call context was
# measurably hot at fine-grained control-flow groups), and errstate only
# affects warning emission, never values.


def normal_log_prob_inbounds(mean, stddev, x: np.ndarray) -> np.ndarray:
    """``normal_log_prob_kernel`` for values known to be finite reals."""
    z = (x - mean) / stddev
    return -0.5 * z * z - np.log(stddev) - 0.5 * LOG_2PI


def gamma_log_prob_inbounds(shape, rate, x: np.ndarray) -> np.ndarray:
    """``gamma_log_prob_kernel`` for values known to be finite and positive."""
    return shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x


def beta_log_prob_inbounds(alpha, beta, x: np.ndarray) -> np.ndarray:
    """``beta_log_prob_kernel`` for values known to lie in the open (0, 1)."""
    log_beta_fn = gammaln(alpha) + gammaln(beta) - gammaln(alpha + beta)
    return (alpha - 1.0) * np.log(x) + (beta - 1.0) * np.log1p(-x) - log_beta_fn


def uniform01_log_prob_inbounds(x: np.ndarray) -> np.ndarray:
    """``uniform01_log_prob_kernel`` for values known to lie in the open (0, 1)."""
    return np.zeros(np.shape(x))


def gamma_log_prob_kernel(shape, rate, x: np.ndarray) -> np.ndarray:
    ok = np.isfinite(x) & (x > 0.0)
    v = np.where(ok, x, 1.0)
    with np.errstate(over="ignore"):
        lp = shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(v) - rate * v
    return np.where(ok, lp, -np.inf)


def beta_log_prob_kernel(alpha, beta, x: np.ndarray) -> np.ndarray:
    ok = (x > 0.0) & (x < 1.0)
    v = np.where(ok, x, 0.5)
    log_beta_fn = gammaln(alpha) + gammaln(beta) - gammaln(alpha + beta)
    lp = (alpha - 1.0) * np.log(v) + (beta - 1.0) * np.log1p(-v) - log_beta_fn
    return np.where(ok, lp, -np.inf)


def uniform01_log_prob_kernel(x: np.ndarray) -> np.ndarray:
    return np.where((x > 0.0) & (x < 1.0), 0.0, -np.inf)


# -- array samplers --------------------------------------------------------------
#
# One per family, ``draw(rng, n, *params)``: parameters may be Python scalars
# or ``(n,)`` arrays, which NumPy's generators treat identically lane for
# lane.  The scalar classes' ``sample_n`` call these; the engine's
# ``BatchedDist`` and the compiled kernels call them through the family
# records of :mod:`repro.dists.families`, so every backend consumes the RNG
# stream the same way.


def normal_draw(rng: np.random.Generator, n: int, mean, stddev) -> np.ndarray:
    if isinstance(mean, np.ndarray) or isinstance(stddev, np.ndarray):
        # Per-particle parameters: per element this is NumPy's own
        # ``loc + scale * z`` over the same standard-normal draws, without
        # ``rng.normal``'s broadcasting.  It skips ``rng.normal``'s
        # negative-scale check, so every caller validates ``stddev`` first.
        return mean + stddev * rng.standard_normal(n)
    return rng.normal(mean, stddev, size=n)


def gamma_draw(rng: np.random.Generator, n: int, shape, rate) -> np.ndarray:
    # Guard against underflow to exactly 0.0, which lies outside ℝ+.
    return np.maximum(rng.gamma(shape, 1.0 / rate, size=n), math.ulp(0.0))


def beta_draw(rng: np.random.Generator, n: int, alpha, beta) -> np.ndarray:
    # Clamp away from the closed endpoints, which are outside ℝ(0,1).
    return np.clip(rng.beta(alpha, beta, size=n), 1e-12, 1.0 - 1e-12)


def uniform01_draw(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.clip(rng.random(n), 1e-12, 1.0 - 1e-12)


class Normal(Distribution):
    """Normal distribution ``Normal(mean; stddev)`` with support ℝ."""

    kind = ast.DistKind.NORMAL
    param_names = ("mean", "stddev")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.normal(self.mean, self.stddev))

    def log_prob(self, value) -> float:
        if not self.in_support(value):
            return -math.inf
        z = (float(value) - self.mean) / self.stddev
        return -0.5 * z * z - math.log(self.stddev) - 0.5 * math.log(2.0 * math.pi)

    def in_support(self, value) -> bool:
        return is_real_number(value) and math.isfinite(float(value))

    def expected_value(self) -> float:
        return self.mean

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return normal_draw(rng, int(n), self.mean, self.stddev)

    def log_prob_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().log_prob_batch(values)
        return normal_log_prob_kernel(self.mean, self.stddev, arr)


class Gamma(Distribution):
    """Gamma distribution ``Gamma(shape; rate)`` with support ℝ+.

    Parameterised by *shape* and *rate* (inverse scale), matching the paper's
    ``Gamma(2; 1)`` examples.
    """

    kind = ast.DistKind.GAMMA
    param_names = ("shape", "rate")

    def sample(self, rng: np.random.Generator) -> float:
        value = float(rng.gamma(self.shape, 1.0 / self.rate))
        # Guard against underflow to exactly 0.0, which lies outside ℝ+.
        return value if value > 0.0 else math.ulp(0.0)

    def log_prob(self, value) -> float:
        if not self.in_support(value):
            return -math.inf
        x = float(value)
        return (
            self.shape * math.log(self.rate)
            - math.lgamma(self.shape)
            + (self.shape - 1.0) * math.log(x)
            - self.rate * x
        )

    def in_support(self, value) -> bool:
        return is_real_number(value) and float(value) > 0.0 and math.isfinite(float(value))

    def expected_value(self) -> float:
        return self.shape / self.rate

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return gamma_draw(rng, int(n), self.shape, self.rate)

    def log_prob_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().log_prob_batch(values)
        return gamma_log_prob_kernel(self.shape, self.rate, arr)


class Beta(Distribution):
    """Beta distribution ``Beta(alpha; beta)`` with support ℝ(0,1)."""

    kind = ast.DistKind.BETA
    param_names = ("alpha", "beta")

    def sample(self, rng: np.random.Generator) -> float:
        value = float(rng.beta(self.alpha, self.beta))
        # Clamp away from the closed endpoints, which are outside ℝ(0,1).
        eps = 1e-12
        return min(max(value, eps), 1.0 - eps)

    def log_prob(self, value) -> float:
        if not self.in_support(value):
            return -math.inf
        x = float(value)
        log_beta_fn = math.lgamma(self.alpha) + math.lgamma(self.beta) - math.lgamma(
            self.alpha + self.beta
        )
        return (self.alpha - 1.0) * math.log(x) + (self.beta - 1.0) * math.log1p(-x) - log_beta_fn

    def in_support(self, value) -> bool:
        return is_real_number(value) and 0.0 < float(value) < 1.0

    def expected_value(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return beta_draw(rng, int(n), self.alpha, self.beta)

    def log_prob_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().log_prob_batch(values)
        return beta_log_prob_kernel(self.alpha, self.beta, arr)


class Uniform01(Distribution):
    """The uniform distribution on the open unit interval (paper's ``Unif``)."""

    kind = ast.DistKind.UNIF

    def sample(self, rng: np.random.Generator) -> float:
        value = float(rng.random())
        eps = 1e-12
        return min(max(value, eps), 1.0 - eps)

    def log_prob(self, value) -> float:
        return 0.0 if self.in_support(value) else -math.inf

    def in_support(self, value) -> bool:
        return is_real_number(value) and 0.0 < float(value) < 1.0

    def expected_value(self) -> float:
        return 0.5

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return uniform01_draw(rng, int(n))

    def log_prob_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().log_prob_batch(values)
        return uniform01_log_prob_kernel(arr)


class TruncatedNormal(Distribution):
    """Normal distribution truncated to an interval.

    Outside the calculus (no ``DistKind`` names it) and used only by the
    tests.  Its methods import ``scipy.stats`` on first use, so no request
    path pays for loading it.
    """

    name = "TruncatedNormal"
    #: ``mean`` and ``stddev`` are checked as ``Normal``'s are.
    signature = Normal.signature

    def __init__(self, mean: float, stddev: float, low: float, high: float):
        super().__init__(mean, stddev)
        if not low < high:
            raise ValueError(f"low must be < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self._a = (self.low - self.mean) / self.stddev
        self._b = (self.high - self.mean) / self.stddev

    @property
    def params(self) -> tuple:
        return (self.mean, self.stddev, self.low, self.high)

    @property
    def support_type(self) -> ty.BaseType:
        if self.low >= 0.0:
            return ty.PREAL
        return ty.REAL

    def sample(self, rng: np.random.Generator) -> float:
        from scipy.stats import truncnorm

        u = rng.random()
        return float(truncnorm.ppf(u, self._a, self._b, loc=self.mean, scale=self.stddev))

    def log_prob(self, value) -> float:
        if not self.in_support(value):
            return -math.inf
        from scipy.stats import truncnorm

        return float(
            truncnorm.logpdf(float(value), self._a, self._b, loc=self.mean, scale=self.stddev)
        )

    def in_support(self, value) -> bool:
        return is_real_number(value) and self.low < float(value) < self.high

    def expected_value(self) -> float:
        from scipy.stats import truncnorm

        return float(truncnorm.mean(self._a, self._b, loc=self.mean, scale=self.stddev))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        from scipy.stats import truncnorm

        u = rng.random(int(n))
        return truncnorm.ppf(u, self._a, self._b, loc=self.mean, scale=self.stddev)

    def log_prob_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().log_prob_batch(values)
        from scipy.stats import truncnorm

        ok = (arr > self.low) & (arr < self.high)
        lp = truncnorm.logpdf(
            np.where(ok, arr, 0.5 * (self.low + self.high)),
            self._a, self._b, loc=self.mean, scale=self.stddev,
        )
        return np.where(ok, lp, -np.inf)

    def in_support_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().in_support_batch(values)
        return (arr > self.low) & (arr < self.high)

"""Discrete primitive distributions: Bernoulli, Categorical, Geometric, Poisson."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from repro.core import ast
from repro.core import types as ty
from repro.dists.base import GUARDS, Distribution, as_float_batch, is_integer_number


def _integral_batch(arr: np.ndarray) -> np.ndarray:
    """Elementwise ``is_integer_number`` over a (non-boolean) float array."""
    return np.isfinite(arr) & (np.floor(arr) == arr)


# -- batched log-mass kernels --------------------------------------------------
#
# One implementation per family, shared by the scalar-parameter batch methods
# below and by the engine's per-particle-parameter BatchedDist (parameters may
# be scalars or arrays broadcasting against the value batch).


def bernoulli_log_prob_kernel(p, values: np.ndarray) -> np.ndarray:
    """``values`` is a Boolean array or one Boolean (the caller screens
    dtypes).  One value computes only the branch it selects: the array
    ``np.where`` would return."""
    if isinstance(values, np.ndarray) and values.ndim:
        return np.where(values, np.log(p), np.log1p(-p))
    return np.asarray(np.log(p) if values else np.log1p(-p))


def geometric_log_prob_kernel(p, x: np.ndarray) -> np.ndarray:
    ok = _integral_batch(x) & (x >= 0)
    k = np.where(ok, x, 0.0)
    lp = k * np.log1p(-p) + np.log(p)
    return np.where(ok, lp, -np.inf)


def poisson_log_prob_kernel(rate, x: np.ndarray) -> np.ndarray:
    ok = _integral_batch(x) & (x >= 0)
    k = np.where(ok, x, 0.0)
    with np.errstate(over="ignore"):
        lp = k * np.log(rate) - rate - gammaln(k + 1.0)
    return np.where(ok, lp, -np.inf)


# -- in-bounds kernels -----------------------------------------------------------
#
# Like the ``*_log_prob_inbounds`` kernels in :mod:`repro.dists.continuous`:
# bitwise-equal to the masked kernels above when every value is in the
# support (here: a non-negative integer array).  ``np.where(ok, x, 0.0)``
# converts the integer batch to float; the in-bounds variants reproduce that
# conversion through the same arithmetic, which promotes exactly.


def geometric_log_prob_inbounds(p, x: np.ndarray) -> np.ndarray:
    """``geometric_log_prob_kernel`` for values known to be naturals."""
    return x * np.log1p(-p) + np.log(p)


def poisson_log_prob_inbounds(rate, x: np.ndarray) -> np.ndarray:
    """``poisson_log_prob_kernel`` for values known to be naturals."""
    # No errstate here: the compiled kernels hold one per-run
    # ``errstate(over="ignore")`` (see repro.dists.continuous).
    return x * np.log(rate) - rate - gammaln(x + 1.0)


# -- array samplers ----------------------------------------------------------------
#
# ``draw(rng, n, *params)`` per family, as in :mod:`repro.dists.continuous`.


def bernoulli_draw(rng: np.random.Generator, n: int, p) -> np.ndarray:
    return rng.random(n) < p


def geometric_draw(rng: np.random.Generator, n: int, p) -> np.ndarray:
    # numpy's geometric counts trials (>= 1); shift to count failures.
    return rng.geometric(p, size=n) - 1


def poisson_draw(rng: np.random.Generator, n: int, rate) -> np.ndarray:
    return rng.poisson(rate, size=n)


class Bernoulli(Distribution):
    """Bernoulli distribution ``Ber(p)`` with support 𝟚 = {true, false}."""

    kind = ast.DistKind.BER
    param_names = ("p",)

    def sample(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.p)

    def log_prob(self, value) -> float:
        if not self.in_support(value):
            return -math.inf
        return math.log(self.p) if value else math.log1p(-self.p)

    def in_support(self, value) -> bool:
        return isinstance(value, (bool, np.bool_))

    def expected_value(self) -> float:
        return self.p

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return bernoulli_draw(rng, int(n), self.p)

    def log_prob_batch(self, values) -> np.ndarray:
        arr = np.asarray(values)
        if arr.dtype.kind != "b":
            return super().log_prob_batch(values)
        return bernoulli_log_prob_kernel(self.p, arr)

    def in_support_batch(self, values) -> np.ndarray:
        arr = np.asarray(values)
        if arr.dtype.kind != "b":
            return super().in_support_batch(values)
        return np.ones(arr.shape, dtype=bool)


class Categorical(Distribution):
    """Categorical distribution ``Cat(w_0, ..., w_{n-1})`` with support ℕn.

    The weights need not be normalised; they must be strictly positive.
    """

    kind = ast.DistKind.CAT

    def __init__(self, weights: Sequence[float]):
        if len(weights) < 1:
            raise ValueError("Cat requires at least one weight")
        positive = GUARDS[ty.PREAL]
        ws = []
        for i, w in enumerate(weights):
            w = float(w)
            if not positive.holds(w):
                raise positive.error(f"weight #{i}", w)
            ws.append(w)
        total = sum(ws)
        self.weights = tuple(ws)
        self.probs = tuple(w / total for w in ws)

    @property
    def params(self) -> tuple:
        return self.weights

    @property
    def support_type(self) -> ty.BaseType:
        return ty.FinNatTy(len(self.weights))

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.probs), p=self.probs))

    def log_prob(self, value) -> float:
        if not self.in_support(value):
            return -math.inf
        return math.log(self.probs[int(value)])

    def in_support(self, value) -> bool:
        return is_integer_number(value) and 0 <= int(value) < len(self.weights)

    def expected_value(self) -> float:
        return sum(i * p for i, p in enumerate(self.probs))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(len(self.probs), size=int(n), p=self.probs)

    def log_prob_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().log_prob_batch(values)
        ok = _integral_batch(arr) & (arr >= 0) & (arr < len(self.weights))
        idx = np.where(ok, arr, 0.0).astype(int)
        lp = np.log(np.asarray(self.probs))[idx]
        return np.where(ok, lp, -np.inf)

    def in_support_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().in_support_batch(values)
        return _integral_batch(arr) & (arr >= 0) & (arr < len(self.weights))


class Geometric(Distribution):
    """Geometric distribution ``Geo(p)`` with support ℕ = {0, 1, 2, ...}.

    ``Geo(p)`` counts the number of failures before the first success, so
    ``P(k) = (1-p)^k p``.
    """

    kind = ast.DistKind.GEO
    param_names = ("p",)

    def sample(self, rng: np.random.Generator) -> int:
        # numpy's geometric counts trials (>= 1); shift to count failures.
        return int(rng.geometric(self.p)) - 1

    def log_prob(self, value) -> float:
        if not self.in_support(value):
            return -math.inf
        k = int(value)
        return k * math.log1p(-self.p) + math.log(self.p)

    def in_support(self, value) -> bool:
        return is_integer_number(value) and int(value) >= 0

    def expected_value(self) -> float:
        return (1.0 - self.p) / self.p

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return geometric_draw(rng, int(n), self.p)

    def log_prob_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().log_prob_batch(values)
        return geometric_log_prob_kernel(self.p, arr)


class Poisson(Distribution):
    """Poisson distribution ``Pois(rate)`` with support ℕ."""

    kind = ast.DistKind.POIS
    param_names = ("rate",)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.rate))

    def log_prob(self, value) -> float:
        if not self.in_support(value):
            return -math.inf
        k = int(value)
        return k * math.log(self.rate) - self.rate - math.lgamma(k + 1.0)

    def in_support(self, value) -> bool:
        return is_integer_number(value) and int(value) >= 0

    def expected_value(self) -> float:
        return self.rate

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return poisson_draw(rng, int(n), self.rate)

    def log_prob_batch(self, values) -> np.ndarray:
        arr = as_float_batch(values)
        if arr is None:
            return super().log_prob_batch(values)
        return poisson_log_prob_kernel(self.rate, arr)


class Delta(Distribution):
    """A point mass at a fixed value.

    Not part of the core calculus; used by the mini-Pyro substrate for
    deterministic sites and by MCMC proposals that keep a coordinate fixed.
    The density is 1 at the point and 0 elsewhere (counting-measure style).
    """

    name = "Delta"

    def __init__(self, value):
        self.value = value

    @property
    def params(self) -> tuple:
        return (self.value,)

    @property
    def support_type(self) -> ty.BaseType:
        if isinstance(self.value, bool):
            return ty.BOOL
        if isinstance(self.value, int):
            return ty.NAT
        return ty.REAL

    def sample(self, rng: np.random.Generator):
        return self.value

    def log_prob(self, value) -> float:
        return 0.0 if self.in_support(value) else -math.inf

    def in_support(self, value) -> bool:
        return value == self.value

    def expected_value(self) -> float:
        return float(self.value)

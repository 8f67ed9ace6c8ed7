"""Abstract base class for primitive distributions."""

from __future__ import annotations

import abc
import math
from typing import Any

import numpy as np

from repro.core import types as ty


class Distribution(abc.ABC):
    """A primitive distribution ``d`` of type ``dist(τ)``.

    Subclasses must implement :meth:`sample`, :meth:`log_prob`,
    :meth:`in_support`, and the :attr:`support_type` property.  Equality is
    structural on the parameters (used to compare model/guide sites in tests
    and in the mini-Pyro replay handler).
    """

    #: Name used by pretty printers and compiled code.
    name: str = "Distribution"

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a single value from the distribution."""

    @abc.abstractmethod
    def log_prob(self, value: Any) -> float:
        """Log density/mass of ``value``; ``-inf`` outside the support."""

    @abc.abstractmethod
    def in_support(self, value: Any) -> bool:
        """Exact support membership (paper's ``v ∈ d.support``)."""

    @property
    @abc.abstractmethod
    def support_type(self) -> ty.BaseType:
        """The basic type τ that characterises the support exactly."""

    @property
    @abc.abstractmethod
    def params(self) -> tuple:
        """The distribution's parameters, used for equality and printing."""

    # -- batched API -----------------------------------------------------------
    #
    # The vectorized particle engine (:mod:`repro.engine`) executes many
    # particles in lockstep and resolves every sample site with one batched
    # call instead of N scalar calls.  The defaults below fall back to the
    # scalar methods so exotic distributions stay correct; the standard
    # families override them with closed-form NumPy implementations.

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. values as an array (scalar-loop fallback)."""
        return np.asarray([self.sample(rng) for _ in range(int(n))])

    def log_prob_batch(self, values: Any) -> np.ndarray:
        """Elementwise :meth:`log_prob` over a batch of values.

        Agrees with the scalar method pointwise: ``log_prob_batch(xs)[i] ==
        log_prob(xs[i])`` for every ``i``, including ``-inf`` outside the
        support.
        """
        return np.asarray([self.log_prob(v) for v in _iter_batch(values)], dtype=float)

    def in_support_batch(self, values: Any) -> np.ndarray:
        """Elementwise :meth:`in_support` over a batch of values."""
        return np.asarray([self.in_support(v) for v in _iter_batch(values)], dtype=bool)

    # -- derived API -----------------------------------------------------------

    def prob(self, value: Any) -> float:
        """Density/mass of ``value`` (the paper's ``d.density(v)``)."""
        lp = self.log_prob(value)
        return math.exp(lp) if lp > -math.inf else 0.0

    def expected_value(self) -> float:
        """Mean of the distribution; subclasses override where closed forms exist."""
        raise NotImplementedError(f"{self.name} does not expose a closed-form mean")

    # -- dunder helpers -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self.params == other.params  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.params))

    def __repr__(self) -> str:
        args = ", ".join(repr(p) for p in self.params)
        return f"{self.name}({args})"


def _iter_batch(values: Any):
    """Iterate a batch given as a list, tuple, or NumPy array."""
    if isinstance(values, np.ndarray):
        return iter(values)
    return iter(list(values))


def as_float_batch(values: Any) -> "np.ndarray | None":
    """Coerce a batch to a float array, or ``None`` when that would lie.

    Boolean and object arrays are refused (``True`` is not a real number in
    the scalar support semantics), signalling callers to take the exact
    scalar-loop fallback instead.
    """
    if not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in values
    ):
        # np.asarray would silently coerce True -> 1.0 in a mixed list.
        return None
    arr = np.asarray(values)
    if arr.dtype == object or arr.dtype.kind == "b":
        return None
    return arr.astype(float, copy=False)


def require_positive(name: str, value: float) -> float:
    """Validate a strictly positive scalar parameter."""
    value = float(value)
    if not value > 0.0 or math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be a finite positive real, got {value}")
    return value


def require_unit_interval(name: str, value: float) -> float:
    """Validate a parameter in the open unit interval (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in the open interval (0, 1), got {value}")
    return value


def require_real(name: str, value: float) -> float:
    """Validate a finite real parameter."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be a finite real, got {value}")
    return value


def is_real_number(value: Any) -> bool:
    """True for Python ints/floats/numpy scalars, excluding booleans."""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return False
    return isinstance(value, (int, float, np.integer, np.floating))


def is_integer_number(value: Any) -> bool:
    """True for integral Python/numpy values, excluding booleans."""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    if isinstance(value, (float, np.floating)):
        return float(value).is_integer()
    return False

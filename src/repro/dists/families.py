"""The distribution families of the calculus, one record each.

Every runtime that draws or scores a primitive family reads this table:
:func:`make_distribution`, the engine's
:class:`~repro.engine.batched.BatchedDist` and the compiled batched kernels,
whose preamble binds a record's functions.  The samplers and kernels are
defined beside the scalar classes (:mod:`repro.dists.continuous`,
:mod:`repro.dists.discrete`), whose ``sample_n`` call the same samplers.
The interpreter and the compiled backend therefore share one sampler, one
parameter check and one pair of density kernels per family by construction.

A :class:`Family` holds:

``cls``
    the scalar :class:`~repro.dists.base.Distribution` class;
``params``
    each parameter's name (also the scalar class's attribute of that name)
    and :class:`Constraint`; ``None`` for ``Cat``'s variadic weights;
``draw``
    ``draw(rng, n, *params)``: ``n`` values for scalar or ``(n,)``
    parameters;
``log_prob`` / ``log_prob_inbounds``
    the masked kernel (any float batch, ``-inf`` outside the support) and
    its strength reduction for values known to lie in the support;
``proves`` / ``inbounds_flag``
    the provenance flags every draw carries, and the flag a value must carry
    for ``log_prob_inbounds`` to score it; a family whose draws prove
    ``bool`` has Boolean values, and batches and observations are screened
    by dtype accordingly;
``observed``
    the guard for scoring one replayed scalar observation: the value
    ``log_prob_inbounds`` scores, or ``None`` outside the support (``None``
    itself when every value of the family's type is in the support).

``Cat`` has no array sampler or kernels: with per-particle weights it draws
and scores through a loop of scalar distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import ast
from repro.dists import continuous, discrete
from repro.dists.base import Distribution
from repro.errors import EvaluationError


@dataclass(frozen=True)
class Constraint:
    """What a parameter must satisfy, checked lane by lane."""

    #: Lane predicate over a scalar or an array parameter.
    holds: Callable[[object], object]
    #: Completes "<parameter name> ..." in the error message.
    message: str
    #: The value-provenance flag that proves the predicate.
    flag: str


def _positive(value):
    return np.isfinite(value) & (np.asarray(value) > 0.0)


def _unit(value):
    value = np.asarray(value)
    return (value > 0.0) & (value < 1.0)


REAL = Constraint(np.isfinite, "must be a finite real", "finite")
POSITIVE = Constraint(_positive, "must be positive", "positive")
UNIT = Constraint(_unit, "must lie in (0, 1)", "unit")


class Param(NamedTuple):
    """One parameter of a family: its name and its constraint."""

    name: str
    constraint: Constraint


def _finite_obs(y):
    return y if np.isfinite(y) else None


def _positive_obs(y):
    return y if np.isfinite(y) and y > 0.0 else None


def _unit_obs(y):
    return y if 0.0 < y < 1.0 else None


def _natural_obs(y):
    return float(y) if np.isfinite(y) and float(y).is_integer() and y >= 0 else None


@dataclass(frozen=True)
class Family:
    """One primitive distribution family (see the module docstring)."""

    kind: ast.DistKind
    cls: type
    params: Optional[Tuple[Param, ...]]
    proves: frozenset
    draw: Optional[Callable] = None
    log_prob: Optional[Callable] = None
    log_prob_inbounds: Optional[Callable] = None
    inbounds_flag: Optional[str] = None
    observed: Optional[Callable] = None

    @property
    def name(self) -> str:
        """The family's name in the calculus (``Normal``, ``Ber``, ...)."""
        return self.kind.value

    def build(self, args: Sequence[float]) -> Distribution:
        """The scalar distribution with parameters ``args``.

        Raises :class:`EvaluationError` when the parameter count or values are
        invalid (the basic type checker rules most of these out statically,
        but run-time values can still stray, e.g. a guide parameter optimised
        to a non-positive stddev).
        """
        try:
            if self.params is None:
                return self.cls(list(args))
            expected, count = len(self.params), len(args)
            if count == expected:
                return self.cls(*args)
            if not expected:
                raise ValueError(f"{self.name} takes no parameters")
            if count < expected:
                raise ValueError(f"not enough values to unpack (expected {expected}, got {count})")
            raise ValueError(f"too many values to unpack (expected {expected})")
        except (ValueError, TypeError) as exc:
            raise EvaluationError(
                f"invalid parameters for {self.name}: {list(args)!r} ({exc})"
            ) from exc


_NAT = frozenset({"finite", "nat"})
_UNIT_VALUES = frozenset({"finite", "positive", "unit"})

FAMILIES: Dict[ast.DistKind, Family] = {
    family.kind: family
    for family in (
        Family(
            ast.DistKind.NORMAL, continuous.Normal,
            (Param("mean", REAL), Param("stddev", POSITIVE)), frozenset({"finite"}),
            draw=continuous.normal_draw,
            log_prob=continuous.normal_log_prob_kernel,
            log_prob_inbounds=continuous.normal_log_prob_inbounds,
            inbounds_flag="finite", observed=_finite_obs,
        ),
        Family(
            ast.DistKind.GAMMA, continuous.Gamma,
            (Param("shape", POSITIVE), Param("rate", POSITIVE)), frozenset({"finite", "positive"}),
            draw=continuous.gamma_draw,
            log_prob=continuous.gamma_log_prob_kernel,
            log_prob_inbounds=continuous.gamma_log_prob_inbounds,
            inbounds_flag="positive", observed=_positive_obs,
        ),
        Family(
            ast.DistKind.BETA, continuous.Beta,
            (Param("alpha", POSITIVE), Param("beta", POSITIVE)), _UNIT_VALUES,
            draw=continuous.beta_draw,
            log_prob=continuous.beta_log_prob_kernel,
            log_prob_inbounds=continuous.beta_log_prob_inbounds,
            inbounds_flag="unit", observed=_unit_obs,
        ),
        Family(
            ast.DistKind.UNIF, continuous.Uniform01, (), _UNIT_VALUES,
            draw=continuous.uniform01_draw,
            log_prob=continuous.uniform01_log_prob_kernel,
            log_prob_inbounds=continuous.uniform01_log_prob_inbounds,
            inbounds_flag="unit", observed=_unit_obs,
        ),
        Family(
            ast.DistKind.BER, discrete.Bernoulli, (Param("p", UNIT),), frozenset({"bool"}),
            draw=discrete.bernoulli_draw,
            log_prob=discrete.bernoulli_log_prob_kernel,
            # A Boolean batch has no out-of-support lanes to mask.
            log_prob_inbounds=discrete.bernoulli_log_prob_kernel,
            inbounds_flag="bool",
        ),
        Family(
            ast.DistKind.GEO, discrete.Geometric, (Param("p", UNIT),), _NAT,
            draw=discrete.geometric_draw,
            log_prob=discrete.geometric_log_prob_kernel,
            log_prob_inbounds=discrete.geometric_log_prob_inbounds,
            inbounds_flag="nat", observed=_natural_obs,
        ),
        Family(
            ast.DistKind.POIS, discrete.Poisson, (Param("rate", POSITIVE),), _NAT,
            draw=discrete.poisson_draw,
            log_prob=discrete.poisson_log_prob_kernel,
            log_prob_inbounds=discrete.poisson_log_prob_inbounds,
            inbounds_flag="nat", observed=_natural_obs,
        ),
        Family(ast.DistKind.CAT, discrete.Categorical, None, _NAT),
    )
}


def make_distribution(kind: ast.DistKind, args: Sequence[float]) -> Distribution:
    """Build a :class:`Distribution` from a family tag and evaluated parameters.

    Raises :class:`EvaluationError` for an unknown family or invalid
    parameters (see :meth:`Family.build`).
    """
    family = FAMILIES.get(kind)
    if family is None:
        raise EvaluationError(f"unknown distribution family {kind!r}")
    return family.build(args)

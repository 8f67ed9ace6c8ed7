"""The distribution families of the calculus, one record each.

Every runtime that draws or scores a primitive family reads this table:
:func:`make_distribution`, the engine's
:class:`~repro.engine.batched.BatchedDist` and the compiled batched kernels,
whose preamble binds a record's functions.  The samplers and kernels are
defined beside the scalar classes (:mod:`repro.dists.continuous`,
:mod:`repro.dists.discrete`), whose ``sample_n`` call the same samplers.
The interpreter and the compiled backend therefore share one sampler, one
parameter check and one pair of density kernels per family by construction.

A family's parameter types and support are written once, in the typing rule
(:data:`~repro.core.typecheck.basic.DIST_PARAM_TYPES`,
:func:`~repro.core.typecheck.basic.dist_support_type`); the scalar class
reads them when it is defined, and its record reads them from the class.
A :class:`Family` holds:

``cls``
    the scalar :class:`~repro.dists.base.Distribution` class;
``params``
    each parameter's :class:`~repro.dists.base.Param`: its name (also the
    scalar class's attribute of that name), its base type and that type's
    guard (:data:`~repro.dists.base.GUARDS`); ``None`` for ``Cat``'s
    variadic weights;
``support``
    the base type of every value the family draws; a family whose support
    is 𝟚 has Boolean values, and batches and observations are screened by
    dtype accordingly;
``draw``
    ``draw(rng, n, *params)``: ``n`` values for scalar or ``(n,)``
    parameters;
``log_prob`` / ``log_prob_inbounds``
    the masked kernel (any float batch, ``-inf`` outside the support) and
    its strength reduction for values known to lie in the support.

``Cat`` has no array sampler or kernels: with per-particle weights it draws
and scores through a loop of scalar distributions.  Its record's support is
ℕ, which holds every ℕn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core import ast
from repro.core import types as ty
from repro.dists import continuous, discrete
from repro.dists.base import Distribution, Param
from repro.errors import EvaluationError


@dataclass(frozen=True)
class Family:
    """One primitive distribution family (see the module docstring)."""

    kind: ast.DistKind
    cls: type
    params: Optional[Tuple[Param, ...]]
    support: ty.BaseType
    draw: Optional[Callable] = None
    log_prob: Optional[Callable] = None
    log_prob_inbounds: Optional[Callable] = None

    @classmethod
    def of(cls, dist_cls: type, support: Optional[ty.BaseType] = None, **kernels) -> "Family":
        """The record of ``dist_cls``, whose typing rule it reads."""
        support = support or dist_cls.support_type
        return cls(dist_cls.kind, dist_cls, dist_cls.signature, support, **kernels)

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


FAMILIES: Dict[ast.DistKind, Family] = {
    family.kind: family
    for family in (
        Family.of(
            continuous.Normal,
            draw=continuous.normal_draw,
            log_prob=continuous.normal_log_prob_kernel,
            log_prob_inbounds=continuous.normal_log_prob_inbounds,
        ),
        Family.of(
            continuous.Gamma,
            draw=continuous.gamma_draw,
            log_prob=continuous.gamma_log_prob_kernel,
            log_prob_inbounds=continuous.gamma_log_prob_inbounds,
        ),
        Family.of(
            continuous.Beta,
            draw=continuous.beta_draw,
            log_prob=continuous.beta_log_prob_kernel,
            log_prob_inbounds=continuous.beta_log_prob_inbounds,
        ),
        Family.of(
            continuous.Uniform01,
            draw=continuous.uniform01_draw,
            log_prob=continuous.uniform01_log_prob_kernel,
            log_prob_inbounds=continuous.uniform01_log_prob_inbounds,
        ),
        Family.of(
            discrete.Bernoulli,
            draw=discrete.bernoulli_draw,
            log_prob=discrete.bernoulli_log_prob_kernel,
            # A Boolean batch has no out-of-support lanes to mask.
            log_prob_inbounds=discrete.bernoulli_log_prob_kernel,
        ),
        Family.of(
            discrete.Geometric,
            draw=discrete.geometric_draw,
            log_prob=discrete.geometric_log_prob_kernel,
            log_prob_inbounds=discrete.geometric_log_prob_inbounds,
        ),
        Family.of(
            discrete.Poisson,
            draw=discrete.poisson_draw,
            log_prob=discrete.poisson_log_prob_kernel,
            log_prob_inbounds=discrete.poisson_log_prob_inbounds,
        ),
        Family.of(discrete.Categorical, support=ty.NAT),
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

"""Distributions over a particle axis: one family, per-particle parameters.

A :class:`BatchedDist` is the vectorized runtime's counterpart of a
:class:`~repro.dists.base.Distribution`: it describes the distribution at one
sample site for a whole *group* of particles at once.  Parameters may be
Python scalars (shared by every particle) or ``(n,)`` arrays (one value per
particle, e.g. ``Normal(x1, 1.0)`` where ``x1`` was sampled upstream).

Resolution strategy:

* all parameters scalar — build the ordinary scalar distribution once with
  :func:`scalar_dist` (its constructor checks the parameters; the compiled
  kernels build their constant distributions the same way) and draw and
  score through its batch API, whose ``sample_n`` is the family record's
  sampler;
* array parameters — check, draw and score the whole group with the
  family's record in :data:`repro.dists.FAMILIES`, the same functions the
  compiled kernels call;
* anything else (e.g. ``Cat`` with per-particle weights) — fall back to a
  loop of scalar distributions, so exotic cases stay exactly as correct as
  the sequential interpreter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core import ast
from repro.core import types as ty
from repro.dists.base import Distribution
from repro.dists.families import FAMILIES, Family
from repro.errors import EvaluationError


def _broadcast(value, n: int) -> np.ndarray:
    """Broadcast a scalar or ``(n,)`` array parameter to shape ``(n,)``."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise EvaluationError(
            f"distribution parameter has shape {arr.shape}, expected ({n},)"
        )
    return arr


def check_param(family: Family, index: int, value, n: int) -> None:
    """Raise unless parameter ``index`` passes its type's guard in all ``n`` lanes.

    ``value`` is a scalar shared by the group or a ``(n,)`` array; the
    message counts the lanes that fail, so a failing shared value counts as
    ``n``.  The compiled kernels call this for each parameter that no
    provenance proof discharges.
    """
    name, _tau, guard = family.params[index]
    ok = guard.lanes(value)  # an array, or a NumPy Boolean for a scalar
    if not ok.all():
        raise EvaluationError(
            f"invalid parameters for {family.name}: {name} {guard.message} (failed for "
            f"{n - np.count_nonzero(ok)} particle(s))"
        )


def score_lanes(family: Family, params: Sequence[object], values, n: int) -> np.ndarray:
    """Score one value per particle with the family's masked kernel.

    ``params`` are scalars or ``(n,)`` arrays.  Batches of the wrong dtype
    (Booleans for a numeric family, numbers for ``Ber``, exotic payloads) and
    families without kernels take the exact loop of scalar distributions.
    """
    arr = np.asarray(values)
    boolean = isinstance(family.support, ty.BoolTy)
    if family.log_prob is None or arr.dtype == object or (arr.dtype.kind == "b") != boolean:
        batch = list(values) if not isinstance(values, np.ndarray) else values
        return np.asarray(
            [_per_particle(family, params, i).log_prob(batch[i]) for i in range(n)], dtype=float
        )
    if not boolean:
        arr = arr.astype(float, copy=False)
    return family.log_prob(*params, arr)


def scalar_dist(family: Family, args: Sequence[object]) -> Distribution:
    """The scalar distribution of parameters ``args`` shared by a whole group.

    ``BatchedDist`` builds its shared-parameter distributions here, and the
    compiled kernels build their constant ones in their preamble.
    """
    return family.build([float(a) for a in args])


def _per_particle(family: Family, params: Sequence[object], index: int) -> Distribution:
    """Particle ``index``'s scalar distribution (``params``: scalars or lane arrays)."""
    return family.build(
        [float(p[index] if isinstance(p, np.ndarray) and p.ndim else p) for p in params]
    )


class BatchedDist:
    """The distribution at one sample site for a group of ``n`` particles."""

    def __init__(self, kind: ast.DistKind, args: Sequence[object], n: int):
        self.kind = kind
        self.family = family = FAMILIES[kind]
        self.n = int(n)
        self._scalar: Optional[Distribution] = None

        if all(np.ndim(a) == 0 for a in args):
            # Shared parameters: one scalar distribution draws and scores
            # for the group (its sample_n is the family's sampler).
            self._scalar = scalar_dist(family, args)
            return

        # Lane parameters: the family's kernels take them as they are.
        self._params: List[object] = [_broadcast(a, self.n) for a in args]
        # Cat's weights validate per particle in the scalar loop.
        if family.params is not None:
            for index, value in enumerate(self._params):
                check_param(family, index, value, self.n)

    @classmethod
    def from_scalar(cls, dist: Distribution, n: int) -> "BatchedDist":
        """Wrap an existing scalar distribution (e.g. passed in as an argument)."""
        batched = cls.__new__(cls)
        batched.kind = None
        batched.family = None
        batched.n = int(n)
        batched._scalar = dist
        return batched

    # -- the batched operations ----------------------------------------------

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one value per particle."""
        if self._scalar is not None:
            return self._scalar.sample_n(rng, self.n)
        family = self.family
        if family.draw is not None:
            return family.draw(rng, self.n, *self._params)
        return np.asarray(
            [_per_particle(family, self._params, i).sample(rng) for i in range(self.n)]
        )

    def log_prob(self, values) -> np.ndarray:
        """Score one value per particle; ``-inf`` outside the support."""
        if self._scalar is not None:
            return self._scalar.log_prob_batch(values)
        return score_lanes(self.family, self._params, values, self.n)

    def __repr__(self) -> str:
        if self._scalar is not None:
            return f"BatchedDist({self._scalar!r} x {self.n})"
        return f"BatchedDist({self.kind.value}[...] x {self.n})"

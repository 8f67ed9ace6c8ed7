"""Constrained variational parameters: transforms and the :class:`ParamStore`.

Gradient-based SVI optimises an *unconstrained* real vector, but guide
programs consume *constrained* quantities — a positive scale, a simplex of
category weights.  Each parameter therefore carries a :class:`Transform`
mapping the optimiser's unconstrained value to the constrained value the
guide program receives:

==============  ========================  ==================================
constraint      forward map               typical use
==============  ========================  ==================================
``real``        identity                  locations, regression coefficients
``positive``    softplus ``log(1+e^u)``   scales, rates, shape parameters
``unit``        logistic sigmoid          probabilities in ``(0, 1)``
``simplex``     softmax over the vector   categorical weight vectors
==============  ========================  ==================================

This replaces the ad-hoc ``theta_projection`` callback of the
finite-difference optimiser (:func:`repro.inference.vi.svi`): instead of
clamping after each step — which silently changes the objective at the
boundary — the transform reparameterises the problem so every unconstrained
step lands inside the constraint set.

The :class:`ParamStore` keeps named parameters with their transforms,
exposes the unconstrained values as the dict the shared optimisers
(:mod:`repro.minipyro.infer.optim`) update in place, and builds the
constrained argument tuple a guide entry procedure expects.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InferenceError
from repro.minipyro.infer.optim import SGD, Adam, Optimizer


class Transform:
    """A smooth bijection from unconstrained reals onto a constraint set.

    ``forward`` maps the optimiser's unconstrained value to the constrained
    value the guide program consumes; ``inverse`` initialises the
    unconstrained value from a constrained starting point.  Both operate on
    scalars (0-d arrays) and vectors alike.
    """

    name = "transform"

    def forward(self, unconstrained: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self, constrained: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RealTransform(Transform):
    """Identity: the parameter is already unconstrained."""

    name = "real"

    def forward(self, unconstrained: np.ndarray) -> np.ndarray:
        return unconstrained

    def inverse(self, constrained: np.ndarray) -> np.ndarray:
        return constrained


class PositiveTransform(Transform):
    """Positivity via the softplus map ``u ↦ log(1 + e^u)``.

    Numerically stable in both directions: the forward map is
    ``logaddexp(0, u)`` (no overflow for large ``u``), the inverse is
    ``c + log1p(-e^{-c})`` (no catastrophic cancellation for large ``c``).
    """

    name = "positive"

    def forward(self, unconstrained: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, unconstrained)

    def inverse(self, constrained: np.ndarray) -> np.ndarray:
        c = np.asarray(constrained, dtype=float)
        if np.any(c <= 0.0):
            raise InferenceError(
                f"positive parameter initialised with a non-positive value {constrained!r}"
            )
        with np.errstate(divide="ignore"):
            return c + np.log1p(-np.exp(-c))


class UnitIntervalTransform(Transform):
    """The open unit interval via the logistic sigmoid.

    The output is clipped to ``[1e-12, 1 - 1e-12]`` so that even a saturated
    sigmoid (``u`` beyond ±37 rounds to exactly 0 or 1 in float64) stays
    inside the *open* interval the probability parameters it feeds require.
    """

    name = "unit"

    def forward(self, unconstrained: np.ndarray) -> np.ndarray:
        u = np.asarray(unconstrained, dtype=float)
        # Evaluate each branch only where it is stable (no overflow warnings).
        exp_neg = np.exp(-np.clip(u, 0.0, None))
        exp_pos = np.exp(np.clip(u, None, 0.0))
        sigmoid = np.where(u >= 0, 1.0 / (1.0 + exp_neg), exp_pos / (1.0 + exp_pos))
        return np.clip(sigmoid, 1e-12, 1.0 - 1e-12)

    def inverse(self, constrained: np.ndarray) -> np.ndarray:
        c = np.asarray(constrained, dtype=float)
        if np.any((c <= 0.0) | (c >= 1.0)):
            raise InferenceError(
                f"unit-interval parameter initialised outside (0, 1): {constrained!r}"
            )
        return np.log(c) - np.log1p(-c)


class SimplexTransform(Transform):
    """The probability simplex via softmax over an unconstrained vector.

    The map is many-to-one (softmax is shift-invariant); ``inverse`` picks
    the centred representative ``log p - mean(log p)`` so round-tripping is
    stable.  Applies to vector parameters of length >= 2.
    """

    name = "simplex"

    def forward(self, unconstrained: np.ndarray) -> np.ndarray:
        u = np.asarray(unconstrained, dtype=float)
        if u.ndim != 1 or u.size < 2:
            raise InferenceError(
                f"simplex parameters must be vectors of length >= 2, got shape {u.shape}"
            )
        shifted = np.exp(u - np.max(u))
        return shifted / shifted.sum()

    def inverse(self, constrained: np.ndarray) -> np.ndarray:
        c = np.asarray(constrained, dtype=float)
        if c.ndim != 1 or c.size < 2 or np.any(c <= 0.0):
            raise InferenceError(
                f"simplex parameter initialised with an invalid weight vector {constrained!r}"
            )
        log_p = np.log(c / c.sum())
        return log_p - log_p.mean()


TRANSFORMS: Dict[str, Transform] = {
    t.name: t
    for t in (RealTransform(), PositiveTransform(), UnitIntervalTransform(), SimplexTransform())
}


def get_transform(name: str) -> Transform:
    try:
        return TRANSFORMS[name]
    except (KeyError, TypeError):  # an unknown or unhashable name
        known = ", ".join(sorted(TRANSFORMS))
        raise InferenceError(f"unknown parameter constraint {name!r} (known: {known})")


#: The optimisers an SVI request may name, shared with the compiled mini-Pyro
#: runtime (:mod:`repro.minipyro.infer.optim`).
OPTIMIZERS: Dict[str, type] = {"adam": Adam, "sgd": SGD}


def get_optimizer(name: str) -> type:
    try:
        return OPTIMIZERS[name]
    except (KeyError, TypeError):  # an unknown or unhashable name
        known = ", ".join(sorted(OPTIMIZERS))
        raise InferenceError(f"unknown optimizer {name!r} (known: {known})")


def make_optimizer(name: str, learning_rate: float) -> Optimizer:
    """Instantiate one of the shared parameter-store optimisers by name."""
    return get_optimizer(name)(lr=learning_rate)


@dataclass
class _ParamEntry:
    name: str
    transform: Transform


class ParamStore:
    """Named variational parameters with constraint transforms.

    Values are stored in *unconstrained* space (the space the optimiser and
    the score-function gradient work in); :meth:`constrained` and
    :meth:`guide_args` apply each parameter's transform on the way out.
    Registration order is the canonical coordinate order used by
    :meth:`coordinates` and :meth:`vector`.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, _ParamEntry]" = OrderedDict()
        self._values: Dict[str, np.ndarray] = {}

    # -- registration ----------------------------------------------------------

    def register(self, name: str, init: object, constraint: str = "real") -> None:
        """Add parameter ``name`` with a *constrained-space* initial value."""
        if name in self._entries:
            raise InferenceError(f"parameter {name!r} is already registered")
        transform = get_transform(constraint)
        value = np.asarray(transform.inverse(np.asarray(init, dtype=float)), dtype=float)
        self._entries[name] = _ParamEntry(name=name, transform=transform)
        self._values[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> List[str]:
        return list(self._entries)

    # -- reading values --------------------------------------------------------

    def constrained(self, name: str) -> object:
        """The constrained value of ``name`` (floats for scalar parameters)."""
        entry = self._entry(name)
        value = entry.transform.forward(self._values[name])
        arr = np.asarray(value)
        return float(arr) if arr.ndim == 0 else arr

    def constrained_values(self) -> Dict[str, object]:
        return {name: self.constrained(name) for name in self._entries}

    def guide_args(self, param_names: Sequence[str]) -> Tuple[object, ...]:
        """Constrained values ordered as a guide entry procedure's parameters."""
        missing = [p for p in param_names if p not in self._entries]
        if missing:
            raise InferenceError(
                f"guide parameters {missing} have no registered variational parameter; "
                f"registered: {self.names()}"
            )
        return tuple(self.constrained(name) for name in param_names)

    def unconstrained_dict(self) -> Dict[str, np.ndarray]:
        """The live unconstrained value dict, updated in place by optimisers."""
        return self._values

    # -- flat-vector views (coordinate order = registration order) -------------

    @property
    def size(self) -> int:
        return sum(np.asarray(self._values[name]).size for name in self._entries)

    def coordinates(self) -> Iterator[Tuple[str, int]]:
        """All ``(name, flat_index)`` coordinates in registration order."""
        for name in self._entries:
            for index in range(np.asarray(self._values[name]).size):
                yield name, index

    def vector(self) -> np.ndarray:
        """Flatten the unconstrained values into one coordinate vector."""
        if not self._entries:
            return np.zeros(0)
        return np.concatenate(
            [np.asarray(self._values[name], dtype=float).reshape(-1) for name in self._entries]
        )

    def load_vector(self, theta: Sequence[float]) -> None:
        """Load a flat unconstrained coordinate vector (inverse of :meth:`vector`)."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.size:
            raise InferenceError(
                f"parameter vector has {theta.size} coordinates, store has {self.size}"
            )
        offset = 0
        for name in self._entries:
            current = np.asarray(self._values[name])
            chunk = theta[offset : offset + current.size]
            offset += current.size
            self._values[name] = (
                np.asarray(float(chunk[0])) if current.ndim == 0 else chunk.reshape(current.shape)
            )

    # -- copies and perturbations ----------------------------------------------

    def copy(self) -> "ParamStore":
        clone = ParamStore()
        clone._entries = OrderedDict(self._entries)
        clone._values = {name: np.array(value, dtype=float) for name, value in self._values.items()}
        return clone

    def perturbed(self, name: str, index: int, delta: float) -> "ParamStore":
        """A copy with one unconstrained coordinate shifted by ``delta``."""
        clone = self.copy()
        value = clone._values[name]
        if value.ndim == 0:
            clone._values[name] = np.asarray(float(value) + delta)
        else:
            value.flat[index] += delta
        return clone

    # -- internals -------------------------------------------------------------

    def _entry(self, name: str) -> _ParamEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise InferenceError(
                f"unknown parameter {name!r} (registered: {self.names()})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name}={self.constrained(name)!r}[{entry.transform.name}]"
            for name, entry in self._entries.items()
        )
        return f"ParamStore({inner})"


def store_from_inits(
    inits: Dict[str, object], constraints: Optional[Dict[str, str]] = None
) -> ParamStore:
    """Build a :class:`ParamStore` from constrained initial values.

    ``constraints`` maps parameter names to transform names (default
    ``real``); unknown names in ``constraints`` are rejected so typos do not
    silently leave a parameter unconstrained.
    """
    constraints = dict(constraints or {})
    unknown = set(constraints) - set(inits)
    if unknown:
        raise InferenceError(
            f"constraints given for unregistered parameters: {sorted(unknown)}"
        )
    store = ParamStore()
    for name, init in inits.items():
        store.register(name, init, constraint=constraints.get(name, "real"))
    return store

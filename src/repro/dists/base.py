"""Abstract base class for primitive distributions, and one guard per base type.

The typing rule (:data:`~repro.core.typecheck.basic.DIST_PARAM_TYPES` and
:func:`~repro.core.typecheck.basic.dist_support_type`) is the one place
where a family's parameter types and support are written.  :data:`GUARDS`
says what a value of each base type satisfies at run time; the scalar
constructors, the lane parameter checks, the compiled kernels' observation
guard and :meth:`Distribution.in_support_batch` all read it.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.core import ast
from repro.core import types as ty
from repro.core.typecheck.basic import DIST_PARAM_TYPES, dist_support_type


class Guard(NamedTuple):
    """What a value of one base type satisfies at run time."""

    #: The predicate lane by lane, over a float scalar or a float array.
    lanes: Callable[[Any], Any]
    #: The same predicate on one Python float.
    holds: Callable[[float], bool]
    #: Completes "<parameter name> ..." in an error message.
    message: str

    def error(self, name: str, value: float) -> ValueError:
        """The error of parameter ``name`` failing this guard with ``value``."""
        return ValueError(f"{name} {self.message}, got {value}")


def _positive_lanes(value):
    return np.isfinite(value) & (np.asarray(value) > 0.0)


def _unit_lanes(value):
    value = np.asarray(value)
    return (value > 0.0) & (value < 1.0)


def _natural_lanes(value):
    return np.isfinite(value) & (np.floor(value) == value) & (np.asarray(value) >= 0)


#: The guard of each base type that types a family's parameters or support.
#: No float is a Boolean: Boolean values are told apart by dtype first.
GUARDS: Dict[ty.BaseType, Guard] = {
    ty.REAL: Guard(np.isfinite, math.isfinite, "must be a finite real"),
    ty.PREAL: Guard(_positive_lanes, lambda v: 0.0 < v < math.inf, "must be positive"),
    ty.UREAL: Guard(_unit_lanes, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    ty.NAT: Guard(
        _natural_lanes, lambda v: v.is_integer() and v >= 0.0, "must be a natural number"
    ),
    ty.BOOL: Guard(lambda v: np.zeros(np.shape(v), bool), lambda v: False, "must be a Boolean"),
}


class Param(NamedTuple):
    """One parameter of a family: its name, its base type and that type's guard."""

    name: str
    type: ty.BaseType
    guard: Guard


class Distribution(abc.ABC):
    """A primitive distribution ``d`` of type ``dist(τ)``.

    Subclasses must implement :meth:`sample`, :meth:`log_prob` and
    :meth:`in_support`.  A class implementing a family of the calculus names
    its ``kind`` and ``param_names``; its ``signature``, ``support_type`` and
    ``support_guard`` are then read from the typing rule when the class is
    defined, and the constructor below checks each argument through its
    type's guard.  Other classes write their own constructor,
    ``support_type`` and ``params``.  Equality is structural on the
    parameters (used to compare model/guide sites in tests and in the
    mini-Pyro replay handler).
    """

    #: Name used by pretty printers and compiled code.
    name: str = "Distribution"
    #: The family of the calculus the class implements, if any.
    kind: Optional[ast.DistKind] = None
    #: The parameters' names, in order; each is also an attribute.
    param_names: Tuple[str, ...] = ()
    #: Each parameter's name, type and guard (``None``: the class checks its own).
    signature: Optional[Tuple[Param, ...]] = None
    #: The support type's guard (``None``: ``in_support_batch`` loops).
    support_guard: Optional[Guard] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind is None:
            return
        cls.name = cls.kind.value
        types = DIST_PARAM_TYPES[cls.kind]
        if types is None:  # Cat's variadic weights
            return
        cls.signature = tuple(
            Param(name, tau, GUARDS[tau]) for name, tau in zip(cls.param_names, types)
        )
        cls.support_type = dist_support_type(cls.kind, len(types))
        cls.support_guard = GUARDS[cls.support_type]

    def __init__(self, *args: float) -> None:
        signature = self.signature or ()
        if len(args) != len(signature):
            raise TypeError(f"{self.name} takes {len(signature)} parameter(s), got {len(args)}")
        for (name, _tau, guard), value in zip(signature, args):
            value = float(value)
            if not guard.holds(value):
                raise guard.error(name, value)
            setattr(self, name, value)

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
    def params(self) -> tuple:
        """The distribution's parameters, used for equality and printing."""
        return tuple([getattr(self, name) for name in self.param_names])

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
        """Elementwise :meth:`in_support`: the support's guard over a float
        batch, else a loop of the scalar method."""
        guard = self.support_guard
        arr = None if guard is None else as_float_batch(values)
        if arr is None:
            return np.asarray([self.in_support(v) for v in _iter_batch(values)], dtype=bool)
        return guard.lanes(arr)

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

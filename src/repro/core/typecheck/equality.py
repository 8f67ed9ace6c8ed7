"""Structural equality of guide types.

Guide types produced by backward inference are compared *structurally*;
type-operator applications are compared nominally (same operator name and
equal arguments).  The paper avoids a nontrivial equivalence check (no
sequencing type ``A # B``), so plain structural equality is exactly the
relation the typing rules need: the two branches of a conditional must
induce literally the same protocol on the non-subject channel, and a model
and guide must have literally the same guide type on the ``latent`` channel
(up to unfolding the operators they both reference).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import types as ty
from repro.errors import GuideTypeError


def guide_types_equal(a: ty.GuideType, b: ty.GuideType) -> bool:
    """Structural equality of two guide types."""
    return a == b


def first_difference(
    a: ty.GuideType, b: ty.GuideType, path: str = ""
) -> Optional[Tuple[str, ty.GuideType, ty.GuideType]]:
    """Locate the first structural difference between two guide types.

    Returns ``None`` when the types are equal, otherwise a triple of a
    human-readable path (e.g. ``".cont.then"``) and the differing subterms.
    Used to produce actionable error messages for model/guide mismatches.
    """
    if type(a) is not type(b):
        return (path or ".", a, b)
    if isinstance(a, ty.End):
        return None
    if isinstance(a, ty.TyVar):
        return None if a.name == b.name else (path or ".", a, b)  # type: ignore[union-attr]
    if isinstance(a, ty.OpApp) and isinstance(b, ty.OpApp):
        if a.operator != b.operator:
            return (path or ".", a, b)
        return first_difference(a.arg, b.arg, path + ".arg")
    if isinstance(a, ty.SendVal) and isinstance(b, ty.SendVal):
        if a.payload != b.payload:
            return (path + ".payload", a, b)
        return first_difference(a.cont, b.cont, path + ".cont")
    if isinstance(a, ty.RecvVal) and isinstance(b, ty.RecvVal):
        if a.payload != b.payload:
            return (path + ".payload", a, b)
        return first_difference(a.cont, b.cont, path + ".cont")
    if isinstance(a, (ty.Offer, ty.Choose)) and isinstance(b, (ty.Offer, ty.Choose)):
        diff = first_difference(a.then, b.then, path + ".then")  # type: ignore[union-attr]
        if diff is not None:
            return diff
        return first_difference(a.orelse, b.orelse, path + ".orelse")  # type: ignore[union-attr]
    return (path or ".", a, b)


def require_equal(a: ty.GuideType, b: ty.GuideType, context: str) -> None:
    """Raise :class:`GuideTypeError` with a located message unless ``a == b``."""
    if a == b:
        return
    diff = first_difference(a, b)
    assert diff is not None
    where, left, right = diff
    raise GuideTypeError(
        f"{context}: guidance protocols disagree at {where}: {left} vs {right}"
    )


#: Operator applications one comparison may unfold along one path of the
#: protocol tree; messages and branches do not count, so a protocol of any
#: length compares.  Inference never produces a non-contractive operator, and
#: two regular protocols that unfold out of step close their cycle at a
#: memoised pair.  The bound ends what remains: a non-contractive table, and
#: two protocols out of step whose arguments keep growing (non-tail recursion
#: on one side), which never meet the same pair twice.
_MAX_UNFOLDINGS = 64


def types_equal_up_to_unfolding(
    a: ty.GuideType,
    b: ty.GuideType,
    table_a: ty.TypeTable,
    table_b: ty.TypeTable,
) -> bool:
    """Equality of guide types drawn from two different type tables.

    A model program and a guide program are inferred independently, so their
    ``latent`` protocols mention different operator names (e.g. ``Model.latent``
    vs ``Guide.latent``).  This routine decides equality by co-inductively
    unfolding operator applications from each side's own table.  Two
    applications that meet are compared nominally: once a pair of operators
    has been assumed equal, a later meeting compares only their arguments.
    An application that meets a structural constructor unfolds alone, and
    such a pair met again after at least one message or branch holds by the
    coinductive hypothesis.  The walk keeps its own stack, so neither the
    protocol's length nor its unfoldings recurse in Python.
    """
    assumed: set[Tuple[str, str]] = set()
    visited: set[Tuple[ty.GuideType, ty.GuideType]] = set()
    # (x, y, unfoldings on this path, whether a message or branch was
    # passed since the last unfolding); `then` is popped before `orelse`.
    pending = [(a, b, 0, True)]
    while pending:
        x, y, unfoldings, moved = pending.pop()
        if isinstance(x, ty.OpApp) or isinstance(y, ty.OpApp):
            if isinstance(x, ty.OpApp) and isinstance(y, ty.OpApp):
                key = (x.operator, y.operator)
                if key in assumed:
                    # Coinductive hypothesis: the operators were already
                    # assumed equal; it remains to compare the arguments.
                    pending.append((x.arg, y.arg, unfoldings, moved))
                    continue
                assumed.add(key)
            elif moved:
                # Memoise only after progress: a pair that comes round with
                # no message or branch in between is a non-contractive
                # operator, which the bound below rejects.
                if (x, y) in visited:
                    continue
                visited.add((x, y))
            if unfoldings >= _MAX_UNFOLDINGS:
                raise GuideTypeError(
                    "guide-type equality exceeded the unfolding depth limit; "
                    "the type operators appear to be non-contractive"
                )
            pending.append((table_a.unfold(x), table_b.unfold(y), unfoldings + 1, False))
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, (ty.SendVal, ty.RecvVal)):
            if x.payload != y.payload:  # type: ignore[union-attr]
                return False
            pending.append((x.cont, y.cont, unfoldings, True))  # type: ignore[union-attr]
        elif isinstance(x, (ty.Offer, ty.Choose)):
            pending.append((x.orelse, y.orelse, unfoldings, True))  # type: ignore[union-attr]
            pending.append((x.then, y.then, unfoldings, True))  # type: ignore[union-attr]
        elif isinstance(x, ty.TyVar):
            if x.name != y.name:  # type: ignore[union-attr]
                return False
        elif not isinstance(x, ty.End):
            raise GuideTypeError(f"unknown guide type node: {x!r}")
    return True

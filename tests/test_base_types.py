"""One vocabulary for what a value is: base types, their guards, their subtyping.

The typing rule (``DIST_PARAM_TYPES``, ``dist_support_type``) writes each
family's parameter types and support once.  Every run-time check reads the
guard of a base type (``repro.dists.base.GUARDS``), and the kernel compiler
discharges a parameter check when ``ty.is_subtype`` proves it.  These tests
pin that the pieces say the same thing:

* each guard's lane predicate and its scalar predicate agree on an edge grid;
* the scalar constructor and the lane check (on a shared value and on a
  lane) reject the same values with the same "<name> <message>" stem;
* a kernel checks a drawn parameter exactly when the drawing family's
  support is not a subtype of the parameter's type.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.compiler import compile_kernel_pair
from repro.core import ast
from repro.core import types as ty
from repro.core.parser import parse_program
from repro.core.typecheck.basic import DIST_PARAM_TYPES, dist_support_type
from repro.dists import FAMILIES
from repro.dists.base import GUARDS
from repro.engine.batched import check_param
from repro.errors import EvaluationError

#: Edges of every base type: signed zeros, the least subnormal, the ends of
#: (0, 1), integers, the largest floats, infinities and NaN.
GRID = [
    0.0, -0.0, 5e-324, 0.5, 1.0, 1.0 - 2.0**-53, 2.0, 3.0, 2.0**53, 1e308,
    float("inf"), float("-inf"), float("nan"), -1.0,
]

#: A value that passes each parameter type's guard.
VALID = {ty.REAL: 0.0, ty.PREAL: 1.0, ty.UREAL: 0.5}

N = 3


@pytest.mark.parametrize("tau", list(GUARDS), ids=str)
def test_lane_and_scalar_predicates_agree(tau):
    guard = GUARDS[tau]
    lanes = guard.lanes(np.asarray(GRID))
    assert lanes.dtype == bool and lanes.shape == (len(GRID),)
    assert [bool(ok) for ok in lanes] == [guard.holds(v) for v in GRID]
    assert [bool(guard.lanes(v)) for v in GRID] == [guard.holds(v) for v in GRID]


def test_families_read_the_typing_rule():
    for kind, family in FAMILIES.items():
        types = DIST_PARAM_TYPES[kind]
        if types is None:
            assert family.params is None and family.support == ty.NAT
            continue
        assert tuple(p.type for p in family.params) == types
        assert family.support == dist_support_type(kind, len(types))
        assert family.cls.support_type == family.support
        assert [p.name for p in family.params] == list(family.cls.param_names)
        assert all(p.guard is GUARDS[p.type] for p in family.params)


PARAMS = [
    (kind, index)
    for kind, family in FAMILIES.items()
    for index in range(len(family.params or ()))
]


@pytest.mark.parametrize("kind, index", PARAMS, ids=[f"{k.value}-{i}" for k, i in PARAMS])
def test_scalar_and_lane_checks_reject_the_same_values(kind, index):
    """Three checks of one parameter: the scalar constructor, ``check_param``
    on a shared value and on a lane.  They reject exactly the same grid
    values, and every rejection names the parameter with one message."""
    family = FAMILIES[kind]
    param = family.params[index]
    stem = f"{param.name} {param.guard.message}"
    args = [VALID[p.type] for p in family.params]
    for value in GRID:
        args[index] = value
        outcomes = []
        try:
            family.cls(*args)
            outcomes.append(None)
        except ValueError as exc:
            assert str(exc) == f"{stem}, got {value}"
            outcomes.append(stem)
        lane = np.asarray([VALID[param.type], value, VALID[param.type]])
        for shared, failed in ((value, N), (lane, 1)):
            try:
                check_param(family, index, shared, N)
                outcomes.append(None)
            except EvaluationError as exc:
                assert str(exc) == (
                    f"invalid parameters for {family.name}: {stem} "
                    f"(failed for {failed} particle(s))"
                )
                outcomes.append(stem)
        assert outcomes[0] == outcomes[1] == outcomes[2], (value, outcomes)
        assert (outcomes[0] is None) == param.guard.holds(value)


#: Families whose draws feed a parameter, as a calculus expression.
DRAWN = {
    "Normal": "Normal(0.0, 1.0)",
    "Gamma": "Gamma(2.0, 1.0)",
    "Beta": "Beta(2.0, 2.0)",
    "Unif": "Unif",
    "Ber": "Ber(0.5)",
    "Geo": "Geo(0.5)",
    "Pois": "Pois(3.0)",
}

#: A site with a parameter of each type, ``x`` in that parameter's place.
CONSUMER = {
    ty.REAL: "Normal(x, 1.0)",
    ty.PREAL: "Normal(0.0, x)",
    ty.UREAL: "Ber(x)",
}

PROOFS = [(drawn, tau) for drawn in DRAWN for tau in CONSUMER]


def _two_line(header: str, op: str, drawn: str, consumer: str) -> str:
    return (
        f"proc {header} {{\n"
        f"  x <- sample.{op}{{latent}}({drawn});\n"
        f"  y <- sample.{op}{{latent}}({consumer});\n"
        f"  return(y)\n}}\n"
    )


@pytest.mark.parametrize("drawn, tau", PROOFS, ids=[f"{d}-{t}" for d, t in PROOFS])
def test_kernel_checks_a_drawn_parameter_unless_its_support_proves_the_type(drawn, tau):
    """A draw passed as a parameter is checked at run time exactly when the
    drawing family's support is not a subtype of the parameter's type.  The
    pair need not certify: the compiler proves what it can either way."""
    model = _two_line("M() consume latent", "recv", DRAWN[drawn], CONSUMER[tau])
    guide = _two_line("G() provide latent", "send", DRAWN[drawn], CONSUMER[tau])
    source, _paths = compile_kernel_pair(parse_program(model), parse_program(guide), "M", "G")
    support = FAMILIES[ast.DistKind(drawn)].support
    checks = re.findall(r"_rt\.check_param\(_\w+, (\d), (\w+), n\)", source)
    if ty.is_subtype(support, tau):
        assert checks == [], source
    else:
        # Only ``x`` is checked: the consumer's literal parameter passes its guard.
        assert {int(index) for index, _var in checks} == {1 if tau is ty.PREAL else 0}, source

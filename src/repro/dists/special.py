"""``gammaln`` for the densities, exact on small integers without ``scipy``.

The Gamma and Beta densities call ``gammaln`` on their parameters, and the
Poisson density on ``k + 1`` for each count it scores.  The parameters the
library's programs write are small integer literals (``Beta(2, 2)``,
``Gamma(2, 1.5)``), and loading ``scipy.special`` for them costs a process
about 0.2-0.3 s of start-up and 18 MB for its whole life.

:func:`gammaln` answers a scalar integer argument 1-12 (a Python ``int`` or
``float``, or a ``np.float64``) from a table and sends every other argument
(arrays, non-integers, 13 and up, 0, negatives, non-finite values) to
``scipy.special.gammaln``, imported on first use.  The table is
bit-identical to scipy by construction: for ``1 <= x < 13`` cephes ``lgam``
multiplies ``z`` down to ``u == 2`` in exact integer arithmetic and returns
``log(z)`` through the libm ``log`` that :func:`math.log` calls, and every
``(k - 1)!`` with ``k <= 12`` is exact in a double.  Only that branch is
reproduced: cephes's others would need ``log`` over arrays, where NumPy's
vectorised ``log`` differs from libm's in the last bit.

So that a late first import never lands on a server's event-loop thread,
:func:`load_for` imports ``scipy.special`` when a
:class:`~repro.engine.session.ProgramSession` is built, if the pair has a
distribution expression whose density could call :func:`gammaln` outside
the table.  :func:`in_table` decides both that and each call.
"""

from __future__ import annotations

import importlib
import math
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.core import ast

#: ``gammaln(k)`` for the integers ``k`` the table answers, as scipy's type.
_TABLE = {k: np.float64(math.log(float(math.factorial(k - 1)))) for k in range(1, 13)}

#: Scalar types whose integer values convert to the same double scipy sees.
_SCALARS = (int, float, np.float64)


def in_table(x) -> bool:
    """Whether :func:`gammaln` answers ``x`` from its table."""
    return type(x) in _SCALARS and x in _TABLE


def gammaln(x):
    """``scipy.special.gammaln(x)``, bit for bit and in type."""
    if in_table(x):
        return _TABLE[x]
    from scipy.special import gammaln as scipy_gammaln

    return scipy_gammaln(x)


def _gammaln_arguments(kind: ast.DistKind, params: Sequence) -> Tuple:
    """What ``kind``'s density passes to :func:`gammaln`, given its
    parameters' literal values (``None`` where a parameter is no number
    literal, or where the argument follows the value scored)."""
    if kind is ast.DistKind.GAMMA:
        return tuple(params[:1])
    if kind is ast.DistKind.BETA:  # alpha, beta and alpha + beta
        return (*params, None if None in params else sum(params))
    if kind is ast.DistKind.POIS:
        return (None,)
    return ()


def _dist_exprs(programs: Sequence[ast.Program]) -> Iterator[ast.DistExpr]:
    """Every distribution expression in ``programs``, walked without
    recursion so that a program of any length is walked."""
    stack = [proc.body for program in programs for proc in program.procedures]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Command):
            stack.extend(ast.command_children(node))
            stack.extend(ast.command_exprs(node))
            continue
        if isinstance(node, ast.DistExpr):
            yield node
        stack.extend(ast.expr_children(node))


def leaves_table(programs: Sequence[ast.Program]) -> bool:
    """Whether a density in ``programs`` could call :func:`gammaln` outside
    its table: any ``Pois``, or a ``Gamma``/``Beta`` whose arguments are not
    number literals inside it."""
    literals = (ast.RealLit, ast.NatLit)
    return any(
        not in_table(arg)
        for dist in _dist_exprs(programs)
        for arg in _gammaln_arguments(
            dist.kind, [a.value if isinstance(a, literals) else None for a in dist.args]
        )
    )


def load_for(programs: Sequence[ast.Program]) -> None:
    """Import ``scipy.special`` now if :func:`leaves_table` holds."""
    if leaves_table(programs):
        importlib.import_module("scipy.special")

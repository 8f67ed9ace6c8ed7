"""Runtime values and the pure-expression evaluator (paper Fig. 11).

Runtime values are plain Python values:

* unit        — ``None``
* Booleans    — ``bool``
* reals       — ``float``
* naturals    — ``int``
* tuples      — Python tuples
* closures    — :class:`Closure`
* distributions — :class:`repro.dists.Distribution` objects

The evaluator is strict and environment-based; it raises
:class:`repro.errors.EvaluationError` on unbound variables or ill-typed
primitive applications (which the basic type checker normally rules out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.core import ast
from repro.dists import make_distribution
from repro.errors import EvaluationError

Environment = Mapping[str, object]


@dataclass(frozen=True)
class Closure:
    """A function closure ``clo(V, λ(x.e))``."""

    env: "tuple"
    param: str
    body: ast.Expr

    @staticmethod
    def make(env: Environment, param: str, body: ast.Expr) -> "Closure":
        return Closure(tuple(sorted(env.items(), key=lambda kv: kv[0])), param, body)

    def environment(self) -> Dict[str, object]:
        return dict(self.env)


def _as_number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"{what}: expected a number, got {value!r}")
    return float(value)


def _as_bool(value: object, what: str) -> bool:
    if isinstance(value, bool):
        return value
    # A comparison of two NumPy scalars (e.g. ``np.float64`` arguments).
    if isinstance(value, np.bool_):
        return bool(value)
    raise EvaluationError(f"{what}: expected a Boolean, got {value!r}")


_ARITH = {
    ast.BinOp.ADD: lambda a, b: a + b,
    ast.BinOp.SUB: lambda a, b: a - b,
    ast.BinOp.MUL: lambda a, b: a * b,
    ast.BinOp.DIV: lambda a, b: a / b,
}

_CMP = {
    ast.BinOp.LT: lambda a, b: a < b,
    ast.BinOp.LE: lambda a, b: a <= b,
    ast.BinOp.GT: lambda a, b: a > b,
    ast.BinOp.GE: lambda a, b: a >= b,
}


def eval_expr(env: Environment, expr: ast.Expr) -> object:
    """Evaluate a pure expression under an environment."""
    if isinstance(expr, ast.Var):
        if expr.name not in env:
            raise EvaluationError(f"unbound variable {expr.name!r}")
        return env[expr.name]

    if isinstance(expr, ast.Triv):
        return None
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.RealLit):
        return float(expr.value)
    if isinstance(expr, ast.NatLit):
        return int(expr.value)

    if isinstance(expr, ast.IfExpr):
        cond = _as_bool(eval_expr(env, expr.cond), "if-condition")
        return eval_expr(env, expr.then if cond else expr.orelse)

    if isinstance(expr, ast.PrimOp):
        return _eval_primop(env, expr)

    if isinstance(expr, ast.PrimUnOp):
        return _eval_primunop(env, expr)

    if isinstance(expr, ast.Lam):
        return Closure.make(env, expr.param, expr.body)

    if isinstance(expr, ast.App):
        func = eval_expr(env, expr.func)
        arg = eval_expr(env, expr.arg)
        if not isinstance(func, Closure):
            raise EvaluationError(f"applying a non-function value {func!r}")
        call_env = func.environment()
        call_env[func.param] = arg
        return eval_expr(call_env, func.body)

    if isinstance(expr, ast.Let):
        bound = eval_expr(env, expr.bound)
        inner = dict(env)
        inner[expr.var] = bound
        return eval_expr(inner, expr.body)

    if isinstance(expr, ast.Tuple_):
        return tuple(eval_expr(env, item) for item in expr.items)

    if isinstance(expr, ast.Proj):
        value = eval_expr(env, expr.tuple_expr)
        if not isinstance(value, tuple) or not 0 <= expr.index < len(value):
            raise EvaluationError(
                f"invalid projection .{expr.index} from {value!r}"
            )
        return value[expr.index]

    if isinstance(expr, ast.DistExpr):
        args = [eval_expr(env, a) for a in expr.args]
        numeric_args = [_as_number(a, f"{expr.kind.value} parameter") for a in args]
        return make_distribution(expr.kind, numeric_args)

    raise EvaluationError(f"unknown expression node {expr!r}")


def _eval_primop(env: Environment, expr: ast.PrimOp) -> object:
    op = expr.op
    if op is ast.BinOp.AND:
        left = _as_bool(eval_expr(env, expr.left), "left operand of &&")
        if not left:
            return False
        return _as_bool(eval_expr(env, expr.right), "right operand of &&")
    if op is ast.BinOp.OR:
        left = _as_bool(eval_expr(env, expr.left), "left operand of ||")
        if left:
            return True
        return _as_bool(eval_expr(env, expr.right), "right operand of ||")

    left = eval_expr(env, expr.left)
    right = eval_expr(env, expr.right)

    if op in (ast.BinOp.EQ, ast.BinOp.NE):
        equal = left == right
        return equal if op is ast.BinOp.EQ else not equal

    if op in _CMP:
        return _CMP[op](_as_number(left, "comparison operand"), _as_number(right, "comparison operand"))

    if op in _ARITH:
        a = _as_number(left, f"operand of {op.value}")
        b = _as_number(right, f"operand of {op.value}")
        if op is ast.BinOp.DIV and b == 0.0:
            raise EvaluationError("division by zero")
        result = _ARITH[op](a, b)
        # Preserve integer-ness for nat arithmetic where possible.
        if isinstance(left, int) and isinstance(right, int) and not isinstance(left, bool) \
                and not isinstance(right, bool) and op in (ast.BinOp.ADD, ast.BinOp.SUB, ast.BinOp.MUL):
            return int(result)
        return result

    raise EvaluationError(f"unknown binary operator {op!r}")


def _eval_primunop(env: Environment, expr: ast.PrimUnOp) -> object:
    op = expr.op
    operand = eval_expr(env, expr.operand)
    if op is ast.UnOp.NOT:
        return not _as_bool(operand, "operand of !")
    number = _as_number(operand, f"operand of {op.value}")
    if op is ast.UnOp.NEG:
        return -number if not isinstance(operand, int) else -operand
    if op is ast.UnOp.EXP:
        return math.exp(number)
    if op is ast.UnOp.LOG:
        if number <= 0.0:
            raise EvaluationError(f"log of a non-positive number {number}")
        return math.log(number)
    if op is ast.UnOp.SQRT:
        if number < 0.0:
            raise EvaluationError(f"sqrt of a negative number {number}")
        return math.sqrt(number)
    raise EvaluationError(f"unknown unary operator {op!r}")

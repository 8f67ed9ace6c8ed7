"""Basic (simply-typed) type checking for the deterministic fragment.

This module implements the expression typing rules of paper Fig. 12 and a
*forward* result-type pass over commands.  Guide-type inference
(:mod:`repro.core.typecheck.guide_infer`) is layered on top: it needs to know
the payload type ``τ`` of each sample site (from ``e : dist(τ)``), the
Boolean-ness of branch predicates, and the result type of each sub-command so
the typing context can be extended through ``bnd``.

Numeric literals are typed at the most precise scalar type (``ℝ(0,1)`` for
values in the open unit interval, ``ℝ+`` for positive values, ``ℝ``
otherwise), and scalar subtyping (``ℝ(0,1) <: ℝ+ <: ℝ``, ``ℕn <: ℕ``) is
applied at distribution-parameter positions and joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core import ast
from repro.core import types as ty
from repro.errors import BasicTypeError

# A typing context Γ maps variable names to basic types.
Context = Mapping[str, ty.BaseType]


@dataclass(frozen=True)
class BasicSignature:
    """Parameter and result types for a procedure (basic-type level)."""

    param_types: Tuple[ty.BaseType, ...]
    result_type: Optional[ty.BaseType]  # None = not yet resolved (recursion)


# ---------------------------------------------------------------------------
# Distribution families: parameter types and support types
# ---------------------------------------------------------------------------

#: For each distribution family, the tuple of expected parameter types
#: (``None`` marks variadic families) and the exact support type.
DIST_PARAM_TYPES: Dict[ast.DistKind, Optional[Tuple[ty.BaseType, ...]]] = {
    ast.DistKind.BER: (ty.UREAL,),
    ast.DistKind.UNIF: (),
    ast.DistKind.BETA: (ty.PREAL, ty.PREAL),
    ast.DistKind.GAMMA: (ty.PREAL, ty.PREAL),
    ast.DistKind.NORMAL: (ty.REAL, ty.PREAL),
    ast.DistKind.CAT: None,  # n >= 1 positive weights
    ast.DistKind.GEO: (ty.UREAL,),
    ast.DistKind.POIS: (ty.PREAL,),
}


def dist_support_type(kind: ast.DistKind, n_args: int) -> ty.BaseType:
    """Support type of a distribution family (paper Sec. 3)."""
    if kind is ast.DistKind.BER:
        return ty.BOOL
    if kind in (ast.DistKind.UNIF, ast.DistKind.BETA):
        return ty.UREAL
    if kind is ast.DistKind.GAMMA:
        return ty.PREAL
    if kind is ast.DistKind.NORMAL:
        return ty.REAL
    if kind is ast.DistKind.CAT:
        return ty.FinNatTy(n_args)
    if kind in (ast.DistKind.GEO, ast.DistKind.POIS):
        return ty.NAT
    raise BasicTypeError(f"unknown distribution family {kind!r}")


# ---------------------------------------------------------------------------
# Expression typing
# ---------------------------------------------------------------------------


def _type_of_real_literal(value: float) -> ty.BaseType:
    if 0.0 < value < 1.0:
        return ty.UREAL
    if value > 0.0:
        return ty.PREAL
    return ty.REAL


def _require_subtype(actual: ty.BaseType, expected: ty.BaseType, what: str) -> None:
    if not ty.is_subtype(actual, expected):
        raise BasicTypeError(f"{what}: expected {expected}, got {actual}")


def infer_expr_type(
    ctx: Context,
    expr: ast.Expr,
    signatures: Optional[Mapping[str, BasicSignature]] = None,
) -> ty.BaseType:
    """Infer the basic type of an expression under context ``ctx``.

    Raises :class:`BasicTypeError` when the expression is ill-typed.
    """
    if isinstance(expr, ast.Var):
        if expr.name not in ctx:
            raise BasicTypeError(f"unbound variable {expr.name!r}")
        return ctx[expr.name]

    if isinstance(expr, ast.Triv):
        return ty.UNIT
    if isinstance(expr, ast.BoolLit):
        return ty.BOOL
    if isinstance(expr, ast.RealLit):
        return _type_of_real_literal(expr.value)
    if isinstance(expr, ast.NatLit):
        return ty.NAT

    if isinstance(expr, ast.IfExpr):
        cond_ty = infer_expr_type(ctx, expr.cond, signatures)
        _require_subtype(cond_ty, ty.BOOL, "if-condition")
        then_ty = infer_expr_type(ctx, expr.then, signatures)
        else_ty = infer_expr_type(ctx, expr.orelse, signatures)
        joined = ty.join(then_ty, else_ty)
        if joined is None:
            raise BasicTypeError(
                f"if-expression branches have incompatible types {then_ty} and {else_ty}"
            )
        return joined

    if isinstance(expr, ast.PrimOp):
        return _infer_primop(ctx, expr, signatures)

    if isinstance(expr, ast.PrimUnOp):
        return _infer_primunop(ctx, expr, signatures)

    if isinstance(expr, ast.Lam):
        # Lambdas default the parameter to ℝ; they are rarely used in models.
        body_ty = infer_expr_type({**ctx, expr.param: ty.REAL}, expr.body, signatures)
        return ty.FunTy(ty.REAL, body_ty)

    if isinstance(expr, ast.App):
        fun_ty = infer_expr_type(ctx, expr.func, signatures)
        arg_ty = infer_expr_type(ctx, expr.arg, signatures)
        if not isinstance(fun_ty, ty.FunTy):
            raise BasicTypeError(f"applying a non-function of type {fun_ty}")
        _require_subtype(arg_ty, fun_ty.arg, "function argument")
        return fun_ty.result

    if isinstance(expr, ast.Let):
        bound_ty = infer_expr_type(ctx, expr.bound, signatures)
        return infer_expr_type({**ctx, expr.var: bound_ty}, expr.body, signatures)

    if isinstance(expr, ast.Tuple_):
        return ty.TupleTy(tuple(infer_expr_type(ctx, e, signatures) for e in expr.items))

    if isinstance(expr, ast.Proj):
        tup_ty = infer_expr_type(ctx, expr.tuple_expr, signatures)
        if not isinstance(tup_ty, ty.TupleTy):
            raise BasicTypeError(f"projecting from a non-tuple of type {tup_ty}")
        if not 0 <= expr.index < len(tup_ty.items):
            raise BasicTypeError(
                f"projection index {expr.index} out of range for {tup_ty}"
            )
        return tup_ty.items[expr.index]

    if isinstance(expr, ast.DistExpr):
        return _infer_dist_expr(ctx, expr, signatures)

    raise BasicTypeError(f"unknown expression node {expr!r}")


def _infer_primop(
    ctx: Context, expr: ast.PrimOp, signatures: Optional[Mapping[str, BasicSignature]]
) -> ty.BaseType:
    left = infer_expr_type(ctx, expr.left, signatures)
    right = infer_expr_type(ctx, expr.right, signatures)
    op = expr.op

    if op in (ast.BinOp.AND, ast.BinOp.OR):
        _require_subtype(left, ty.BOOL, f"left operand of {op.value}")
        _require_subtype(right, ty.BOOL, f"right operand of {op.value}")
        return ty.BOOL

    if op in (ast.BinOp.EQ, ast.BinOp.NE):
        if ty.join(left, right) is None and left != right:
            raise BasicTypeError(
                f"cannot compare values of incompatible types {left} and {right}"
            )
        return ty.BOOL

    if op in (ast.BinOp.LT, ast.BinOp.LE, ast.BinOp.GT, ast.BinOp.GE):
        numeric_like = lambda t: ty.is_numeric(t) or ty.is_integral(t)  # noqa: E731
        if not (numeric_like(left) and numeric_like(right)):
            raise BasicTypeError(
                f"comparison {op.value} requires numeric operands, got {left} and {right}"
            )
        return ty.BOOL

    # Arithmetic
    if ty.is_integral(left) and ty.is_integral(right):
        if op in (ast.BinOp.ADD, ast.BinOp.MUL):
            return ty.NAT
        if op is ast.BinOp.SUB:
            return ty.REAL  # subtraction can go negative
        if op is ast.BinOp.DIV:
            return ty.REAL
    if (ty.is_numeric(left) or ty.is_integral(left)) and (
        ty.is_numeric(right) or ty.is_integral(right)
    ):
        positive = lambda t: ty.is_subtype(t, ty.PREAL) or isinstance(t, (ty.NatTy, ty.FinNatTy))  # noqa: E731
        unit_interval = lambda t: ty.is_subtype(t, ty.UREAL)  # noqa: E731
        if op is ast.BinOp.ADD:
            return ty.PREAL if (ty.is_subtype(left, ty.PREAL) and ty.is_subtype(right, ty.PREAL)) else ty.REAL
        if op is ast.BinOp.MUL:
            if unit_interval(left) and unit_interval(right):
                return ty.UREAL
            if positive(left) and positive(right):
                return ty.PREAL
            return ty.REAL
        if op is ast.BinOp.DIV:
            if ty.is_subtype(left, ty.PREAL) and ty.is_subtype(right, ty.PREAL):
                return ty.PREAL
            return ty.REAL
        if op is ast.BinOp.SUB:
            return ty.REAL
    raise BasicTypeError(
        f"operator {op.value} cannot be applied to operands of types {left} and {right}"
    )


def _infer_primunop(
    ctx: Context, expr: ast.PrimUnOp, signatures: Optional[Mapping[str, BasicSignature]]
) -> ty.BaseType:
    operand = infer_expr_type(ctx, expr.operand, signatures)
    op = expr.op
    if op is ast.UnOp.NOT:
        _require_subtype(operand, ty.BOOL, "operand of !")
        return ty.BOOL
    if op is ast.UnOp.NEG:
        if not (ty.is_numeric(operand) or ty.is_integral(operand)):
            raise BasicTypeError(f"cannot negate a value of type {operand}")
        return ty.REAL
    if op is ast.UnOp.EXP:
        if not (ty.is_numeric(operand) or ty.is_integral(operand)):
            raise BasicTypeError(f"exp expects a numeric operand, got {operand}")
        return ty.PREAL
    if op is ast.UnOp.LOG:
        # The operand is only *statically* required to be numeric; evaluation
        # raises if it is not strictly positive at run time.  Requiring ℝ+
        # statically would reject natural idioms like log(x*x + y*y) where
        # the operand is positive but typed ℝ.
        if not (ty.is_numeric(operand) or ty.is_integral(operand)):
            raise BasicTypeError(f"log expects a numeric operand, got {operand}")
        return ty.REAL
    if op is ast.UnOp.SQRT:
        if not (ty.is_numeric(operand) or ty.is_integral(operand)):
            raise BasicTypeError(f"sqrt expects a numeric operand, got {operand}")
        return ty.PREAL
    raise BasicTypeError(f"unknown unary operator {op!r}")


def _infer_dist_expr(
    ctx: Context, expr: ast.DistExpr, signatures: Optional[Mapping[str, BasicSignature]]
) -> ty.BaseType:
    expected = DIST_PARAM_TYPES[expr.kind]
    if expected is None:
        # Categorical: n >= 1 positive weights.
        if len(expr.args) < 1:
            raise BasicTypeError("Cat expects at least one weight")
        for i, arg in enumerate(expr.args):
            arg_ty = infer_expr_type(ctx, arg, signatures)
            _require_subtype(arg_ty, ty.PREAL, f"Cat weight #{i}")
    else:
        if len(expr.args) != len(expected):
            raise BasicTypeError(
                f"{expr.kind.value} expects {len(expected)} parameter(s), got {len(expr.args)}"
            )
        for i, (arg, want) in enumerate(zip(expr.args, expected)):
            arg_ty = infer_expr_type(ctx, arg, signatures)
            _require_subtype(arg_ty, want, f"{expr.kind.value} parameter #{i}")
    return ty.DistTy(dist_support_type(expr.kind, len(expr.args)))


# ---------------------------------------------------------------------------
# Forward result-type pass over commands
# ---------------------------------------------------------------------------


def command_result_type(
    ctx: Context,
    cmd: ast.Command,
    signatures: Mapping[str, BasicSignature],
) -> Optional[ty.BaseType]:
    """Compute the result (value) type of a command under ``ctx``.

    Returns ``None`` when the result type cannot be resolved yet; this only
    happens for calls to procedures whose result type is still unresolved
    during the fixed-point iteration of :func:`check_program_basic`.
    """
    if isinstance(cmd, ast.Ret):
        return infer_expr_type(ctx, cmd.expr, signatures)

    if isinstance(cmd, ast.Bnd):
        first_ty = command_result_type(ctx, cmd.first, signatures)
        inner_ctx = dict(ctx)
        # An unresolved binder defaults to ℝ during the fixed point; the
        # final iteration re-checks with the resolved type.
        inner_ctx[cmd.var] = first_ty if first_ty is not None else ty.REAL
        return command_result_type(inner_ctx, cmd.second, signatures)

    if isinstance(cmd, (ast.SampleRecv, ast.SampleSend)):
        dist_ty = infer_expr_type(ctx, cmd.dist, signatures)
        if not isinstance(dist_ty, ty.DistTy):
            raise BasicTypeError(
                f"sample command expects a distribution, got {dist_ty}"
            )
        return dist_ty.support

    if isinstance(cmd, ast.Observe):
        dist_ty = infer_expr_type(ctx, cmd.dist, signatures)
        if not isinstance(dist_ty, ty.DistTy):
            raise BasicTypeError(f"observe expects a distribution, got {dist_ty}")
        value_ty = infer_expr_type(ctx, cmd.value, signatures)
        _require_subtype(value_ty, _observable_supertype(dist_ty.support), "observed value")
        return ty.UNIT

    if isinstance(cmd, ast.CondRecv):
        return _join_branches(ctx, cmd.then, cmd.orelse, signatures)

    if isinstance(cmd, (ast.CondSend, ast.CondPure)):
        cond_ty = infer_expr_type(ctx, cmd.cond, signatures)
        _require_subtype(cond_ty, ty.BOOL, "branch predicate")
        return _join_branches(ctx, cmd.then, cmd.orelse, signatures)

    if isinstance(cmd, ast.Call):
        if cmd.proc not in signatures:
            raise BasicTypeError(f"call to unknown procedure {cmd.proc!r}")
        sig = signatures[cmd.proc]
        _check_call_argument(ctx, cmd, sig, signatures)
        return sig.result_type

    raise BasicTypeError(f"unknown command node {cmd!r}")


def _observable_supertype(support: ty.BaseType) -> ty.BaseType:
    """Observed data may come from a wider numeric type than the exact support.

    An observation of a Gamma-distributed site is a positive real, but data
    files typically store it as a plain real; we accept the widest numeric
    supertype and let the density computation assign weight zero to values
    outside the support.
    """
    if ty.is_numeric(support):
        return ty.REAL
    if ty.is_integral(support):
        return ty.NAT
    return support


def _join_branches(
    ctx: Context,
    then: ast.Command,
    orelse: ast.Command,
    signatures: Mapping[str, BasicSignature],
) -> Optional[ty.BaseType]:
    then_ty = command_result_type(ctx, then, signatures)
    else_ty = command_result_type(ctx, orelse, signatures)
    if then_ty is None:
        return else_ty
    if else_ty is None:
        return then_ty
    joined = ty.join(then_ty, else_ty)
    if joined is None and then_ty != else_ty:
        raise BasicTypeError(
            f"conditional branches have incompatible result types {then_ty} and {else_ty}"
        )
    return joined if joined is not None else then_ty


def _check_call_argument(
    ctx: Context,
    call: ast.Call,
    sig: BasicSignature,
    signatures: Mapping[str, BasicSignature],
) -> None:
    """Check a call's argument expression against the callee's parameter types."""
    n_params = len(sig.param_types)
    if n_params == 0:
        return
    arg_ty = infer_expr_type(ctx, call.arg, signatures)
    if n_params == 1:
        _require_subtype(arg_ty, sig.param_types[0], f"argument of {call.proc}")
        return
    if not isinstance(arg_ty, ty.TupleTy) or len(arg_ty.items) != n_params:
        raise BasicTypeError(
            f"{call.proc} expects {n_params} arguments, got {arg_ty}"
        )
    for i, (actual, expected) in enumerate(zip(arg_ty.items, sig.param_types)):
        _require_subtype(actual, expected, f"argument #{i} of {call.proc}")


# ---------------------------------------------------------------------------
# Whole-program basic checking
# ---------------------------------------------------------------------------


def check_program_basic(
    program: ast.Program,
    param_types: Optional[Mapping[str, Tuple[ty.BaseType, ...]]] = None,
    max_iterations: int = 10,
) -> Dict[str, BasicSignature]:
    """Check the deterministic fragment of every procedure and infer result types.

    Result types of (mutually) recursive procedures are resolved by a small
    fixed-point iteration: unresolved call results contribute nothing to
    joins until they stabilise.

    Parameters
    ----------
    program:
        The program to check.
    param_types:
        Optional explicit parameter types per procedure; defaults to the
        annotations recorded by the parser (or ℝ).
    """
    from repro.core.parser.parser import param_types_of

    signatures: Dict[str, BasicSignature] = {}
    for proc in program.procedures:
        if param_types is not None and proc.name in param_types:
            ptypes = param_types[proc.name]
        else:
            ptypes = param_types_of(proc)
        if len(ptypes) != len(proc.params):
            raise BasicTypeError(
                f"{proc.name}: {len(proc.params)} parameters but {len(ptypes)} parameter types"
            )
        signatures[proc.name] = BasicSignature(ptypes, None)

    def proc_context(proc: ast.Procedure) -> Dict[str, ty.BaseType]:
        return dict(zip(proc.params, signatures[proc.name].param_types))

    for _ in range(max_iterations):
        changed = False
        for proc in program.procedures:
            result = command_result_type(proc_context(proc), proc.body, signatures)
            current = signatures[proc.name].result_type
            if result is not None and result != current:
                if current is not None:
                    joined = ty.join(current, result)
                    result = joined if joined is not None else result
                    if result == current:
                        continue
                signatures[proc.name] = BasicSignature(
                    signatures[proc.name].param_types, result
                )
                changed = True
        if not changed:
            break

    # Procedures whose result type never resolved (e.g. a procedure that only
    # ever tail-calls itself) default to unit.
    for name, sig in list(signatures.items()):
        if sig.result_type is None:
            signatures[name] = BasicSignature(sig.param_types, ty.UNIT)

    # Final full re-check with all result types resolved, so any latent type
    # error in a body surfaces.
    for proc in program.procedures:
        command_result_type(proc_context(proc), proc.body, signatures)

    return signatures

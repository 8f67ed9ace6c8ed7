"""Abstract syntax of the core coroutine-based calculus (paper Fig. 7).

The calculus is *modal*: expressions describe pure, deterministic
computations, while commands describe probabilistic computations that may
communicate on channels.  A program is a collection of mutually recursive
procedures, each of which consumes at most one channel and provides at most
one channel.

All nodes are frozen dataclasses so they can be hashed, compared
structurally, and used as dictionary keys.  Every node carries an optional
``loc`` source position (``(line, column)``) that is excluded from equality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

# ---------------------------------------------------------------------------
# Source locations
# ---------------------------------------------------------------------------

Loc = Optional[Tuple[int, int]]


def _loc_field() -> Loc:
    return field(default=None, compare=False, repr=False)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Expressions (pure fragment)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class of the pure expression language."""


@dataclass(frozen=True)
class Var(Expr):
    """A program variable reference ``x``."""

    name: str
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Triv(Expr):
    """The unit value ``triv`` of type 𝟙."""

    loc: Loc = _loc_field()


@dataclass(frozen=True)
class BoolLit(Expr):
    """A Boolean literal ``true`` or ``false``."""

    value: bool
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class RealLit(Expr):
    """A real-valued literal.

    The basic type checker assigns the most precise scalar type available:
    ℝ(0,1) for values strictly between 0 and 1, ℝ+ for positive values,
    ℝ otherwise.
    """

    value: float
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class NatLit(Expr):
    """A natural-number literal."""

    value: int
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class IfExpr(Expr):
    """Pure conditional expression ``if(e; e1; e2)``."""

    cond: Expr
    then: Expr
    orelse: Expr
    loc: Loc = _loc_field()


class BinOp(enum.Enum):
    """Built-in binary operators on scalar values."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"


@dataclass(frozen=True)
class PrimOp(Expr):
    """Application of a built-in binary operator ``op^(e1; e2)``."""

    op: BinOp
    left: Expr
    right: Expr
    loc: Loc = _loc_field()


class UnOp(enum.Enum):
    """Built-in unary operators."""

    NEG = "-"
    NOT = "!"
    EXP = "exp"
    LOG = "log"
    SQRT = "sqrt"


@dataclass(frozen=True)
class PrimUnOp(Expr):
    """Application of a built-in unary operator."""

    op: UnOp
    operand: Expr
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Lam(Expr):
    """A lambda abstraction ``λ(x. e)``."""

    param: str
    body: Expr
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class App(Expr):
    """Function application ``app(e1; e2)``."""

    func: Expr
    arg: Expr
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Let(Expr):
    """Pure let binding ``let(e1; x. e2)``."""

    bound: Expr
    var: str
    body: Expr
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Tuple_(Expr):
    """An n-ary tuple expression (extension used by benchmark models)."""

    items: Tuple[Expr, ...]
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Proj(Expr):
    """Tuple projection ``e.i`` (0-based index)."""

    tuple_expr: Expr
    index: int
    loc: Loc = _loc_field()


# -- distribution expressions -----------------------------------------------


class DistKind(enum.Enum):
    """Primitive distribution families supported by the calculus.

    Each family has a fixed number of parameters and a *support type*: the
    scalar type that characterises its support exactly (paper Sec. 3).
    """

    BER = "Ber"          # dist(𝟚), one ℝ(0,1) parameter
    UNIF = "Unif"        # dist(ℝ(0,1)), no parameters
    BETA = "Beta"        # dist(ℝ(0,1)), two ℝ+ parameters
    GAMMA = "Gamma"      # dist(ℝ+), two ℝ+ parameters
    NORMAL = "Normal"    # dist(ℝ), mean ℝ and stddev ℝ+
    CAT = "Cat"          # dist(ℕn), n ℝ+ weights
    GEO = "Geo"          # dist(ℕ), one ℝ(0,1) parameter
    POIS = "Pois"        # dist(ℕ), one ℝ+ parameter

    # Members are singletons compared by identity; hashing them by identity
    # too keeps a table lookup such as ``FAMILIES[kind]`` free of the
    # Python-level call that ``Enum.__hash__`` makes.
    __hash__ = object.__hash__


DIST_ARITY = {
    DistKind.BER: 1,
    DistKind.UNIF: 0,
    DistKind.BETA: 2,
    DistKind.GAMMA: 2,
    DistKind.NORMAL: 2,
    DistKind.CAT: None,  # variadic (n >= 1)
    DistKind.GEO: 1,
    DistKind.POIS: 1,
}


@dataclass(frozen=True)
class DistExpr(Expr):
    """A primitive-distribution expression, e.g. ``Normal(mu, sigma)``."""

    kind: DistKind
    args: Tuple[Expr, ...]
    loc: Loc = _loc_field()


# ---------------------------------------------------------------------------
# Commands (probabilistic fragment)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """Base class of the monadic command language."""


@dataclass(frozen=True)
class Ret(Command):
    """``ret(e)`` — return the value of a pure expression.

    Evaluates with weight 1 and empty guidance traces.
    """

    expr: Expr
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Bnd(Command):
    """``bnd(m1; x. m2)`` — monadic sequencing.

    Runs ``m1``, binds its value to ``x``, then runs ``m2``.  Guidance traces
    concatenate and weights multiply.
    """

    first: Command
    var: str
    second: Command
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class SampleRecv(Command):
    """``sample.rv{a}(e)`` — receive a sample on channel ``a``.

    ``e`` evaluates to a primitive distribution ``d``; the received value is
    scored against ``d.density``.
    """

    channel: str
    dist: Expr
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class SampleSend(Command):
    """``sample.sd{a}(e)`` — draw a sample from ``e`` and send it on ``a``."""

    channel: str
    dist: Expr
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class CondRecv(Command):
    """``cond.rv{a}(m1; m2)`` — receive a branch selection on channel ``a``.

    The paper writes the branch hole as ``★``: the predicate is supplied by
    the other coroutine.
    """

    channel: str
    then: Command
    orelse: Command
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class CondSend(Command):
    """``cond.sd{a}(e; m1; m2)`` — evaluate ``e`` to a Boolean, send it as a
    branch selection on channel ``a``, and continue with the matching branch.
    """

    channel: str
    cond: Expr
    then: Command
    orelse: Command
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class CondPure(Command):
    """``if e then m1 else m2`` with no communication.

    This is a convenience extension over the paper's calculus: a conditional
    whose branch selection is *not* communicated.  Guide-type inference
    requires both branches to induce identical protocols on *both* channels,
    so the extension does not weaken the soundness guarantee.
    """

    cond: Expr
    then: Command
    orelse: Command
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Call(Command):
    """``call(f; e)`` — procedure call with a single argument."""

    proc: str
    arg: Expr
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Observe(Command):
    """``observe(e_dist; e_value)`` — score a known value against a distribution.

    A convenience extension (sugar over ``sample.sd{obs}`` followed by
    conditioning): it multiplies the current weight by ``d.density(v)``
    without any channel communication.  Used by a few handwritten baselines;
    the benchmark programs in :mod:`repro.models` stick to the paper's
    channel-based observation style.
    """

    dist: Expr
    value: Expr
    loc: Loc = _loc_field()


# ---------------------------------------------------------------------------
# Procedures and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Procedure:
    """A procedure ``fix{a;b}(f. x. m)``.

    Parameters
    ----------
    name:
        Procedure name ``f``.
    params:
        Parameter names.  The paper uses a single parameter; we allow a tuple
        of parameters for convenience (the parser packs/unpacks them).
    consumes:
        Name of the consumed channel ``a``, or ``None``.
    provides:
        Name of the provided channel ``b``, or ``None``.
    body:
        The command ``m``.
    """

    name: str
    params: Tuple[str, ...]
    consumes: Optional[str]
    provides: Optional[str]
    body: Command
    loc: Loc = _loc_field()


@dataclass(frozen=True)
class Program:
    """A probabilistic program: an ordered collection of procedures."""

    procedures: Tuple[Procedure, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.procedures]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate procedure names: {dupes}")

    def procedure(self, name: str) -> Procedure:
        """Look up a procedure by name, raising ``KeyError`` if absent."""
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(name)

    def names(self) -> Tuple[str, ...]:
        """Return procedure names in declaration order."""
        return tuple(p.name for p in self.procedures)

    def merged_with(self, other: "Program") -> "Program":
        """Return a program containing this program's procedures plus ``other``'s.

        Useful for pairing a model program with a guide program so that joint
        type checking and joint execution see a single procedure table.
        """
        return Program(self.procedures + other.procedures)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def expr_children(expr: Expr) -> Tuple[Expr, ...]:
    """Return the immediate sub-expressions of ``expr``."""
    if isinstance(expr, (Var, Triv, BoolLit, RealLit, NatLit)):
        return ()
    if isinstance(expr, IfExpr):
        return (expr.cond, expr.then, expr.orelse)
    if isinstance(expr, PrimOp):
        return (expr.left, expr.right)
    if isinstance(expr, PrimUnOp):
        return (expr.operand,)
    if isinstance(expr, Lam):
        return (expr.body,)
    if isinstance(expr, App):
        return (expr.func, expr.arg)
    if isinstance(expr, Let):
        return (expr.bound, expr.body)
    if isinstance(expr, Tuple_):
        return expr.items
    if isinstance(expr, Proj):
        return (expr.tuple_expr,)
    if isinstance(expr, DistExpr):
        return expr.args
    raise TypeError(f"unknown expression node: {expr!r}")


def command_children(cmd: Command) -> Tuple[Command, ...]:
    """Return the immediate sub-commands of ``cmd``."""
    if isinstance(cmd, (Ret, SampleRecv, SampleSend, Call, Observe)):
        return ()
    if isinstance(cmd, Bnd):
        return (cmd.first, cmd.second)
    if isinstance(cmd, (CondRecv,)):
        return (cmd.then, cmd.orelse)
    if isinstance(cmd, (CondSend, CondPure)):
        return (cmd.then, cmd.orelse)
    raise TypeError(f"unknown command node: {cmd!r}")


def command_exprs(cmd: Command) -> Tuple[Expr, ...]:
    """Return the pure expressions ``cmd`` itself evaluates (not those of
    its sub-commands)."""
    if isinstance(cmd, Ret):
        return (cmd.expr,)
    if isinstance(cmd, (SampleRecv, SampleSend)):
        return (cmd.dist,)
    if isinstance(cmd, (CondSend, CondPure)):
        return (cmd.cond,)
    if isinstance(cmd, Call):
        return (cmd.arg,)
    if isinstance(cmd, Observe):
        return (cmd.dist, cmd.value)
    if isinstance(cmd, (Bnd, CondRecv)):
        return ()
    raise TypeError(f"unknown command node: {cmd!r}")


def free_vars(expr: Expr) -> frozenset[str]:
    """Compute the free variables of a pure expression."""
    if isinstance(expr, Var):
        return frozenset({expr.name})
    if isinstance(expr, Lam):
        return free_vars(expr.body) - {expr.param}
    if isinstance(expr, Let):
        return free_vars(expr.bound) | (free_vars(expr.body) - {expr.var})
    result: frozenset[str] = frozenset()
    for child in expr_children(expr):
        result |= free_vars(child)
    return result


def command_free_vars(cmd: Command) -> frozenset[str]:
    """Compute the free (expression) variables of a command."""
    if isinstance(cmd, Ret):
        return free_vars(cmd.expr)
    if isinstance(cmd, Bnd):
        return command_free_vars(cmd.first) | (command_free_vars(cmd.second) - {cmd.var})
    if isinstance(cmd, (SampleRecv, SampleSend)):
        return free_vars(cmd.dist)
    if isinstance(cmd, CondRecv):
        return command_free_vars(cmd.then) | command_free_vars(cmd.orelse)
    if isinstance(cmd, (CondSend, CondPure)):
        return (
            free_vars(cmd.cond)
            | command_free_vars(cmd.then)
            | command_free_vars(cmd.orelse)
        )
    if isinstance(cmd, Call):
        return free_vars(cmd.arg)
    if isinstance(cmd, Observe):
        return free_vars(cmd.dist) | free_vars(cmd.value)
    raise TypeError(f"unknown command node: {cmd!r}")


def channels_used(cmd: Command) -> frozenset[str]:
    """Return the set of channel names on which ``cmd`` communicates."""
    if isinstance(cmd, (SampleRecv, SampleSend, CondRecv, CondSend)):
        own = frozenset({cmd.channel})
    else:
        own = frozenset()
    for child in command_children(cmd):
        own |= channels_used(child)
    return own


def command_size(cmd: Command) -> int:
    """Number of command nodes in ``cmd`` (used for statistics/reporting)."""
    return 1 + sum(command_size(c) for c in command_children(cmd))


def count_sample_sites(cmd: Command) -> int:
    """Number of ``sample`` commands (send or receive) in ``cmd``."""
    own = 1 if isinstance(cmd, (SampleRecv, SampleSend)) else 0
    return own + sum(count_sample_sites(c) for c in command_children(cmd))


def calls_in(cmd: Command) -> frozenset[str]:
    """Return the names of procedures called (directly) inside ``cmd``."""
    own = frozenset({cmd.proc}) if isinstance(cmd, Call) else frozenset()
    for child in command_children(cmd):
        own |= calls_in(child)
    return own

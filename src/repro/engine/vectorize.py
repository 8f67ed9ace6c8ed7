"""Lockstep vectorized execution of model/guide pairs over a particle axis.

The sequential scheduler (:mod:`repro.core.coroutines.runner`) runs one
particle at a time: every sample site costs a scalar RNG call, a scalar
density evaluation, and a full pass through the Python interpreter.  This
module runs N particles *simultaneously*: environments map variables to
``(n,)`` NumPy arrays, sample sites resolve with one batched draw/score
call (:class:`~repro.engine.batched.BatchedDist`), and the coroutine
scheduler advances one generator pair per *control-flow group* instead of
one pair per particle.

Control-flow divergence
-----------------------

Particles share a generator only while they take the same branches.  When a
branch predicate evaluates to a mixed Boolean array (some particles true,
some false), the group cannot continue in lockstep: the run aborts with an
internal split signal, the particle set is partitioned by the predicate, and
each subgroup re-executes from the start *replaying* every value that was
already resolved for it (sliced from the aborted group's recorded columns).
No value is ever redrawn, so the sampling distribution is exactly that of
the sequential interpreter — splitting only partitions execution.  Recursive
models (e.g. the Fig. 6 PCFG) therefore still run correctly; they simply
degrade towards per-particle groups as paths diverge.

An ``if`` expression whose condition spans the particle axis is a branch
too.  Over numbers it evaluates both arms and merges them lane by lane;
tuples merge component by component.  A closure or distribution cannot be
merged, so an ``if`` choosing one is taken whole where its condition is
uniform over the group and splits the group where it is mixed, exactly as a
pure ``if`` command does.  Every program therefore runs on the lockstep
path; there is no second, per-particle execution of a batch.

Lane helpers
------------

What each operator, Boolean screen, argument binding, branch-uniformity
test and observation replay does to a scalar or an ``(n,)`` array is
defined once, in the "Lane helpers" section below, with the budget and
replay errors.  The interpreter calls these functions, and the compiled
kernels call the same ones through :mod:`repro.compiler.batched_runtime`,
so ``backend="compiled"`` shares every operator with the interpreter by
construction rather than by copy.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from collections import deque
from functools import cached_property
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ast
from repro.core.coroutines.runner import (
    ChannelSpec,
    CoroutineSpec,
    DEFAULT_MAX_OPS,
)
from repro.core.semantics import traces as tr
from repro.dists.base import Distribution
from repro.engine.batched import BatchedDist
from repro.errors import (
    ChannelProtocolError,
    EvaluationError,
    InferenceError,
    TraceExhausted,
    TraceTypeMismatch,
)
from repro.utils.numerics import (
    log_mean_exp,
    normalize_log_weights,
    normalized_ess,
    weighted_mean,
)
from repro.obs import REGISTRY, span
from repro.utils.recursion import deep_recursion
from repro.utils.rng import ensure_rng

#: One particle-population pass through a runner (interpretive or compiled);
#: labelled by the backend that actually executed it.  Shared with
#: :mod:`repro.engine.backend`.
PARTICLE_RUN_SECONDS = REGISTRY.histogram(
    "repro_particle_run_seconds",
    "Wall time of one particle-population pass (sample all particles in "
    "lockstep), by executing backend.",
    labels=("backend",),
)


# ---------------------------------------------------------------------------
# Lane helpers (see the module docstring): kernels call them as ``_rt.<name>``
#
# Emitted code is one expression per ``if``/``&&``/``||``, so those forms
# take thunks (``ifexp``, ``and_``, ``or_``); :func:`eval_expr_vec`
# evaluates the arms itself and shares their strict parts (``as_bool``,
# ``merge_lanes``, ``np.logical_and``/``np.logical_or``).
# ---------------------------------------------------------------------------


def as_bool(value: object, what: str) -> object:
    """Screen a Boolean: a ``bool`` or a Boolean lane array, as is; a NumPy
    Boolean scalar (a comparison of two NumPy scalars) as ``bool``."""
    if isinstance(value, bool):
        return value
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "b":
            return value
    elif isinstance(value, np.bool_):
        return bool(value)
    raise EvaluationError(f"{what}: expected a Boolean, got {value!r}")


#: Values an ``if`` under a lane condition merges lane by lane.
_LANEWISE = (np.ndarray, int, float, bool, np.bool_)


def merge_lanes(cond: np.ndarray, then_value: object, else_value: object) -> object:
    """Merge both strictly evaluated arms of an ``if`` under a lane condition.

    Numbers merge lane by lane, tuples component by component and units to
    unit.  A closure or distribution arm is taken whole where the condition
    is uniform; where it is mixed the group must split, as at a pure branch.
    """
    if type(then_value) is float and type(else_value) is float and cond.ndim == 1:
        # Two literal arms: gather from a two-entry table, bitwise what
        # ``np.where`` builds without its scalar broadcast.
        return np.array([else_value, then_value]).take(cond.view(np.int8))
    if (
        isinstance(then_value, tuple)
        and isinstance(else_value, tuple)
        and len(then_value) == len(else_value)
    ):
        return tuple(merge_lanes(cond, a, b) for a, b in zip(then_value, else_value))
    if then_value is None and else_value is None:
        return None
    if isinstance(then_value, _WHOLE) or isinstance(else_value, _WHOLE):
        selection = uniform_or_none(cond)
        if selection is None:
            raise _SplitRequired(cond, None, None)
        return then_value if selection else else_value
    for value in (then_value, else_value):
        if not isinstance(value, _LANEWISE):
            raise EvaluationError(f"if-expression arm: expected a number, got {value!r}")
    return np.where(cond, then_value, else_value)


def ifexp(cond: object, then, orelse):
    """``if`` over thunks: lazy on a scalar condition, both arms under lanes."""
    cond = as_bool(cond, "if-condition")
    if isinstance(cond, bool):
        return then() if cond else orelse()
    return merge_lanes(cond, then(), orelse())


def and_(left: object, right):
    """``&&`` with a thunk right operand: short-circuits on a scalar ``false``."""
    left = as_bool(left, "left operand of &&")
    if isinstance(left, bool):
        if not left:
            return False
        return as_bool(right(), "right operand of &&")
    return np.logical_and(left, as_bool(right(), "right operand of &&"))


def or_(left: object, right):
    """``||`` with a thunk right operand: short-circuits on a scalar ``true``."""
    left = as_bool(left, "left operand of ||")
    if isinstance(left, bool):
        if left:
            return True
        return as_bool(right(), "right operand of ||")
    return np.logical_or(left, as_bool(right(), "right operand of ||"))


def not_(value: object) -> object:
    value = as_bool(value, "operand of !")
    return (not value) if isinstance(value, bool) else np.logical_not(value)


def eq(left: object, right: object) -> object:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.equal(left, right)
    return left == right


def ne(left: object, right: object) -> object:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.not_equal(left, right)
    return left != right


def div(left: object, right: object) -> object:
    """Division: a scalar zero divisor raises, lanes yield ``inf``/``nan``."""
    if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
        if right == 0.0:
            raise EvaluationError("division by zero")
        return left / right
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.asarray(left, dtype=float) / np.asarray(right, dtype=float)


def _unop(value: object, scalar_fn, array_fn, domain_check=None, domain_msg=None):
    if not isinstance(value, np.ndarray):
        number = float(value)
        if domain_check is not None and not domain_check(number):
            raise EvaluationError(domain_msg.format(number))
        return scalar_fn(number)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return array_fn(value)


def exp_(value: object) -> object:
    return _unop(value, math.exp, np.exp)


def log_(value: object) -> object:
    return _unop(
        value, math.log, np.log,
        domain_check=lambda x: x > 0.0,
        domain_msg="log of a non-positive number {}",
    )


def sqrt_(value: object) -> object:
    return _unop(
        value, math.sqrt, np.sqrt,
        domain_check=lambda x: x >= 0.0,
        domain_msg="sqrt of a negative number {}",
    )


def proj(value: object, index: int) -> object:
    if not isinstance(value, tuple) or not 0 <= index < len(value):
        raise EvaluationError(f"invalid projection .{index} from {value!r}")
    return value[index]


def make_batched(kind: ast.DistKind, args: Sequence[object], n: int) -> BatchedDist:
    """A distribution expression's value: screen each argument as a number."""
    for a in args:
        if not (isinstance(a, np.ndarray) or isinstance(a, (int, float))) or isinstance(a, bool):
            raise EvaluationError(f"{kind.value} parameter: expected a number, got {a!r}")
    return BatchedDist(kind, list(args), n)


def as_batched(value: object, n: int) -> BatchedDist:
    """The distribution a sample command draws from, given any expression's value."""
    if isinstance(value, BatchedDist):
        return value
    if isinstance(value, Distribution):
        return BatchedDist.from_scalar(value, n)
    raise EvaluationError(f"sample command expects a distribution, got {value!r}")


def bind_args(entry: str, nparams: int, args: Sequence[object]) -> Tuple[object, ...]:
    """An entry point's arguments, checked against its parameter count."""
    args = tuple(args)
    if len(args) != nparams:
        raise EvaluationError(f"{entry} expects {nparams} arguments, got {len(args)}")
    return args


def bind_call(name: str, nparams: int, argument: object) -> Tuple[object, ...]:
    """A multi-parameter call's argument: a tuple that unpacks positionally."""
    if not isinstance(argument, tuple) or len(argument) != nparams:
        raise EvaluationError(f"{name} expects {nparams} arguments, got {argument!r}")
    return argument


def uniform_or_none(pred: object) -> Optional[bool]:
    """``True``/``False`` when the predicate is uniform, ``None`` when mixed."""
    if isinstance(pred, bool):
        return pred
    pred = np.asarray(pred, dtype=bool)
    if pred.all():
        return True
    if not pred.any():
        return False
    return None


def _obs_exhausted(what: str, expected: str) -> TraceExhausted:
    return TraceExhausted(f"{what}: expected a {expected} message but the trace is exhausted")


def obs_value(obs: Sequence[tr.Message], position: int, what: str) -> object:
    """The sample value at ``position`` of an external replay trace."""
    if position >= len(obs):
        raise _obs_exhausted(what, "Message")
    message = obs[position]
    if not isinstance(message, (tr.ValP, tr.ValC)):
        raise ChannelProtocolError(
            f"{what}: replay trace provides {message}, expected a sample value"
        )
    return message.value


def obs_fold(obs: Sequence[tr.Message], position: int, what: str) -> None:
    """Check for the call marker at ``position`` of an external replay trace."""
    if position >= len(obs):
        raise _obs_exhausted(what, "Fold")
    message = obs[position]
    if not isinstance(message, tr.Fold):
        raise TraceTypeMismatch(
            f"{what}: expected a Fold message but found {message}"
        )


#: Control-flow splits one vectorized run may take before it gives up.
DEFAULT_MAX_SPLITS = 10_000


def op_budget_error(max_ops: int) -> ChannelProtocolError:
    """The error a group raises past its operation budget."""
    return ChannelProtocolError(
        f"joint execution exceeded the operation budget ({max_ops}); "
        "the model/guide recursion appears not to terminate"
    )


def split_budget_error(max_splits: int) -> InferenceError:
    """The error a run raises past its split budget."""
    return InferenceError(
        f"vectorized execution exceeded {max_splits} control-flow "
        "splits; use the sequential engine for this model"
    )


_DIVERGED = "the replayed execution diverged from the recorded control path"


def replay_overrun_error(channel: str) -> ChannelProtocolError:
    """A rescore resolved past the end of ``channel``'s recorded log."""
    return ChannelProtocolError(
        f"rescore on {channel!r} ran past the recorded message log; {_DIVERGED}"
    )


def replay_kind_error(channel: str, expected: str, found: str) -> ChannelProtocolError:
    """A replayed log held a message of another kind than the one resolved."""
    return ChannelProtocolError(
        f"group replay on {channel!r}: expected a {expected} message, found "
        f"a {found} message"
    )


def replay_unconsumed_error(channel: str, consumed: int, total: int) -> ChannelProtocolError:
    """A rescore finished before consuming ``channel``'s whole recorded log."""
    return ChannelProtocolError(
        f"rescore on {channel!r} consumed only {consumed} of {total} recorded "
        f"messages; {_DIVERGED}"
    )


# ---------------------------------------------------------------------------
# Vectorized expression evaluation
# ---------------------------------------------------------------------------


@dataclass
class VecClosure:
    """A closure whose captured environment may hold particle-axis arrays."""

    env: Dict[str, object]
    param: str
    body: ast.Expr


#: Values an ``if`` under a lane condition takes whole, never lane by lane.
_WHOLE = (VecClosure, BatchedDist, Distribution)


#: The strict binary operators (``&&`` and ``||`` short-circuit, so
#: :func:`eval_expr_vec` handles them itself).
_BINARY = {
    ast.BinOp.ADD: operator.add,
    ast.BinOp.SUB: operator.sub,
    ast.BinOp.MUL: operator.mul,
    ast.BinOp.DIV: div,
    ast.BinOp.LT: operator.lt,
    ast.BinOp.LE: operator.le,
    ast.BinOp.GT: operator.gt,
    ast.BinOp.GE: operator.ge,
    ast.BinOp.EQ: eq,
    ast.BinOp.NE: ne,
}

_UNARY = {
    ast.UnOp.NEG: operator.neg,
    ast.UnOp.NOT: not_,
    ast.UnOp.EXP: exp_,
    ast.UnOp.LOG: log_,
    ast.UnOp.SQRT: sqrt_,
}


def eval_expr_vec(env: Dict[str, object], expr: ast.Expr, n: int) -> object:
    """Evaluate a pure expression where values may be ``(n,)`` arrays.

    Scalars mean "the same value for every particle".  Divergences from the
    scalar evaluator: both branches of an ``if`` with an array condition are
    evaluated strictly (merged by :func:`merge_lanes`), and partial arithmetic
    errors in unselected lanes (division by zero, log of a non-positive
    number) yield ``inf``/``nan`` lanes instead of raising.
    """
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
        cond = as_bool(eval_expr_vec(env, expr.cond, n), "if-condition")
        if isinstance(cond, bool):
            return eval_expr_vec(env, expr.then if cond else expr.orelse, n)
        return merge_lanes(
            cond, eval_expr_vec(env, expr.then, n), eval_expr_vec(env, expr.orelse, n)
        )

    if isinstance(expr, ast.PrimOp):
        op = expr.op
        # ``&&``/``||``: and_/or_ without thunks, so the right arm is
        # evaluated only when a scalar left operand does not decide.
        if op is ast.BinOp.AND:
            left = as_bool(eval_expr_vec(env, expr.left, n), "left operand of &&")
            if left is False:
                return False
            right = as_bool(eval_expr_vec(env, expr.right, n), "right operand of &&")
            return right if left is True else np.logical_and(left, right)
        if op is ast.BinOp.OR:
            left = as_bool(eval_expr_vec(env, expr.left, n), "left operand of ||")
            if left is True:
                return True
            right = as_bool(eval_expr_vec(env, expr.right, n), "right operand of ||")
            return right if left is False else np.logical_or(left, right)
        return _BINARY[op](eval_expr_vec(env, expr.left, n), eval_expr_vec(env, expr.right, n))

    if isinstance(expr, ast.PrimUnOp):
        return _UNARY[expr.op](eval_expr_vec(env, expr.operand, n))

    if isinstance(expr, ast.Lam):
        return VecClosure(dict(env), expr.param, expr.body)

    if isinstance(expr, ast.App):
        func = eval_expr_vec(env, expr.func, n)
        arg = eval_expr_vec(env, expr.arg, n)
        if not isinstance(func, VecClosure):
            raise EvaluationError(f"applying a non-function value {func!r}")
        call_env = dict(func.env)
        call_env[func.param] = arg
        return eval_expr_vec(call_env, func.body, n)

    if isinstance(expr, ast.Let):
        bound = eval_expr_vec(env, expr.bound, n)
        inner = dict(env)
        inner[expr.var] = bound
        return eval_expr_vec(inner, expr.body, n)

    if isinstance(expr, ast.Tuple_):
        return tuple(eval_expr_vec(env, item, n) for item in expr.items)

    if isinstance(expr, ast.Proj):
        return proj(eval_expr_vec(env, expr.tuple_expr, n), expr.index)

    if isinstance(expr, ast.DistExpr):
        return make_batched(expr.kind, [eval_expr_vec(env, a, n) for a in expr.args], n)

    raise EvaluationError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# Vectorized channel operations and command interpretation
# ---------------------------------------------------------------------------


@dataclass
class VOp:
    channel: str


@dataclass
class VOpSendSample(VOp):
    dist: BatchedDist


@dataclass
class VOpRecvSample(VOp):
    dist: BatchedDist


@dataclass
class VOpSendBranch(VOp):
    pred: object  # bool, or (n,) Boolean array


@dataclass
class VOpRecvBranch(VOp):
    pass


@dataclass
class VOpFold(VOp):
    pass


@dataclass
class VOpObserve(VOp):
    dist: BatchedDist
    values: object


@dataclass
class VOpPureBranch(VOp):
    """A non-communicating conditional whose predicate spans the particle axis."""

    pred: object


def interpret_command_vec(program: ast.Program, cmd: ast.Command, env: Dict[str, object], n: int):
    """Interpret ``cmd`` as a coroutine over a particle axis of size ``n``."""
    if isinstance(cmd, ast.Ret):
        return eval_expr_vec(env, cmd.expr, n)

    if isinstance(cmd, ast.Bnd):
        first = yield from interpret_command_vec(program, cmd.first, env, n)
        inner = dict(env)
        inner[cmd.var] = first
        result = yield from interpret_command_vec(program, cmd.second, inner, n)
        return result

    if isinstance(cmd, ast.SampleRecv):
        dist = as_batched(eval_expr_vec(env, cmd.dist, n), n)
        value = yield VOpRecvSample(cmd.channel, dist)
        return value

    if isinstance(cmd, ast.SampleSend):
        dist = as_batched(eval_expr_vec(env, cmd.dist, n), n)
        value = yield VOpSendSample(cmd.channel, dist)
        return value

    if isinstance(cmd, ast.CondSend):
        predicate = as_bool(eval_expr_vec(env, cmd.cond, n), "branch predicate")
        selection = yield VOpSendBranch(cmd.channel, predicate)
        branch = cmd.then if selection else cmd.orelse
        result = yield from interpret_command_vec(program, branch, env, n)
        return result

    if isinstance(cmd, ast.CondRecv):
        selection = yield VOpRecvBranch(cmd.channel)
        branch = cmd.then if selection else cmd.orelse
        result = yield from interpret_command_vec(program, branch, env, n)
        return result

    if isinstance(cmd, ast.CondPure):
        predicate = as_bool(eval_expr_vec(env, cmd.cond, n), "branch predicate")
        if not isinstance(predicate, bool):
            predicate = yield VOpPureBranch("", predicate)
        branch = cmd.then if predicate else cmd.orelse
        result = yield from interpret_command_vec(program, branch, env, n)
        return result

    if isinstance(cmd, ast.Call):
        try:
            callee = program.procedure(cmd.proc)
        except KeyError as exc:
            raise EvaluationError(f"call to unknown procedure {cmd.proc!r}") from exc
        argument = eval_expr_vec(env, cmd.arg, n)
        params = callee.params
        if len(params) > 1:
            call_env = dict(zip(params, bind_call(callee.name, len(params), argument)))
        else:
            call_env = {params[0]: argument} if params else {}
        for channel in (callee.consumes, callee.provides):
            if channel is not None:
                yield VOpFold(channel)
        result = yield from interpret_command_vec(program, callee.body, call_env, n)
        return result

    if isinstance(cmd, ast.Observe):
        dist = as_batched(eval_expr_vec(env, cmd.dist, n), n)
        value = eval_expr_vec(env, cmd.value, n)
        yield VOpObserve("", dist, value)
        return None

    raise EvaluationError(f"unknown command node {cmd!r}")


def interpret_procedure_vec(program: ast.Program, entry: str, args: Sequence[object], n: int):
    procedure = program.procedure(entry)
    env = dict(zip(procedure.params, bind_args(entry, len(procedure.params), args)))
    return interpret_command_vec(program, procedure.body, env, n)


# ---------------------------------------------------------------------------
# The vectorized scheduler
# ---------------------------------------------------------------------------


@dataclass
class VecMessage:
    """One resolved protocol message for a particle group.

    ``payload`` is a ``(group,)`` array for sample values that differ per
    particle, or a plain scalar when every particle shares the value (branch
    selections are always uniform within a group by construction).
    """

    kind: str  # 'val' | 'dir' | 'fold'
    provider: bool  # sent by the channel's provider?
    payload: object = None

    def sliced(self, mask: np.ndarray) -> "VecMessage":
        if not isinstance(self.payload, np.ndarray):
            return self  # messages are never mutated, so groups share scalar ones
        return VecMessage(self.kind, self.provider, self.payload[mask])


class _SplitRequired(Exception):
    """A branch predicate diverged: the group must be partitioned."""

    def __init__(self, mask: np.ndarray, channel: Optional[str], provider: Optional[bool]):
        super().__init__("particle group diverged at a branch")
        self.mask = np.asarray(mask, dtype=bool)
        self.channel = channel
        self.provider = provider


@dataclass
class _VecTask:
    name: str
    generator: object
    log_weight: np.ndarray
    obs_scores: List[object] = field(default_factory=list)
    #: Per-sample-site log-density terms in this task's op order, as
    #: ``(channel, (n,) scores)`` pairs.  The SVI engine uses the guide's
    #: entries as per-site score-function components and the model's entries
    #: to build Rao-Blackwellized learning signals.
    site_scores: List[Tuple[str, np.ndarray]] = field(default_factory=list)
    finished: bool = False
    value: object = None
    started: bool = False
    pending_op: Optional[VOp] = None
    pending_send: object = None
    #: This task's role on each channel, resolved once per scheduler:
    #: ``(state, provides it, its partner runs in this scheduler)``.
    roles: Dict[str, Tuple["_VecChannelState", bool, bool]] = field(default_factory=dict)


@dataclass
class _VecChannelState:
    spec: ChannelSpec
    log: List[VecMessage]
    to_consumer: Deque[Tuple[str, object]] = field(default_factory=deque)
    to_provider: Deque[Tuple[str, object]] = field(default_factory=deque)
    recorded: List[VecMessage] = field(default_factory=list)
    #: The external replay trace (``spec.replay``) and the next position in it.
    replay: Optional[Sequence[tr.Message]] = None
    replay_pos: int = 0
    log_pos: int = 0
    fold_waiting: Optional[str] = None
    fold_passes: set = field(default_factory=set)

    def outgoing(self, sender_is_provider: bool) -> Deque[Tuple[str, object]]:
        return self.to_consumer if sender_is_provider else self.to_provider

    def incoming(self, receiver_is_provider: bool) -> Deque[Tuple[str, object]]:
        return self.to_provider if receiver_is_provider else self.to_consumer


@dataclass
class _GroupResult:
    log_weights: Dict[str, np.ndarray]
    values: Dict[str, object]
    recorded: Dict[str, List[VecMessage]]
    obs_scores: Dict[str, List[object]]
    site_scores: Dict[str, List[Tuple[str, np.ndarray]]]


class _VecScheduler:
    """Round-robin scheduler over one particle group's coroutine pair.

    Mirrors :class:`repro.core.coroutines.runner._Scheduler` operation by
    operation; the differences are that values and weights are ``(n,)``
    arrays, and that resolved messages are recorded as columns so that a
    split can replay them for each subgroup.
    """

    def __init__(
        self,
        coroutines: Sequence[CoroutineSpec],
        channels: Sequence[ChannelSpec],
        rng: np.random.Generator,
        n: int,
        logs: Optional[Dict[str, List[VecMessage]]] = None,
        max_ops: int = DEFAULT_MAX_OPS,
        strict_replay: bool = False,
    ):
        self.rng = rng
        self.n = n
        self.max_ops = max_ops
        self.strict_replay = strict_replay
        self.ops_handled = 0
        self.tasks: Dict[str, _VecTask] = {}
        for spec in coroutines:
            generator = interpret_procedure_vec(spec.program, spec.entry, spec.args, n)
            self.tasks[spec.name] = _VecTask(
                name=spec.name, generator=generator, log_weight=np.zeros(n)
            )
        logs = logs or {}
        self.channels: Dict[str, _VecChannelState] = {
            spec.name: _VecChannelState(spec, log=logs.get(spec.name, []), replay=spec.replay)
            for spec in channels
        }
        for task in self.tasks.values():
            for name, channel in self.channels.items():
                provider = channel.spec.provider == task.name
                partner = channel.spec.consumer if provider else channel.spec.provider
                task.roles[name] = (channel, provider, partner in self.tasks)

    # -- helpers ---------------------------------------------------------------

    def _resolve(
        self,
        channel: _VecChannelState,
        kind: str,
        provider_sent: bool,
        fresh: Callable[[], object],
    ) -> object:
        """Resolve and record the next protocol message on ``channel``.

        Channels bound to an external replay trace always resolve from that
        trace (it is deterministic); all other channels consume the group
        replay log when one is present, so a subgroup re-execution reuses
        exactly the values its particles already drew.
        """
        if channel.replay is None and channel.log_pos < len(channel.log):
            entry = channel.log[channel.log_pos]
            channel.log_pos += 1
            if entry.kind != kind:
                raise replay_kind_error(channel.spec.name, kind, entry.kind)
            payload = entry.payload
        else:
            if self.strict_replay and channel.replay is None:
                # Rescoring mode: a resolution past the end of the recorded
                # log means the coroutines took a different path than the
                # recorded run (e.g. a parameter-dependent pure branch
                # flipped) — drawing fresh values would silently score a
                # different trace.
                raise replay_overrun_error(channel.spec.name)
            payload = fresh()
        channel.recorded.append(VecMessage(kind, provider_sent, payload))
        return payload

    def _replay_value(self, channel: _VecChannelState, what: str) -> object:
        value = obs_value(channel.replay, channel.replay_pos, what)
        channel.replay_pos += 1
        return value

    def _replay_branch(self, channel: _VecChannelState, what: str) -> bool:
        position = channel.replay_pos
        if position >= len(channel.replay):
            raise _obs_exhausted(what, "Message")
        channel.replay_pos += 1
        message = channel.replay[position]
        if not isinstance(message, (tr.DirP, tr.DirC)):
            raise ChannelProtocolError(
                f"{what}: replay trace provides {message}, expected a branch selection"
            )
        return bool(message.value)

    # -- op handlers -----------------------------------------------------------

    def _handle(self, task: _VecTask, op: VOp) -> Tuple[bool, object]:
        self.ops_handled += 1
        if self.ops_handled > self.max_ops:
            raise op_budget_error(self.max_ops)

        if isinstance(op, VOpObserve):
            scores = op.dist.log_prob(_broadcast_values(op.values, self.n))
            task.log_weight = task.log_weight + scores
            task.obs_scores.append(scores)
            return True, None

        if isinstance(op, VOpPureBranch):
            selection = uniform_or_none(op.pred)
            if selection is None:
                raise _SplitRequired(op.pred, None, None)
            return True, selection

        role = task.roles.get(op.channel)
        if role is None:
            raise ChannelProtocolError(
                f"coroutine communicates on undeclared channel {op.channel!r}"
            )
        channel, provider, partner_live = role

        if isinstance(op, VOpSendSample):
            def fresh():
                if channel.replay is not None:
                    return self._replay_value(channel, f"send on {op.channel}")
                return op.dist.sample(self.rng)

            value = self._resolve(channel, "val", provider, fresh)
            scores = op.dist.log_prob(_broadcast_values(value, self.n))
            task.log_weight = task.log_weight + scores
            task.site_scores.append((op.channel, scores))
            if not partner_live:
                task.obs_scores.append(scores)
            else:
                channel.outgoing(provider).append(("val", value))
            return True, value

        if isinstance(op, VOpRecvSample):
            if partner_live:
                incoming = channel.incoming(provider)
                if not incoming:
                    return False, None
                kind, value = incoming.popleft()
                if kind != "val":
                    raise ChannelProtocolError(
                        f"receive on {op.channel}: expected a sample value, got a {kind} message"
                    )
            else:
                def fresh():
                    if channel.replay is not None:
                        return self._replay_value(channel, f"receive on {op.channel}")
                    # Generate mode: prior simulation from the receiver's dist.
                    return op.dist.sample(self.rng)

                value = self._resolve(channel, "val", not provider, fresh)
            scores = op.dist.log_prob(_broadcast_values(value, self.n))
            task.log_weight = task.log_weight + scores
            task.site_scores.append((op.channel, scores))
            return True, value

        if isinstance(op, VOpSendBranch):
            def fresh():
                if channel.replay is not None:
                    return self._replay_branch(channel, f"branch on {op.channel}")
                selection = uniform_or_none(op.pred)
                if selection is None:
                    raise _SplitRequired(op.pred, op.channel, provider)
                return selection

            selection = self._resolve(channel, "dir", provider, fresh)
            mismatch = np.not_equal(op.pred, selection)
            if np.any(mismatch):
                task.log_weight = np.where(mismatch, -np.inf, task.log_weight)
            if partner_live:
                channel.outgoing(provider).append(("dir", selection))
            return True, selection

        if isinstance(op, VOpRecvBranch):
            if partner_live:
                incoming = channel.incoming(provider)
                if not incoming:
                    return False, None
                kind, selection = incoming.popleft()
                if kind != "dir":
                    raise ChannelProtocolError(
                        f"receive on {op.channel}: expected a branch selection, got a {kind} message"
                    )
            else:
                def fresh():
                    if channel.replay is None:
                        raise ChannelProtocolError(
                            f"receive of a branch selection on {op.channel!r} with no "
                            "partner and no replay trace"
                        )
                    return self._replay_branch(channel, f"branch on {op.channel}")

                selection = self._resolve(channel, "dir", not provider, fresh)
            return True, selection

        if isinstance(op, VOpFold):
            if not partner_live:
                if channel.replay is not None:
                    obs_fold(channel.replay, channel.replay_pos, f"call marker on {op.channel}")
                    channel.replay_pos += 1
                    if provider:
                        channel.recorded.append(VecMessage("fold", True))
                elif provider:
                    self._resolve(channel, "fold", True, lambda: None)
                return True, None
            if task.name in channel.fold_passes:
                channel.fold_passes.discard(task.name)
                return True, None
            if channel.fold_waiting is None:
                channel.fold_waiting = task.name
                return False, None
            if channel.fold_waiting == task.name:
                return False, None
            other = channel.fold_waiting
            channel.fold_waiting = None
            channel.fold_passes.add(other)
            self._resolve(channel, "fold", True, lambda: None)
            return True, None

        raise ChannelProtocolError(f"unknown channel operation {op!r}")

    # -- the scheduling loop ---------------------------------------------------

    def _step(self, task: _VecTask) -> bool:
        progressed = False
        while not task.finished:
            try:
                if not task.started:
                    task.started = True
                    op = next(task.generator)
                elif task.pending_op is not None:
                    op = task.pending_op
                    task.pending_op = None
                else:
                    op = task.generator.send(task.pending_send)
                    task.pending_send = None
            except StopIteration as stop:
                task.finished = True
                task.value = stop.value
                return True

            ready, value = self._handle(task, op)
            if not ready:
                task.pending_op = op
                return progressed
            task.pending_send = value
            progressed = True
        return progressed

    def run(self) -> _GroupResult:
        with deep_recursion():
            return self._run_loop()

    def _run_loop(self) -> _GroupResult:
        pending = deque(self.tasks.values())
        while any(not task.finished for task in self.tasks.values()):
            progressed_any = False
            for _ in range(len(pending)):
                task = pending.popleft()
                pending.append(task)
                if task.finished:
                    continue
                if self._step(task):
                    progressed_any = True
            if not progressed_any:
                blocked = [t.name for t in self.tasks.values() if not t.finished]
                raise ChannelProtocolError(
                    "deadlock: coroutines "
                    + ", ".join(blocked)
                    + " are all blocked waiting for messages; the model and guide "
                    "do not follow the same guidance protocol"
                )
        return _GroupResult(
            log_weights={name: task.log_weight for name, task in self.tasks.items()},
            values={name: task.value for name, task in self.tasks.items()},
            recorded={name: state.recorded for name, state in self.channels.items()},
            obs_scores={name: task.obs_scores for name, task in self.tasks.items()},
            site_scores={name: task.site_scores for name, task in self.tasks.items()},
        )


def _broadcast_values(value: object, n: int) -> object:
    """Lift a shared scalar to the particle axis for batched scoring."""
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, bool):
        return np.full(n, value, dtype=bool)
    if isinstance(value, (int, float, np.integer, np.floating, np.bool_)):
        return np.full(n, value)
    return [value] * n  # exotic payloads take the scalar-loop path


def _to_python(value: object) -> object:
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# The particle vectorizer and its result
# ---------------------------------------------------------------------------


@dataclass
class _Leaf:
    """One finished control-flow group: indices plus columnar results."""

    indices: np.ndarray
    model_log_weights: np.ndarray
    guide_log_weights: np.ndarray
    recorded: Dict[str, List[VecMessage]]
    obs_scores: List[object]  # model-side likelihood terms, in order
    model_value: object = None
    guide_value: object = None
    #: Per-site ``(channel, scores)`` ledgers in each task's op order; ``None``
    #: when the run trimmed them (IS and SMC never read them).
    model_site_scores: Optional[List[Tuple[str, np.ndarray]]] = None
    guide_site_scores: Optional[List[Tuple[str, np.ndarray]]] = None
    #: A compiled leaf's fork directions, which its kernel's rescore pass
    #: replays; ``None`` on an interpreted leaf.
    path_id: Optional[Tuple[bool, ...]] = None


class ParticleVectorizer:
    """Runs a model/guide pair for N particles in lockstep.

    The public entry point is :meth:`run`; the channel topology mirrors
    :func:`repro.core.coroutines.run_model_guide` (guide provides the latent
    channel, model provides the observation channel, observations replayed
    from ``obs_trace`` when given).
    """

    #: Why a compiled request is served by this interpreter instead (set by
    #: :func:`~repro.engine.backend.make_particle_runner`); ``None`` otherwise.
    fallback_reason: Optional[str] = None

    def __init__(
        self,
        model_program: ast.Program,
        guide_program: ast.Program,
        model_entry: str,
        guide_entry: str,
        obs_trace: Optional[Sequence[tr.Message]] = None,
        model_args: Tuple[object, ...] = (),
        guide_args: Tuple[object, ...] = (),
        latent_channel: str = "latent",
        obs_channel: str = "obs",
        max_ops: int = DEFAULT_MAX_OPS,
        max_splits: int = DEFAULT_MAX_SPLITS,
    ):
        self.model_program = model_program
        self.guide_program = guide_program
        self.model_entry = model_entry
        self.guide_entry = guide_entry
        self.obs_trace = tuple(obs_trace) if obs_trace is not None else None
        self.model_args = model_args
        self.guide_args = guide_args
        self.latent_channel = latent_channel
        self.obs_channel = obs_channel
        self.max_ops = max_ops
        self.max_splits = max_splits

        model_proc = model_program.procedure(model_entry)
        self._channel_specs = [
            ChannelSpec(name=latent_channel, provider="guide", consumer="model")
        ]
        if model_proc.provides == obs_channel:
            self._channel_specs.append(
                ChannelSpec(
                    name=obs_channel, provider="model", consumer=None, replay=self.obs_trace
                )
            )
        self._coroutine_specs = [
            CoroutineSpec(name="model", program=model_program, entry=model_entry, args=model_args),
            CoroutineSpec(name="guide", program=guide_program, entry=guide_entry, args=guide_args),
        ]
        self._replay_channels = {
            spec.name for spec in self._channel_specs if spec.replay is not None
        }

    def run(self, num_particles: int, rng=None) -> "VectorRunResult":
        if num_particles <= 0:
            raise InferenceError("num_particles must be positive")
        rng = ensure_rng(rng)
        started = time.perf_counter()
        with span("particles.run", backend="interp", particles=num_particles):
            leaves = self._run_vectorized(num_particles, rng)
        PARTICLE_RUN_SECONDS.labels(backend="interp").observe(
            time.perf_counter() - started
        )
        return VectorRunResult(
            num_particles,
            leaves,
            latent_channel=self.latent_channel,
            obs_channel=self.obs_channel,
            fallback_reason=self.fallback_reason,
        )

    def rescore_group(self, leaf: _Leaf, rng=None) -> _GroupResult:
        """Re-execute one finished control-flow group with every resolution replayed.

        Every sample value and branch selection comes from the group's
        recorded log (external-replay channels re-resolve from their own
        trace), so no randomness is consumed: the run only *rescores* the
        recorded trace under this vectorizer's programs and arguments.  This
        is the primitive behind score-function gradients: build a vectorizer
        with perturbed guide arguments and rescore the groups drawn at the
        unperturbed point to measure how the guide density responds.

        Raises :class:`ChannelProtocolError` when the replayed execution
        diverges from the recorded control path (consumes more or fewer
        messages than the log holds, or messages of the wrong kind) — e.g. a
        pure branch on a perturbed argument flipping arms.
        """
        logs = {
            name: list(messages)
            for name, messages in leaf.recorded.items()
            if name not in self._replay_channels
        }
        scheduler = _VecScheduler(
            self._coroutine_specs,
            self._channel_specs,
            ensure_rng(rng),
            n=len(leaf.indices),
            logs=logs,
            max_ops=self.max_ops,
            strict_replay=True,
        )
        try:
            result = scheduler.run()
        except _SplitRequired as split:
            raise ChannelProtocolError(
                "rescore: a pure branch predicate or if-expression condition "
                "diverged within the group; the replayed execution left the "
                "recorded control path"
            ) from split
        for name, state in scheduler.channels.items():
            if state.replay is None and state.log_pos < len(state.log):
                raise replay_unconsumed_error(name, state.log_pos, len(state.log))
        return result

    # -- lockstep execution with group splitting -------------------------------

    def _run_vectorized(self, num_particles: int, rng) -> List[_Leaf]:
        stack: List[Tuple[np.ndarray, Dict[str, List[VecMessage]]]] = [
            (np.arange(num_particles), {})
        ]
        leaves: List[_Leaf] = []
        splits = 0
        while stack:
            indices, logs = stack.pop()
            scheduler = _VecScheduler(
                self._coroutine_specs,
                self._channel_specs,
                rng,
                n=len(indices),
                logs=logs,
                max_ops=self.max_ops,
            )
            try:
                result = scheduler.run()
            except _SplitRequired as split:
                splits += 1
                if splits > self.max_splits:
                    raise split_budget_error(self.max_splits) from split
                stack.extend(self._partition(scheduler, indices, split))
                continue
            leaves.append(
                _Leaf(
                    indices=indices,
                    model_log_weights=result.log_weights["model"],
                    guide_log_weights=result.log_weights["guide"],
                    recorded=result.recorded,
                    obs_scores=result.obs_scores["model"],
                    model_value=result.values["model"],
                    guide_value=result.values["guide"],
                    model_site_scores=result.site_scores["model"],
                    guide_site_scores=result.site_scores["guide"],
                )
            )
        return leaves

    def _partition(self, scheduler: _VecScheduler, indices, split: _SplitRequired):
        subgroups = []
        for selection in (True, False):
            mask = split.mask if selection else ~split.mask
            logs: Dict[str, List[VecMessage]] = {}
            for name, state in scheduler.channels.items():
                # External-replay channels re-resolve from their own trace.
                if state.replay is not None:
                    continue
                logs[name] = [message.sliced(mask) for message in state.recorded]
            if split.channel is not None:
                logs.setdefault(split.channel, []).append(
                    VecMessage("dir", split.provider, selection)
                )
            subgroups.append((indices[mask], logs))
        return subgroups


class VectorRunResult:
    """Columnar result of a vectorized multi-particle run.

    Per-particle quantities are exposed as ``(n,)`` arrays assembled from the
    control-flow groups; per-particle traces are materialised lazily (one
    tuple of messages per particle) only when explicitly requested, so the
    hot inference path never touches per-particle Python objects.
    """

    def __init__(
        self,
        num_particles: int,
        leaves: List[_Leaf],
        latent_channel: str = "latent",
        obs_channel: str = "obs",
        backend: str = "interp",
        fallback_reason: Optional[str] = None,
    ):
        self.num_particles = num_particles
        self.leaves = leaves
        self.latent_channel = latent_channel
        self.obs_channel = obs_channel
        #: Which execution strategy produced the leaves: ``"interp"`` (the
        #: lockstep interpreter) or ``"compiled"`` (a compiled batched kernel).
        self.backend = backend
        #: Why a compiled-backend run was served by the interpreter instead
        #: (``None`` when no fallback happened).
        self.fallback_reason = fallback_reason

        #: The one leaf of a run that never split (see :meth:`_rows`).
        self._whole = (
            leaves[0] if len(leaves) == 1 and len(leaves[0].indices) == num_particles else None
        )
        self.model_log_weights = np.empty(num_particles)
        self.guide_log_weights = np.empty(num_particles)
        for leaf in leaves:
            rows = self._rows(leaf)
            self.model_log_weights[rows] = leaf.model_log_weights
            self.guide_log_weights[rows] = leaf.guide_log_weights

    def _rows(self, leaf: _Leaf) -> object:
        """Where ``leaf``'s particles sit in a population array.

        Both runners start from ``np.arange(n)`` and shrink a group only by
        splitting it into two non-empty parts that keep their order (a
        Boolean mask, ``np.flatnonzero``), and shards shift their leaves by
        disjoint offsets.  A leaf holding all ``n`` particles therefore holds
        ``0..n-1`` in order, and a straight slice replaces the scatter
        through its indices (``tests/test_engine_vectorize.py`` checks the
        order on every library pair).
        """
        return slice(None) if leaf is self._whole else leaf.indices

    @property
    def num_groups(self) -> int:
        return len(self.leaves)

    def log_weights(self) -> np.ndarray:
        """Importance weights ``log(w_m / w_g)`` with zero-weight guarding."""
        with np.errstate(invalid="ignore"):
            weights = self.model_log_weights - self.guide_log_weights
        return np.where(np.isneginf(self.guide_log_weights), -np.inf, weights)

    def obs_score_rows(self) -> np.ndarray:
        """Per-observation, per-particle log-likelihood terms (``(T, n)``).

        Row ``t`` holds every particle's ``t``-th observation score, so a
        tempering step reads one contiguous row; each row is filled by one
        scatter from the groups whose control path reaches step ``t``.
        Groups whose control path emits fewer observation messages than the
        longest path are padded with zero contributions.
        """
        num_steps = max((len(leaf.obs_scores) for leaf in self.leaves), default=0)
        rows = np.zeros((num_steps, self.num_particles))
        for t, row in enumerate(rows):
            reaching = [leaf for leaf in self.leaves if len(leaf.obs_scores) > t]
            if len(reaching) == 1:
                row[self._rows(reaching[0])] = reaching[0].obs_scores[t]
            else:
                row[np.concatenate([leaf.indices for leaf in reaching])] = np.concatenate(
                    [leaf.obs_scores[t] for leaf in reaching]
                )
        return rows

    def _latent_columns(self, leaf: _Leaf) -> List[object]:
        return [
            m.payload
            for m in leaf.recorded.get(self.latent_channel, [])
            if m.kind == "val"
        ]

    def site_values(self, index: int) -> np.ndarray:
        """Values of the ``index``-th latent sample site, ``nan`` where absent."""
        out = np.full(self.num_particles, np.nan)
        for leaf in self.leaves:
            columns = self._latent_columns(leaf)
            if len(columns) > index:
                column = columns[index]
                if isinstance(column, np.ndarray):
                    out[self._rows(leaf)] = column.astype(float)
                else:
                    out[self._rows(leaf)] = float(column)
        return out

    def _locate(self, particle: int) -> Tuple[_Leaf, int]:
        if not 0 <= particle < self.num_particles:
            raise IndexError(f"no particle {particle} in this run")
        if not hasattr(self, "_leaf_of"):
            self._leaf_of = np.empty(self.num_particles, dtype=int)
            self._pos_of = np.empty(self.num_particles, dtype=int)
            for leaf_id, leaf in enumerate(self.leaves):
                self._leaf_of[leaf.indices] = leaf_id
                self._pos_of[leaf.indices] = np.arange(len(leaf.indices))
        return self.leaves[int(self._leaf_of[particle])], int(self._pos_of[particle])

    def trace_for(self, particle: int, channel: Optional[str] = None) -> tr.Trace:
        """Materialise one particle's guidance trace on ``channel``."""
        channel = channel or self.latent_channel
        leaf, j = self._locate(particle)
        messages: List[tr.Message] = []
        for m in leaf.recorded.get(channel, []):
            payload = m.payload[j] if isinstance(m.payload, np.ndarray) else m.payload
            payload = _to_python(payload)
            if m.kind == "val":
                messages.append(tr.ValP(payload) if m.provider else tr.ValC(payload))
            elif m.kind == "dir":
                messages.append(tr.DirP(payload) if m.provider else tr.DirC(payload))
            else:
                messages.append(tr.Fold())
        return tuple(messages)


# ---------------------------------------------------------------------------
# Vectorized importance sampling
# ---------------------------------------------------------------------------


def weighted_site_mean(
    values: np.ndarray, index: int, log_weights: np.ndarray, weights: np.ndarray
) -> float:
    """Posterior mean of latent site ``index`` from its per-particle values.

    ``values`` is ``nan`` for particles whose trace does not reach the site;
    they are excluded and the weights renormalised over the rest.
    ``weights`` is ``log_weights`` already normalised, used as is when every
    particle reaches the site, so a result normalises its weights once
    however many sites it reports.
    """
    keep = ~np.isnan(values)
    if not np.any(keep):
        raise InferenceError(f"no particle has a latent value at index {index}")
    if np.all(keep):
        return float(np.dot(values, weights))
    return weighted_mean(values[keep], log_weights[keep])


class VectorizedISResult:
    """Importance-sampling summary over a vectorized run (columnar)."""

    def __init__(self, run: VectorRunResult):
        self.run = run
        self._log_weights = run.log_weights()

    @property
    def num_samples(self) -> int:
        return self.run.num_particles

    @property
    def log_weights(self) -> np.ndarray:
        return self._log_weights

    def log_evidence(self) -> float:
        return log_mean_exp(self._log_weights)

    def normalized_weights(self) -> np.ndarray:
        """The normalised weights, computed once per result (read-only)."""
        return self._weights

    @cached_property
    def _weights(self) -> np.ndarray:
        weights = normalize_log_weights(self._log_weights)
        weights.flags.writeable = False  # shared by every later caller
        return weights

    def effective_sample_size(self) -> float:
        return normalized_ess(self._weights)

    def posterior_expectation_of_site(self, index: int) -> float:
        """Posterior mean of the ``index``-th latent site in protocol order.

        Mirrors :meth:`ImportanceResult.posterior_expectation_of_site`:
        particles whose trace does not reach the site are excluded and the
        weights renormalised over the rest.
        """
        return weighted_site_mean(
            self.run.site_values(index), index, self._log_weights, self._weights
        )

    def to_importance_result(self):
        """Materialise per-particle samples for scalar-path compatibility."""
        from repro.inference.importance import ImportanceResult, ImportanceSample

        samples = []
        for i in range(self.num_samples):
            samples.append(
                ImportanceSample(
                    latent_trace=self.run.trace_for(i),
                    log_weight=float(self._log_weights[i]),
                    model_log_weight=float(self.run.model_log_weights[i]),
                    guide_log_weight=float(self.run.guide_log_weights[i]),
                    model_value=None,
                    guide_value=None,
                )
            )
        return ImportanceResult(samples)


def importance_runner(session, request) -> ParticleVectorizer:
    """The particle runner of one importance-sampling run of ``request``.

    IS never reads the per-site score ledgers, so its runs keep them off the
    wire.
    """
    from repro.engine.backend import make_particle_runner

    return make_particle_runner(session, request, trim_site_scores=True)


def vectorized_importance(session, request, rng=None) -> VectorizedISResult:
    """Importance sampling with all particles executed in lockstep.

    The estimator is identical to :func:`repro.inference.importance_sampling`
    (same proposal, same weights); only the execution strategy differs, as
    ``request``'s backend and shard controls select it.  The particles draw
    from ``rng`` when given (a caller feeding several passes from one
    generator), else from the request's seed.
    """
    rng = ensure_rng(request.seed) if rng is None else rng
    return importance_result(importance_runner(session, request).run(request.num_particles, rng))


def importance_result(run: VectorRunResult) -> VectorizedISResult:
    """Weigh a finished run as an importance sample, refusing an all-zero one.

    All weights zero is the runtime symptom of a forced pair that is not
    absolutely continuous, so it raises rather than returning a sample
    whose every estimate is ``nan``.
    """
    result = VectorizedISResult(run)
    if not np.any(np.isfinite(result.log_weights)):
        raise InferenceError(
            "all importance weights are zero: the guide's proposals never land "
            "in the model's support (the model/guide pair is not absolutely continuous)"
        )
    return result

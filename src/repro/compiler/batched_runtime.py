"""Runtime support for compiled batched kernels (the compiled backend).

:func:`repro.compiler.codegen.compile_kernel_pair` emits, for a model/guide
pair, one Python function over ``(rng, n)`` that resolves every sample site
with a single batched call and accumulates per-particle log-weights in
arrays.  This module is the emitted code's standard library: expression
helpers that mirror the vectorized evaluator's semantics
(:func:`repro.engine.vectorize.eval_expr_vec`), generic distribution helpers,
the gathers that split divergent particle groups, and the replay helpers of
the compiled rescore pass.  Each family's parameter checks, sampler and
density kernels are written once, in :data:`repro.dists.FAMILIES`: the
interpretive runtime's :class:`~repro.engine.batched.BatchedDist` and the
compiled kernels both read that table.

Bitwise contract
----------------

Every helper here must produce, lane for lane, the same bits the interpretive
vectorizer produces for the same program point — that is what licenses the
conformance suite's exact compiled-vs-interp comparisons and makes
``backend="compiled"`` a pure execution-strategy change.  Three kinds of
freedom are exploited, none of which change results:

* masked support checks are dropped when the value's *provenance* (the family
  that sampled it) proves support membership — ``np.where(ok, x, _)`` with an
  all-true mask is the identity (see ``*_log_prob_inbounds`` in
  :mod:`repro.dists`);
* scalar parameters are kept scalar instead of broadcast to ``(n,)`` arrays —
  NumPy scalar-array arithmetic broadcasts to the same lanewise values;
* loop-invariant scalar subexpressions are hoisted and computed once.

The RNG stream and the densities match by construction: a kernel calls the
family record's ``draw`` and kernels that
:class:`~repro.engine.batched.BatchedDist` calls, with shared parameters
taken from the same scalar distribution.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import ast
from repro.core.semantics import traces as tr
from repro.dists.base import Distribution
from repro.dists.families import FAMILIES, Family
from repro.engine.batched import BatchedDist, check_param, score_lanes
from repro.engine.vectorize import (
    DEFAULT_MAX_OPS,
    DEFAULT_MAX_SPLITS,
    VecMessage,
    VectorizationUnsupported,
    _broadcast_values,
    _GroupResult,
    _Leaf,
    op_budget_error,
    split_budget_error,
)
from repro.errors import ChannelProtocolError, EvaluationError, TraceExhausted, TraceTypeMismatch

__all__ = [
    "DEFAULT_MAX_OPS",
    "DEFAULT_MAX_SPLITS",
    "FAMILIES",
    "as_bool",
    "bind_args",
    "check_param",
    "op_budget_error",
    "score_lanes",
    "split_budget_error",
    "uniform_or_none",
]


# ---------------------------------------------------------------------------
# Argument binding and expression semantics (mirror eval_expr_vec)
# ---------------------------------------------------------------------------


def bind_args(entry: str, nparams: int, args: Sequence[object]) -> Tuple[object, ...]:
    """Mirror ``interpret_procedure_vec``'s arity check for an entry point."""
    args = tuple(args)
    if len(args) != nparams:
        raise EvaluationError(f"{entry} expects {nparams} arguments, got {len(args)}")
    return args


def as_bool(value: object, what: str) -> object:
    """Mirror the vectorized evaluator's Boolean screening."""
    if isinstance(value, bool):
        return value
    if isinstance(value, np.ndarray) and value.dtype.kind == "b":
        return value
    raise EvaluationError(f"{what}: expected a Boolean, got {value!r}")


def ifexp(cond: object, then, orelse):
    """Strict-both-arms array conditional / lazy scalar conditional.

    Mirrors ``eval_expr_vec``'s ``IfExpr`` case exactly, including the
    :class:`VectorizationUnsupported` screen on non-scalar arms — the
    compiled runner catches it and takes the same whole-batch sequential
    fallback the interpretive vectorizer takes.
    """
    cond = as_bool(cond, "if-condition")
    if isinstance(cond, bool):
        return then() if cond else orelse()
    then_value, else_value = then(), orelse()
    for value in (then_value, else_value):
        if not (isinstance(value, np.ndarray) or isinstance(value, (int, float, bool))):
            raise VectorizationUnsupported(
                f"if-expression over a particle axis with non-scalar arm {value!r}"
            )
    return np.where(cond, then_value, else_value)


def and_(left: object, right):
    left = as_bool(left, "left operand of &&")
    if isinstance(left, bool):
        if not left:
            return False
        return as_bool(right(), "right operand of &&")
    return np.logical_and(left, as_bool(right(), "right operand of &&"))


def or_(left: object, right):
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


# ---------------------------------------------------------------------------
# Distributions
#
# The kernel preamble binds a family's record from :data:`FAMILIES` and its
# ``draw`` and ``log_prob_inbounds``, and calls them directly.  The generic
# helpers below cover the rest: distributions built at run time (exact
# BatchedDist parity), the per-parameter check (``check_param``) and the
# masked lane scorer (``score_lanes``) that BatchedDist itself uses, and the
# scorer of one replayed scalar observation.
# ---------------------------------------------------------------------------


def make_batched(kind: ast.DistKind, args: Sequence[object], n: int) -> BatchedDist:
    """Mirror ``eval_expr_vec``'s ``DistExpr`` case (argument screening included)."""
    for a in args:
        if not (isinstance(a, np.ndarray) or isinstance(a, (int, float))) or isinstance(a, bool):
            raise EvaluationError(f"{kind.value} parameter: expected a number, got {a!r}")
    return BatchedDist(kind, list(args), n)


def as_batched(value: object, n: int) -> BatchedDist:
    """Mirror ``_eval_dist_vec`` for non-literal distribution expressions."""
    if isinstance(value, BatchedDist):
        return value
    if isinstance(value, Distribution):
        return BatchedDist.from_scalar(value, n)
    raise EvaluationError(f"sample command expects a distribution, got {value!r}")


def scalar_dist(family: Family, args: Sequence[object]) -> Distribution:
    """Mirror ``BatchedDist``'s shared-parameter construction exactly."""
    return family.build([float(a) for a in args])


def score_scalar(dist: Distribution, value: object, n: int) -> np.ndarray:
    """Score through a scalar distribution's batch API, as the interpreter does."""
    return dist.log_prob_batch(_broadcast_values(value, n))


def bind_call(name: str, nparams: int, argument: object) -> Tuple[object, ...]:
    """Mirror ``_bind_arguments_vec`` for multi-parameter procedure calls."""
    if not isinstance(argument, tuple) or len(argument) != nparams:
        raise EvaluationError(f"{name} expects {nparams} arguments, got {argument!r}")
    return argument


def score_dist(dist: BatchedDist, value: object, n: int) -> np.ndarray:
    """Score through a :class:`BatchedDist` exactly as the interpreter does."""
    return dist.log_prob(_broadcast_values(value, n))


_SCALARS = (int, float, np.integer, np.floating, np.bool_)


def score_obs(family: Family, params: Sequence[object], y: object, n: int) -> np.ndarray:
    """Score one replayed scalar observation ``y`` against the whole group.

    When ``y`` is a plain value of the family's type, the family's
    ``observed`` guard settles support membership once and the in-bounds
    kernel scores ``y`` itself, skipping the interpreter's ``np.full``
    broadcast; anything else takes the exact BatchedDist path.
    """
    boolean = "bool" in family.proves
    if not isinstance(y, _SCALARS) or isinstance(y, (bool, np.bool_)) != boolean:
        return score_dist(make_batched(family.kind, params, n), y, n)
    if family.observed is not None:
        y = family.observed(y)
        if y is None:
            return np.full(n, -np.inf)
    lp = family.log_prob_inbounds(*params, y)
    return np.full(n, lp) if lp.ndim == 0 else lp


# ---------------------------------------------------------------------------
# Branch resolution and recorded messages
# ---------------------------------------------------------------------------


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


def val_msg(provider: bool, payload: object) -> VecMessage:
    return VecMessage("val", provider, payload)


def dir_msg(provider: bool, selection: bool) -> VecMessage:
    return VecMessage("dir", provider, selection)


def fold_msg() -> VecMessage:
    return VecMessage("fold", True)


# ---------------------------------------------------------------------------
# Observation replay (mirror the scheduler's TraceCursor usage)
# ---------------------------------------------------------------------------


def obs_value(obs: Sequence[tr.Message], position: int, what: str) -> object:
    if position >= len(obs):
        raise TraceExhausted(
            f"{what}: expected a Message message but the trace is exhausted"
        )
    message = obs[position]
    if not isinstance(message, (tr.ValP, tr.ValC)):
        raise ChannelProtocolError(
            f"{what}: replay trace provides {message}, expected a sample value"
        )
    return message.value


def obs_fold(obs: Sequence[tr.Message], position: int, what: str) -> None:
    if position >= len(obs):
        raise TraceExhausted(
            f"{what}: expected a Fold message but the trace is exhausted"
        )
    message = obs[position]
    if not isinstance(message, tr.Fold):
        raise TraceTypeMismatch(
            f"{what}: expected a Fold message but found {message}"
        )


# ---------------------------------------------------------------------------
# Leaf assembly
# ---------------------------------------------------------------------------


def make_leaf(
    indices: np.ndarray,
    lw_model: np.ndarray,
    lw_guide: np.ndarray,
    lat: list,
    obs: list,
    obs_scores: list,
    dirs: Tuple[bool, ...],
    model_value: object,
    guide_value: object,
    model_site_scores: Optional[list],
    guide_site_scores: Optional[list],
    pre: Optional[list],
    latent_channel: str,
    obs_channel: Optional[str],
) -> _Leaf:
    """A finished group, stamped for rescoring with its fork directions.

    ``lat``, ``obs``, ``obs_scores`` and ``dirs`` are what the leaf's path
    recorded since the last :func:`flush`; ``pre`` (``None`` before the
    first flush) holds everything flushed earlier and goes in front.  The
    observation log is kept only when the model provides ``obs_channel``.
    """
    if pre is not None:
        lat, obs, obs_scores, dirs = flush(pre, lat, obs, obs_scores, dirs)
    recorded = {latent_channel: lat}
    if obs_channel is not None:
        recorded[obs_channel] = obs
    leaf = _Leaf(
        indices=indices,
        model_log_weights=lw_model,
        guide_log_weights=lw_guide,
        recorded=recorded,
        obs_scores=obs_scores,
        model_value=model_value,
        guide_value=guide_value,
        model_site_scores=model_site_scores,
        guide_site_scores=guide_site_scores,
    )
    leaf.path_id = tuple(dirs)
    return leaf


# ---------------------------------------------------------------------------
# Loop prefixes, subgroup gathers and compiled rescoring
# ---------------------------------------------------------------------------
#
# The compiler tracks every recorded log (messages, observation scores, fork
# directions) symbolically, so a path keeps its payload variables live and
# materializes the lists once, at its leaf.  A loop kernel's paths are
# unbounded, so at each fork it first flushes what the path recorded into
# ``pre``, a runtime prefix of plain lists that the group owns.  At a mixed
# branch the kernel computes each arm's particle *positions*
# (``np.flatnonzero`` of the arm mask, once per arm) and integer-gathers
# every state array, so each array pays O(subgroup) work; the prefix's
# messages gather with ``VecMessage.sliced``.


def flush(pre: Optional[list], lat: list, obs: list, obs_scores: list, dirs: tuple) -> list:
    """Append what a path recorded since its last flush to its runtime prefix.

    The prefix is ``None`` until the first flush, then four lists: the
    latent and observation message logs, the observation scores and the
    fork directions.
    """
    if pre is None:
        return [lat, obs, obs_scores, list(dirs)]
    pre[0] += lat
    pre[1] += obs
    pre[2] += obs_scores
    pre[3] += dirs
    return pre


def gat_pre(pre: Optional[list], positions: np.ndarray) -> Optional[list]:
    """Gather a flushed prefix down to a subgroup (fresh lists for the arm)."""
    if pre is None:
        return None
    lat, obs, obs_scores, dirs = pre
    # A loop's observation logs are mostly empty; skip their comprehensions.
    return [
        [m.sliced(positions) for m in lat],
        [m.sliced(positions) for m in obs] if obs else [],
        [scores[positions] for scores in obs_scores] if obs_scores else [],
        dirs[:],
    ]


def gat(value: object, positions: np.ndarray) -> object:
    """Gather one live variable down to a subgroup (tuples recurse)."""
    if isinstance(value, np.ndarray):
        return value[positions]
    if isinstance(value, tuple):
        return tuple(gat(item, positions) for item in value)
    return value


def gat_led(ledger: list, positions: np.ndarray) -> list:
    return [(channel, scores[positions]) for channel, scores in ledger]


class RescoreDivert(Exception):
    """The compiled rescore pass cannot replay this leaf on its straight line.

    Raised when a re-evaluated pure branch predicate no longer uniformly
    selects the compiled arm (the interpretive rescorer would split, follow
    the flipped arm, or fail its log checks) or when a leaf carries no
    compiled path stamp.  Callers delegate the *whole leaf* to the
    interpretive :meth:`~repro.engine.vectorize.ParticleVectorizer.rescore_group`,
    which reproduces the exact interpreter semantics for every divergent case.
    """


def rep_val(log: list, position: int, channel: str) -> object:
    """Consume a recorded sample value during compiled rescoring."""
    entry = _rep_take(log, position, "val", channel)
    return entry.payload


def rep_dir(log: list, position: int, channel: str, expected: bool) -> None:
    """Consume a recorded branch selection; divert when it contradicts the path."""
    entry = _rep_take(log, position, "dir", channel)
    if bool(entry.payload) != expected:
        raise RescoreDivert(
            f"recorded branch selection on {channel!r} contradicts the leaf's "
            "compiled path stamp"
        )


def rep_fold(log: list, position: int, channel: str) -> None:
    """Consume a recorded procedure-call marker during compiled rescoring."""
    _rep_take(log, position, "fold", channel)


def _rep_take(log: list, position: int, kind: str, channel: str) -> VecMessage:
    if position >= len(log):
        raise ChannelProtocolError(
            f"rescore on {channel!r} ran past the recorded message log; the "
            "replayed execution diverged from the recorded control path"
        )
    entry = log[position]
    if entry.kind != kind:
        raise ChannelProtocolError(
            f"group replay on {channel!r}: expected a {kind} message, found "
            f"a {entry.kind} message"
        )
    return entry


def rep_turn(dirs: tuple, position: int) -> bool:
    """The stamped direction of the path's ``position``-th fork."""
    if position >= len(dirs):
        raise RescoreDivert("replayed path outran the leaf's path stamp")
    return dirs[position]


def rep_pure(pred: object, expected: bool) -> None:
    """Check a re-evaluated pure branch still selects the compiled arm.

    A mixed or flipped predicate means the straight-line replay is invalid;
    the caller falls back to the interpretive rescorer, which reproduces the
    exact split/flip/protocol-error semantics.
    """
    selection = uniform_or_none(pred)
    if selection is None or bool(selection) != expected:
        raise RescoreDivert(
            "pure branch predicate changed under the rescoring arguments"
        )


def rep_end(log: list, position: int, channel: str) -> None:
    """Assert the compiled rescore consumed the channel's whole recorded log."""
    if position < len(log):
        raise ChannelProtocolError(
            f"rescore on {channel!r} consumed only {position} of "
            f"{len(log)} recorded messages; the replayed "
            "execution diverged from the recorded control path"
        )


def rescore_result(
    lw_model: np.ndarray,
    lw_guide: np.ndarray,
    model_value: object,
    guide_value: object,
    obs_scores: list,
    model_site_scores: list,
    guide_site_scores: list,
    recorded: dict,
) -> _GroupResult:
    """Assemble a compiled rescore pass's outputs as the interpreter's result type."""
    return _GroupResult(
        log_weights={"model": lw_model, "guide": lw_guide},
        values={"model": model_value, "guide": guide_value},
        recorded=recorded,
        obs_scores={"model": obs_scores, "guide": []},
        site_scores={"model": model_site_scores, "guide": guide_site_scores},
    )

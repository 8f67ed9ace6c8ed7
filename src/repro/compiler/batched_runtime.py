"""Runtime support for compiled batched kernels (the compiled backend).

:func:`repro.compiler.codegen.compile_kernel_pair` emits, for a model/guide
pair, one Python function over ``(rng, n)`` that resolves every sample site
with a single batched call and accumulates per-particle log-weights in
arrays.  This module is the emitted code's standard library, imported there
as ``_rt``.  It has two halves:

* the lane helpers — operators, Boolean screens, argument binding, branch
  uniformity, observation replay, the budget and replay errors — are
  defined once, in :mod:`repro.engine.vectorize`, and the interpreter calls
  the same functions; they are re-exported here under the names the
  kernels use.  Likewise each family's typed parameters, sampler and
  density kernels live once, in :data:`repro.dists.FAMILIES`, each base
  type's guard in :data:`repro.dists.base.GUARDS`, and the per-parameter
  check, masked lane scorer and shared-parameter build in
  :mod:`repro.engine.batched`;
* what only a kernel needs — the scorers of a distribution at a value,
  recorded-message constructors, leaf assembly, the subgroup gathers of a
  split, and the replay helpers of the compiled rescore pass.

Bitwise contract
----------------

A kernel must produce, lane for lane, the same bits the interpretive
vectorizer produces for the same program point — that is what licenses the
conformance suite's exact compiled-vs-interp comparisons and makes
``backend="compiled"`` a pure execution-strategy change.  Both backends call
one definition of each operator and family, so what remains to keep equal is
the kernel's schedule.  Three kinds of freedom are exploited, none of which
change results:

* masked support checks are dropped when the value's *provenance* proves
  support membership — the support of the family that sampled it is a
  subtype of the scoring family's support — and ``np.where(ok, x, _)``
  with an all-true mask is the identity (see ``*_log_prob_inbounds`` in
  :mod:`repro.dists`); parameter checks are dropped likewise;
* scalar parameters are kept scalar instead of broadcast to ``(n,)`` arrays —
  NumPy scalar-array arithmetic broadcasts to the same lanewise values;
* loop-invariant scalar subexpressions are hoisted and computed once.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import types as ty
from repro.dists.base import Distribution
from repro.dists.families import FAMILIES, Family
from repro.engine.batched import BatchedDist, check_param, scalar_dist, score_lanes
from repro.engine.vectorize import (
    DEFAULT_MAX_OPS,
    DEFAULT_MAX_SPLITS,
    VecMessage,
    _broadcast_values,
    _GroupResult,
    _Leaf,
    and_,
    as_batched,
    as_bool,
    bind_args,
    bind_call,
    div,
    eq,
    exp_,
    ifexp,
    log_,
    make_batched,
    ne,
    not_,
    obs_fold,
    obs_value,
    op_budget_error,
    or_,
    proj,
    replay_kind_error,
    replay_overrun_error,
    replay_unconsumed_error,
    split_budget_error,
    sqrt_,
    uniform_or_none,
)

#: The shared definitions the kernels reach through ``_rt``.
__all__ = [
    "DEFAULT_MAX_OPS",
    "DEFAULT_MAX_SPLITS",
    "FAMILIES",
    "and_",
    "as_batched",
    "as_bool",
    "bind_args",
    "bind_call",
    "check_param",
    "div",
    "eq",
    "exp_",
    "ifexp",
    "log_",
    "make_batched",
    "ne",
    "not_",
    "obs_fold",
    "obs_value",
    "op_budget_error",
    "or_",
    "proj",
    "scalar_dist",
    "score_lanes",
    "split_budget_error",
    "sqrt_",
    "uniform_or_none",
]


# ---------------------------------------------------------------------------
# Scoring a distribution at a value
#
# The kernel preamble binds a family's record from :data:`FAMILIES` and its
# ``draw`` and ``log_prob_inbounds``, and calls them directly.  The scorers
# below cover the rest: scalar and run-time distributions scored through the
# same batch API the interpreter's ``BatchedDist`` uses, and one replayed
# scalar observation.
# ---------------------------------------------------------------------------


def score_scalar(dist: Distribution, value: object, n: int) -> np.ndarray:
    """Score through a scalar distribution's batch API, as the interpreter does."""
    return dist.log_prob_batch(_broadcast_values(value, n))


def score_dist(dist: BatchedDist, value: object, n: int) -> np.ndarray:
    """Score through a :class:`BatchedDist` exactly as the interpreter does."""
    return dist.log_prob(_broadcast_values(value, n))


_SCALARS = (int, float, np.integer, np.floating, np.bool_)


def score_obs(family: Family, params: Sequence[object], y: object, n: int) -> np.ndarray:
    """Score one replayed scalar observation ``y`` against the whole group.

    When ``y`` is a plain value of the family's kind (a Boolean for ``Ber``,
    a number otherwise), the guard of the family's support settles support
    membership once, on ``float(y)`` as the interpreter's float batch holds
    it, and the in-bounds kernel scores that float itself, skipping the
    interpreter's ``np.full`` broadcast; anything else takes the exact
    BatchedDist path.
    """
    boolean = isinstance(family.support, ty.BoolTy)
    if not isinstance(y, _SCALARS) or isinstance(y, (bool, np.bool_)) != boolean:
        return score_dist(make_batched(family.kind, params, n), y, n)
    if not boolean:
        y = float(y)
        if not family.cls.support_guard.holds(y):
            return np.full(n, -np.inf)
    lp = family.log_prob_inbounds(*params, y)
    return np.full(n, lp) if lp.ndim == 0 else lp


# ---------------------------------------------------------------------------
# Recorded messages
# ---------------------------------------------------------------------------


def val_msg(provider: bool, payload: object) -> VecMessage:
    return VecMessage("val", provider, payload)


def dir_msg(provider: bool, selection: bool) -> VecMessage:
    return VecMessage("dir", provider, selection)


def fold_msg() -> VecMessage:
    return VecMessage("fold", True)


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
    return _Leaf(
        indices=indices,
        model_log_weights=lw_model,
        guide_log_weights=lw_guide,
        recorded=recorded,
        obs_scores=obs_scores,
        model_value=model_value,
        guide_value=guide_value,
        model_site_scores=model_site_scores,
        guide_site_scores=guide_site_scores,
        path_id=tuple(dirs),
    )


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
        raise replay_overrun_error(channel)
    entry = log[position]
    if entry.kind != kind:
        raise replay_kind_error(channel, kind, entry.kind)
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
        raise replay_unconsumed_error(channel, position, len(log))


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

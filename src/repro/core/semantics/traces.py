"""Guidance messages, guidance traces, and trace well-formedness (σ : A).

A guidance trace is a finite sequence of messages exchanged on one channel:

* ``ValP(v)`` — a sample value sent from the channel's *provider* to its
  consumer;
* ``ValC(v)`` — a sample value sent from the consumer to the provider;
* ``DirP(b)`` — a branch selection sent by the provider;
* ``DirC(b)`` — a branch selection sent by the consumer;
* ``Fold``    — a procedure-call marker (the introduction form for traces of
  operator-instantiation type, paper footnote 1).

The judgment ``σ : A`` (paper Fig. 13) is implemented by
:func:`trace_conforms` / :func:`check_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core import types as ty
from repro.errors import TraceExhausted, TraceTypeMismatch


@dataclass(frozen=True)
class Message:
    """Base class of guidance messages."""


@dataclass(frozen=True)
class ValP(Message):
    """A sample value from the provider to the consumer."""

    value: object

    def __str__(self) -> str:
        return f"valP({_fmt(self.value)})"


@dataclass(frozen=True)
class ValC(Message):
    """A sample value from the consumer to the provider."""

    value: object

    def __str__(self) -> str:
        return f"valC({_fmt(self.value)})"


@dataclass(frozen=True)
class DirP(Message):
    """A branch selection from the provider to the consumer."""

    value: bool

    def __str__(self) -> str:
        return f"dirP({self.value})"


@dataclass(frozen=True)
class DirC(Message):
    """A branch selection from the consumer to the provider."""

    value: bool

    def __str__(self) -> str:
        return f"dirC({self.value})"


@dataclass(frozen=True)
class Fold(Message):
    """A procedure-call marker."""

    def __str__(self) -> str:
        return "fold"


#: A guidance trace is an immutable sequence of messages.
Trace = Tuple[Message, ...]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value)


def format_trace(trace: Sequence[Message]) -> str:
    """Render a trace as ``[m1; m2; ...]`` for error messages and logs."""
    return "[" + "; ".join(str(m) for m in trace) + "]"


def sample_values(trace: Sequence[Message]) -> List[object]:
    """Extract the sample payloads (``ValP``/``ValC`` values) of a trace, in order.

    Branch selections and fold markers are skipped.  This is the "latent
    variables" view of a latent-channel trace used by inference summaries.
    """
    return [m.value for m in trace if isinstance(m, (ValP, ValC))]


def branch_selections(trace: Sequence[Message]) -> List[bool]:
    """Extract the branch selections of a trace, in order."""
    return [m.value for m in trace if isinstance(m, (DirP, DirC))]


class TraceCursor:
    """A read cursor over a guidance trace.

    The big-step evaluator consumes messages through a cursor; at the end it
    checks that the cursor is exhausted, which recovers the paper's exact
    trace-splitting formulation of the ``bnd`` rule.
    """

    def __init__(self, trace: Sequence[Message]):
        self._trace: Tuple[Message, ...] = tuple(trace)
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def trace(self) -> Trace:
        return self._trace

    def exhausted(self) -> bool:
        return self._pos >= len(self._trace)

    def remaining(self) -> Trace:
        return self._trace[self._pos:]

    def peek(self) -> Optional[Message]:
        if self.exhausted():
            return None
        return self._trace[self._pos]

    def take(self, expected: type, what: str) -> Message:
        """Consume the next message, requiring it to be of class ``expected``."""
        message = self.peek()
        if message is None:
            raise TraceExhausted(
                f"{what}: expected a {expected.__name__} message but the trace is exhausted"
            )
        if not isinstance(message, expected):
            raise TraceTypeMismatch(
                f"{what}: expected a {expected.__name__} message but found {message}"
            )
        self._pos += 1
        return message

    def snapshot(self) -> int:
        """Return a position token that :meth:`restore` can rewind to."""
        return self._pos

    def restore(self, snapshot: int) -> None:
        self._pos = snapshot


# ---------------------------------------------------------------------------
# Trace construction helpers
# ---------------------------------------------------------------------------


def provider_samples(*values: object) -> Trace:
    """A trace consisting only of provider-sent sample values."""
    return tuple(ValP(v) for v in values)


def concat(*traces: Iterable[Message]) -> Trace:
    """Concatenate traces."""
    result: List[Message] = []
    for trace in traces:
        result.extend(trace)
    return tuple(result)


# ---------------------------------------------------------------------------
# Trace well-formedness: σ : A
# ---------------------------------------------------------------------------


def _conforms(
    cursor: TraceCursor,
    guide_type: ty.GuideType,
    table: Optional[ty.TypeTable],
    depth: int,
    max_depth: int,
) -> None:
    if depth > max_depth:
        raise TraceTypeMismatch(
            "trace/type checking exceeded the unfolding depth limit "
            f"({max_depth}); the trace is longer than any finite unfolding"
        )

    if isinstance(guide_type, ty.End):
        return

    if isinstance(guide_type, ty.TyVar):
        raise TraceTypeMismatch(
            f"cannot check a trace against the open guide type {guide_type}"
        )

    if isinstance(guide_type, ty.SendVal):
        message = cursor.take(ValP, f"protocol {guide_type}")
        if not ty.value_has_type(message.value, guide_type.payload):
            raise TraceTypeMismatch(
                f"sample value {message.value!r} is not of type {guide_type.payload}"
            )
        _conforms(cursor, guide_type.cont, table, depth + 1, max_depth)
        return

    if isinstance(guide_type, ty.RecvVal):
        message = cursor.take(ValC, f"protocol {guide_type}")
        if not ty.value_has_type(message.value, guide_type.payload):
            raise TraceTypeMismatch(
                f"sample value {message.value!r} is not of type {guide_type.payload}"
            )
        _conforms(cursor, guide_type.cont, table, depth + 1, max_depth)
        return

    if isinstance(guide_type, ty.Offer):
        message = cursor.take(DirP, f"protocol {guide_type}")
        branch = guide_type.then if message.value else guide_type.orelse
        _conforms(cursor, branch, table, depth + 1, max_depth)
        return

    if isinstance(guide_type, ty.Choose):
        message = cursor.take(DirC, f"protocol {guide_type}")
        branch = guide_type.then if message.value else guide_type.orelse
        _conforms(cursor, branch, table, depth + 1, max_depth)
        return

    if isinstance(guide_type, ty.OpApp):
        if table is None:
            raise TraceTypeMismatch(
                f"cannot unfold type operator {guide_type.operator!r} without a type table"
            )
        cursor.take(Fold, f"protocol {guide_type}")
        unfolded = table.lookup(guide_type.operator).instantiate(guide_type.arg)
        _conforms(cursor, unfolded, table, depth + 1, max_depth)
        return

    raise TraceTypeMismatch(f"unknown guide type node {guide_type!r}")


def check_trace(
    trace: Sequence[Message],
    guide_type: ty.GuideType,
    table: Optional[ty.TypeTable] = None,
    max_depth: int = 10_000,
) -> None:
    """Check ``trace : guide_type``; raise :class:`TraceTypeMismatch` on failure.

    ``table`` supplies typedef definitions for unfolding operator
    applications; it may be omitted for operator-free types.
    """
    from repro.utils.recursion import deep_recursion

    cursor = TraceCursor(trace)
    with deep_recursion():
        _conforms(cursor, guide_type, table, 0, max_depth)
    if not cursor.exhausted():
        raise TraceTypeMismatch(
            f"trace has {len(cursor.remaining())} unexpected trailing message(s): "
            f"{format_trace(cursor.remaining())}"
        )


def trace_conforms(
    trace: Sequence[Message],
    guide_type: ty.GuideType,
    table: Optional[ty.TypeTable] = None,
    max_depth: int = 10_000,
) -> bool:
    """Boolean version of :func:`check_trace`."""
    try:
        check_trace(trace, guide_type, table, max_depth)
    except TraceTypeMismatch:
        return False
    return True

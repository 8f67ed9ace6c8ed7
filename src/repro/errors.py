"""Exception hierarchy used across the guide-types reproduction.

Every user-facing error raised by the library derives from :class:`ReproError`
so that callers can catch all library failures with a single ``except``
clause.  Sub-hierarchies distinguish the phase that failed: parsing, basic
type checking, guide-type inference, trace validation, evaluation, coroutine
scheduling, compilation, and inference.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParseError(ReproError):
    """Raised when the surface-syntax parser rejects a program.

    Attributes
    ----------
    line, column:
        1-based source position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class LexError(ParseError):
    """Raised when the lexer encounters an invalid character or literal."""


class TypeError_(ReproError):
    """Base class for type-system failures (named with a trailing underscore
    to avoid shadowing the builtin :class:`TypeError`)."""


class BasicTypeError(TypeError_):
    """Raised when the simply-typed (deterministic) fragment fails to check."""


class GuideTypeError(TypeError_):
    """Raised when guide-type inference fails.

    Typical causes: the two branches of a conditional disagree on the
    protocol of the non-subject channel, a command communicates on a channel
    the procedure does not declare, or a procedure call's signature cannot be
    instantiated consistently.
    """


class TraceTypeMismatch(ReproError):
    """Raised when a guidance trace does not satisfy a guide type (σ : A fails)."""


class TraceExhausted(TraceTypeMismatch):
    """Raised when a replayed trace ends before the program stops consuming it.

    A strict sub-case of :class:`TraceTypeMismatch`: the trace was fine as far
    as it went, the program simply demanded more messages.  Streaming sessions
    rely on this distinction — a model that outruns the observations pushed so
    far is *buffering* (waiting for more data), not broken — so both runtimes
    (the lockstep interpreter and the compiled batched kernels) raise this
    subclass at trace-exhaustion sites.
    """


class EvaluationError(ReproError):
    """Raised when big-step evaluation of a command gets stuck.

    Evaluation gets stuck when the supplied guidance traces do not have the
    shape the command expects (e.g. the command needs a sample message but
    the trace starts with a branch selection), or when an expression fails to
    evaluate (unbound variable, ill-typed primitive application).
    """


class ChannelProtocolError(ReproError):
    """Raised by the coroutine scheduler when message directions mismatch.

    This corresponds to a violation of the guidance protocol at run time:
    for example, both endpoints of a channel trying to send, or a coroutine
    finishing while its partner still expects messages.
    """


class CompilationError(ReproError):
    """Raised by the compiler when a program cannot be translated to Python."""


class InferenceError(ReproError):
    """Raised by inference engines on unrecoverable failures (e.g. all
    importance weights are zero, or the proposal cannot reach the posterior's
    support)."""


class UnsupportedModelError(ReproError):
    """Raised by the trace-types baseline when a program falls outside the
    fragment it supports (general recursion, branch-dependent sample sets,
    stochastic memoization)."""

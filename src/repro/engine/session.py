"""Prepared model/guide sessions: parse, typecheck, and certify once.

A :class:`ProgramSession` is the building block for a serving layer: it
front-loads all per-pair work — parsing, guide-type inference, and the
absolute-continuity check — so that repeated inference requests against the
same pair pay only for the inference itself.  Sessions built from source
text are memoised in a small LRU cache keyed by the exact sources and
channel configuration.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.core.ast import Program
from repro.core.parser import parse_program
from repro.core.typecheck import (
    TYPECHECKER_VERSION,
    check_model_guide_pair,
    infer_guide_types,
)
from repro.engine.api import EngineResult, InferenceRequest, run_engine
from repro.errors import InferenceError
from repro.obs import REGISTRY, span
from repro.utils.lru import LruCache

_CACHE_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions_total",
    "Entries evicted from a cross-request cache by capacity pressure.",
    labels=("cache",),
)
_CACHE_SIZE = REGISTRY.gauge(
    "repro_cache_size",
    "Current entry count of a cross-request cache.",
    labels=("cache",),
)
_SESSION_CACHE_EVENTS = REGISTRY.counter(
    "repro_session_cache_total",
    "Session LRU lookups by outcome (hit: prepared pair reused; miss: full "
    "parse + typecheck).",
    labels=("event",),
)
_SESSION_PREPARE_SECONDS = REGISTRY.histogram(
    "repro_session_prepare_seconds",
    "Cold session preparation time: parsing both programs plus the "
    "model/guide certification check.",
)


def default_model_entry(program: Program, latent_channel: str) -> str:
    """The first procedure consuming the latent channel (CLI convention)."""
    for proc in program.procedures:
        if proc.consumes == latent_channel:
            return proc.name
    return program.procedures[0].name


def default_guide_entry(program: Program, latent_channel: str) -> str:
    """The first procedure providing the latent channel (CLI convention)."""
    for proc in program.procedures:
        if proc.provides == latent_channel:
            return proc.name
    return program.procedures[0].name


class ProgramSession:
    """A model/guide pair prepared for repeated inference requests."""

    def __init__(
        self,
        model_program: Program,
        guide_program: Program,
        model_entry: Optional[str] = None,
        guide_entry: Optional[str] = None,
        latent_channel: str = "latent",
        obs_channel: str = "obs",
        typecheck: bool = True,
    ):
        self.model_program = model_program
        self.guide_program = guide_program
        self.latent_channel = latent_channel
        self.obs_channel = obs_channel
        self.model_entry = model_entry or default_model_entry(model_program, latent_channel)
        self.guide_entry = guide_entry or default_guide_entry(guide_program, latent_channel)

        self._model_guide_types = None
        self._guide_guide_types = None
        #: ``(kernel, reason)`` memo, filled in lazily by :meth:`compiled_kernel`.
        self._kernel = None
        #: Compiled-backend feature check, filled in lazily by
        #: :meth:`compiled_kernel`: ``None`` until a compiled-backend request
        #: arrives, then ``True``/``False``.
        self.compiled_backend_supported: Optional[bool] = None
        #: Why the compiled backend fell back to the interpreter (``None``
        #: while undecided or when the pair compiles).
        self.compiled_fallback_reason: Optional[str] = None
        self.check = None
        if typecheck:
            # check_model_guide_pair runs guide-type inference on both
            # programs internally; the per-program results below are inferred
            # lazily so a session construction typechecks each program once.
            self.check = check_model_guide_pair(
                model_program,
                guide_program,
                self.model_entry,
                self.guide_entry,
                latent_channel=latent_channel,
            )

    @property
    def model_guide_types(self):
        """Inferred guide types of the model program (computed on demand)."""
        if self._model_guide_types is None:
            self._model_guide_types = infer_guide_types(self.model_program)
        return self._model_guide_types

    @property
    def guide_guide_types(self):
        """Inferred guide types of the guide program (computed on demand)."""
        if self._guide_guide_types is None:
            self._guide_guide_types = infer_guide_types(self.guide_program)
        return self._guide_guide_types

    # -- certification ---------------------------------------------------------

    @property
    def certified(self) -> bool:
        """Absolute continuity certified by the guide-type check."""
        return self.check is not None and self.check.compatible

    @property
    def certification_reason(self) -> Optional[str]:
        """Why the pair is uncertified (``None`` when it is certified)."""
        if self.check is None:
            return "typechecking was skipped"
        if self.check.compatible:
            return None
        return self.check.reason

    def require_certified(self) -> None:
        """Raise :class:`InferenceError` unless absolute continuity is certified."""
        if self.check is None:
            raise InferenceError(
                "this session skipped typechecking; rebuild it with typecheck=True"
            )
        if not self.check.compatible:
            raise InferenceError(
                f"model/guide pair is not certified: {self.check.reason}"
            )

    # -- compiled backend ------------------------------------------------------

    def compiled_kernel(self):
        """The pair's compiled batched kernel, compiled once and cached.

        Returns ``(kernel, None)`` when the pair is inside the compiled
        fragment and ``(None, reason)`` otherwise; the decision is recorded
        on :attr:`compiled_backend_supported` /
        :attr:`compiled_fallback_reason`.
        """
        if self._kernel is None:
            from repro.engine.backend import kernel_for

            self._kernel = kernel_for(
                self.model_program,
                self.guide_program,
                self.model_entry,
                self.guide_entry,
                latent_channel=self.latent_channel,
                obs_channel=self.obs_channel,
            )
        kernel, reason = self._kernel
        self.compiled_backend_supported = kernel is not None
        self.compiled_fallback_reason = reason
        return self._kernel

    # -- serving ---------------------------------------------------------------

    def infer(
        self,
        engine: str = "is",
        request: Optional[InferenceRequest] = None,
        **request_kwargs,
    ) -> EngineResult:
        """Run one inference request through a registered engine."""
        if request is not None and request_kwargs:
            raise InferenceError("pass either a request object or keyword fields, not both")
        if request is None:
            request = InferenceRequest(**request_kwargs)
        return run_engine(engine, self, request)

    # -- construction from source text (cached) --------------------------------

    @classmethod
    def from_sources(
        cls,
        model_source: str,
        guide_source: str,
        model_entry: Optional[str] = None,
        guide_entry: Optional[str] = None,
        latent_channel: str = "latent",
        obs_channel: str = "obs",
        typecheck: bool = True,
    ) -> "ProgramSession":
        """Build (or fetch from the LRU cache) a session from source text."""
        key = (
            TYPECHECKER_VERSION,
            model_source,
            guide_source,
            model_entry,
            guide_entry,
            latent_channel,
            obs_channel,
            typecheck,
        )
        cached = _SESSION_CACHE.get(key)
        if cached is not None:
            _SESSION_CACHE_EVENTS.labels(event="hit").inc()
            return cached
        _SESSION_CACHE_EVENTS.labels(event="miss").inc()
        started = time.perf_counter()
        with span("session.prepare", typecheck=typecheck):
            session = cls(
                parse_program(model_source),
                parse_program(guide_source),
                model_entry=model_entry,
                guide_entry=guide_entry,
                latent_channel=latent_channel,
                obs_channel=obs_channel,
                typecheck=typecheck,
            )
        _SESSION_PREPARE_SECONDS.observe(time.perf_counter() - started)
        _SESSION_CACHE.put(key, session)
        _CACHE_SIZE.labels(cache="session").set(len(_SESSION_CACHE))
        return session


_SESSION_CACHE: "LruCache[Tuple, ProgramSession]" = LruCache(
    64, on_evict=lambda _key, _value: _CACHE_EVICTIONS.labels(cache="session").inc()
)


def set_session_cache_capacity(capacity: int) -> None:
    """Re-cap the session LRU (``repro serve --session-cache``)."""
    _SESSION_CACHE.set_capacity(capacity)
    _CACHE_SIZE.labels(cache="session").set(len(_SESSION_CACHE))


def session_cache_len() -> int:
    """Current number of cached prepared sessions."""
    return len(_SESSION_CACHE)


def clear_session_cache() -> None:
    """Drop all cached sessions (used by tests and long-running servers)."""
    _SESSION_CACHE.clear()
    _CACHE_SIZE.labels(cache="session").set(0)

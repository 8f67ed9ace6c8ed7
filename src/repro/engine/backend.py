"""Particle-runtime backend selection: interpretive vs compiled execution.

Two backends execute a model/guide pair over the particle axis:

``interp``
    :class:`~repro.engine.vectorize.ParticleVectorizer` — the lockstep
    coroutine interpreter, which supports the whole language (recursion,
    first-class distributions, closures) and degrades gracefully through
    group splitting.
``compiled``
    A batched kernel generated by
    :func:`repro.compiler.codegen.compile_kernel_pair`: NumPy code with
    guide→model routing resolved at compile time and no per-site op
    dispatch, scheduling the whole path tree inside one emitted function
    over path-partitioned particle index sets.  SVI's group-rescoring pass
    is compiled too (on first use).  It covers first-order programs whose
    recursive calls are all tail calls (loops close into back-edges) and
    produces *bitwise-identical* results to ``interp`` under common random
    numbers, so selecting it is a pure execution-strategy change.

:func:`make_particle_runner` is the single seam the inference engines go
through, from a prepared :class:`~repro.engine.session.ProgramSession` and an
:class:`~repro.engine.api.InferenceRequest`: ``backend="compiled"`` takes the
session's kernel (compiled once per session, from a shared cache) and
silently falls back to the interpreter when the pair is outside the compiled
fragment, or a host argument carries a distribution or closure — the
decision is recorded on the returned runner and on every run it makes, so
diagnostics can report which runtime actually served a request.  Every
fallback increments ``repro_compiled_fallback_total{reason=...}`` with one
of two normalized reason labels, so operators can see *why* compiled
requests are being served by the interpreter: ``unsupported-fragment`` (the
whole request runs interpreted) and ``rescore-divert`` (one SVI rescore of
one recorded group replays on the interpreter, e.g. because a pure branch
flipped under ``θ ± ε``).  A runner that starts compiled runs every forward
pass compiled: both backends merge each lane ``if`` the same way, so there
is no runtime fallback.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.compiler.codegen import CompiledKernel, load_kernel
from repro.core import ast
from repro.engine.vectorize import (
    _WHOLE,
    PARTICLE_RUN_SECONDS,
    ParticleVectorizer,
    VectorRunResult,
)
from repro.errors import CompilationError, InferenceError
from repro.obs import REGISTRY, span
from repro.utils.lru import LruCache
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.api import InferenceRequest
    from repro.engine.session import ProgramSession

_KERNEL_CACHE_EVENTS = REGISTRY.counter(
    "repro_kernel_cache_total",
    "Compiled-kernel LRU lookups by outcome (a miss triggers a compile attempt; "
    "negative entries — pairs outside the compiled fragment — also hit).",
    labels=("event",),
)
_KERNEL_COMPILE_SECONDS = REGISTRY.histogram(
    "repro_kernel_compile_seconds",
    "Wall time of one compiled-kernel compile attempt (including attempts that "
    "conclude the pair is outside the compiled fragment).",
)

_COMPILED_FALLBACK = REGISTRY.counter(
    "repro_compiled_fallback_total",
    "Compiled-backend requests (or sub-passes) served by the interpreter "
    "instead, by normalized reason: 'unsupported-fragment' (the pair is "
    "outside the compiled fragment), 'rescore-divert' (the compiled rescore "
    "pass diverted to interpretive replay).",
    labels=("reason",),
)

BACKENDS = ("interp", "compiled")


def validate_backend(backend: str) -> str:
    """Return ``backend`` if it names a known particle runtime, else raise."""
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise InferenceError(f"unknown particle backend {backend!r} (known: {known})")
    return backend


def record_compiled_fallback(reason: str) -> None:
    """Count one compiled→interp fallback under its normalized reason label."""
    _COMPILED_FALLBACK.labels(reason=reason).inc()


def _holds_whole_values(args: Sequence[object]) -> bool:
    """Whether host arguments carry a distribution or closure (tuples recurse).

    The gate keeps first-class distributions and functions out of compiled
    programs, which is what lets a kernel merge every lane ``if``; a host
    argument is the one other way such a value reaches a kernel.
    """
    return any(
        _holds_whole_values(arg) if isinstance(arg, tuple) else isinstance(arg, _WHOLE)
        for arg in args
    )


# ---------------------------------------------------------------------------
# Kernel cache (programs are frozen dataclasses, hence hashable)
# ---------------------------------------------------------------------------

_KERNEL_CACHE: "LruCache[Tuple, Tuple[Optional[CompiledKernel], Optional[str]]]" = LruCache(
    64, name="kernel"
)


def set_kernel_cache_capacity(capacity: int) -> None:
    """Re-cap the compiled-kernel LRU (``repro serve --kernel-cache``)."""
    _KERNEL_CACHE.set_capacity(capacity)


def kernel_cache_len() -> int:
    """Current number of cached compiled-kernel entries."""
    return len(_KERNEL_CACHE)


def kernel_for(
    model_program: ast.Program,
    guide_program: ast.Program,
    model_entry: str,
    guide_entry: str,
    latent_channel: str = "latent",
    obs_channel: str = "obs",
) -> Tuple[Optional[CompiledKernel], Optional[str]]:
    """``(kernel, None)`` when the pair compiles, ``(None, reason)`` otherwise."""
    key = (
        model_program, guide_program, model_entry, guide_entry,
        latent_channel, obs_channel,
    )
    cached = _KERNEL_CACHE.get(key)
    if cached is not None:
        _KERNEL_CACHE_EVENTS.labels(event="hit").inc()
        return cached
    _KERNEL_CACHE_EVENTS.labels(event="miss").inc()
    started = time.perf_counter()
    with span("kernel.compile", model_entry=model_entry, guide_entry=guide_entry):
        try:
            kernel = load_kernel(
                model_program, guide_program, model_entry, guide_entry,
                latent_channel=latent_channel, obs_channel=obs_channel,
            )
            entry = (kernel, None)
        except CompilationError as exc:
            entry = (None, str(exc))
    _KERNEL_COMPILE_SECONDS.observe(time.perf_counter() - started)
    _KERNEL_CACHE.put(key, entry)
    return entry


def clear_kernel_cache() -> None:
    """Drop all cached compiled kernels (tests and long-running servers)."""
    _KERNEL_CACHE.clear()


# ---------------------------------------------------------------------------
# The compiled runner: a drop-in ParticleVectorizer
# ---------------------------------------------------------------------------


class CompiledParticleRunner(ParticleVectorizer):
    """Runs a model/guide pair through its compiled batched kernel.

    Beyond :meth:`run` it (a) elides the SVI-only per-site score ledgers at
    the kernel level when ``trim_site_scores`` is set (the engines' existing
    flag — IS/SMC never read the ledgers) and (b) serves
    :meth:`rescore_group` from the *compiled* rescore pass, falling back to
    the inherited interpretive replay only when the kernel diverts (and
    counting the fallback under ``repro_compiled_fallback_total``).
    Compiled leaves carry the same recorded message columns as interpreted
    ones, so every other piece of replay machinery works on them unchanged.
    """

    backend = "compiled"

    def __init__(self, kernel: CompiledKernel, trim_site_scores: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.kernel = kernel
        self.trim_site_scores = bool(trim_site_scores)

    def run(self, num_particles: int, rng=None) -> VectorRunResult:
        """Execute ``num_particles`` particles through the compiled kernel."""
        if num_particles <= 0:
            raise InferenceError("num_particles must be positive")
        rng = ensure_rng(rng)
        started = time.perf_counter()
        with span("particles.run", backend="compiled", particles=num_particles):
            leaves = self.kernel.run(
                rng, num_particles, self.obs_trace, self.model_args, self.guide_args,
                ledgers=not self.trim_site_scores,
            )
        PARTICLE_RUN_SECONDS.labels(backend="compiled").observe(
            time.perf_counter() - started
        )
        return VectorRunResult(
            num_particles,
            leaves,
            latent_channel=self.latent_channel,
            obs_channel=self.obs_channel,
            backend="compiled",
        )

    def rescore_group(self, leaf, rng=None):
        """Compiled path replay, diverting to interpretive replay if needed.

        A leaf without a path stamp (an interpreted leaf) diverts too: the
        kernel raises :class:`~repro.compiler.batched_runtime.RescoreDivert`
        for it.
        """
        from repro.compiler.batched_runtime import RescoreDivert

        try:
            with span("particles.rescore", backend="compiled"):
                return self.kernel.rescore(
                    leaf, self.obs_trace, self.model_args, self.guide_args
                )
        except RescoreDivert:
            record_compiled_fallback("rescore-divert")
            return super().rescore_group(leaf, rng)


def make_particle_runner(
    session: "ProgramSession", request: "InferenceRequest", trim_site_scores: bool = False
) -> ParticleVectorizer:
    """Build the particle runner for one run of ``session``'s pair.

    ``request`` supplies the run: its observations and host arguments, its
    backend and its shard controls.  ``backend="compiled"`` takes the
    session's compiled kernel and falls back to the interpreter when the
    pair is outside the compiled fragment or a host argument carries a
    distribution or closure; the fallback reason is exposed as
    ``runner.fallback_reason`` and stamped on every run the runner makes.

    More than one shard (:meth:`InferenceRequest.resolved_shards`) selects
    the sharded scale-out layer (:mod:`repro.engine.shard`): the returned
    runner splits each particle population into per-shard RNG streams and
    distributes them over a persistent process pool.  One shard runs
    in-process, bit-identical to the pre-sharding path.
    ``trim_site_scores=True`` lets runs drop the SVI-only per-site score
    ledgers (weights, traces, and observation scores are unaffected).
    """
    if request.resolved_shards() > 1:
        from repro.engine.shard import ShardedParticleRunner

        return ShardedParticleRunner(session, request, trim_site_scores)
    pair = dict(
        model_program=session.model_program,
        guide_program=session.guide_program,
        model_entry=session.model_entry,
        guide_entry=session.guide_entry,
        obs_trace=request.resolved_obs_trace(),
        model_args=request.model_args,
        guide_args=request.guide_args,
        latent_channel=session.latent_channel,
        obs_channel=session.obs_channel,
    )
    if request.backend == "compiled":
        kernel, reason = session.compiled_kernel()
        if kernel is not None and _holds_whole_values((*request.model_args, *request.guide_args)):
            kernel, reason = None, (
                "compiled backend does not support first-class distribution "
                "or function values passed as arguments"
            )
        if kernel is not None:
            return CompiledParticleRunner(kernel, trim_site_scores=trim_site_scores, **pair)
        record_compiled_fallback("unsupported-fragment")
        runner = ParticleVectorizer(**pair)
        runner.fallback_reason = reason
        return runner
    return ParticleVectorizer(**pair)

"""Streaming-SMC sessions: persistent particle populations over live data.

One-shot requests answer "what is the posterior given this batch"; a
*streaming session* keeps a particle population alive between requests so a
client can push observations as they arrive and query the posterior-so-far
at any point.  :class:`StreamingSession` owns one population;
:class:`SessionManager` owns the session table — bounded by an
:class:`~repro.utils.lru.LruCache`, TTL-expired, per-tenant-capped, and
(optionally) checkpointed to disk so sessions survive process restarts.
The JSONL server exposes the manager through ``op: session.open / session.push
/ session.query / session.close`` (see ``docs/streaming.md``).

Determinism model — replay from seed
------------------------------------

A session is *event-sourced*: its durable state is just ``(config, seed,
observation journal)``.  Every push appends to the journal and recomputes
one-shot SMC over the whole prefix with the session's pinned integer seed.
The streamed state after ``T`` pushes therefore *is* the one-shot SMC run
over those ``T`` observations — bit-identical by construction, for both
backends and any shard count, which is exactly the guarantee the
determinism oracle (``tests/test_streaming.py``) pins.  The price is
an ``O(t)`` recompute per push instead of ``O(1)`` incremental extension;
the honest trade is documented in ``docs/streaming.md`` (population state
never needs to be serialised, checkpoints are a few hundred bytes, and the
compiled backend — whose kernels are straight-line and cannot suspend
mid-trace — works unchanged).

Two kinds of program ride a session:

* **Fixed sources** (any model/guide pair): the model demands a fixed number
  of observations.  While the journal is shorter than that demand the
  session is ``buffering`` — the runtimes signal this precisely via
  :class:`~repro.errors.TraceExhausted` — and becomes ``active`` once the
  demand is met.
* **Growable families** (``grow: true`` + a name from
  :data:`repro.models.library.STREAMING_FAMILIES`): the program is re-unrolled
  to the journal length on every push, so every push yields a posterior and
  the pair stays inside the compiled backend's straight-line fragment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import types as ty
from repro.dists.base import GUARDS
from repro.engine.api import (
    EngineResult,
    InferenceRequest,
    admit_request,
    require_count,
    require_flag,
    run_engine,
    wire_float,
)
from repro.engine.session import ProgramSession
from repro.errors import InferenceError, ReproError, TraceExhausted
from repro.obs import REGISTRY
from repro.utils.lru import LruCache

#: Structured error codes for session-table failures (the server forwards
#: them verbatim on ``ok: false`` responses).
CODE_SESSION_NOT_FOUND = "session_not_found"
CODE_SESSION_EXPIRED = "session_expired"
CODE_SESSION_LIMIT = "session_limit"

#: Checkpoint file format marker and version (bump on incompatible change).
CHECKPOINT_FORMAT = "repro-streaming-checkpoint"
CHECKPOINT_VERSION = 1

_SESSIONS = REGISTRY.gauge(
    "repro_streaming_sessions",
    "Streaming sessions currently live in the session table.",
)
_SESSION_EVENTS = REGISTRY.counter(
    "repro_streaming_session_events_total",
    "Session lifecycle events (opened, closed, expired, evicted, restored, "
    "rejected, checkpointed).",
    labels=("event",),
)
_SESSION_AGE = REGISTRY.histogram(
    "repro_streaming_session_age_seconds",
    "Session age at close/expiry/eviction.",
    buckets=(1.0, 10.0, 60.0, 300.0, 1800.0, 3600.0, 21600.0, 86400.0),
)
_SESSION_STEPS = REGISTRY.histogram(
    "repro_streaming_session_steps",
    "Journal length (observations pushed) at close/expiry/eviction.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)
_PUSH_SECONDS = REGISTRY.histogram(
    "repro_streaming_push_seconds",
    "Wall time of one session push: journal append plus the replay-from-seed "
    "SMC recompute (reweight + ESS-triggered resampling over the prefix).",
)
_CHECKPOINT_SECONDS = REGISTRY.histogram(
    "repro_streaming_checkpoint_seconds",
    "Checkpoint persistence time, by direction (save: serialise + atomic "
    "write; restore: read + verify + replay).",
    labels=("op",),
)
_CHECKPOINT_BYTES = REGISTRY.histogram(
    "repro_streaming_checkpoint_bytes",
    "Serialised checkpoint size on disk.",
    buckets=(256, 1024, 4096, 16384, 65536, 262144, 1048576),
)

#: ``params`` keys a ``session.open`` payload may set: the run fields a
#: session pins, in the order its checkpoint's ``config`` writes them.
OPEN_PARAM_FIELDS = (
    "num_particles",
    "seed",
    "backend",
    "shards",
    "workers",
    "ess_threshold",
    "rejuvenate",
    "model_args",
    "guide_args",
)


class StreamingError(ReproError):
    """A session-table failure with a structured wire code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


@dataclass
class StreamingConfig:
    """Everything that pins a session's behaviour (and its replay)."""

    model_source: Optional[str] = None
    guide_source: Optional[str] = None
    model_entry: Optional[str] = None
    guide_entry: Optional[str] = None
    latent_channel: str = "latent"
    obs_channel: str = "obs"
    #: Library benchmark name the sources came from (informational for fixed
    #: sources; *required* and resolved per push when ``grow`` is set).
    benchmark: Optional[str] = None
    #: Re-unroll a growable family (:data:`STREAMING_FAMILIES`) to the
    #: journal length on every push instead of running fixed sources.
    grow: bool = False
    #: The run ``session.open`` admitted, with its seed pinned: together with
    #: the journal it *is* the session state (replay-from-seed determinism).
    #: Every replay replaces its ``obs_values`` with the journal.
    request: InferenceRequest = field(default_factory=InferenceRequest)
    #: Run even if the pair is not certified (mirrors the one-shot wire flag).
    force: bool = False
    #: Hard cap on journal length (pushes beyond it fail with
    #: ``session_limit``); bounds both replay cost and checkpoint size.
    max_steps: int = 256

    def to_dict(self) -> Dict[str, object]:
        """The checkpoint's ``config`` object: each field in order, with the
        request written as its :data:`OPEN_PARAM_FIELDS`."""
        out: Dict[str, object] = {}
        for name in (f.name for f in dataclasses.fields(self)):
            if name == "request":
                out.update((key, getattr(self.request, key)) for key in OPEN_PARAM_FIELDS)
            else:
                out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "StreamingConfig":
        """Rebuild a config from its checkpoint form (:meth:`to_dict`)."""
        raw = dict(raw)
        run = {key: raw.pop(key) for key in OPEN_PARAM_FIELDS if key in raw}
        return cls(request=InferenceRequest(**run), **raw)

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], default_workers: int = 1
    ) -> "StreamingConfig":
        """Build and validate a config from a ``session.open`` payload.

        ``default_workers`` is the service's pool size: the worker count a
        payload gets by default, and the most it may ask for.  The run
        fields pass the one-shot admission's screen
        (:func:`~repro.engine.api.admit_request`) before any session exists.
        """
        from repro.models import STREAMING_FAMILIES, get_benchmark

        params = dict(payload.get("params") or {})
        benchmark = payload.get("benchmark")
        model = payload.get("model")
        guide = payload.get("guide")
        try:
            grow = require_flag(payload.get("grow", False), "grow")
            force = require_flag(payload.get("force", False), "force")
            max_steps = require_count(payload.get("max_steps", 256), "max_steps")
            if grow:
                if not isinstance(benchmark, str) or benchmark not in STREAMING_FAMILIES:
                    known = ", ".join(sorted(STREAMING_FAMILIES))
                    raise InferenceError(f"grow: true needs a growable benchmark (known: {known})")
                if model is not None or guide is not None:
                    raise InferenceError(
                        "growable sessions take benchmark:, not model:/guide: sources"
                    )
            elif isinstance(benchmark, str):
                try:
                    bench = get_benchmark(benchmark)
                except KeyError:
                    raise InferenceError(f"unknown benchmark {benchmark!r}")
                model, guide = bench.model_source, bench.guide_source
                if params.get("model_args") is None and bench.model_args:
                    params["model_args"] = list(bench.model_args)
                if params.get("guide_args") is None and bench.guide_param_inits:
                    params["guide_args"] = list(bench.guide_param_inits.values())
            if not grow and (not isinstance(model, str) or not isinstance(guide, str)):
                raise InferenceError(
                    "session.open needs model/guide source text, a benchmark name, "
                    "or grow: true with a growable benchmark"
                )
            for key in ("model_args", "guide_args", "seed"):
                if key in params and params[key] is None:
                    del params[key]  # null asks for the default
            # The seed is journaled: a session without one draws it here.
            params.setdefault("seed", int.from_bytes(os.urandom(4), "big"))
            request = admit_request(params, default_workers, OPEN_PARAM_FIELDS)
        except InferenceError as exc:
            raise StreamingError("invalid_request", f"bad session.open: {exc}") from exc
        if not isinstance(request.seed, int):
            raise StreamingError(
                "invalid_request", "session seed must be an integer (it is journaled)"
            )
        return cls(
            model_source=model if not grow else None,
            guide_source=guide if not grow else None,
            model_entry=payload.get("model_entry"),
            guide_entry=payload.get("guide_entry"),
            latent_channel=payload.get("latent_channel", "latent"),
            obs_channel=payload.get("obs_channel", "obs"),
            benchmark=benchmark if isinstance(benchmark, str) else None,
            grow=grow,
            request=request,
            force=force,
            max_steps=max_steps,
        )


class StreamingSession:
    """One live session: a pinned config, an observation journal, and the
    cached result of the latest replay."""

    def __init__(self, session_id: str, tenant: str, config: StreamingConfig):
        self.session_id = session_id
        self.tenant = tenant
        self.config = config
        self.journal: List[float] = []
        #: ``buffering`` until the model's observation demand is met, then
        #: ``active``.
        self.status = "buffering"
        self.steps_applied = 0
        self.result: Optional[EngineResult] = None
        self.created_wall = time.time()
        self.last_active_wall = self.created_wall
        # Monotonic timestamps are set by the owning SessionManager's clock.
        self.created_mono = 0.0
        self.last_active_mono = 0.0
        self.lock = threading.Lock()
        # Validate certification once, up front (growable families certify at
        # every length by construction, so length 1 is representative).
        session = self._program_session(max(1, len(self.journal)))
        if not session.certified and not config.force:
            raise StreamingError(
                "invalid_request",
                f"model/guide pair is not certified: {session.certification_reason} "
                "(pass force: true to open anyway)",
            )

    # -- program resolution ------------------------------------------------

    def _program_session(self, steps: int) -> ProgramSession:
        """The (LRU-cached) prepared pair for a journal of ``steps``."""
        config = self.config
        if config.grow:
            from repro.models import STREAMING_FAMILIES

            model, guide = STREAMING_FAMILIES[config.benchmark](steps)
        else:
            model, guide = config.model_source, config.guide_source
        return ProgramSession.from_sources(
            model,
            guide,
            model_entry=config.model_entry,
            guide_entry=config.guide_entry,
            latent_channel=config.latent_channel,
            obs_channel=config.obs_channel,
        )

    # -- the replay-from-seed core ----------------------------------------

    def _replay(self, journal: List[float]) -> Optional[EngineResult]:
        """One-shot SMC over ``journal`` from the pinned seed.

        Rebuilds the RNG from the seed every time, so the result depends
        only on ``(config, journal)`` — never on how the journal was split
        into pushes.  Returns ``None`` when the journal is empty or the model
        wants more observations than it holds (:class:`TraceExhausted`): the
        session keeps buffering.  Touches no session state.
        """
        if not journal:
            return None
        session = self._program_session(len(journal))
        request = dataclasses.replace(self.config.request, obs_values=list(journal))
        try:
            return run_engine("smc", session, request)
        except TraceExhausted:
            return None

    def _commit(self, journal: List[float], result: Optional[EngineResult]) -> None:
        """Adopt a successfully replayed journal and its result."""
        self.journal = journal
        if result is None:
            self.status = "buffering"
            return
        self.result = result
        self.steps_applied = len(result.raw.ess_history)
        self.status = "active"

    def push(self, values: Sequence[object]) -> Dict[str, object]:
        """Append observations to the journal and replay to the new prefix.

        Atomic: the candidate journal is replayed first and committed only
        when the replay succeeds, so a push that raises leaves the journal,
        result, ``steps_applied`` and status exactly as they were.
        """
        if not values:
            raise StreamingError("invalid_request", "session.push needs values")
        real = GUARDS[ty.REAL]
        numbers = [wire_float(value) for value in values]
        for value, number in zip(values, numbers):
            if not real.holds(number):
                raise StreamingError(
                    "invalid_request", f"observation {real.message}, got {value!r}"
                )
        if len(self.journal) + len(numbers) > self.config.max_steps:
            raise StreamingError(
                CODE_SESSION_LIMIT,
                f"session {self.session_id!r} journal is capped at "
                f"{self.config.max_steps} observations",
            )
        started = time.perf_counter()
        journal = self.journal + numbers
        self._commit(journal, self._replay(journal))
        _PUSH_SECONDS.observe(time.perf_counter() - started)
        return self.describe(push=True)

    def query(self, sites: Sequence[int]) -> Dict[str, object]:
        """Posterior summary of the latest replayed population."""
        body = self.describe()
        means: Dict[str, Optional[float]] = {}
        if self.result is not None:
            for site in dict.fromkeys(sites):  # each distinct site once
                try:
                    means[str(int(site))] = float(self.result.posterior_mean(int(site)))
                except ReproError:
                    means[str(int(site))] = None
            body["diagnostics"] = self.result.diagnostics()
        body["posterior_means"] = means
        return body

    def describe(self, push: bool = False) -> Dict[str, object]:
        """The wire-facing summary body shared by push/query responses."""
        body: Dict[str, object] = {
            "session_id": self.session_id,
            "status": self.status,
            "steps": len(self.journal),
            "steps_applied": self.steps_applied,
        }
        unused = len(self.journal) - self.steps_applied
        if self.status == "active" and unused:
            # A fixed-demand model met its demand and the extra observations
            # can never be consumed: tell the client instead of dropping them
            # silently.
            body["unused_observations"] = unused
        if self.result is not None:
            body["log_evidence"] = float(self.result.log_evidence())
            body["effective_sample_size"] = float(self.result.effective_sample_size())
            if push:
                body["resample_steps"] = list(self.result.raw.resample_steps)
        return body

    # -- checkpointing -----------------------------------------------------

    def checkpoint_dict(self) -> Dict[str, object]:
        """The versioned, digest-protected durable form of this session."""
        body: Dict[str, object] = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "session_id": self.session_id,
            "tenant": self.tenant,
            "seed": self.config.request.seed,
            "journal": list(self.journal),
            "config": self.config.to_dict(),
            "status": self.status,
            "steps_applied": self.steps_applied,
            "created_wall": self.created_wall,
            "last_active_wall": self.last_active_wall,
        }
        body["digest"] = _digest(body)
        return body

    @classmethod
    def from_checkpoint(cls, data: Dict[str, object]) -> "StreamingSession":
        """Rebuild a session from a checkpoint dict and replay its journal.

        Replay-from-seed makes restore exact: one SMC run over the journal
        reproduces the population bit-for-bit, however many pushes built it.
        """
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            raise StreamingError("invalid_request", "not a streaming checkpoint")
        if data.get("version") != CHECKPOINT_VERSION:
            raise StreamingError(
                "invalid_request",
                f"unsupported checkpoint version {data.get('version')!r} "
                f"(this build reads version {CHECKPOINT_VERSION})",
            )
        expected = data.get("digest")
        body = {k: v for k, v in data.items() if k != "digest"}
        if expected != _digest(body):
            raise StreamingError("invalid_request", "checkpoint digest mismatch")
        config = StreamingConfig.from_dict(data["config"])
        session = cls(str(data["session_id"]), str(data["tenant"]), config)
        journal = [float(v) for v in data["journal"]]
        session.created_wall = float(data["created_wall"])
        session.last_active_wall = float(data["last_active_wall"])
        session._commit(journal, session._replay(journal))
        return session


def _digest(body: Dict[str, object]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def checkpoint_filename(tenant: str, session_id: str) -> str:
    """Deterministic on-disk name for a (tenant, session) checkpoint.

    Hashed, not concatenated: tenants and ids are client-supplied strings
    and must never influence filesystem paths directly.
    """
    key = hashlib.sha256(f"{tenant}\x00{session_id}".encode("utf-8")).hexdigest()
    return f"{key[:32]}.json"


class SessionManager:
    """The bounded, TTL-expired, checkpointing session table.

    ``capacity`` bounds live sessions process-wide (LRU eviction past it —
    with a ``checkpoint_dir`` an evicted session persists to disk and
    transparently restores on next touch; without one it is simply gone).
    ``ttl_s`` expires idle sessions (lazily on touch plus via
    :meth:`sweep`); expired ids answer ``session_expired`` — distinguished
    from never-seen ids (``session_not_found``) through a bounded tombstone
    map.  ``per_tenant`` caps one tenant's live sessions
    (``session_limit``).  All methods are thread-safe (the server calls
    them from executor threads).
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_s: float = 600.0,
        per_tenant: int = 32,
        checkpoint_dir: Optional[str] = None,
        default_workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ):
        self.ttl_s = max(0.0, float(ttl_s))
        self.per_tenant = max(1, int(per_tenant))
        self.checkpoint_dir = checkpoint_dir
        self.default_workers = max(1, int(default_workers))
        self._clock = clock
        self._wall_clock = wall_clock
        self._lock = threading.RLock()
        self._table: "LruCache[str, StreamingSession]" = LruCache(
            max(1, int(capacity)), on_evict=self._on_evict
        )
        # Why a departed id departed: "expired" or "closed".  Bounded so a
        # scanning client cannot grow it without limit.
        self._tombstones: "LruCache[str, str]" = LruCache(4096)
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)

    # -- lifecycle ---------------------------------------------------------

    def open(
        self,
        tenant: str,
        payload: Dict[str, object],
        session_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Create a session; returns the open-response body."""
        config = StreamingConfig.from_payload(payload, self.default_workers)
        with self._lock:
            self.sweep()
            live = sum(1 for s in self._table.values() if s.tenant == tenant)
            if live >= self.per_tenant:
                _SESSION_EVENTS.labels(event="rejected").inc()
                raise StreamingError(
                    CODE_SESSION_LIMIT,
                    f"tenant {tenant!r} already has {live} live sessions "
                    f"(cap {self.per_tenant})",
                )
            if session_id is not None:
                if not _valid_session_id(session_id):
                    raise StreamingError(
                        "invalid_request",
                        "session_id must be 1-64 chars of [A-Za-z0-9._-]",
                    )
                if session_id in self._table or self._checkpoint_exists(
                    tenant, session_id
                ):
                    raise StreamingError(
                        "invalid_request", f"session {session_id!r} already exists"
                    )
            else:
                session_id = uuid.uuid4().hex[:16]
            session = StreamingSession(session_id, tenant, config)
            now = self._clock()
            session.created_mono = session.last_active_mono = now
            session.created_wall = session.last_active_wall = self._wall_clock()
            self._table.put(session_id, session)
            self._tombstones.pop(session_id)
            # Persist immediately: a session is durable from the moment its
            # open is acknowledged, not from its first push — an abrupt kill
            # between the two must not lose it.
            self._checkpoint(session)
            _SESSION_EVENTS.labels(event="opened").inc()
            _SESSIONS.set(len(self._table))
            return {
                "session_id": session_id,
                "status": session.status,
                "steps": 0,
                "seed": config.request.seed,
                "grow": config.grow,
            }

    def get(self, tenant: str, session_id: str) -> StreamingSession:
        """Look up a live session, restoring from disk or raising structured
        ``session_expired`` / ``session_not_found`` errors."""
        with self._lock:
            session = self._table.get(session_id)
            if session is not None:
                if session.tenant != tenant:
                    # Existence must not leak across tenants.
                    raise self._not_found(session_id)
                if self._expired(session):
                    self._expire(session)
                    raise StreamingError(
                        CODE_SESSION_EXPIRED,
                        f"session {session_id!r} expired after {self.ttl_s:g}s idle",
                    )
                self._touch(session)
                return session
            reason = self._tombstones.get(session_id)
            if reason == "expired":
                raise StreamingError(
                    CODE_SESSION_EXPIRED,
                    f"session {session_id!r} expired after {self.ttl_s:g}s idle",
                )
            if reason == "closed":
                raise StreamingError(
                    CODE_SESSION_NOT_FOUND, f"session {session_id!r} was closed"
                )
            session = self._restore(tenant, session_id)
            if session is None:
                raise self._not_found(session_id)
            return session

    def push(self, tenant: str, session_id: str, values: Sequence[object]) -> Dict[str, object]:
        session = self.get(tenant, session_id)
        with session.lock:
            body = session.push(values)
        self._checkpoint(session)
        return body

    def query(self, tenant: str, session_id: str, sites: Sequence[int]) -> Dict[str, object]:
        session = self.get(tenant, session_id)
        with session.lock:
            return session.query(sites)

    def close(self, tenant: str, session_id: str) -> Dict[str, object]:
        """Drop a session deliberately (tombstoned; checkpoint removed)."""
        session = self.get(tenant, session_id)
        with self._lock:
            self._observe_end(session)
            self._table.pop(session_id)
            self._tombstones.put(session_id, "closed")
            self._remove_checkpoint(session)
            _SESSION_EVENTS.labels(event="closed").inc()
            _SESSIONS.set(len(self._table))
        return {"session_id": session_id, "closed": True, "steps": len(session.journal)}

    # -- TTL / eviction ----------------------------------------------------

    def sweep(self) -> int:
        """Expire every TTL-overdue session now; returns how many went."""
        if not self.ttl_s:
            return 0
        with self._lock:
            doomed = [s for s in self._table.values() if self._expired(s)]
            for session in doomed:
                self._expire(session)
            return len(doomed)

    def shutdown(self) -> int:
        """Checkpoint every live session and clear the table (server stop).

        With a checkpoint directory every session survives the restart —
        the restarted server restores them on first touch.  Returns the
        number of sessions persisted.
        """
        with self._lock:
            sessions = list(self._table.values())
            saved = 0
            for session in sessions:
                if self._checkpoint(session):
                    saved += 1
            self._table.clear()
            _SESSIONS.set(0)
            return saved

    def stats(self) -> Dict[str, object]:
        """Session-table snapshot for ``op: stats``."""
        with self._lock:
            now = self._clock()
            sessions = list(self._table.values())
            return {
                "live": len(sessions),
                "capacity": self._table.capacity,
                "ttl_s": self.ttl_s,
                "per_tenant": self.per_tenant,
                "evictions": self._table.evictions,
                "checkpoint_dir": self.checkpoint_dir,
                "oldest_idle_s": max(
                    (now - s.last_active_mono for s in sessions), default=0.0
                ),
            }

    # -- internals ---------------------------------------------------------

    def _not_found(self, session_id: str) -> StreamingError:
        return StreamingError(
            CODE_SESSION_NOT_FOUND, f"no session {session_id!r} (open one first)"
        )

    def _expired(self, session: StreamingSession) -> bool:
        return bool(self.ttl_s) and (
            self._clock() - session.last_active_mono > self.ttl_s
        )

    def _touch(self, session: StreamingSession) -> None:
        session.last_active_mono = self._clock()
        session.last_active_wall = self._wall_clock()

    def _expire(self, session: StreamingSession) -> None:
        self._observe_end(session)
        self._table.pop(session.session_id)
        self._tombstones.put(session.session_id, "expired")
        self._remove_checkpoint(session)
        _SESSION_EVENTS.labels(event="expired").inc()
        _SESSIONS.set(len(self._table))

    def _observe_end(self, session: StreamingSession) -> None:
        _SESSION_AGE.observe(max(0.0, self._clock() - session.created_mono))
        _SESSION_STEPS.observe(len(session.journal))

    def _on_evict(self, session_id: str, session: StreamingSession) -> None:
        # Capacity pressure: persist if we can (the session transparently
        # restores on next touch), then let it go either way.
        self._observe_end(session)
        self._checkpoint(session)
        _SESSION_EVENTS.labels(event="evicted").inc()

    def _checkpoint_path(self, tenant: str, session_id: str) -> Optional[str]:
        if not self.checkpoint_dir:
            return None
        return os.path.join(self.checkpoint_dir, checkpoint_filename(tenant, session_id))

    def _checkpoint_exists(self, tenant: str, session_id: str) -> bool:
        path = self._checkpoint_path(tenant, session_id)
        return path is not None and os.path.exists(path)

    def _checkpoint(self, session: StreamingSession) -> bool:
        """Atomically persist one session (tmp file + ``os.replace``)."""
        path = self._checkpoint_path(session.tenant, session.session_id)
        if path is None:
            return False
        started = time.perf_counter()
        body = json.dumps(session.checkpoint_dict(), sort_keys=True).encode("utf-8")
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _CHECKPOINT_BYTES.observe(len(body))
        _CHECKPOINT_SECONDS.labels(op="save").observe(time.perf_counter() - started)
        _SESSION_EVENTS.labels(event="checkpointed").inc()
        return True

    def _remove_checkpoint(self, session: StreamingSession) -> None:
        path = self._checkpoint_path(session.tenant, session.session_id)
        if path is not None:
            try:
                os.remove(path)
            except OSError:
                pass

    def _restore(self, tenant: str, session_id: str) -> Optional[StreamingSession]:
        """Rebuild a session from its on-disk checkpoint, if one exists."""
        path = self._checkpoint_path(tenant, session_id)
        if path is None or not os.path.exists(path):
            return None
        started = time.perf_counter()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            session = StreamingSession.from_checkpoint(data)
        except (OSError, ValueError, KeyError, TypeError, ReproError) as exc:
            raise StreamingError(
                CODE_SESSION_NOT_FOUND,
                f"session {session_id!r} has an unreadable checkpoint: {exc}",
            )
        if session.tenant != tenant or session.session_id != session_id:
            return None
        if self.ttl_s and self._wall_clock() - session.last_active_wall > self.ttl_s:
            # Idle across the restart gap: same contract as in-memory TTL.
            self._tombstones.put(session_id, "expired")
            try:
                os.remove(path)
            except OSError:
                pass
            _SESSION_EVENTS.labels(event="expired").inc()
            raise StreamingError(
                CODE_SESSION_EXPIRED,
                f"session {session_id!r} expired after {self.ttl_s:g}s idle",
            )
        now = self._clock()
        session.created_mono = now  # monotonic clocks do not survive restarts
        session.last_active_mono = now
        session.last_active_wall = self._wall_clock()
        self._table.put(session_id, session)
        self._tombstones.pop(session_id)
        _CHECKPOINT_SECONDS.labels(op="restore").observe(time.perf_counter() - started)
        _SESSION_EVENTS.labels(event="restored").inc()
        _SESSIONS.set(len(self._table))
        return session


def _valid_session_id(session_id: str) -> bool:
    if not isinstance(session_id, str) or not 1 <= len(session_id) <= 64:
        return False
    return all(c.isalnum() or c in "._-" for c in session_id)

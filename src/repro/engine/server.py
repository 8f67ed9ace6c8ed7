"""Async batch-inference service: queueing, coalescing, and a TCP front-end.

:class:`InferenceService` is the serving layer the ROADMAP's north star asks
for: callers submit JSON-shaped inference requests concurrently; a dispatcher
drains the queue in batches, groups requests that target the same prepared
:class:`~repro.engine.session.ProgramSession`, and executes each group
through the engine layer — sharded importance-sampling requests for the same
session are *coalesced* (:func:`~repro.engine.api.run_engine_batch`): their
shard tasks are concatenated into one pool submission wave, so four
concurrent requests cost one warm-pool round trip instead of four.
Coalescing only changes scheduling, never values: every request's shard plan
and RNG streams are derived exactly as they would be for a solo run, and each
request merges only its own shards.

The service is bounded and fair, not best-effort: admission control rejects
work beyond ``max_queue`` immediately (error code ``overloaded``) instead of
queueing unboundedly, per-request deadlines (``deadline_ms`` on the wire)
shed expired requests *before* dispatch with ``deadline_exceeded`` — an
expired request is never executed — per-tenant token buckets
(``tenant_rate``/``tenant_burst``) cap each tenant's admitted rate
(``quota_exceeded``), and the dispatcher collects each wave round-robin
across per-tenant queues (capped at ``max_batch`` requests per wave) so one
tenant's burst cannot starve another's.  Every rejection is a structured
``ok: false`` response with a machine-readable ``code`` — clients never
hang on a silently dropped request, including across :meth:`stop`, which
resolves both queued and in-flight requests before returning.

Each group runs on a thread the dispatcher picks by a prediction from the
last run of each member's shape.  A group whose request shapes last ran,
together, within one GIL switch interval (``sys.getswitchinterval()``) runs
on the event-loop thread: a worker thread running Python already holds the
loop off the GIL that long, so the group is predicted to block the loop no
longer than a worker could, and it skips the hop to an executor thread and
back.  The prediction is no bound: a run whose time depends on its seed can
overrun it once, and its shape then goes back to the worker.  Every other
group (a shape with no recorded run on its prepared session, a slower one,
a session op, a coalesced wave) runs on an executor thread.  A shape is the
request's session, engine, ``sites`` and ``params`` without ``seed``; every
run records its time, building the response included, under its shape and
prepared session, in a memo of :data:`SHAPE_MEMO_CAPACITY` entries.

Results stream back as each request completes (futures resolve
out-of-order).  Each answered, refused or shed request is counted once, in
the process-wide metrics registry that ``GET /metrics`` and ``op: metrics``
render; ``op: stats`` reads its throughput/latency counters back from there
(:class:`ServerCounters`), and the benchmark harness exports them into
``BENCH_results.json``.

:func:`serve_tcp` exposes the service over a newline-delimited-JSON TCP
protocol (one request object per line, one response object per line, matched
by ``id``), which is what the ``repro serve`` CLI subcommand runs; the
``repro loadgen`` open-loop load generator (:mod:`repro.engine.loadgen`)
drives it at a configured offered rate.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.engine.api import (
    EngineResult,
    InferenceRequest,
    admit_request,
    available_engines,
    coalescable,
    require_flag,
    run_engine,
    run_engine_batch,
)
from repro.engine.session import ProgramSession, cached_session, session_key
from repro.engine.streaming import (
    CODE_SESSION_EXPIRED,
    CODE_SESSION_LIMIT,
    CODE_SESSION_NOT_FOUND,
    SessionManager,
    StreamingError,
)
from repro.errors import InferenceError, ReproError
from repro.obs import REGISTRY, HistogramValue, percentile_keys
from repro.utils.lru import LruCache

_REQUESTS = REGISTRY.counter(
    "repro_requests_total",
    "Requests accepted by the inference service, by outcome.",
    labels=("status",),
)
_REQUEST_LATENCY = REGISTRY.histogram(
    "repro_request_latency_seconds",
    "Enqueue-to-response latency of successful requests.",
)
_REQUEST_QUEUE_WAIT = REGISTRY.histogram(
    "repro_request_queue_wait_seconds",
    "Enqueue-to-dispatch wait of successful requests.",
)
_REQUEST_RUN = REGISTRY.histogram(
    "repro_request_run_seconds",
    "Engine busy time attributed to each successful request (a coalesced "
    "request accounts for its share of the wave, not the whole wave).",
)
_SERVER_BATCHES = REGISTRY.counter(
    "repro_server_batches_total",
    "Dispatch groups executed by the batching dispatcher, by where they ran "
    "(loop: on the event-loop thread; worker: on an executor thread).",
    labels=("site",),
)
_SERVER_COALESCED = REGISTRY.counter(
    "repro_server_coalesced_requests_total",
    "Requests that shared a dispatch group with at least one other request "
    "for the same session.",
)
_SERVER_BATCH_SIZE = REGISTRY.histogram(
    "repro_server_batch_size",
    "Requests per dispatch group (coalescing depth).",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)
_SERVER_PARTICLES = REGISTRY.counter(
    "repro_server_particles_total",
    "Particles requested across all accepted requests.",
)
_SERVER_SHED = REGISTRY.counter(
    "repro_server_shed_total",
    "Requests shed by admission control or deadline enforcement, by reason "
    "(overloaded: queue full; quota_exceeded: tenant bucket empty; "
    "deadline_exceeded: expired before execution; shutting_down: resolved "
    "by stop()).",
    labels=("reason",),
)
_SERVER_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_server_queue_depth",
    "Requests currently admitted and waiting for dispatch (all tenants).",
)
_SERVER_TENANT_REQUESTS = REGISTRY.counter(
    "repro_server_tenant_requests_total",
    "Requests reaching admission control, by tenant.",
    labels=("tenant",),
)
_SERVER_WAVE_SIZE = REGISTRY.histogram(
    "repro_server_wave_size",
    "Requests collected into one dispatch wave (bounded by max_batch).",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)

#: Payload keys interpreted by the service itself (everything else under
#: ``params`` must be an :class:`InferenceRequest` field).
PAYLOAD_KEYS = frozenset(
    {
        "id",
        "op",
        "model",
        "guide",
        "model_entry",
        "guide_entry",
        "latent_channel",
        "obs_channel",
        "engine",
        "sites",
        "force",
        "params",
        "deadline_ms",
        "tenant",
    }
)

#: Per-op payload key sets for the streaming-session verbs.  Every session
#: op also rides the normal admission pipeline (quota, deadline, queue
#: bound), so the shared service keys appear in each set.
_SESSION_COMMON_KEYS = frozenset({"id", "op", "tenant", "deadline_ms", "session_id"})
SESSION_OPS: Dict[str, frozenset] = {
    "session.open": _SESSION_COMMON_KEYS
    | frozenset(
        {
            "model",
            "guide",
            "model_entry",
            "guide_entry",
            "latent_channel",
            "obs_channel",
            "benchmark",
            "grow",
            "force",
            "params",
            "max_steps",
        }
    ),
    "session.push": _SESSION_COMMON_KEYS | frozenset({"values"}),
    "session.query": _SESSION_COMMON_KEYS | frozenset({"sites"}),
    "session.close": _SESSION_COMMON_KEYS,
}

#: Machine-readable error codes carried by every ``ok: false`` response.
CODE_INVALID_REQUEST = "invalid_request"
CODE_OVERLOADED = "overloaded"
CODE_QUOTA_EXCEEDED = "quota_exceeded"
CODE_DEADLINE_EXCEEDED = "deadline_exceeded"
CODE_SHUTTING_DOWN = "shutting_down"
CODE_ENGINE_ERROR = "engine_error"

#: Codes that mean "the server chose not to run this" (admission control or
#: deadline enforcement) rather than "this request was wrong or blew up".
SHED_CODES = frozenset(
    {CODE_OVERLOADED, CODE_QUOTA_EXCEEDED, CODE_DEADLINE_EXCEEDED, CODE_SHUTTING_DOWN}
)

#: Tenant requests fall back to this bucket when the payload names none.
DEFAULT_TENANT = "default"

#: The longest request line the TCP front-end reads (asyncio's default
#: stream limit); a longer one is answered ``invalid_request``.
MAX_LINE_BYTES = 2**16

#: Request shapes whose last run time the dispatcher remembers.  A fixed
#: cap, so a client cycling shapes cannot grow the memo.
SHAPE_MEMO_CAPACITY = 256


@dataclass
class ServerCounters:
    """The ``op: stats`` counters, read from the registry families above.

    Every answered, refused and shed request is written once, to those
    families, which ``/metrics`` and ``op: metrics`` render too, so the
    counts are the process's (``repro serve`` runs one service per process);
    only the uptime is the instance's own.
    """

    started_at: float = field(default_factory=time.monotonic)

    def snapshot(self) -> Dict[str, object]:
        """The counters plus derived rates and percentiles, as one JSON dict.

        Times are seconds (``queue_wait`` enqueue-to-dispatch, ``run`` a
        request's share of engine busy time, ``latency`` arrival-to-response).
        Sheds and failures count toward ``requests_total`` and
        ``failures_total`` but reach no latency aggregate: means and the
        histogram-derived percentiles cover successes only, and each
        percentile is ``None`` until the first success lands.
        """
        uptime = max(time.monotonic() - self.started_at, 1e-9)
        status = _counts(_REQUESTS)
        shed = _counts(_SERVER_SHED)
        latency, queue_wait, run, waves = (
            family.children().get(()) or HistogramValue()
            for family in (_REQUEST_LATENCY, _REQUEST_QUEUE_WAIT, _REQUEST_RUN, _SERVER_WAVE_SIZE)
        )
        requests = sum(status.values())
        particles = _total(_SERVER_PARTICLES)
        succeeded = max(status.get("ok", 0), 1)
        out: Dict[str, object] = {
            "requests_total": requests,
            "failures_total": requests - status.get("ok", 0),
            "batches_total": _total(_SERVER_BATCHES),
            "coalesced_requests_total": _total(_SERVER_COALESCED),
            "particles_total": particles,
            "shed_total": sum(shed.values()),
            "shed_by_reason": shed,
            "waves_total": waves.count,
            "wave_size_max": int(waves.max),
            "uptime_s": uptime,
            "requests_per_s": requests / uptime,
            "particles_per_s": particles / max(run.total, 1e-9),
            "queue_wait_s_mean": queue_wait.total / succeeded,
            "run_s_mean": run.total / succeeded,
            "latency_s_mean": latency.total / succeeded,
            "latency_s_max": latency.max,
        }
        out.update(percentile_keys(latency, "latency_s"))
        out.update(percentile_keys(queue_wait, "queue_wait_s"))
        out.update(percentile_keys(run, "run_s"))
        return _json_safe(out)


def _counts(family) -> Dict[str, int]:
    """A one-label counter family's counts by label value."""
    return {key[0]: int(child.value) for key, child in family.children().items()}


def _total(family) -> int:
    """A counter family's count over all its children."""
    return int(sum(child.value for child in family.children().values()))


@dataclass(eq=False)  # identity semantics: equal fields are still two requests
class _Pending:
    """One accepted request waiting in (or moving through) the queue."""

    payload: Dict[str, object]
    session: Optional[ProgramSession]
    engine: str
    request: Optional[InferenceRequest]
    sites: List[int]
    future: "asyncio.Future[Dict[str, object]]"
    tenant: str = DEFAULT_TENANT
    #: The streaming-session verb (``open``/``push``/``query``/``close``)
    #: when this is a session op rather than an inference request.
    session_op: Optional[str] = None
    #: Monotonic time after which the request must not execute (``None``:
    #: no deadline).  Measured from arrival, before validation.
    deadline_at: Optional[float] = None
    enqueued_at: float = field(default_factory=time.monotonic)
    dispatched_at: float = 0.0
    batch_size: int = 1
    #: Whether the request can share a coalesced pool wave
    #: (:func:`~repro.engine.api.coalescable`: an ``is`` run with more than
    #: one shard).  Decided once, at admission; the batch window is held only
    #: while such a request is queued.
    coalescable: bool = False
    #: The key of the request's recorded run time: its session key, engine
    #: and canonical ``params`` without ``seed``.  ``None`` for session ops
    #: and for params that do not serialise, which are never measured.
    shape: Optional[Tuple] = None


class _TokenBucket:
    """Per-tenant admission quota: ``rate`` tokens/s, capped at ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = float(rate)
        self.burst = max(1.0, float(burst))
        self.tokens = self.burst
        self.updated_at = now

    def try_take(self, now: float) -> bool:
        """Refill by elapsed time, then spend one token if available."""
        self.tokens = min(self.burst, self.tokens + (now - self.updated_at) * self.rate)
        self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class InferenceService:
    """Coalescing batch-inference front-end over prepared program sessions.

    ``workers`` sizes the shared shard pool (it is the default worker count
    for requests that do not pin their own, and the most a request may pin,
    so no client can resize the pool); ``batch_window_s`` optionally
    holds a dispatch batch open a little longer so concurrent callers can
    land in the same coalesced wave.  The window is held only while a queued
    request can join such a wave (an ``is`` request with more than one
    shard); every other request is dispatched as soon as the dispatcher
    wakes.  ``max_queue`` bounds the number of admitted requests waiting
    for dispatch (overflow is rejected with ``overloaded``),
    ``max_batch`` bounds each dispatch wave, and ``tenant_rate`` /
    ``tenant_burst`` enable a per-tenant token-bucket quota (``None``
    disables quotas).  Use as::

        service = InferenceService(workers=4, max_queue=256)
        await service.start()
        response = await service.submit({"model": ..., "guide": ..., ...})
        await service.stop()
    """

    def __init__(
        self,
        workers: int = 1,
        batch_window_s: float = 0.0,
        max_queue: int = 256,
        max_batch: int = 32,
        tenant_rate: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        session_ttl_s: float = 600.0,
        max_sessions: int = 256,
        sessions_per_tenant: int = 32,
        checkpoint_dir: Optional[str] = None,
    ):
        self.workers = max(1, int(workers))
        self.batch_window_s = max(0.0, float(batch_window_s))
        self.max_queue = max(1, int(max_queue))
        self.max_batch = max(1, int(max_batch))
        self.tenant_rate = None if tenant_rate is None else max(0.0, float(tenant_rate))
        if tenant_burst is None:
            tenant_burst = max(1.0, self.tenant_rate or 1.0)
        self.tenant_burst = max(1.0, float(tenant_burst))
        #: The streaming-session table (``op: session.*`` verbs); bounded,
        #: TTL-expired, and — with ``checkpoint_dir`` — durable across
        #: restarts.
        self.sessions = SessionManager(
            capacity=max_sessions,
            ttl_s=session_ttl_s,
            per_tenant=sessions_per_tenant,
            checkpoint_dir=checkpoint_dir,
            default_workers=self.workers,
        )
        self.counters = ServerCounters()
        # Per-tenant FIFO queues, serviced round-robin by the dispatcher.
        # All queue state is touched only on the event-loop thread, so no
        # locking is needed.
        self._queues: "OrderedDict[str, Deque[_Pending]]" = OrderedDict()
        self._queued = 0
        self._buckets: Dict[str, _TokenBucket] = {}
        #: The last run time of each request shape, in seconds, with a weak
        #: reference to the prepared session it ran on.
        self._run_times: "LruCache[Tuple, Tuple[weakref.ref, float]]" = LruCache(
            SHAPE_MEMO_CAPACITY
        )
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Create the queues, pre-warm the shard pool, start the dispatcher."""
        from repro.engine.shard import ensure_pool

        self._queues = OrderedDict()
        self._queued = 0
        self._wake = asyncio.Event()
        self._stopping = False
        # Fork the pool before any executor threads exist: forking a
        # multi-threaded process can deadlock the children.
        if self.workers > 1:
            await asyncio.get_running_loop().run_in_executor(None, ensure_pool, self.workers)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        if self.sessions.ttl_s:
            self._sweeper = asyncio.create_task(self._sweep_loop())

    async def _sweep_loop(self) -> None:
        """Periodically expire TTL-overdue streaming sessions.

        Lazy expiry on touch already guarantees an expired session never
        answers; the sweep just reclaims memory for sessions nobody touches
        again.
        """
        interval = max(1.0, min(30.0, self.sessions.ttl_s / 10.0))
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            await loop.run_in_executor(None, self.sessions.sweep)

    async def stop(self) -> None:
        """Stop the dispatcher; resolve every queued and in-flight request.

        No accepted request is abandoned: requests still queued (and any
        of the cancelled dispatcher's wave not yet started) resolve with a
        structured ``shutting_down`` response, and requests already
        executing are awaited and answered with their own outcome, so every
        caller gets exactly one response.  Streaming
        sessions are not abandoned either: queued/in-flight session ops
        resolve like any other request (``shutting_down``), and the session
        table itself is checkpointed to disk (when a checkpoint directory is
        configured) so every open session survives the restart.
        """
        self._stopping = True
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for queue in self._queues.values():
            for pending in queue:
                self._shed(pending, CODE_SHUTTING_DOWN, "server shutting down")
        self._queues.clear()
        self._queued = 0
        _SERVER_QUEUE_DEPTH.set(0)
        # The dispatcher has waited for any group it handed to a worker, so
        # every in-flight push has resolved: the table is quiescent and safe
        # to persist.
        await asyncio.get_running_loop().run_in_executor(None, self.sessions.shutdown)

    # -- request intake ----------------------------------------------------

    async def submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Validate, admit, enqueue, and await one inference request.

        Returns the response dict (also carrying per-request server timings);
        invalid payloads, admission rejections, and engine failures come back
        as ``ok: false`` responses with a structured ``code`` rather than
        raising, so one bad request never takes down a connection handler.
        Admission order: validation, tenant quota, deadline, queue bound.
        """
        started = time.monotonic()
        try:
            pending = await self._prepare(payload, arrived_at=started)
        except (ReproError, ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            if isinstance(exc, RecursionError):
                exc = InferenceError(
                    "program is nested too deeply to parse or certify "
                    "(Python recursion limit exceeded)"
                )
            return self.refuse(payload, exc)
        _SERVER_TENANT_REQUESTS.labels(tenant=pending.tenant).inc()
        # The stopping check precedes the not-started check: a submit racing
        # (or trailing) stop() gets a structured response, never an exception.
        if self._stopping:
            return self._shed(pending, CODE_SHUTTING_DOWN, "server shutting down")
        if self._dispatcher is None:
            raise InferenceError("service not started; call await service.start() first")
        now = time.monotonic()
        if self.tenant_rate is not None:
            bucket = self._buckets.get(pending.tenant)
            if bucket is None:
                bucket = self._buckets[pending.tenant] = _TokenBucket(
                    self.tenant_rate, self.tenant_burst, now
                )
            if not bucket.try_take(now):
                return self._shed(
                    pending,
                    CODE_QUOTA_EXCEEDED,
                    f"tenant {pending.tenant!r} exceeded its admitted rate "
                    f"({self.tenant_rate:g}/s, burst {self.tenant_burst:g})",
                )
        if pending.deadline_at is not None and now > pending.deadline_at:
            return self._shed(
                pending, CODE_DEADLINE_EXCEEDED, "deadline expired before admission"
            )
        if self._queued >= self.max_queue:
            return self._shed(
                pending,
                CODE_OVERLOADED,
                f"server queue is full ({self.max_queue} requests); retry later",
            )
        queue = self._queues.get(pending.tenant)
        if queue is None:
            queue = self._queues[pending.tenant] = deque()
        queue.append(pending)
        self._queued += 1
        _SERVER_QUEUE_DEPTH.set(self._queued)
        self._wake.set()
        return await pending.future

    def refuse(self, payload: object, exc: Exception) -> Dict[str, object]:
        """Count and answer one request refused before it was queued.

        Admission refuses a payload no run could use; the TCP front-end
        refuses a line that is no request at all (bad JSON, a non-object, an
        unknown op, an over-long line).  Either way the answer is
        ``invalid_request`` and the request counts once, as an error.
        """
        _REQUESTS.labels(status="error").inc()
        return self._error_response(payload, exc, code=CODE_INVALID_REQUEST)

    def _shed(self, pending: _Pending, code: str, detail: str) -> Dict[str, object]:
        """Count and answer one request the server declined to run.

        Safe from the event loop and from the worker thread alike.  Returns
        the response too, for admission-time rejections, which ``submit``
        hands back without awaiting the future.
        """
        _REQUESTS.labels(status="shed").inc()
        _SERVER_SHED.labels(reason=code).inc()
        response = self._error_response(pending.payload, InferenceError(detail), code=code)
        _answer(pending, response)
        return response

    @staticmethod
    def _validate_tenant(payload: Dict[str, object]) -> str:
        tenant = payload.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
            raise InferenceError("tenant must be a non-empty string of at most 64 characters")
        return tenant

    @staticmethod
    def _resolve_deadline(payload: Dict[str, object], arrived_at: float) -> Optional[float]:
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            return None
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not 0 < deadline_ms < math.inf
        ):
            raise InferenceError(
                "deadline_ms must be a finite positive number of milliseconds"
            )
        return arrived_at + deadline_ms / 1e3

    @staticmethod
    def _validate_sites(payload: Dict[str, object]) -> List[int]:
        sites = payload.get("sites", [0])
        if not isinstance(sites, (list, tuple)) or not all(
            isinstance(site, int) and not isinstance(site, bool) and site >= 0
            for site in sites
        ):
            raise InferenceError("sites must be a list of non-negative integers")
        return list(sites)

    def _prepare_session_op(
        self, payload: Dict[str, object], arrived_at: float, op: str
    ) -> _Pending:
        """Validate one ``session.*`` payload into a queueable request.

        Deliberately cheap and synchronous: the expensive work (parsing,
        certification, the replay itself) happens at execution time in the
        worker thread, and skipping the executor hop here keeps same-session
        pushes admitted in arrival order.
        """
        unknown = sorted(set(payload) - SESSION_OPS[op])
        if unknown:
            raise InferenceError(f"unknown {op} keys {unknown}")
        tenant = self._validate_tenant(payload)
        deadline_at = self._resolve_deadline(payload, arrived_at)
        session_id = payload.get("session_id")
        if session_id is not None and not isinstance(session_id, str):
            raise InferenceError("session_id must be a string")
        if op != "session.open" and not session_id:
            raise InferenceError(f"{op} needs a session_id")
        if op == "session.push":
            values = payload.get("values")
            if not isinstance(values, list) or not values:
                raise InferenceError("session.push needs a non-empty values list")
        sites = self._validate_sites(payload) if op == "session.query" else []
        return _Pending(
            payload=payload,
            session=None,
            engine=op,
            request=None,
            sites=sites,
            future=asyncio.get_running_loop().create_future(),
            tenant=tenant,
            deadline_at=deadline_at,
            enqueued_at=arrived_at,
            session_op=op.split(".", 1)[1],
        )

    async def _prepare(self, payload: Dict[str, object], arrived_at: float) -> _Pending:
        """Resolve the payload into a certified session plus a typed request.

        ``arrived_at`` anchors both the deadline and the latency clock at
        payload arrival, so validation time counts against them.
        """
        op = payload.get("op", "infer")
        if op in SESSION_OPS:
            return self._prepare_session_op(payload, arrived_at, op)
        unknown = sorted(set(payload) - PAYLOAD_KEYS)
        if unknown:
            raise InferenceError(f"unknown request keys {unknown}")
        for key in ("model", "guide"):
            if not isinstance(payload.get(key), str):
                raise InferenceError(f"request needs {key!r} source text")
        tenant = self._validate_tenant(payload)
        deadline_at = self._resolve_deadline(payload, arrived_at)
        engine = payload.get("engine", "is")
        if engine not in available_engines():
            raise InferenceError(
                f"unknown engine {engine!r} (known: {', '.join(available_engines())})"
            )
        params = dict(payload.get("params") or {})
        force = require_flag(payload.get("force", False), "force")
        request = admit_request(params, self.workers)
        key = session_key(
            payload["model"],
            payload["guide"],
            model_entry=payload.get("model_entry"),
            guide_entry=payload.get("guide_entry"),
            latent_channel=payload.get("latent_channel", "latent"),
            obs_channel=payload.get("obs_channel", "obs"),
        )
        # A session-cache hit is a dict lookup, served on the event loop;
        # only a miss (parse + typecheck, CPU work) hops to a thread.
        session = cached_session(key)
        if session is None:
            session = await asyncio.get_running_loop().run_in_executor(
                None, ProgramSession.prepare, key
            )
        if not session.certified and not force:
            raise InferenceError(
                f"model/guide pair is not certified: {session.certification_reason} "
                "(pass force: true to run anyway)"
            )
        sites = self._validate_sites(payload)
        return _Pending(
            payload=payload,
            session=session,
            engine=engine,
            request=request,
            sites=sites,
            future=asyncio.get_running_loop().create_future(),
            tenant=tenant,
            deadline_at=deadline_at,
            enqueued_at=arrived_at,
            coalescable=coalescable(engine, request),
            shape=_shape(key, engine, params, sites),
        )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Collect bounded waves from the tenant queues and execute them.

        Each wave takes at most ``max_batch`` requests, round-robin across
        tenants, so a burst is served in bounded waves (bounded coalesced-wave
        memory) and no tenant's backlog can monopolise dispatch.  The batch
        window is held only while a queued request is coalescable; any other
        wave is built as soon as the dispatcher wakes.  The wave's groups run
        one at a time: a group predicted to finish within one GIL switch
        interval (:meth:`_runs_on_loop`) runs right here on the event-loop
        thread, followed by one yield so reads, admissions and writes go on
        between groups, and every other group runs on an executor thread.
        On cancellation (``stop()``), a group running on a worker is waited
        for: it answers each member it started with that member's outcome
        and sheds the rest (:meth:`_run_group` reads ``_stopping``).  Then
        every request of the wave not yet answered resolves with a
        structured ``shutting_down`` response instead of being abandoned.
        """
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            if self.batch_window_s and any(
                pending.coalescable for queue in self._queues.values() for pending in queue
            ):
                await asyncio.sleep(self.batch_window_s)
            batch = self._collect_wave()
            if not self._queued:
                self._wake.clear()
            if not batch:
                continue
            _SERVER_WAVE_SIZE.observe(len(batch))
            now = time.monotonic()
            for pending in batch:
                pending.dispatched_at = now
            running: Optional[asyncio.Future] = None
            try:
                for group in self._group(batch):
                    on_loop = self._runs_on_loop(group)
                    _SERVER_BATCHES.labels(site="loop" if on_loop else "worker").inc()
                    _SERVER_BATCH_SIZE.observe(len(group))
                    if len(group) > 1:
                        _SERVER_COALESCED.inc(len(group))
                    try:
                        if on_loop:
                            self._run_group(group)
                            await asyncio.sleep(0)
                        else:
                            running = loop.run_in_executor(None, self._run_group, group)
                            # Shielded, so that cancelling the dispatcher
                            # leaves the run to be awaited below.
                            await asyncio.shield(running)
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:  # noqa: BLE001 - dispatcher must survive
                        # _run_group answers every request it runs; anything
                        # escaping it is unexpected, but one poisoned group must
                        # never wedge the dispatcher (and with it the server).
                        for pending in group:
                            if not pending.future.done():
                                self._finish(pending, exc, 0.0)
            except asyncio.CancelledError:
                # stop() cancelled a dispatch.  The worker's answers reach
                # the loop before its run completes, so once the run is
                # awaited, a request not done here was never started.
                if running is not None:
                    await asyncio.gather(running, return_exceptions=True)
                for pending in batch:
                    if not pending.future.done():
                        self._shed(pending, CODE_SHUTTING_DOWN, "server shutting down")
                raise

    def _runs_on_loop(self, group: List[_Pending]) -> bool:
        """Whether ``group`` runs on the event-loop thread (see the module
        docstring): it is no coalesced wave, and its members' shapes (a
        session op has none) all have recorded run times that sum to at most
        ``sys.getswitchinterval()``."""
        if sum(pending.coalescable for pending in group) > 1:
            return False
        predicted = 0.0
        for pending in group:
            entry = None if pending.shape is None else self._run_times.get(pending.shape)
            # A time recorded on another prepared session of the same source
            # (the cached one was evicted and prepared again) does not count:
            # the new session's first run may compile its kernel.
            if entry is None or entry[0]() is not pending.session:
                return False
            predicted += entry[1]
        return predicted <= sys.getswitchinterval()

    def _collect_wave(self) -> List[_Pending]:
        """Take up to ``max_batch`` queued requests, one per tenant per round.

        Round-robin across the per-tenant queues: as long as ``max_batch``
        is at least the number of active tenants, every tenant with queued
        work lands at least one request in every wave.  Requests whose
        deadline has already passed are shed here — before dispatch — and
        never execute.
        """
        now = time.monotonic()
        batch: List[_Pending] = []
        while self._queued and len(batch) < self.max_batch:
            took_any = False
            for tenant in list(self._queues.keys()):
                if len(batch) >= self.max_batch:
                    break
                queue = self._queues.get(tenant)
                if not queue:
                    self._queues.pop(tenant, None)
                    continue
                taken: Optional[_Pending] = None
                while queue:
                    candidate = queue.popleft()
                    self._queued -= 1
                    if candidate.deadline_at is not None and now > candidate.deadline_at:
                        self._shed(
                            candidate, CODE_DEADLINE_EXCEEDED, "deadline expired while queued"
                        )
                        continue
                    taken = candidate
                    break
                if not queue:
                    self._queues.pop(tenant, None)
                if taken is not None:
                    batch.append(taken)
                    took_any = True
            if not took_any:
                break
        _SERVER_QUEUE_DEPTH.set(self._queued)
        return batch

    def _group(self, batch: List[_Pending]) -> List[List[_Pending]]:
        """Partition a batch into per-(session, engine, backend) groups.

        Session ops group by their session id instead: ops against one
        streaming session execute sequentially in arrival order (a push must
        never overtake the push before it), while ops against different
        sessions still ride the same wave.
        """
        groups: Dict[Tuple, List[_Pending]] = {}
        for pending in batch:
            if pending.session_op is not None:
                key = ("session", pending.payload.get("session_id") or id(pending))
            else:
                key = (id(pending.session), pending.engine, pending.request.backend)
            groups.setdefault(key, []).append(pending)
        for group in groups.values():
            for pending in group:
                pending.batch_size = len(group)
        return list(groups.values())

    def _run_group(self, group: List[_Pending]) -> None:
        """Execute one same-session group (event-loop or worker thread).

        Two or more coalescable members run as one pool wave through
        :func:`~repro.engine.api.run_engine_batch` (should the wave itself
        fail, they run alone); every other request runs alone, through
        :func:`~repro.engine.api.run_engine` or the session table, in arrival
        order — the grouping key puts every op against one streaming session
        in one group, so a push never overtakes the push before it.  Each
        member is answered as soon as its own outcome exists.

        A member whose deadline passed between wave collection and this
        thread getting scheduled is shed here — the last gate before engine
        execution, so an expired request is never executed — and so is each
        member not yet started once :meth:`stop` has begun.  Each run's
        shape records the time from the start of the run to its answer,
        building the response included.
        """
        now = time.monotonic()
        live: List[_Pending] = []
        for pending in group:
            if pending.deadline_at is not None and now > pending.deadline_at:
                self._shed(pending, CODE_DEADLINE_EXCEEDED, "deadline expired before execution")
            else:
                live.append(pending)
        wave = [pending for pending in live if pending.coalescable]
        if len(wave) > 1 and not self._stopping:
            started = time.monotonic()
            try:
                outcomes = run_engine_batch(
                    wave[0].engine, wave[0].session, [pending.request for pending in wave]
                )
            except Exception:  # noqa: BLE001 - the wave is an optimisation only
                pass  # its members run alone below
            else:
                wave_s = time.monotonic() - started
                for pending, outcome in zip(wave, outcomes):
                    # Every member perceives the whole wave's wall time but
                    # accounts for only its share of engine busy time.
                    self._finish(pending, outcome, wave_s, wave_s / len(wave))
                    self._record_run(pending, time.monotonic() - started)
                live = [pending for pending in live if not pending.coalescable]
        for pending in live:
            if self._stopping:  # stop() began: run nothing more
                self._shed(pending, CODE_SHUTTING_DOWN, "server shutting down")
                continue
            started = time.monotonic()
            try:
                if pending.session_op is not None:
                    outcome = self._execute_session_op(pending)
                else:
                    outcome = run_engine(pending.engine, pending.session, pending.request)
            except Exception as exc:  # noqa: BLE001 - answered per request
                outcome = exc
            self._finish(pending, outcome, time.monotonic() - started)
            self._record_run(pending, time.monotonic() - started)

    def _record_run(self, pending: _Pending, run_s: float) -> None:
        """Remember ``run_s`` as the last run time of the request's shape
        on its prepared session."""
        if pending.shape is not None:
            self._run_times.put(pending.shape, (weakref.ref(pending.session), run_s))

    def _finish(
        self,
        pending: _Pending,
        outcome: object,
        run_s: float,
        busy_s: Optional[float] = None,
    ) -> None:
        """Answer and count one executed request (either thread).

        ``outcome`` is an engine result, a session op's response body, or
        the exception its execution raised: a :class:`StreamingError` keeps
        its structured code, anything else is ``engine_error``.  ``run_s``
        is the run's wall time as the request perceived it; ``busy_s``,
        when given, is its share of engine busy time (each member of a
        coalesced wave perceives the whole wave but accounts for a fraction
        of it, so throughput rates stay honest).  A failure is counted, but
        its timings reach no latency aggregate.
        """
        queue_wait = pending.dispatched_at - pending.enqueued_at
        try:
            if isinstance(outcome, Exception):
                raise outcome
            response = self._result_response(pending, outcome, queue_wait, run_s)
        except Exception as exc:  # noqa: BLE001 - answered per request
            code = exc.code if isinstance(exc, StreamingError) else CODE_ENGINE_ERROR
            response = self._error_response(pending.payload, exc, code=code)
        ok = response["ok"]
        # Latency is measured arrival-to-response-built — it includes
        # validation and serialisation, not just queue_wait + run_s.
        latency_s = time.monotonic() - pending.enqueued_at
        if ok:
            response["server"]["latency_s"] = latency_s
        try:
            particles = int(pending.request.num_particles)
        except (AttributeError, TypeError, ValueError):
            particles = 0  # a session op, or a request that failed on its count
        _REQUESTS.labels(status="ok" if ok else "error").inc()
        _SERVER_PARTICLES.inc(particles)
        if ok:
            _REQUEST_LATENCY.observe(latency_s)
            _REQUEST_QUEUE_WAIT.observe(queue_wait)
            _REQUEST_RUN.observe(run_s if busy_s is None else busy_s)
        _answer(pending, response)

    def _execute_session_op(self, pending: _Pending) -> Dict[str, object]:
        """Route one validated session op to the session table."""
        payload = pending.payload
        op = pending.session_op
        tenant = pending.tenant
        if op == "open":
            return self.sessions.open(
                tenant, payload, session_id=payload.get("session_id")
            )
        session_id = str(payload["session_id"])
        if op == "push":
            return self.sessions.push(tenant, session_id, payload["values"])
        if op == "query":
            return self.sessions.query(tenant, session_id, pending.sites)
        if op == "close":
            return self.sessions.close(tenant, session_id)
        raise InferenceError(f"unknown session op {op!r}")

    # -- response shaping --------------------------------------------------

    def _result_response(
        self, pending: _Pending, result: object, queue_wait_s: float, run_s: float
    ) -> Dict[str, object]:
        """Serialise an engine result or a session op's body into the response."""
        response: Dict[str, object] = {"id": pending.payload.get("id"), "ok": True}
        if isinstance(result, EngineResult):
            means: Dict[str, float] = {}
            for site in dict.fromkeys(pending.sites):  # each distinct site once
                try:
                    means[str(site)] = float(result.posterior_mean(site))
                except ReproError:
                    means[str(site)] = None
            response.update(_json_safe({
                "engine": pending.engine,
                "posterior_means": means,
                "log_evidence": result.log_evidence(),
                "effective_sample_size": result.effective_sample_size(),
                "diagnostics": result.diagnostics_with_metrics(),
            }))
        else:
            response["op"] = pending.payload.get("op")
            response.update(_json_safe(result))
        response["server"] = {
            "queue_wait_s": queue_wait_s,
            "run_s": run_s,
            "batch_size": pending.batch_size,
        }
        return response

    @staticmethod
    def _error_response(
        payload: Dict[str, object], exc: Exception, code: str = CODE_ENGINE_ERROR
    ) -> Dict[str, object]:
        """The ``ok: false`` wire response for one failed request."""
        return {"id": payload.get("id") if isinstance(payload, dict) else None,
                "ok": False, "error": str(exc), "code": code}


def _resolve_future(future: "asyncio.Future", response: Dict[str, object]) -> None:
    """Set a future's result unless the caller already went away."""
    if not future.done():
        future.set_result(response)


def _answer(pending: _Pending, response: Dict[str, object]) -> None:
    """Resolve a request's future on its event loop, from either thread.

    On the loop's own thread the future resolves at once, so ``done()`` is
    exact as soon as a group there answers: the dispatcher's handlers (for
    a group that raised, or for ``stop()`` cancelling it) never answer or
    count a request a second time.
    """
    loop = pending.future.get_loop()
    try:
        on_loop = asyncio.get_running_loop() is loop
    except RuntimeError:  # a worker thread runs no event loop
        on_loop = False
    if on_loop:
        _resolve_future(pending.future, response)
    else:
        loop.call_soon_threadsafe(_resolve_future, pending.future, response)


def _shape(
    key: Tuple, engine: str, params: Dict[str, object], sites: List[int]
) -> Optional[Tuple]:
    """A request's shape: its session key, engine, ``sites``, and ``params``
    without ``seed``, as canonical JSON; ``None`` when the params do not
    serialise (an in-process caller's NumPy values, say).  The sites' text
    is no longer than the request line that carried it."""
    try:
        canonical = json.dumps(
            {name: value for name, value in params.items() if name != "seed"},
            sort_keys=True,
        )
    except (TypeError, ValueError):
        return None
    return (key, engine, canonical, json.dumps(sites, separators=(",", ":")))


def _json_safe(value):
    """Coerce numpy scalars/arrays so the response serialises as strict
    JSON: every non-finite float becomes ``None``."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ---------------------------------------------------------------------------
# The TCP front-end (newline-delimited JSON)
# ---------------------------------------------------------------------------


async def _handle_connection(
    service: InferenceService, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Serve one client connection: a JSON object per line, answers by ``id``."""
    write_lock = asyncio.Lock()
    #: The line handlers still running; a finished one drops out at once,
    #: so a long-lived connection holds only its work in flight.
    tasks: Set[asyncio.Task] = set()

    def finished(task: asyncio.Task) -> None:
        tasks.discard(task)
        if not task.cancelled():
            task.exception()  # retrieved here, as the EOF gather retrieves it

    def spawn(line: Optional[bytes]) -> None:
        task = asyncio.create_task(handle_line(line))
        tasks.add(task)
        task.add_done_callback(finished)

    async def respond(response: Dict[str, object]) -> None:
        async with write_lock:
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()

    async def handle_line(line: Optional[bytes]) -> None:
        if line is None:
            refused = InferenceError(f"request line exceeds {MAX_LINE_BYTES} bytes")
            await respond(service.refuse(None, refused))
            return
        try:
            payload = json.loads(line)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            await respond(service.refuse(None, InferenceError(f"bad JSON: {exc}")))
            return
        if not isinstance(payload, dict):
            refused = InferenceError("request must be a JSON object")
            await respond(service.refuse(payload, refused))
            return
        op = payload.get("op", "infer")
        if op == "stats":
            from repro.engine.shard import pool_worker_pids

            await respond({"id": payload.get("id"), "ok": True,
                           "counters": service.counters.snapshot(),
                           "sessions": service.sessions.stats(),
                           "pool": {"worker_pids": pool_worker_pids()}})
        elif op == "metrics":
            await respond({"id": payload.get("id"), "ok": True,
                           "metrics": _json_safe(REGISTRY.snapshot())})
        elif op == "infer" or (isinstance(op, str) and op in SESSION_OPS):
            await respond(await service.submit(payload))
        else:
            known = ", ".join(["infer", "metrics", "stats"] + sorted(SESSION_OPS))
            refused = InferenceError(f"unknown op {op!r} (known: {known})")
            await respond(service.refuse(payload, refused))

    cancelled = False
    first_line = True
    try:
        while True:
            line = await _read_line(reader)
            if line is None:
                first_line = False
                spawn(None)
                continue
            if not line:
                break
            if line.startswith(b"GET ") and first_line:
                # A Prometheus scraper (or curl) speaking HTTP on the JSONL
                # port: answer the one request and close, as HTTP/1.0 does.
                await _serve_http_scrape(reader, writer, line)
                break
            if line.strip():
                first_line = False
                # Handle each line concurrently so requests on one connection
                # can coalesce into the same dispatch batch.
                spawn(line)
    except asyncio.CancelledError:
        cancelled = True
        raise
    finally:
        if cancelled:
            for task in tasks:
                task.cancel()
        elif tasks:
            # EOF on the read side is how JSONL clients say "no more
            # requests" — answers for everything already submitted must
            # still go out before the connection closes.
            await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()
        try:
            await asyncio.shield(writer.wait_closed())
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line, ``b""`` at EOF, or ``None`` for a line longer than
    :data:`MAX_LINE_BYTES`, which is read through its newline and dropped."""
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # EOF: an unterminated last line, or nothing
        except asyncio.LimitOverrunError as exc:
            overlong = True  # drop what precedes the newline, or all buffered so far
            await reader.readexactly(exc.consumed)
            continue
        return None if overlong else line


async def _serve_http_scrape(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request_line: bytes
) -> None:
    """Answer one ``GET`` request on the JSONL port (the ``/metrics`` scrape).

    Minimal HTTP/1.0 semantics: headers are drained and ignored, the
    response carries ``Content-Length``, and the connection closes after one
    exchange — exactly what a Prometheus scrape (or ``curl``) needs, without
    pulling an HTTP framework into the server.
    """
    while True:  # drain request headers up to the blank line
        header = await _read_line(reader)
        if not header or header in (b"\r\n", b"\n"):
            break
    parts = request_line.decode("latin-1").split()
    path = parts[1] if len(parts) >= 2 else ""
    if path.split("?", 1)[0] == "/metrics":
        body = REGISTRY.render_prometheus().encode("utf-8")
        status = "200 OK"
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = b"not found; scrape /metrics\n"
        status = "404 Not Found"
        content_type = "text/plain; charset=utf-8"
    head = (
        f"HTTP/1.0 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def serve_tcp(service: InferenceService, host: str, port: int) -> "asyncio.AbstractServer":
    """Start the JSONL TCP front-end for an already-started service."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port, limit=MAX_LINE_BYTES
    )


async def run_server(
    host: str = "127.0.0.1",
    port: int = 7341,
    workers: int = 1,
    batch_window_s: float = 0.002,
    max_queue: int = 256,
    max_batch: int = 32,
    tenant_rate: Optional[float] = None,
    tenant_burst: Optional[float] = None,
    session_ttl_s: float = 600.0,
    max_sessions: int = 256,
    sessions_per_tenant: int = 32,
    checkpoint_dir: Optional[str] = None,
) -> None:
    """Run the batch-inference server until cancelled (CLI entry point)."""
    service = InferenceService(
        workers=workers,
        batch_window_s=batch_window_s,
        max_queue=max_queue,
        max_batch=max_batch,
        tenant_rate=tenant_rate,
        tenant_burst=tenant_burst,
        session_ttl_s=session_ttl_s,
        max_sessions=max_sessions,
        sessions_per_tenant=sessions_per_tenant,
        checkpoint_dir=checkpoint_dir,
    )
    await service.start()
    server = await serve_tcp(service, host, port)
    bound = ", ".join(str(sock.getsockname()) for sock in server.sockets)
    print(f"repro inference server listening on {bound} "
          f"({workers} worker(s), batch window {batch_window_s * 1e3:.1f}ms, "
          f"max queue {service.max_queue}, max batch {service.max_batch}, "
          f"tenant rate {service.tenant_rate if service.tenant_rate is not None else 'off'}, "
          f"sessions {max_sessions} cap / {session_ttl_s:g}s TTL"
          f"{', checkpoints in ' + checkpoint_dir if checkpoint_dir else ''})")
    try:
        async with server:
            await server.serve_forever()
    finally:
        await service.stop()

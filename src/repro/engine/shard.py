"""Sharded multi-process particle execution: the scale-out layer.

Particles are embarrassingly parallel: a population of ``n`` particles can be
split into contiguous *shards*, each executed by an independent runner with
its own deterministically derived RNG stream, and merged back exactly — the
merged :class:`~repro.engine.vectorize.VectorRunResult` carries the same
per-particle log-weights, recorded traces, and observation-score columns a
single run would, so every consumer (importance weights, SMC resampling
decisions, SVI gradients) is oblivious to how the population was cut.

Determinism contract
--------------------

Results are a pure function of ``(seed, num_particles, shards)`` and **never**
of the worker count:

* ``shards == 1`` consumes the caller's generator directly — bit-identical to
  the pre-sharding single-process path at any worker count;
* ``shards > 1`` consumes exactly one ``integers()`` draw from the caller's
  generator (the same draw at any worker count) to seed a
  :class:`numpy.random.SeedSequence`, whose spawned children drive the shards.
  Shard ``k`` therefore produces the same values whether it runs inline, in a
  2-process pool, or in an 8-process pool.

The determinism suite (``tests/test_shard_determinism.py``) pins both halves
of the contract for all three vectorized engines on both backends.

Execution
---------

Shard tasks run in a persistent ``multiprocessing`` pool (fork start method,
so workers inherit the parsed-program and compiled-kernel caches warm and keep
their own caches warm across tasks).  Large per-shard arrays (log-weights,
observation scores, recorded trace columns) travel back through POSIX
shared-memory blocks instead of the pickle pipe; small results take the
plain pickle path.  When no pool can be created (restricted sandboxes,
``workers == 1``) shards run inline in the parent — same results, no
parallelism — so sharding never *fails*, it only degrades.
"""

from __future__ import annotations

import atexit
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ast
from repro.core.semantics import traces as tr
from repro.engine.vectorize import VecMessage, VectorRunResult, _Leaf
from repro.errors import InferenceError
from repro.obs import DEFAULT_COUNT_BUCKETS, REGISTRY, span
from repro.obs import trace as obs_trace_mod
from repro.utils.rng import ensure_rng

_SHARD_RUN_SECONDS = REGISTRY.histogram(
    "repro_shard_run_seconds",
    "Wall time of one shard task as measured inside its executing process "
    "(worker or inline).",
)
_SHARD_MERGE_SECONDS = REGISTRY.histogram(
    "repro_shard_merge_seconds",
    "Wall time to reassemble one wave's shard results into a global "
    "population.",
)
_SHARD_TASKS = REGISTRY.counter(
    "repro_shard_tasks_total",
    "Shard tasks executed, by result transport (shm: shared-memory block; "
    "pickle: plain pipe; inline: ran in the parent process).",
    labels=("transport",),
)
_SHARD_PAYLOAD_BYTES = REGISTRY.counter(
    "repro_shard_payload_bytes_total",
    "Array bytes carried by shard results back to the parent (0 for results "
    "that never left the parent process).",
)
_SHARD_PARTICLES = REGISTRY.histogram(
    "repro_shard_particles",
    "Particles per shard task.",
    buckets=DEFAULT_COUNT_BUCKETS,
)
_POOL_EVENTS = REGISTRY.counter(
    "repro_pool_rebuilds_total",
    "Worker-pool lifecycle events: broken (an infrastructure failure tore "
    "the pool down), rebuilt (a later wave recreated it), recovered (a "
    "rebuilt pool completed a wave, resetting the failure budget), gave_up "
    "(the failure cap was hit; execution stays inline until shutdown_pool).",
    labels=("event",),
)

#: Arrays smaller than this (total bytes per shard result) are returned
#: through the pickle pipe; shared memory only pays for itself beyond it.
SHM_MIN_BYTES = 1 << 15


# ---------------------------------------------------------------------------
# Shard plans and RNG stream derivation
# ---------------------------------------------------------------------------


def plan_shards(num_particles: int, num_shards: int) -> List[Tuple[int, int]]:
    """Split ``num_particles`` into ``num_shards`` contiguous ``(start, count)`` spans.

    The first ``num_particles % num_shards`` shards take one extra particle,
    so shard sizes differ by at most one.  The plan is a pure function of its
    arguments — the determinism contract depends on that.
    """
    if num_particles <= 0:
        raise InferenceError("num_particles must be positive")
    if num_shards <= 0:
        raise InferenceError("shards must be positive")
    num_shards = min(num_shards, num_particles)
    base, extra = divmod(num_particles, num_shards)
    spans: List[Tuple[int, int]] = []
    start = 0
    for k in range(num_shards):
        count = base + (1 if k < extra else 0)
        spans.append((start, count))
        start += count
    return spans


def derive_shard_seeds(rng: np.random.Generator, num_shards: int) -> List[np.random.SeedSequence]:
    """Derive one independent seed sequence per shard from the caller's stream.

    Consumes exactly one draw from ``rng`` regardless of ``num_shards``' value
    or how the shards will be executed — this is what makes sharded results
    independent of the worker count.  Mirrors :func:`repro.utils.rng.fork_rng`.
    """
    entropy = int(rng.integers(0, 2**63 - 1))
    return list(np.random.SeedSequence(entropy).spawn(num_shards))


def resolve_shards(workers: int, shards: Optional[int]) -> int:
    """Validate a request's shard controls and resolve the shard count.

    ``shards=None`` defaults to the worker count (one shard per worker, the
    common case).  Pin ``shards`` explicitly to make results independent of
    how many workers happen to serve the request.
    """
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise InferenceError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise InferenceError("workers must be >= 1")
    if shards is None:
        return workers
    if isinstance(shards, bool) or not isinstance(shards, (int, np.integer)):
        raise InferenceError(f"shards must be an integer, got {shards!r}")
    if shards < 1:
        raise InferenceError("shards must be >= 1")
    return shards


# ---------------------------------------------------------------------------
# Shard tasks (picklable work units) and their worker-side execution
# ---------------------------------------------------------------------------


@dataclass
class ShardTask:
    """One shard's work order: a self-contained, picklable run request."""

    model_program: ast.Program
    guide_program: ast.Program
    model_entry: str
    guide_entry: str
    obs_trace: Optional[Tuple[tr.Message, ...]]
    model_args: Tuple[object, ...]
    guide_args: Tuple[object, ...]
    latent_channel: str
    obs_channel: str
    backend: str
    #: Number of particles this shard executes.
    count: int
    #: The shard's independent RNG stream (spawned from the request seed).
    seed: np.random.SeedSequence = None
    #: Global index of the shard's first particle (used by the merge).
    start: int = 0
    #: Drop the per-site score ledgers before the trip home.  They exist for
    #: SVI's Rao-Blackwellized gradients only; ``is``/``smc`` requests trim
    #: them so the dominant share of the result payload never crosses the
    #: process boundary.  Weights, traces, and observation scores are
    #: unaffected.
    trim_site_scores: bool = False
    #: Position of this shard in its wave's plan (names its trace track).
    index: int = 0
    #: Capture trace spans in the executing process and ship them home.
    #: Stamped from the parent's tracing state; never consumes randomness,
    #: so traced and untraced runs are bit-identical.
    trace: bool = False
    #: The parent recorder's ``perf_counter`` epoch.  ``perf_counter`` is
    #: CLOCK_MONOTONIC on Linux, so timestamps taken in forked workers
    #: relative to this epoch line up with the parent's timeline.
    trace_epoch: float = 0.0


@dataclass
class ShardResult:
    """One shard's finished leaves, with the task's wall time, payload and trace."""

    leaves: List[_Leaf]
    #: Wall time of the shard task in its executing process.
    wall_s: float = 0.0
    #: Array bytes the result carried across the process boundary (0 when it
    #: never left the parent).
    payload_bytes: int = 0
    #: Trace events captured by a pool worker (``None`` when the task ran in
    #: the parent, whose recorder the spans reached directly).
    trace_events: Optional[List[dict]] = None


def run_shard_task(task: ShardTask) -> ShardResult:
    """Execute one shard in the current process (worker entry point).

    Builds a runner through the ordinary backend seam — the worker process
    keeps its module-level compiled-kernel cache warm across tasks, so repeated
    requests against the same model/guide pair compile at most once per
    worker.
    """
    from repro.engine.backend import make_particle_runner

    started = time.perf_counter()
    with span(
        "shard.run",
        _tid=task.index + 1,
        shard=task.index,
        particles=task.count,
        backend=task.backend,
    ):
        runner = make_particle_runner(
            task.model_program,
            task.guide_program,
            task.model_entry,
            task.guide_entry,
            obs_trace=task.obs_trace,
            model_args=task.model_args,
            guide_args=task.guide_args,
            latent_channel=task.latent_channel,
            obs_channel=task.obs_channel,
            backend=task.backend,
            trim_site_scores=task.trim_site_scores,
        )
        run = runner.run(task.count, np.random.default_rng(task.seed))
    leaves = run.leaves
    if task.trim_site_scores:
        leaves = [
            replace(leaf, model_site_scores=None, guide_site_scores=None) for leaf in leaves
        ]
    _SHARD_PARTICLES.observe(task.count)
    return ShardResult(leaves=leaves, wall_s=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Shared-memory transport for shard results
# ---------------------------------------------------------------------------


@dataclass
class _ArrayRef:
    """Placeholder for a NumPy array parked in the result's shm block."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


class _ArrayPacker:
    """Collects contiguous arrays and replaces them with :class:`_ArrayRef`."""

    def __init__(self) -> None:
        self.chunks: List[np.ndarray] = []
        self.offset = 0

    def take(self, value: object) -> object:
        """Park ``value`` in the block if it is a packable array."""
        if not isinstance(value, np.ndarray) or value.dtype.kind not in "fiub":
            return value
        arr = np.ascontiguousarray(value)
        ref = _ArrayRef(self.offset, arr.shape, arr.dtype.str)
        self.chunks.append(arr)
        self.offset += arr.nbytes
        return ref


def _map_leaf(leaf: _Leaf, take) -> _Leaf:
    """Apply ``take`` to every array slot of one leaf (pack and unpack share this)."""
    return replace(
        leaf,
        indices=take(leaf.indices),
        model_log_weights=take(leaf.model_log_weights),
        guide_log_weights=take(leaf.guide_log_weights),
        recorded={
            name: [VecMessage(m.kind, m.provider, take(m.payload)) for m in messages]
            for name, messages in leaf.recorded.items()
        },
        obs_scores=[take(s) for s in leaf.obs_scores],
        model_value=take(leaf.model_value),
        guide_value=take(leaf.guide_value),
        model_site_scores=(
            None
            if leaf.model_site_scores is None
            else [(ch, take(s)) for ch, s in leaf.model_site_scores]
        ),
        guide_site_scores=(
            None
            if leaf.guide_site_scores is None
            else [(ch, take(s)) for ch, s in leaf.guide_site_scores]
        ),
    )


def pack_result(result: ShardResult) -> Tuple[str, object, object]:
    """Encode a shard result for the trip back to the parent process.

    Returns ``("pickle", result, None)`` for small payloads, or
    ``("shm", manifest, shm_name)`` with every numeric array parked in one
    shared-memory block — the pickle pipe then carries only the (small)
    structural skeleton.  Falls back to pickling whenever shared memory is
    unavailable.
    """
    packer = _ArrayPacker()
    manifest = replace(
        result,
        leaves=[_map_leaf(leaf, packer.take) for leaf in result.leaves],
        payload_bytes=packer.offset,
    )
    if packer.offset < SHM_MIN_BYTES:
        return ("pickle", replace(result, payload_bytes=packer.offset), None)
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=packer.offset)
    except Exception:
        return ("pickle", result, None)
    try:
        # The parent owns the block's lifetime: it unlinks after unpacking.
        # Deregister it from this process's resource tracker so the tracker
        # does not double-unlink (and warn) at worker shutdown.
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:
        pass
    view = np.frombuffer(shm.buf, dtype=np.uint8)
    pos = 0
    for chunk in packer.chunks:
        raw = chunk.reshape(-1).view(np.uint8)
        view[pos : pos + chunk.nbytes] = raw
        pos += chunk.nbytes
    # Release the numpy view before closing: a SharedMemory with live
    # exported buffers refuses to close its mmap.
    del view
    name = shm.name
    shm.close()
    return ("shm", manifest, name)


def _restore_from_block(shm, payload: ShardResult) -> ShardResult:
    """Copy every :class:`_ArrayRef` out of the block into fresh arrays.

    Runs in its own frame so no view of ``shm.buf`` outlives the return —
    closing a ``SharedMemory`` with live exported buffers raises.
    """
    buf = np.frombuffer(shm.buf, dtype=np.uint8)

    def restore(value: object) -> object:
        if not isinstance(value, _ArrayRef):
            return value
        dtype = np.dtype(value.dtype)
        nbytes = dtype.itemsize * int(np.prod(value.shape, dtype=np.int64))
        flat = buf[value.offset : value.offset + nbytes]
        # Copy out: the block is unlinked as soon as unpacking finishes.
        return flat.view(dtype).reshape(value.shape).copy()

    result = replace(
        payload, leaves=[_map_leaf(leaf, restore) for leaf in payload.leaves]
    )
    del buf
    return result


def unpack_result(encoded: Tuple[str, object, object]) -> ShardResult:
    """Decode :func:`pack_result`'s wire format (parent side)."""
    kind, payload, shm_name = encoded
    if kind == "pickle":
        return payload
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        return _restore_from_block(shm, payload)
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _run_shard_task_packed(task: ShardTask) -> Tuple[str, object, object]:
    """Pool target: execute one shard and encode the result for transport.

    Task-level exceptions are returned as ``("error", exc, None)`` values
    rather than raised: raising through ``pool.map`` would discard the other
    tasks' already-returned encodings (leaking their shared-memory blocks,
    which only the parent unlinks) and make a per-request error look like
    pool breakage.

    When the task asks for tracing, a worker-local recorder is installed
    against the parent's ``perf_counter`` epoch for the duration of the task
    and its captured events ride home inside the result — the parent's merge
    ingests them, so shard workers appear as named tracks in the exported
    timeline.  The recorder swap is restored in ``finally``: pool workers are
    persistent, and a forked worker may even have inherited the parent's
    enabled-tracing state, which must not leak into later untraced tasks.
    """
    try:
        worker_recorder = None
        saved = (obs_trace_mod._ENABLED, obs_trace_mod._RECORDER)
        if task.trace:
            worker_recorder = obs_trace_mod.enable_tracing(
                epoch=task.trace_epoch, default_tid=task.index + 1
            )
        try:
            result = run_shard_task(task)
        finally:
            obs_trace_mod._ENABLED, obs_trace_mod._RECORDER = saved
        if worker_recorder is not None:
            result = replace(result, trace_events=list(worker_recorder.events))
        return pack_result(result)
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        return ("error", exc, None)


# ---------------------------------------------------------------------------
# The persistent worker pool
# ---------------------------------------------------------------------------

_POOL = None
_POOL_SIZE = 0
#: Consecutive infrastructure failures (killed worker, closed pipe, failed
#: fork) since the last healthy wave.  A successful pool wave resets it; at
#: ``POOL_MAX_FAILURES`` the pool stops being rebuilt and execution stays
#: inline until :func:`shutdown_pool` explicitly resets the budget.
_POOL_FAILURES = 0
POOL_MAX_FAILURES = 3


def _make_pool(workers: int):
    """Create a fork-context pool, or ``None`` where fork is unavailable."""
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None
    return ctx.Pool(processes=workers)


def ensure_pool(workers: int):
    """Return the persistent worker pool, growing or rebuilding it if needed.

    Returns ``None`` (inline execution) when ``workers <= 1``, when the
    platform cannot fork, or when ``POOL_MAX_FAILURES`` infrastructure
    failures have happened without a healthy wave in between.  Below that
    cap a broken pool is rebuilt on the next call — a single killed worker
    costs one inline wave, not the rest of the server's lifetime.  The pool
    is a process-wide singleton: long-running servers reuse warm workers
    across requests, which is what keeps per-request latency flat.
    """
    global _POOL, _POOL_SIZE, _POOL_FAILURES
    if workers <= 1 or _POOL_FAILURES >= POOL_MAX_FAILURES:
        return None
    if _POOL is not None and _POOL_SIZE >= workers:
        return _POOL
    if _POOL is not None:
        _shutdown(_POOL)
        _POOL = None
    rebuilding = _POOL_FAILURES > 0
    try:
        _POOL = _make_pool(workers)
    except Exception:
        _POOL = None
    if _POOL is None:
        _note_pool_failure()
        return None
    if rebuilding:
        _POOL_EVENTS.labels(event="rebuilt").inc()
    _POOL_SIZE = workers
    return _POOL


def _note_pool_failure() -> None:
    """Count one infrastructure failure, giving up at the retry cap."""
    global _POOL_FAILURES
    _POOL_FAILURES += 1
    _POOL_EVENTS.labels(event="broken").inc()
    if _POOL_FAILURES >= POOL_MAX_FAILURES:
        _POOL_EVENTS.labels(event="gave_up").inc()


def pool_available(workers: int = 2) -> bool:
    """Whether a real multi-process pool can serve ``workers`` workers."""
    return ensure_pool(workers) is not None


def pool_worker_pids() -> "list[int]":
    """PIDs of the live pool workers (empty when execution is inline).

    Exposed through the server's ``op: stats`` so failure-injection harnesses
    (``repro loadgen --inject-worker-kill-after``) can kill a real worker
    mid-wave and assert the pool-rebuild path keeps sessions serving.
    """
    if _POOL is None:
        return []
    try:
        return [proc.pid for proc in _POOL._pool if proc.pid is not None]
    except Exception:
        return []


def _shutdown(pool) -> None:
    try:
        pool.terminate()
        pool.join()
    except Exception:
        pass


def shutdown_pool() -> None:
    """Tear down the persistent pool (tests, server shutdown, interpreter exit).

    Also resets the infrastructure-failure budget: an explicit teardown is
    the operator's way of saying "try forking again".
    """
    global _POOL, _POOL_SIZE, _POOL_FAILURES
    if _POOL is not None:
        _shutdown(_POOL)
    _POOL = None
    _POOL_SIZE = 0
    _POOL_FAILURES = 0


atexit.register(shutdown_pool)


def execute_tasks(tasks: Sequence[ShardTask], workers: int) -> List[ShardResult]:
    """Run shard tasks, distributing over the pool when one is available.

    Task results come back in task order whichever path executes them, and
    the per-task RNG streams are baked into the tasks themselves, so the
    pool and inline paths are bit-identical.  Task-level errors (a bad
    request, an unsupported model) re-raise here after every shard's
    shared-memory block has been reclaimed and leave the pool healthy; only
    infrastructure failures (killed worker, closed pipe) tear the pool down,
    and that wave re-runs inline — a sharded run degrades, it does not fail.
    The next wave rebuilds the pool (capped at ``POOL_MAX_FAILURES``
    consecutive failures; a completed pool wave resets the budget).
    """
    global _POOL, _POOL_SIZE, _POOL_FAILURES
    pool = ensure_pool(workers) if len(tasks) > 1 else None
    if pool is not None:
        try:
            encoded_results = pool.map(_run_shard_task_packed, tasks)
        except Exception:
            # Tear down the broken pool but keep the failure budget: a later
            # ensure_pool call rebuilds it (shutdown_pool would forgive).
            if _POOL is not None:
                _shutdown(_POOL)
            _POOL = None
            _POOL_SIZE = 0
            _note_pool_failure()
            encoded_results = None
        else:
            if _POOL_FAILURES:
                _POOL_FAILURES = 0
                _POOL_EVENTS.labels(event="recovered").inc()
        if encoded_results is not None:
            # Unpack (and thereby unlink) every shard's block before
            # re-raising any task error, so a failing shard never leaks the
            # successful shards' shared memory.
            results: List[ShardResult] = []
            first_error: Optional[Exception] = None
            for encoded in encoded_results:
                if encoded[0] == "error":
                    first_error = first_error or encoded[1]
                else:
                    _SHARD_TASKS.labels(transport=encoded[0]).inc()
                    result = unpack_result(encoded)
                    _SHARD_PAYLOAD_BYTES.inc(result.payload_bytes)
                    results.append(result)
            if first_error is not None:
                raise first_error
            return results
    _SHARD_TASKS.labels(transport="inline").inc(len(tasks))
    return [run_shard_task(task) for task in tasks]


# ---------------------------------------------------------------------------
# The sharded runner: a drop-in particle runner for the engines
# ---------------------------------------------------------------------------


@dataclass
class ShardWave:
    """The prepared tasks and layout of one sharded run (before execution).

    A coalesced ``is`` batch (:func:`repro.engine.api.run_engine_batch`)
    concatenates several requests' waves into a single pool submission; each
    request's runner then merges only its own wave's shard results
    (:meth:`ShardedParticleRunner.finish`), so batching changes scheduling
    only, never values.
    """

    num_particles: int
    tasks: List[ShardTask] = field(default_factory=list)


class ShardedParticleRunner:
    """Distributes a particle population over per-shard runners.

    Exposes the same surface the engines use on a
    :class:`~repro.engine.vectorize.ParticleVectorizer` — :meth:`run`,
    :meth:`rescore_group`, the channel names, and the compiled-fallback
    diagnostics — so ``is``/``smc``/``svi`` are oblivious to sharding.
    Replay-based machinery (SVI rescoring) always runs in-process on the
    merged leaves: rescoring consumes no randomness, so there is nothing to
    shard.
    """

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
        backend: str = "interp",
        session=None,
        workers: int = 1,
        shards: int = 1,
        trim_site_scores: bool = False,
    ):
        from repro.engine.backend import make_particle_runner

        self.workers = max(1, int(workers))
        self.num_shards = max(1, int(shards))
        self.latent_channel = latent_channel
        self.obs_channel = obs_channel
        self.obs_trace = tuple(obs_trace) if obs_trace is not None else None
        #: In-process runner: serves 1-shard runs (bit-identical legacy path)
        #: and SVI group rescoring.
        self.local = make_particle_runner(
            model_program,
            guide_program,
            model_entry,
            guide_entry,
            obs_trace=obs_trace,
            model_args=model_args,
            guide_args=guide_args,
            latent_channel=latent_channel,
            obs_channel=obs_channel,
            backend=backend,
            session=session,
            trim_site_scores=trim_site_scores,
        )
        # Fallback state is resolved ONCE here, at construction, and frozen
        # on the runner itself.  It used to be read through ``self.local`` on
        # every access, which let concurrently-running requests observe a
        # torn view (one thread seeing the compiled verdict while another
        # still saw the pre-resolution default).  ``effective_backend`` is
        # what every shard of every run of this runner executes.
        self.requested_backend = backend
        self.fallback_reason: Optional[str] = self.local.fallback_reason
        self.effective_backend: str = (
            backend if self.fallback_reason is None else "interp"
        )
        self._task_template = ShardTask(
            model_program=model_program,
            guide_program=guide_program,
            model_entry=model_entry,
            guide_entry=guide_entry,
            obs_trace=self.obs_trace,
            model_args=model_args,
            guide_args=guide_args,
            latent_channel=latent_channel,
            obs_channel=obs_channel,
            # Freeze the *resolved* backend so workers never re-attempt a
            # compilation the parent already knows falls back.
            backend=self.effective_backend,
            count=0,
            trim_site_scores=trim_site_scores,
        )

    @property
    def backend(self) -> str:
        """The backend the underlying runners execute (after fallback)."""
        return self.effective_backend

    def prepare(self, num_particles: int, rng: np.random.Generator) -> Optional[ShardWave]:
        """Build the shard tasks for one run without executing them.

        Returns ``None`` when the run does not shard (one shard, or one
        particle): it then runs in-process on the caller's generator, which
        this call leaves untouched.  Otherwise consumes exactly one draw from
        ``rng`` (to derive the shard streams), independent of worker count —
        see the module determinism contract.
        """
        if self.num_shards == 1 or num_particles == 1:
            return None
        spans = plan_shards(num_particles, self.num_shards)
        seeds = derive_shard_seeds(rng, len(spans))
        recorder = obs_trace_mod.current_recorder()
        tracing = obs_trace_mod.tracing_enabled() and recorder is not None
        tasks = [
            replace(
                self._task_template,
                count=count,
                start=start,
                seed=seed,
                index=k,
                trace=tracing,
                trace_epoch=recorder.epoch if tracing else 0.0,
            )
            for k, ((start, count), seed) in enumerate(zip(spans, seeds))
        ]
        return ShardWave(num_particles=num_particles, tasks=tasks)

    def finish(self, wave: ShardWave, results: Sequence[ShardResult]) -> VectorRunResult:
        """Reassemble one prepared wave's shard results into one run result, exactly.

        Leaf particle indices are shifted from shard-local to global
        positions; everything else concatenates.  Per-particle quantities
        land at the same global index regardless of the shard plan, so
        downstream consumers see one coherent population.  Worker-captured
        trace events are ingested into the parent recorder here (one named
        track per shard), and each shard's wall time feeds the shard-run
        histogram.  Every shard ran this runner's ``effective_backend``,
        resolved at construction with its ``fallback_reason``, so the merged
        run is stamped with those.
        """
        merge_started = time.perf_counter()
        recorder = obs_trace_mod.current_recorder()
        for task, result in zip(wave.tasks, results):
            _SHARD_RUN_SECONDS.observe(result.wall_s)
            if recorder is not None:
                recorder.set_thread_name(task.index + 1, f"shard-{task.index}")
                if result.trace_events:
                    recorder.ingest(result.trace_events)
        with span("shard.merge", shards=len(wave.tasks), particles=wave.num_particles):
            leaves: List[_Leaf] = []
            for task, result in zip(wave.tasks, results):
                for leaf in result.leaves:
                    leaves.append(replace(leaf, indices=leaf.indices + task.start))
        _SHARD_MERGE_SECONDS.observe(time.perf_counter() - merge_started)
        return VectorRunResult(
            wave.num_particles,
            leaves,
            latent_channel=self.latent_channel,
            obs_channel=self.obs_channel,
            backend=self.effective_backend,
            fallback_reason=self.fallback_reason,
        )

    def run(self, num_particles: int, rng=None) -> VectorRunResult:
        """Run ``num_particles`` particles across the shard plan and merge.

        A run that does not shard (see :meth:`prepare`) delegates to the
        in-process runner on the caller's generator — bit-identical to the
        unsharded path.
        """
        rng = ensure_rng(rng)
        wave = self.prepare(num_particles, rng)
        if wave is None:
            return self.local.run(num_particles, rng)
        return self.finish(wave, execute_tasks(wave.tasks, self.workers))

    def rescore_group(self, leaf: _Leaf, rng=None):
        """Replay one recorded control-flow group in-process (no randomness)."""
        return self.local.rescore_group(leaf, rng)


@dataclass
class ShardPlanInfo:
    """Human-readable description of how a request will be executed."""

    workers: int
    shards: int
    pooled: bool

    def describe(self) -> str:
        """One-line summary for CLI output and server diagnostics."""
        mode = "process pool" if self.pooled else "inline"
        return f"{self.shards} shard(s) over {self.workers} worker(s), {mode}"


def plan_info(workers: int, shards: Optional[int]) -> ShardPlanInfo:
    """Resolve a request's shard controls into a :class:`ShardPlanInfo`."""
    resolved = resolve_shards(workers, shards)
    pooled = workers > 1 and resolved > 1 and pool_available(workers)
    return ShardPlanInfo(workers=workers, shards=resolved, pooled=pooled)

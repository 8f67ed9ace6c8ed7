"""Vectorized particle engine: lockstep multi-particle inference runtimes.

The :mod:`repro.engine` subsystem executes N particles (or chains)
simultaneously over NumPy arrays instead of N sequential interpreter runs:

``batched``
    Distributions over a particle axis — one family, per-particle parameters
    — resolving a whole sample site with a single NumPy call.  It checks,
    draws and scores through the family's record in
    :data:`repro.dists.FAMILIES`, the same functions the compiled kernels
    call.
``vectorize``
    The lockstep runtime: a vectorized expression evaluator, command
    interpreter, and channel scheduler that run a model/guide pair over a
    particle axis, splitting the particle set into control-flow groups when
    branches diverge (so recursive models still execute exactly).
``smc``
    A Sequential Monte Carlo engine (systematic resampling, ESS-triggered
    independence-MH rejuvenation) built on the vectorized runtime.
``params``
    Constrained variational parameters: softplus/sigmoid/softmax transforms
    and the :class:`ParamStore` the optimisers update in place.
``svi``
    Batched stochastic variational inference: lockstep ELBO estimation,
    score-function (REINFORCE) gradients over rescored control-flow groups
    with a leave-one-out baseline and optional per-site
    Rao-Blackwellization.
``api``
    The :class:`InferenceEngine` registry unifying vectorized importance
    sampling, parallel MH chains, SMC, and SVI behind one request interface.
``session``
    :class:`ProgramSession` — parse, typecheck, and certify a model/guide
    pair once, then serve repeated inference requests from a cache.
``shard``
    Sharded multi-process execution: particle populations split into
    per-shard RNG streams, run on a persistent fork pool with shared-memory
    result transport, and merged exactly (results never depend on the
    worker count).
``server``
    The async batch-inference service: a coalescing request queue over
    sessions and shards with admission control (bounded queue, per-request
    deadlines, per-tenant quotas + round-robin fairness), throughput/latency
    counters, and a JSONL TCP front-end (CLI ``repro serve``).
``loadgen``
    Open-loop Poisson load generator for the server (CLI ``repro loadgen``):
    offered-rate traffic with mixed models/engines/tenants, latency
    percentiles, and shed-rate accounting.
"""

from repro.engine.api import (
    EngineResult,
    InferenceEngine,
    InferenceRequest,
    available_engines,
    get_engine,
    register_engine,
)
from repro.engine.backend import (
    BACKENDS,
    CompiledParticleRunner,
    clear_kernel_cache,
    kernel_for,
    make_particle_runner,
)
from repro.engine.batched import BatchedDist
from repro.engine.loadgen import LoadConfig, LoadReport, run_load
from repro.engine.params import ParamStore, Transform, get_transform, store_from_inits
from repro.engine.server import InferenceService, ServerCounters, run_server, serve_tcp
from repro.engine.session import ProgramSession, clear_session_cache
from repro.engine.shard import (
    ShardedParticleRunner,
    plan_shards,
    pool_available,
    resolve_shards,
    shutdown_pool,
)
from repro.engine.smc import SMCResult, smc
from repro.engine.svi import (
    ScoreGradient,
    VectorizedSVIResult,
    elbo_and_score_gradient,
    estimate_elbo_batched,
    fit_svi,
)
from repro.engine.vectorize import (
    ParticleVectorizer,
    VectorRunResult,
    vectorized_importance,
)

__all__ = [
    "BACKENDS",
    "BatchedDist",
    "CompiledParticleRunner",
    "EngineResult",
    "InferenceEngine",
    "InferenceRequest",
    "InferenceService",
    "LoadConfig",
    "LoadReport",
    "ParamStore",
    "ParticleVectorizer",
    "ProgramSession",
    "SMCResult",
    "ScoreGradient",
    "ServerCounters",
    "ShardedParticleRunner",
    "Transform",
    "VectorRunResult",
    "VectorizedSVIResult",
    "available_engines",
    "clear_kernel_cache",
    "clear_session_cache",
    "kernel_for",
    "make_particle_runner",
    "elbo_and_score_gradient",
    "estimate_elbo_batched",
    "fit_svi",
    "get_transform",
    "get_engine",
    "plan_shards",
    "pool_available",
    "register_engine",
    "resolve_shards",
    "run_load",
    "run_server",
    "serve_tcp",
    "shutdown_pool",
    "smc",
    "store_from_inits",
    "vectorized_importance",
]

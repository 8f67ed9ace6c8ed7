"""The inference-engine registry: one request interface, many runtimes.

An :class:`InferenceEngine` takes a prepared
:class:`~repro.engine.session.ProgramSession` and an
:class:`InferenceRequest` and returns an :class:`EngineResult` — a uniform
facade over posterior means, evidence estimates, and effective sample sizes
regardless of which algorithm produced them.  Engines self-register under a
name so the CLI (and any serving layer built on sessions) can select them
with a string:

======================  =====================================================
``is``                  importance sampling, all particles in lockstep
``is-sequential``       the original one-particle-at-a-time loop
``smc``                 Sequential Monte Carlo (systematic resampling +
                        ESS-triggered rejuvenation)
``mh``                  parallel Metropolis–Hastings chains (independence
                        proposal from the guide) with split-chain pooling
``svi``                 batched score-function SVI on the lockstep runtime
                        (posterior queries via the fitted guide)
``svi-fd``              sequential finite-difference SVI (reference path)
======================  =====================================================
"""

from __future__ import annotations

import abc
import dataclasses
import math
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.semantics import traces as tr
from repro.engine.backend import validate_backend
from repro.engine.params import get_optimizer, get_transform
from repro.engine.shard import resolve_shards
from repro.errors import InferenceError
from repro.obs import REGISTRY, span
from repro.utils.rng import SeedLike, ensure_rng, fork_rng

_ENGINE_RUN_SECONDS = REGISTRY.histogram(
    "repro_engine_run_seconds",
    "End-to-end engine execution time per request, by engine and requested "
    "backend.",
    labels=("engine", "backend"),
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import ProgramSession


@dataclass
class InferenceRequest:
    """One inference request against a prepared model/guide session."""

    num_particles: int = 1000
    #: Worker processes for the sharded execution layer
    #: (:mod:`repro.engine.shard`).  ``1`` (the default) runs in-process;
    #: ``N > 1`` distributes the request's shards over a persistent
    #: process pool of ``N`` workers.  Results depend only on the shard
    #: plan, never on the pool size — but note the plan *defaults* to one
    #: shard per worker, so pin ``shards`` explicitly when you vary
    #: ``workers`` and need identical numbers.
    workers: int = 1
    #: Number of particle shards, each driven by an independently derived
    #: RNG stream.  ``None`` defaults to ``workers`` (one shard per
    #: worker).  Results are a pure function of ``(seed, num_particles,
    #: shards)``: pin ``shards`` explicitly to make them independent of the
    #: worker count, and keep ``shards=1`` for bit-identical parity with
    #: the single-process path.  Engines that never touch the vectorized
    #: runtime (``is-sequential``, ``mh``, ``svi-fd``) ignore both fields.
    shards: Optional[int] = None
    #: Particle-runtime backend: ``"interp"`` runs the lockstep coroutine
    #: interpreter; ``"compiled"`` runs the batched kernel emitted by
    #: :func:`repro.compiler.codegen.compile_kernel_pair` (bitwise-identical
    #: results, no per-site op dispatch, SVI rescoring compiled too),
    #: falling back to the interpreter for pairs outside the compiled
    #: fragment (e.g. non-tail recursion) — the decision is recorded on the run
    #: and surfaced in diagnostics.  Engines that never touch the vectorized
    #: runtime (``is-sequential``, ``mh``, ``svi-fd``) ignore this field.
    backend: str = "interp"
    #: Observed values, wrapped as provider-sent messages in order; mutually
    #: exclusive with ``obs_trace`` (which takes precedence when given).
    obs_values: Optional[Sequence[object]] = None
    obs_trace: Optional[Sequence[tr.Message]] = None
    seed: SeedLike = None
    model_args: Tuple[object, ...] = ()
    guide_args: Tuple[object, ...] = ()
    #: SMC-specific knobs.
    ess_threshold: float = 0.5
    rejuvenate: bool = True
    #: MH-specific knobs.
    num_chains: int = 4
    burn_in: int = 100
    #: SVI-specific knobs.  ``guide_params`` maps the guide entry procedure's
    #: parameters to constrained initial values (optimised when given;
    #: without it the guide runs fixed at ``guide_args``);
    #: ``param_constraints`` selects a transform per parameter
    #: (``real``/``positive``/``unit``/``simplex``, default ``real``).
    num_steps: int = 30
    optimizer: str = "adam"
    learning_rate: float = 0.05
    guide_params: Optional[Dict[str, object]] = None
    param_constraints: Optional[Dict[str, str]] = None
    rao_blackwellize: bool = False
    score_epsilon: float = 1e-4
    #: Particle count for the final posterior pass through the fitted guide
    #: (defaults to ``num_particles``).
    final_particles: Optional[int] = None

    def __post_init__(self) -> None:
        """Refuse a field no run could use, whoever builds the request.

        The one screen for both wire admissions (one-shot requests and
        ``session.open``), for in-process callers (:meth:`ProgramSession.infer
        <repro.engine.session.ProgramSession.infer>`, the CLI) and for every
        pass an engine derives with :func:`dataclasses.replace`.  Counts are
        integers, rates finite numbers and switches Booleans, never a
        stand-in of another type.  ``ess_threshold`` has no upper bound:
        above 1 it forces resampling at every step.
        """
        require_count(self.num_particles, "num_particles")
        resolve_shards(self.workers, self.shards)
        validate_backend(self.backend)
        require_seed(self.seed)
        for name in ("obs_values", "obs_trace"):
            if getattr(self, name) is not None:
                require_sequence(getattr(self, name), name)
        for name in ("model_args", "guide_args"):
            require_sequence(getattr(self, name), name)
        require_real(self.ess_threshold, "ess_threshold")
        for name in ("rejuvenate", "rao_blackwellize"):
            require_flag(getattr(self, name), name)
        require_count(self.num_chains, "num_chains")
        require_count(self.burn_in, "burn_in", minimum=0)
        require_count(self.num_steps, "num_steps", minimum=0)
        get_optimizer(self.optimizer)
        for name in ("learning_rate", "score_epsilon"):
            require_real(getattr(self, name), name, positive=True)
        if self.guide_params is not None:
            require_mapping(self.guide_params, "guide_params")
        if self.param_constraints is not None:
            for constraint in require_mapping(self.param_constraints, "param_constraints").values():
                get_transform(constraint)
        if self.final_particles is not None:
            require_count(self.final_particles, "final_particles")

    def resolved_shards(self) -> int:
        """The shard count (``shards``, defaulting to ``workers``)."""
        return resolve_shards(self.workers, self.shards)

    def resolved_obs_trace(self) -> Optional[tr.Trace]:
        """The observation trace, built from ``obs_trace`` or ``obs_values``."""
        if self.obs_trace is not None:
            return tuple(self.obs_trace)
        if self.obs_values is not None:
            return tuple(tr.ValP(v) for v in self.obs_values)
        return None


def require_flag(value: object, what: str) -> bool:
    """A wire switch: JSON ``true`` or ``false`` only (the string ``"false"``
    is truthy, so nothing else may stand in for one)."""
    if not isinstance(value, bool):
        raise InferenceError(f"{what} must be true or false, got {value!r}")
    return value


def require_count(value: object, what: str, minimum: int = 1) -> int:
    """A wire count: an integer of at least ``minimum`` (1 or 0), never a
    Boolean or a fraction."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "positive" if minimum > 0 else "non-negative"
        raise InferenceError(f"{what} must be a {kind} integer, got {value!r}")
    return value


def wire_float(value: object) -> float:
    """A wire number as a float, or ``nan`` (which no guard admits) for a
    Boolean, a non-number or an integer beyond the float range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def require_real(value: object, what: str, positive: bool = False) -> float:
    """A wire real, as a float: a finite number, never a Boolean, above zero
    when ``positive`` and at least zero otherwise."""
    number = wire_float(value)
    if not ((number > 0 if positive else number >= 0) and number < math.inf):
        kind = "positive" if positive else "non-negative"
        raise InferenceError(f"{what} must be a finite {kind} number, got {value!r}")
    return number


def require_seed(value: object) -> None:
    """A seed: ``None``, a non-negative integer (never a Boolean), or an
    in-process generator."""
    if value is None or isinstance(value, np.random.Generator):
        return
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise InferenceError(
            f"seed must be null, a non-negative integer or a generator, got {value!r}"
        )


def require_sequence(value: object, what: str) -> None:
    """Arguments or observations: a list, tuple or array, never a string."""
    if isinstance(value, (str, bytes)) or not isinstance(value, (Sequence, np.ndarray)):
        raise InferenceError(f"{what} must be a sequence, got {value!r}")


def require_mapping(value: object, what: str) -> Mapping:
    """A name-to-value table (``guide_params``, ``param_constraints``)."""
    if not isinstance(value, Mapping):
        raise InferenceError(f"{what} must map names to values, got {value!r}")
    return value


#: Fields a wire payload may set on :class:`InferenceRequest`.
REQUEST_FIELDS = frozenset(f.name for f in dataclasses.fields(InferenceRequest))


def admit_request(
    params: Mapping[str, object], pool: int, fields: Iterable[str] = REQUEST_FIELDS
) -> InferenceRequest:
    """The request a wire payload's ``params`` describe, for a service whose
    pool has ``pool`` workers.

    Both admissions, one-shot requests and ``session.open``, build their
    runs here: ``params`` may set only ``fields``, ``workers`` defaults to
    the pool and may not exceed it, and :class:`InferenceRequest` screens
    the rest.  ``obs_trace`` cannot travel: its messages are Python objects.
    """
    unknown = sorted(set(params) - set(fields))
    if unknown:
        raise InferenceError(f"unknown request params {unknown}")
    if "obs_trace" in params:
        raise InferenceError("obs_trace cannot be sent over the wire; send obs_values")
    request = InferenceRequest(**{"workers": pool, **params})
    if request.workers > pool:
        raise InferenceError(
            f"workers {request.workers} exceeds the service's pool of {pool} worker(s)"
        )
    return request


class EngineResult(abc.ABC):
    """Uniform summary facade over one engine's output.

    ``raw`` is the engine-specific result object for callers that need the
    full detail (per-particle weights, chains, traces, ...).
    """

    def __init__(self, raw: object):
        self.raw = raw
        #: Per-run observability snapshot (engine name, wall time, and the
        #: metric deltas attributed to the run), filled in by
        #: :func:`run_engine`.  ``None`` when the engine was invoked directly.
        self.run_metrics: Optional[Dict[str, object]] = None

    @abc.abstractmethod
    def posterior_mean(self, site_index: int) -> float:
        """Posterior mean of the ``site_index``-th latent value."""

    def log_evidence(self) -> Optional[float]:
        """Log marginal-likelihood estimate (``None`` if the engine has none)."""
        return None

    def effective_sample_size(self) -> Optional[float]:
        """Kish effective sample size (``None`` if the engine has none)."""
        return None

    def diagnostics(self) -> Dict[str, object]:
        """Engine-specific diagnostics for reporting layers (CLI, server)."""
        return {}

    def diagnostics_with_metrics(self) -> Dict[str, object]:
        """Engine diagnostics plus the per-run metric snapshot (when present).

        The snapshot holds only the registry activity of the run's own
        context (see :meth:`~repro.obs.metrics.MetricsRegistry.mark`), so
        concurrent requests on other threads or tasks never leak into it.
        """
        out = dict(self.diagnostics())
        if self.run_metrics is not None:
            out["run_metrics"] = self.run_metrics
        return out


class InferenceEngine(abc.ABC):
    """An inference algorithm exposed through the engine registry."""

    name: str = "engine"
    description: str = ""

    @abc.abstractmethod
    def run(self, session: "ProgramSession", request: InferenceRequest) -> EngineResult:
        """Execute the request against the session's model/guide pair."""


_REGISTRY: Dict[str, InferenceEngine] = {}


def register_engine(engine: InferenceEngine) -> InferenceEngine:
    """Register an engine instance under its ``name`` (latest wins)."""
    _REGISTRY[engine.name] = engine
    return engine


def get_engine(name: str) -> InferenceEngine:
    """Look up a registered engine by name (raises on unknown names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise InferenceError(f"unknown inference engine {name!r} (known: {known})")


def available_engines() -> List[str]:
    """The registered engine names, sorted."""
    return sorted(_REGISTRY)


def coalescable(engine: str, request: InferenceRequest) -> bool:
    """Whether ``request`` on ``engine`` can share a coalesced pool wave.

    Only importance sampling (``is``) with more than one shard qualifies: its
    run is one wave of independent shard tasks, which can ride in the same
    pool submission as another request's.  The server's batch window and
    :func:`run_engine_batch` both decide with this predicate.
    """
    return engine == "is" and request.resolved_shards() > 1


def _observed(name: str, backend: str, execute: Callable[[], List[object]]) -> List[object]:
    """Run ``execute`` as one observed engine run and stamp its results.

    ``execute`` returns outcomes: results or exceptions.  One ``engine.run``
    span covers the call.  Every result observes the call's wall time in the
    engine-run histogram and carries it, with the registry activity the call
    made in its own context, as ``run_metrics``.
    """
    mark = REGISTRY.mark()
    started = time.perf_counter()
    with span("engine.run", engine=name, backend=backend):
        outcomes = execute()
    wall_s = time.perf_counter() - started
    results = [outcome for outcome in outcomes if isinstance(outcome, EngineResult)]
    for _ in results:
        _ENGINE_RUN_SECONDS.labels(engine=name, backend=backend).observe(wall_s)
    run_metrics = {
        "engine": name, "backend": backend, "wall_s": wall_s, "metrics": REGISTRY.delta(mark),
    }
    for result in results:
        result.run_metrics = dict(run_metrics)
    return outcomes


def run_engine(
    name: str, session: "ProgramSession", request: InferenceRequest
) -> EngineResult:
    """Run one request through a registered engine, with observability.

    The canonical execution seam: wraps the engine call in an ``engine.run``
    trace span, feeds the engine-run latency histogram, and stamps the result
    with a per-run metric snapshot (``result.run_metrics``) attributing the
    registry activity — kernel compiles, cache hits, shard traffic — that
    the run made in its own context, at a cost set by what the run touched.
    ``session.infer`` and the batch server both route through here.
    """
    engine = get_engine(name)
    return _observed(name, str(request.backend), lambda: [engine.run(session, request)])[0]


def run_engine_batch(
    name: str, session: "ProgramSession", requests: Sequence[InferenceRequest]
) -> List[object]:
    """Run :func:`coalescable` requests on one session and backend as one pool wave.

    Returns one outcome per request, in order: its result, or the exception
    its solo :func:`run_engine` call would raise.  Values equal solo runs'
    (the engine prepares every member's shards exactly as a solo run would),
    and results are stamped as :func:`run_engine` stamps them, except that a
    member's ``run_metrics`` describe the whole wave: its wall time and the
    metric delta of all its members.  A failing shard task cannot be traced
    to its member, so it raises here; the caller then runs the members alone.
    """
    if not requests:
        return []
    backend = str(requests[0].backend)
    if not all(coalescable(name, r) and str(r.backend) == backend for r in requests):
        raise InferenceError(
            f"run_engine_batch needs {name!r} requests on one backend that can share "
            "a pool wave (engine 'is' with more than one shard)"
        )
    engine = get_engine(name)
    return _observed(name, backend, lambda: engine.run_batch(session, requests))


# ---------------------------------------------------------------------------
# Importance-sampling engines (vectorized and sequential)
# ---------------------------------------------------------------------------


class ImportanceEngineResult(EngineResult):
    """Adapter over both importance-sampling result flavours."""

    def posterior_mean(self, site_index: int) -> float:
        """Self-normalised importance estimate of the site's posterior mean."""
        return self.raw.posterior_expectation_of_site(site_index)

    def log_evidence(self) -> Optional[float]:
        """Log of the mean importance weight."""
        return float(self.raw.log_evidence())

    def effective_sample_size(self) -> Optional[float]:
        """Kish effective sample size of the importance weights."""
        return float(self.raw.effective_sample_size())

    def diagnostics(self) -> Dict[str, object]:
        """Sample count plus, for vectorized runs, group/backend detail."""
        out: Dict[str, object] = {"num_samples": self.raw.num_samples}
        run = getattr(self.raw, "run", None)
        if run is not None:
            out["num_groups"] = run.num_groups
            out["backend"] = run.backend
            if run.fallback_reason is not None:
                out["fallback_reason"] = run.fallback_reason
        return out


class VectorizedImportanceEngine(InferenceEngine):
    """Lockstep importance sampling (optionally sharded across workers)."""

    name = "is"
    description = "importance sampling, all particles executed in lockstep"

    @staticmethod
    def _result(run) -> EngineResult:
        from repro.engine.vectorize import importance_result

        return ImportanceEngineResult(importance_result(run))

    def run(self, session: "ProgramSession", request: InferenceRequest) -> EngineResult:
        """Draw one weighted particle population through the request's runner."""
        from repro.engine.vectorize import vectorized_importance

        return ImportanceEngineResult(vectorized_importance(session, request))

    def run_batch(
        self, session: "ProgramSession", requests: Sequence[InferenceRequest]
    ) -> List[object]:
        """Run sharded requests as one pool wave (see :func:`run_engine_batch`).

        Each member's runner prepares its shard tasks exactly as its solo
        :meth:`run` would, every task goes to one
        :func:`~repro.engine.shard.execute_tasks` call, and each member merges
        only its own shards.  A member that does not shard (one particle) runs
        in-process on its own generator, as it would alone.
        """
        from repro.engine.shard import execute_tasks
        from repro.engine.vectorize import importance_runner

        outcomes: List[object] = [None] * len(requests)
        waves = []
        for i, request in enumerate(requests):
            try:
                runner = importance_runner(session, request)
                rng = ensure_rng(request.seed)
                wave = runner.prepare(request.num_particles, rng)
                if wave is None:
                    outcomes[i] = self._result(runner.run(request.num_particles, rng))
                else:
                    waves.append((i, runner, wave))
            except Exception as exc:  # noqa: BLE001 - the member's own outcome
                outcomes[i] = exc
        tasks = [task for _, _, wave in waves for task in wave.tasks]
        results = iter(execute_tasks(tasks, max((r.workers for _, r, _ in waves), default=1)))
        for i, runner, wave in waves:
            chunk = [next(results) for _ in wave.tasks]
            try:
                outcomes[i] = self._result(runner.finish(wave, chunk))
            except Exception as exc:  # noqa: BLE001 - the member's own outcome
                outcomes[i] = exc
        return outcomes


class SequentialImportanceEngine(InferenceEngine):
    """The original one-particle-at-a-time importance-sampling loop."""

    name = "is-sequential"
    description = "importance sampling, one particle at a time (reference path)"

    def run(self, session: "ProgramSession", request: InferenceRequest) -> EngineResult:
        """Run the scalar reference loop (ignores backend/shard controls)."""
        from repro.inference.importance import importance_sampling

        result = importance_sampling(
            session.model_program,
            session.guide_program,
            session.model_entry,
            session.guide_entry,
            obs_trace=request.resolved_obs_trace(),
            num_samples=request.num_particles,
            rng=ensure_rng(request.seed),
            model_args=request.model_args,
            guide_args=request.guide_args,
            latent_channel=session.latent_channel,
            obs_channel=session.obs_channel,
        )
        return ImportanceEngineResult(result)


# ---------------------------------------------------------------------------
# Sequential Monte Carlo
# ---------------------------------------------------------------------------


class SMCEngineResult(EngineResult):
    """Adapter over :class:`~repro.engine.smc.SMCResult`."""

    def posterior_mean(self, site_index: int) -> float:
        """Weighted mean of the site over the final particle population."""
        return self.raw.posterior_mean(site_index)

    def log_evidence(self) -> Optional[float]:
        """The annealed evidence estimate accumulated across tempering steps."""
        return float(self.raw.log_evidence())

    def effective_sample_size(self) -> Optional[float]:
        """ESS of the final population's weights."""
        return float(self.raw.effective_sample_size())

    def diagnostics(self) -> Dict[str, object]:
        """ESS trajectory, resampling points, and rejuvenation acceptance."""
        out = {
            "ess_history": list(self.raw.ess_history),
            "resample_steps": list(self.raw.resample_steps),
            "rejuvenation_rates": list(self.raw.rejuvenation_rates),
        }
        if self.raw.runs:
            out["backend"] = self.raw.runs[0].backend
            reasons = [r.fallback_reason for r in self.raw.runs if r.fallback_reason is not None]
            if reasons:
                out["fallback_reason"] = reasons[0]
        return out


class SMCEngine(InferenceEngine):
    """Sequential Monte Carlo on the vectorized (optionally sharded) runtime."""

    name = "smc"
    description = "Sequential Monte Carlo: systematic resampling + rejuvenation"

    def run(self, session: "ProgramSession", request: InferenceRequest) -> EngineResult:
        """Anneal the request's particle population over its observations."""
        from repro.engine.smc import smc

        return SMCEngineResult(smc(session, request))


# ---------------------------------------------------------------------------
# Parallel Metropolis–Hastings chains
# ---------------------------------------------------------------------------


@dataclass
class ParallelMHSummary:
    """Pooled summary over independent MH chains."""

    chains: List[object] = field(default_factory=list)

    @property
    def num_chains(self) -> int:
        """How many chains contributed to the pool."""
        return len(self.chains)

    def acceptance_rates(self) -> List[float]:
        """Per-chain MH acceptance rates, in chain order."""
        return [chain.acceptance_rate for chain in self.chains]

    def pooled_site_values(self, site_index: int) -> np.ndarray:
        """All chains' values at one latent site, concatenated."""
        values: List[float] = []
        for chain in self.chains:
            values.extend(chain.site_values(site_index))
        if not values:
            raise InferenceError(f"no chain state has a latent value at index {site_index}")
        return np.asarray(values)

    def gelman_rubin(self, site_index: int) -> float:
        """Split-free R̂ across chains (between/within variance ratio)."""
        per_chain = [np.asarray(chain.site_values(site_index)) for chain in self.chains]
        per_chain = [c for c in per_chain if len(c) >= 2]
        if len(per_chain) < 2:
            return float("nan")
        length = min(len(c) for c in per_chain)
        matrix = np.stack([c[:length] for c in per_chain])
        within = float(np.mean(np.var(matrix, axis=1, ddof=1)))
        between = float(length * np.var(np.mean(matrix, axis=1), ddof=1))
        if within == 0.0:
            return float("nan")
        variance = (length - 1) / length * within + between / length
        return float(np.sqrt(variance / within))


class ParallelMHEngineResult(EngineResult):
    """Adapter over :class:`ParallelMHSummary` (pooled chains)."""

    def posterior_mean(self, site_index: int) -> float:
        """Unweighted mean over the pooled post-burn-in chain states."""
        return float(np.mean(self.raw.pooled_site_values(site_index)))

    def diagnostics(self) -> Dict[str, object]:
        """Chain count, acceptance rates, and the site-0 R-hat statistic."""
        return {
            "num_chains": self.raw.num_chains,
            "acceptance_rates": self.raw.acceptance_rates(),
            "gelman_rubin_site0": self.raw.gelman_rubin(0),
        }


class ParallelMHEngine(InferenceEngine):
    """Independent Metropolis–Hastings chains pooled into one estimate."""

    name = "mh"
    description = "independent Metropolis–Hastings chains with pooled estimates"

    def run(self, session: "ProgramSession", request: InferenceRequest) -> EngineResult:
        """Run ``num_chains`` sequential chains and pool their states."""
        from repro.inference.mcmc import independence_proposal, metropolis_hastings

        samples_per_chain = max(1, request.num_particles // request.num_chains)
        rngs = fork_rng(ensure_rng(request.seed), request.num_chains)
        proposal_args = independence_proposal(request.guide_args)
        summary = ParallelMHSummary()
        for chain_rng in rngs:
            summary.chains.append(
                metropolis_hastings(
                    session.model_program,
                    session.guide_program,
                    session.model_entry,
                    session.guide_entry,
                    obs_trace=request.resolved_obs_trace(),
                    num_samples=samples_per_chain,
                    rng=chain_rng,
                    proposal_args=proposal_args,
                    model_args=request.model_args,
                    burn_in=request.burn_in,
                    latent_channel=session.latent_channel,
                    obs_channel=session.obs_channel,
                )
            )
        return ParallelMHEngineResult(summary)


register_engine(VectorizedImportanceEngine())
register_engine(SequentialImportanceEngine())
register_engine(SMCEngine())
register_engine(ParallelMHEngine())

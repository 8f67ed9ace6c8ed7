"""Sequential Monte Carlo over the vectorized particle runtime.

The sampler anneals from the guide's proposal distribution to the posterior
by *data tempering*: the intermediate target after step ``t`` is

    γ_t(σ) ∝ p_prior(σ) · Π_{j ≤ t} p(obs_j | σ)

over full latent traces σ drawn from the guide.  The vectorized runtime
(:class:`~repro.engine.vectorize.ParticleVectorizer`) supplies everything
columnar: the guide density ``q(σ)``, the model's prior density, and the
per-observation likelihood terms, so each SMC step is pure array work:

1. re-weight by the ``t``-th observation's log-likelihood column;
2. when the effective sample size drops below ``ess_threshold · n``,
   resample particle *rows* systematically and reset the weights;
3. after a resampling, optionally rejuvenate every particle with an
   independence Metropolis–Hastings move targeting γ_t, proposing a fresh
   batch from the guide (again one vectorized run).

Because rejuvenation proposals are guide draws, Thm. 5.2's absolute
continuity guarantee is exactly what makes the acceptance ratio well-defined
— the same soundness condition the paper's type system certifies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ast
from repro.core.semantics import traces as tr
from repro.engine.vectorize import VectorRunResult
from repro.errors import InferenceError
from repro.obs import DEFAULT_COUNT_BUCKETS, REGISTRY, span

_SMC_PHASE_SECONDS = REGISTRY.histogram(
    "repro_smc_phase_seconds",
    "Wall time of one SMC phase: a population sample pass, a systematic "
    "resampling, or a rejuvenation sweep.",
    labels=("phase",),
)
_SMC_ESS = REGISTRY.histogram(
    "repro_smc_ess",
    "Effective sample size after each tempering step's re-weighting.",
    buckets=DEFAULT_COUNT_BUCKETS,
)
_SMC_RESAMPLES = REGISTRY.counter(
    "repro_smc_resamples_total",
    "Tempering steps whose ESS fell below the threshold and triggered a "
    "systematic resampling.",
)
from repro.utils.numerics import (
    effective_sample_size,
    log_mean_exp,
    log_sum_exp,
    normalize_log_weights,
    weighted_mean,
)
from repro.utils.rng import ensure_rng


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: ``n`` ancestor indices from normalised weights."""
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against floating-point shortfall
    return np.searchsorted(cumulative, positions)


def _pad_scores(matrix: np.ndarray, num_steps: int) -> np.ndarray:
    """Zero-pad an obs-score matrix to the tempering schedule's width.

    A zero column means "this particle's control path emits no observation at
    that step" (likelihood factor 1), matching the padding the vectorized run
    already applies across its own control-flow groups.
    """
    if matrix.shape[1] == num_steps:
        return matrix
    padded = np.zeros((matrix.shape[0], num_steps))
    padded[:, : matrix.shape[1]] = matrix
    return padded


@dataclass
class SMCResult:
    """Final particle population of a Sequential Monte Carlo run."""

    num_particles: int
    log_weights: np.ndarray  #: final unnormalised log weights, targeting the posterior
    log_evidence_estimate: float
    ess_history: List[float]
    resample_steps: List[int]
    rejuvenation_rates: List[float]
    #: Source bookkeeping: which vectorized run, and which row of it, each
    #: surviving particle descends from.
    runs: List[VectorRunResult] = field(repr=False, default_factory=list)
    src_run: np.ndarray = field(repr=False, default=None)
    src_idx: np.ndarray = field(repr=False, default=None)

    def log_evidence(self) -> float:
        return self.log_evidence_estimate

    def normalized_weights(self) -> np.ndarray:
        return normalize_log_weights(self.log_weights)

    def effective_sample_size(self) -> float:
        return effective_sample_size(self.log_weights)

    def site_values(self, index: int) -> np.ndarray:
        """Values of the ``index``-th latent site per particle (``nan`` if absent)."""
        out = np.empty(self.num_particles)
        for run_id, run in enumerate(self.runs):
            mask = self.src_run == run_id
            if np.any(mask):
                out[mask] = run.site_values(index)[self.src_idx[mask]]
        return out

    def posterior_mean(self, index: int) -> float:
        values = self.site_values(index)
        keep = ~np.isnan(values)
        if not np.any(keep):
            raise InferenceError(f"no particle has a latent value at index {index}")
        return weighted_mean(values[keep], self.log_weights[keep])

    def trace_for(self, particle: int) -> tr.Trace:
        run = self.runs[int(self.src_run[particle])]
        return run.trace_for(int(self.src_idx[particle]))


def smc(
    model_program: ast.Program,
    guide_program: ast.Program,
    model_entry: str,
    guide_entry: str,
    obs_trace: Sequence[tr.Message],
    num_particles: int,
    rng=None,
    ess_threshold: float = 0.5,
    rejuvenate: bool = True,
    model_args: Tuple[object, ...] = (),
    guide_args: Tuple[object, ...] = (),
    latent_channel: str = "latent",
    obs_channel: str = "obs",
    backend: str = "interp",
    session=None,
    workers: int = 1,
    shards: Optional[int] = None,
) -> SMCResult:
    """Run Sequential Monte Carlo with ``num_particles`` lockstep particles.

    ``backend="compiled"`` draws every population (initial and rejuvenation
    proposals) through the compiled batched kernel when available; results are
    bitwise-identical to the interpretive backend under the same seed.
    ``workers``/``shards`` shard every population pass (initial draw and
    rejuvenation proposals) across the process pool; the weight updates,
    evidence increments, and resampling decisions always happen globally in
    the parent on the exactly merged population, so sharding never changes
    what SMC computes.
    """
    if num_particles <= 0:
        raise InferenceError("num_particles must be positive")
    if obs_trace is None or len(obs_trace) == 0:
        raise InferenceError(
            "SMC requires a non-empty observation trace to anneal over; "
            "use importance sampling for unconditioned models"
        )
    rng = ensure_rng(rng)

    from repro.engine.backend import make_particle_runner

    vectorizer = make_particle_runner(
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
        workers=workers,
        shards=shards,
        # SMC consumes weights and observation scores, never site ledgers.
        trim_site_scores=True,
    )

    def fresh_population() -> Tuple[VectorRunResult, np.ndarray, np.ndarray, np.ndarray]:
        sample_started = time.perf_counter()
        with span("smc.sample", particles=num_particles):
            run = vectorizer.run(num_particles, rng)
        _SMC_PHASE_SECONDS.labels(phase="sample").observe(
            time.perf_counter() - sample_started
        )
        scores = run.obs_score_matrix()
        if scores is None:
            raise InferenceError(
                "SMC needs per-observation likelihood terms, which the "
                "sequential fallback does not decompose; this model is not "
                "vectorizable — use the 'is-sequential' or 'mh' engine instead"
            )
        with np.errstate(invalid="ignore"):
            prior = run.model_log_weights - scores.sum(axis=1)
        prior = np.where(np.isneginf(run.model_log_weights), -np.inf, prior)
        return run, prior, run.guide_log_weights.copy(), scores

    run0, prior_lw, guide_lw, scores = fresh_population()
    runs = [run0]
    src_run = np.zeros(num_particles, dtype=int)
    src_idx = np.arange(num_particles)

    num_steps = scores.shape[1]
    # w_0 = prior / guide: the initial population targets γ_0 = p_prior.
    with np.errstate(invalid="ignore"):
        log_w = prior_lw - guide_lw
    log_w = np.where(np.isneginf(guide_lw), -np.inf, log_w)
    # Ẑ = mean(w_0) · Π_t Σ_i W̃_{t-1,i}·lik_t,i — the increments below are
    # shift-invariant in log_w, so no renormalisation of log_w is needed.
    log_evidence = log_mean_exp(log_w)
    if log_evidence == -math.inf:
        raise InferenceError(
            "SMC initialisation collapsed: every guide draw has zero prior "
            "density (the model/guide pair is not absolutely continuous)"
        )

    ess_history: List[float] = []
    resample_steps: List[int] = []
    rejuvenation_rates: List[float] = []

    for t in range(num_steps):
        # Evidence increment: log Σ_i W̃_{t-1,i} · exp(score_t,i).  The
        # normaliser is exact in log space (no round trip through exp), so
        # particles with tiny-but-nonzero relative weight still contribute.
        with np.errstate(invalid="ignore"):
            log_normalized = log_w - log_sum_exp(log_w)
        increment = log_sum_exp(log_normalized + scores[:, t])
        if increment == -math.inf:
            raise InferenceError(
                f"SMC weight collapse at observation {t}: no particle carries "
                "posterior mass (is the model/guide pair absolutely continuous?)"
            )
        log_evidence += increment

        log_w = log_w + scores[:, t]
        weights = normalize_log_weights(log_w)
        ess = effective_sample_size(log_w)
        ess_history.append(ess)
        _SMC_ESS.observe(ess)

        if ess < ess_threshold * num_particles:
            resample_steps.append(t)
            _SMC_RESAMPLES.inc()
            resample_started = time.perf_counter()
            with span("smc.resample", particles=num_particles, step=t):
                ancestors = systematic_resample(weights, rng)
                prior_lw = prior_lw[ancestors]
                guide_lw = guide_lw[ancestors]
                scores = scores[ancestors]
                src_run = src_run[ancestors]
                src_idx = src_idx[ancestors]
                log_w = np.zeros(num_particles)
            _SMC_PHASE_SECONDS.labels(phase="resample").observe(
                time.perf_counter() - resample_started
            )

            if rejuvenate:
                rejuvenate_started = time.perf_counter()
                with span("smc.rejuvenate", particles=num_particles, step=t):
                    proposal_run, prop_prior, prop_guide, prop_scores = fresh_population()
                    if prop_scores.shape[1] > num_steps:
                        # The model's observation count is branch-dependent and
                        # a proposal path emitted more observations than any
                        # path in the initial population — the tempering
                        # schedule cannot absorb those extra likelihood terms
                        # soundly.
                        raise InferenceError(
                            "SMC rejuvenation drew a particle with "
                            f"{prop_scores.shape[1]} observation steps but the "
                            f"tempering schedule has only {num_steps}; this model's "
                            "observation count is branch-dependent — use the 'is' "
                            "or 'mh' engine instead"
                        )
                    prop_scores = _pad_scores(prop_scores, num_steps)
                    tempered = slice(0, t + 1)
                    current_gamma = prior_lw + scores[:, tempered].sum(axis=1)
                    proposal_gamma = prop_prior + prop_scores[:, tempered].sum(axis=1)
                    with np.errstate(invalid="ignore"):
                        log_ratio = (proposal_gamma - prop_guide) - (current_gamma - guide_lw)
                    # A proposal with zero target density never wins; a current
                    # particle with zero density always loses to a viable
                    # proposal.
                    log_ratio = np.where(np.isneginf(proposal_gamma), -np.inf, log_ratio)
                    log_ratio = np.where(
                        np.isneginf(current_gamma) & ~np.isneginf(proposal_gamma),
                        np.inf,
                        log_ratio,
                    )
                    with np.errstate(divide="ignore"):
                        accept = np.log(rng.random(num_particles)) < log_ratio
                    rejuvenation_rates.append(float(np.mean(accept)))
                    if np.any(accept):
                        # Retain the proposal run only when some particle now
                        # descends from it, so rejected batches can be
                        # collected.
                        runs.append(proposal_run)
                        run_id = len(runs) - 1
                        prior_lw = np.where(accept, prop_prior, prior_lw)
                        guide_lw = np.where(accept, prop_guide, guide_lw)
                        scores = np.where(accept[:, None], prop_scores, scores)
                        src_run = np.where(accept, run_id, src_run)
                        src_idx = np.where(accept, np.arange(num_particles), src_idx)
                _SMC_PHASE_SECONDS.labels(phase="rejuvenate").observe(
                    time.perf_counter() - rejuvenate_started
                )

    return SMCResult(
        num_particles=num_particles,
        log_weights=log_w,
        log_evidence_estimate=log_evidence,
        ess_history=ess_history,
        resample_steps=resample_steps,
        rejuvenation_rates=rejuvenation_rates,
        runs=runs,
        src_run=src_run,
        src_idx=src_idx,
    )

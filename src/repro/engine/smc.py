"""Sequential Monte Carlo over the vectorized particle runtime.

The sampler anneals from the guide's proposal distribution to the posterior
by *data tempering*: the intermediate target after step ``t`` is

    γ_t(σ) ∝ p_prior(σ) · Π_{j ≤ t} p(obs_j | σ)

over full latent traces σ drawn from the guide.  The vectorized runtime
(:class:`~repro.engine.vectorize.ParticleVectorizer`) supplies everything
columnar: the guide density ``q(σ)``, the model's prior density, and the
per-observation likelihood terms, so each SMC step is pure array work:

1. re-weight by the ``t``-th observation's log-likelihood row;
2. when the effective sample size drops below ``ess_threshold · n``,
   resample the particles systematically and reset the weights;
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
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ast
from repro.core.semantics import traces as tr
from repro.engine.vectorize import VectorRunResult, weighted_site_mean
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
    log_mean_exp,
    log_sum_exp,
    normalize_log_weights,
    normalized_ess,
    sum_rows,
)
from repro.utils.rng import ensure_rng


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: ``n`` ancestor indices from normalised weights.

    Position ``j`` is ``(u + j) / n`` for one uniform draw ``u``, and its
    ancestor is the first index whose cumulative weight reaches it: exactly
    ``np.searchsorted(cumulative, positions)``, computed in linear time.
    ``counts[i]``, the number of positions at or below ``cumulative[i]``,
    is ``floor(cumulative[i]·n − u) + 1`` up to rounding; comparing it with
    the first position it leaves out and the last one it takes in, each
    computed as the positions are, makes it exact (any count past ``n - 1``
    means "all of them").  Ancestor ``j`` is then the number of ``i`` with
    ``counts[i] <= j``.
    """
    n = len(weights)
    u = rng.random()
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against floating-point shortfall
    counts = np.floor(cumulative * n - u).astype(np.intp)
    counts += 1
    counts += (u + counts) / n <= cumulative
    counts -= (u + (counts - 1)) / n > cumulative
    return np.cumsum(np.bincount(counts, minlength=n + 1)[:n])


def _pad_scores(rows: np.ndarray, num_steps: int) -> np.ndarray:
    """Zero-pad step-major obs-score rows to the tempering schedule's length.

    A zero row entry means "this particle's control path emits no observation
    at that step" (likelihood factor 1), matching the padding the vectorized
    run already applies across its own control-flow groups.
    """
    if rows.shape[0] == num_steps:
        return rows
    padded = np.zeros((num_steps, rows.shape[1]))
    padded[: rows.shape[0]] = rows
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
        """The normalised weights, computed once per result (read-only)."""
        return self._weights

    @cached_property
    def _weights(self) -> np.ndarray:
        weights = normalize_log_weights(self.log_weights)
        weights.flags.writeable = False  # shared by every later caller
        return weights

    @cached_property
    def _source_rows(self) -> List[Tuple[VectorRunResult, np.ndarray, np.ndarray]]:
        """Per source run: its particles' mask and their rows in that run."""
        rows = []
        for run_id, run in enumerate(self.runs):
            mask = self.src_run == run_id
            if np.any(mask):
                rows.append((run, mask, self.src_idx[mask]))
        return rows

    def effective_sample_size(self) -> float:
        return normalized_ess(self._weights)

    def site_values(self, index: int) -> np.ndarray:
        """Values of the ``index``-th latent site per particle (``nan`` if absent)."""
        out = np.empty(self.num_particles)
        for run, mask, rows in self._source_rows:
            out[mask] = run.site_values(index)[rows]
        return out

    def posterior_mean(self, index: int) -> float:
        return weighted_site_mean(
            self.site_values(index), index, self.log_weights, self._weights
        )

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
        scores = run.obs_score_rows()
        with np.errstate(invalid="ignore"):
            prior = run.model_log_weights - sum_rows(scores)
        prior[np.isneginf(run.model_log_weights)] = -np.inf
        return run, prior, run.guide_log_weights.copy(), scores

    run0, prior_lw, guide_lw, scores = fresh_population()
    runs = [run0]
    src_run = np.zeros(num_particles, dtype=int)
    src_idx = np.arange(num_particles)

    num_steps = scores.shape[0]
    # w_0 = prior / guide: the initial population targets γ_0 = p_prior.
    with np.errstate(invalid="ignore"):
        log_w = prior_lw - guide_lw
    log_w[np.isneginf(guide_lw)] = -np.inf
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
        log_normalized += scores[t]
        increment = log_sum_exp(log_normalized)
        if increment == -math.inf:
            raise InferenceError(
                f"SMC weight collapse at observation {t}: no particle carries "
                "posterior mass (is the model/guide pair absolutely continuous?)"
            )
        log_evidence += increment

        log_w += scores[t]
        weights = normalize_log_weights(log_w)
        ess = normalized_ess(weights)
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
                scores = np.take(scores, ancestors, axis=1)
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
                    if prop_scores.shape[0] > num_steps:
                        # The model's observation count is branch-dependent and
                        # a proposal path emitted more observations than any
                        # path in the initial population — the tempering
                        # schedule cannot absorb those extra likelihood terms
                        # soundly.
                        raise InferenceError(
                            "SMC rejuvenation drew a particle with "
                            f"{prop_scores.shape[0]} observation steps but the "
                            f"tempering schedule has only {num_steps}; this model's "
                            "observation count is branch-dependent — use the 'is' "
                            "or 'mh' engine instead"
                        )
                    prop_scores = _pad_scores(prop_scores, num_steps)
                    current_gamma = prior_lw + sum_rows(scores[: t + 1])
                    proposal_gamma = prop_prior + sum_rows(prop_scores[: t + 1])
                    with np.errstate(invalid="ignore"):
                        log_ratio = (proposal_gamma - prop_guide) - (current_gamma - guide_lw)
                    # A proposal with zero target density never wins; a current
                    # particle with zero density always loses to a viable
                    # proposal.
                    proposal_dead = np.isneginf(proposal_gamma)
                    log_ratio[proposal_dead] = -np.inf
                    log_ratio[np.isneginf(current_gamma) & ~proposal_dead] = np.inf
                    with np.errstate(divide="ignore"):
                        accept = np.log(rng.random(num_particles)) < log_ratio
                    rejuvenation_rates.append(float(np.mean(accept)))
                    taken = np.flatnonzero(accept)
                    if taken.size:
                        # Retain the proposal run only when some particle now
                        # descends from it, so rejected batches can be
                        # collected.
                        runs.append(proposal_run)
                        # In-place merge: the resampling above just gathered
                        # every population array afresh, so this loop owns
                        # them and no run or earlier result aliases them.
                        prior_lw[taken] = prop_prior[taken]
                        guide_lw[taken] = prop_guide[taken]
                        for row, proposed in zip(scores, prop_scores):
                            row[taken] = proposed[taken]
                        src_run[taken] = len(runs) - 1
                        src_idx[taken] = taken
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

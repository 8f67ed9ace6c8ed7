"""Vectorized stochastic variational inference on the lockstep runtime.

The finite-difference optimiser (:func:`repro.inference.vi.svi`) evaluates
``2·dim + 1`` ELBOs per step, each running ``num_particles`` particles
one-by-one through the coroutine interpreter.  This module replaces that
inner loop with the vectorized particle engine:

* **one lockstep pass** draws all guide traces for a step and yields the
  per-particle ELBO terms ``f_i = log w_m − log w_g`` as columns
  (:func:`estimate_elbo_batched`);
* **score-function (REINFORCE) gradients** avoid re-sampling entirely — the
  gradient of the ELBO with respect to the guide parameters is

  .. math:: \\nabla_θ \\mathrm{ELBO} = E_{σ∼q_θ}[(f(σ) - b)\\,\\nabla_θ \\log q_θ(σ)],

  valid for any baseline ``b`` independent of σ (a leave-one-out mean here),
  and the per-particle score ``∇_θ log q_θ(σ_i)`` is measured by *rescoring*
  the recorded control-flow groups under ``θ ± ε`` — two vectorized replay
  passes per coordinate, no fresh randomness
  (:meth:`~repro.engine.vectorize.ParticleVectorizer.rescore_group`);
* **optional per-site Rao-Blackwellization** subtracts from each site's
  learning signal every model/guide log-term accrued *before* the site in
  protocol order.  Those terms are measurable with respect to the earlier
  samples, so ``E[∇_θ log q_k · (\\text{prefix}_k)] = 0`` and dropping them
  only removes variance, never bias;
* constraints are handled by :class:`~repro.engine.params.ParamStore`
  transforms (softplus positivity, softmax simplices) instead of the old
  ``theta_projection`` clamp, and the optimisers are the Adam/SGD
  implementations shared with the compiled mini-Pyro runtime
  (:mod:`repro.minipyro.infer.optim`).

The module registers two engines: ``svi`` (this vectorized path) and
``svi-fd`` (the sequential finite-difference fallback), both answering
posterior queries by importance-reweighting a final particle pass through
the *fitted* guide.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import ast
from repro.engine.api import (
    EngineResult,
    InferenceEngine,
    InferenceRequest,
    register_engine,
)
from repro.engine.params import ParamStore, make_optimizer, store_from_inits
from repro.engine.vectorize import ParticleVectorizer, vectorized_importance
from repro.errors import ChannelProtocolError, EvaluationError, InferenceError
from repro.inference.vi import ELBOEstimate
from repro.minipyro.infer.optim import Optimizer
from repro.obs import REGISTRY, span
from repro.utils.rng import ensure_rng

DEFAULT_SCORE_EPSILON = 1e-4

_SVI_PHASE_SECONDS = REGISTRY.histogram(
    "repro_svi_phase_seconds",
    "Wall time of one SVI phase per step: the lockstep sampling pass, or the "
    "full set of ±ε rescoring replays behind the score-function gradient.",
    labels=("phase",),
)
_SVI_STEPS = REGISTRY.counter(
    "repro_svi_steps_total",
    "SVI optimisation steps taken (one batched gradient estimate each).",
)


def guide_entry_params(guide_program: ast.Program, guide_entry: str) -> Tuple[str, ...]:
    """The guide entry procedure's parameter names, in declaration order."""
    return tuple(guide_program.procedure(guide_entry).params)


# ---------------------------------------------------------------------------
# Batched ELBO estimation
# ---------------------------------------------------------------------------


def estimate_elbo_batched(session, request: InferenceRequest) -> ELBOEstimate:
    """Monte-Carlo ELBO with all of ``request``'s particles drawn in one lockstep pass.

    Estimator-identical to :func:`repro.inference.vi.estimate_elbo` (same
    per-particle terms, ``-inf`` as soon as any particle leaves the model's
    support); only the execution strategy differs, as the request's backend
    and shard controls select it.
    """
    from repro.engine.backend import make_particle_runner

    # The ELBO needs only the per-particle weight terms.
    vectorizer = make_particle_runner(session, request, trim_site_scores=True)
    run = vectorizer.run(request.num_particles, ensure_rng(request.seed))
    terms = run.log_weights()
    value = float(np.mean(terms)) if bool(np.all(np.isfinite(terms))) else -math.inf
    return ELBOEstimate(value=value, particle_terms=tuple(float(t) for t in terms))


# ---------------------------------------------------------------------------
# Score-function gradients over rescored control-flow groups
# ---------------------------------------------------------------------------


@dataclass
class ScoreGradient:
    """One step's ELBO estimate and score-function parameter gradients."""

    elbo: ELBOEstimate
    #: Gradient per named parameter, in *unconstrained* space, shaped like the
    #: store's values.
    grads: Dict[str, np.ndarray]
    #: Particles whose ELBO term was non-finite (outside the model's support).
    num_infinite: int
    #: Worst-case count of additional particles dropped from a coordinate's
    #: gradient because the perturbed rescore was non-finite.
    num_dropped: int

    @property
    def finite_mean(self) -> float:
        """Mean ELBO term over the in-support particles (``-inf`` if none)."""
        terms = np.asarray(self.elbo.particle_terms)
        finite = terms[np.isfinite(terms)]
        return float(np.mean(finite)) if finite.size else -math.inf


def elbo_and_score_gradient(
    session, request: InferenceRequest, store: ParamStore, rng=None
) -> ScoreGradient:
    """Estimate the ELBO and its score-function gradient in one batch.

    One vectorized sampling pass draws every particle; each unconstrained
    coordinate then costs two vectorized *rescoring* passes (at ``θ ± ε``)
    over the recorded control-flow groups to measure the per-particle score
    ``∂_θ log q_θ(σ_i)`` — no additional sampling, so the gradient uses
    exactly the particles that produced the ELBO estimate.

    Particles outside the model's support (``f_i = −∞``) carry no usable
    learning signal and are excluded from the gradient (their count is
    reported via ``num_infinite``); likewise any particle whose perturbed
    rescore is non-finite, and any group whose perturbed replay no longer
    matches its recorded message sequence (a parameter-dependent branch
    flipped under the perturbation), is dropped from that coordinate only.
    A pure parameter branch that flips *without* changing the message
    sequence is undetectable here — its score then includes the discrete
    arm change, which is the correct (if large) sensitivity at such a
    boundary but makes gradients near branch thresholds high-variance.
    """
    rng = ensure_rng(request.seed) if rng is None else rng
    num_particles = request.num_particles
    param_names = guide_entry_params(session.guide_program, session.guide_entry)

    from repro.engine.backend import make_particle_runner

    def vectorizer_at(at: ParamStore, **changes) -> ParticleVectorizer:
        # The sampling pass honours the shard choice.  The ±ε *rescoring*
        # passes run in-process on one shard (rescore_group is replay
        # machinery that consumes no randomness, so there is nothing to
        # shard); under ``backend="compiled"`` they replay through the
        # compiled rescore pass, which is bitwise-identical to the
        # interpretive replay.
        return make_particle_runner(
            session,
            replace(request, guide_args=at.guide_args(param_names), **changes),
            # The guide-side ledgers feed Rao-Blackwellized signals only;
            # without them the gradient uses whole-trace rescores.
            trim_site_scores=not request.rao_blackwellize,
        )

    sample_started = time.perf_counter()
    with span("svi.sample", particles=num_particles):
        run = vectorizer_at(store).run(num_particles, rng)
    _SVI_PHASE_SECONDS.labels(phase="sample").observe(
        time.perf_counter() - sample_started
    )
    f = run.log_weights()
    finite = np.isfinite(f)
    num_finite = int(finite.sum())
    value = float(np.mean(f)) if num_finite == f.size else -math.inf
    elbo = ELBOEstimate(value=value, particle_terms=tuple(float(t) for t in f))

    grads = {
        name: np.zeros_like(np.asarray(store.unconstrained_dict()[name], dtype=float))
        for name in store.names()
    }
    if store.size == 0 or num_finite < 2:
        return ScoreGradient(elbo, grads, f.size - num_finite, 0)

    # Leave-one-out baseline over the in-support particles: independent of
    # each particle's own draw, so E[s_i · b_i] = 0 and the estimator stays
    # unbiased while the variance of (f - b) collapses.
    baseline = np.zeros(f.size)
    total = float(f[finite].sum())
    baseline[finite] = (total - f[finite]) / (num_finite - 1)

    num_dropped = 0
    eps = float(request.score_epsilon)
    rescore_started = time.perf_counter()
    with span("svi.rescore", particles=num_particles):
        for name, index in store.coordinates():
            plus = vectorizer_at(store.perturbed(name, index, +eps), shards=1)
            minus = vectorizer_at(store.perturbed(name, index, -eps), shards=1)
            contrib = np.zeros(f.size)
            valid = finite.copy()
            with np.errstate(invalid="ignore"):
                for leaf in run.leaves:
                    try:
                        res_plus = plus.rescore_group(leaf)
                        res_minus = minus.rescore_group(leaf)
                    except (ChannelProtocolError, EvaluationError):
                        # The perturbed guide no longer follows the recorded
                        # message sequence (a parameter-dependent branch
                        # flipped across the ±ε boundary): this group
                        # contributes nothing to this coordinate's gradient.
                        valid[leaf.indices] = False
                        continue
                    if request.rao_blackwellize:
                        leaf_contrib, leaf_valid = _rao_blackwell_contrib(
                            leaf, res_plus, res_minus,
                            f[leaf.indices], baseline[leaf.indices],
                            eps, session.latent_channel,
                        )
                    else:
                        scores = (
                            res_plus.log_weights["guide"] - res_minus.log_weights["guide"]
                        ) / (2.0 * eps)
                        leaf_contrib = scores * (f[leaf.indices] - baseline[leaf.indices])
                        leaf_valid = np.isfinite(scores)
                    contrib[leaf.indices] = np.where(leaf_valid, leaf_contrib, 0.0)
                    valid[leaf.indices] &= leaf_valid
            kept = valid & finite
            num_kept = int(kept.sum())
            num_dropped = max(num_dropped, num_finite - num_kept)
            coordinate_grad = float(np.mean(contrib[kept])) if num_kept else 0.0
            target = grads[name]
            if target.ndim == 0:
                grads[name] = np.asarray(coordinate_grad)
            else:
                target.flat[index] = coordinate_grad
    _SVI_PHASE_SECONDS.labels(phase="rescore").observe(
        time.perf_counter() - rescore_started
    )
    return ScoreGradient(elbo, grads, f.size - num_finite, num_dropped)


def _rao_blackwell_contrib(
    leaf,
    res_plus,
    res_minus,
    f_leaf: np.ndarray,
    baseline_leaf: np.ndarray,
    eps: float,
    latent_channel: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-site score contributions with prefix terms removed.

    For latent site ``k`` the learning signal is ``f − Σ_{j<k}(m_j − g_j)``:
    the model prior and guide entropy terms of *earlier* latent sites are
    functions of ``z_{<k}`` alone, so their expectation against site ``k``'s
    score is zero and removing them is pure variance reduction.  Model
    observation terms stay in every site's signal (their protocol position
    relative to the site is not tracked, and keeping independent terms costs
    variance but never bias).
    """
    guide0 = [s for ch, s in leaf.guide_site_scores if ch == latent_channel]
    model0 = [s for ch, s in leaf.model_site_scores if ch == latent_channel]
    plus = [s for ch, s in res_plus.site_scores["guide"] if ch == latent_channel]
    minus = [s for ch, s in res_minus.site_scores["guide"] if ch == latent_channel]
    if not (len(guide0) == len(model0) == len(plus) == len(minus)):
        # Site ledgers disagree (should not happen for a replayed group):
        # fall back to the total-score estimator for this group.
        scores = (res_plus.log_weights["guide"] - res_minus.log_weights["guide"]) / (2.0 * eps)
        return scores * (f_leaf - baseline_leaf), np.isfinite(scores)

    contrib = np.zeros_like(f_leaf)
    valid = np.ones(f_leaf.shape, dtype=bool)
    prefix = np.zeros_like(f_leaf)
    for k in range(len(guide0)):
        site_score = (plus[k] - minus[k]) / (2.0 * eps)
        contrib = contrib + site_score * (f_leaf - prefix - baseline_leaf)
        valid &= np.isfinite(site_score)
        prefix = prefix + (model0[k] - guide0[k])
    return contrib, valid


# ---------------------------------------------------------------------------
# The SVI driver
# ---------------------------------------------------------------------------


@dataclass
class VectorizedSVIResult:
    """The trajectory of one vectorized SVI fit."""

    store: ParamStore
    #: Per-step mean ELBO term over in-support particles (``-inf`` when no
    #: particle landed in the model's support that step).
    elbo_history: List[float] = field(default_factory=list)
    #: Per-step fitted parameters in constrained space.
    param_history: List[Dict[str, object]] = field(default_factory=list)
    grad_norm_history: List[float] = field(default_factory=list)
    #: Per-step count of particles outside the model's support.
    num_infinite_history: List[int] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.elbo_history)

    @property
    def final_elbo(self) -> float:
        if not self.elbo_history:
            raise InferenceError("SVI has not taken any steps")
        return self.elbo_history[-1]

    def fitted_params(self) -> Dict[str, object]:
        return self.store.constrained_values()


def fit_svi(
    session,
    request: InferenceRequest,
    store: ParamStore,
    optimizer: Optional[Optimizer] = None,
    rng=None,
    grad_clip_norm: Optional[float] = 10.0,
) -> VectorizedSVIResult:
    """Maximise the ELBO with batched score-function gradient ascent.

    Takes ``request.num_steps`` steps of ``request.num_particles`` particles
    each, drawn from ``rng`` (default: the request's seed), with
    ``optimizer`` (default: the request's ``optimizer`` at its
    ``learning_rate``).  An empty store has nothing to fit: it takes no
    steps and draws nothing.  The ``store`` is updated in place (and also
    returned inside the result); constraints are enforced by its
    transforms, so no projection/clamping happens between steps.  Steps
    whose batch has fewer than two in-support particles leave the
    parameters untouched — stepping on a gradient estimated from nothing
    (the failure mode of the old finite-difference path) is never an
    improvement.
    """
    num_particles = request.num_particles
    if num_particles <= 1:
        raise InferenceError("vectorized SVI needs at least 2 particles per step")
    rng = ensure_rng(request.seed) if rng is None else rng
    if optimizer is None:
        optimizer = make_optimizer(request.optimizer, request.learning_rate)
    result = VectorizedSVIResult(store=store)

    for _ in range(request.num_steps if store.size else 0):
        _SVI_STEPS.inc()
        estimate = elbo_and_score_gradient(session, request, store, rng)
        result.elbo_history.append(estimate.finite_mean)
        result.num_infinite_history.append(estimate.num_infinite)

        if num_particles - estimate.num_infinite < 2:
            result.grad_norm_history.append(0.0)
            result.param_history.append(store.constrained_values())
            continue

        grads = estimate.grads
        flat = np.concatenate([np.asarray(g, dtype=float).reshape(-1) for g in grads.values()])
        norm = float(np.linalg.norm(flat))
        if grad_clip_norm is not None and norm > grad_clip_norm:
            scale = grad_clip_norm / norm
            grads = {name: g * scale for name, g in grads.items()}
        result.grad_norm_history.append(norm)
        optimizer.update(store.unconstrained_dict(), grads)
        result.param_history.append(store.constrained_values())

    return result


# ---------------------------------------------------------------------------
# Engine registration
# ---------------------------------------------------------------------------


def _final_pass(session, request: InferenceRequest, store: ParamStore) -> InferenceRequest:
    """The posterior pass through the fitted guide: ``final_particles``
    particles (default: the fit's batch size) at the fitted guide arguments
    (the request's own when nothing was fitted)."""
    param_names = guide_entry_params(session.guide_program, session.guide_entry)
    return replace(
        request,
        num_particles=request.final_particles or request.num_particles,
        guide_args=store.guide_args(param_names) if store.size else request.guide_args,
    )


def _store_from_request(session, request: InferenceRequest) -> ParamStore:
    """Build the variational parameter store an inference request describes.

    ``request.guide_params`` maps guide procedure parameters to constrained
    initial values; when given it must cover the guide entry's parameters
    exactly (missing or extra names are typos we refuse to guess around).
    An absent/empty mapping yields an empty store: the guide runs fixed at
    ``request.guide_args`` and no optimisation steps are taken.
    """
    if not request.guide_params:
        return ParamStore()
    store = store_from_inits(request.guide_params, request.param_constraints)
    param_names = guide_entry_params(session.guide_program, session.guide_entry)
    missing = [p for p in param_names if p not in store]
    extra = sorted(set(store.names()) - set(param_names))
    if missing or extra:
        raise InferenceError(
            f"guide_params must name exactly the guide entry's parameters "
            f"{list(param_names)}; missing {missing}, unexpected {extra}"
        )
    return store


class SVIEngineResult(EngineResult):
    """Posterior queries answered by a particle pass through the fitted guide."""

    def __init__(self, raw, importance_result, engine_name: str):
        super().__init__(raw)
        self._importance = importance_result
        self._engine_name = engine_name

    @property
    def final_pass(self):
        """The importance result of the posterior pass through the fitted guide.

        Exposed for differential testing (the fuzz harness compares the
        pass's weighted population against the other engines' populations).
        """
        return self._importance

    def posterior_mean(self, site_index: int) -> float:
        return self._importance.posterior_expectation_of_site(site_index)

    def log_evidence(self) -> Optional[float]:
        return float(self._importance.log_evidence())

    def effective_sample_size(self) -> Optional[float]:
        return float(self._importance.effective_sample_size())

    def diagnostics(self) -> Dict[str, object]:
        raw = self.raw
        history = list(getattr(raw, "elbo_history", []))
        out: Dict[str, object] = {
            "engine": self._engine_name,
            "num_steps": len(history),
            "elbo_history": history,
            "fitted_params": (
                raw.fitted_params() if hasattr(raw, "fitted_params") else {}
            ),
        }
        if hasattr(raw, "num_infinite_history"):
            out["num_infinite_history"] = list(raw.num_infinite_history)
        run = getattr(self._importance, "run", None)
        if run is not None:
            out["backend"] = run.backend
            if run.fallback_reason is not None:
                out["fallback_reason"] = run.fallback_reason
        return out


class VectorizedSVIEngine(InferenceEngine):
    """Batched score-function SVI with sharded sampling passes."""

    name = "svi"
    description = "batched score-function SVI on the lockstep particle runtime"

    def run(self, session, request: InferenceRequest) -> EngineResult:
        """Fit the guide's parameters, then answer queries through the fit."""
        rng = ensure_rng(request.seed)
        store = _store_from_request(session, request)
        fit = fit_svi(session, request, store, rng=rng)
        importance = vectorized_importance(session, _final_pass(session, request, store), rng)
        return SVIEngineResult(fit, importance, self.name)


class FiniteDifferenceSVIEngine(InferenceEngine):
    """The sequential finite-difference SVI reference path."""

    name = "svi-fd"
    description = "sequential finite-difference SVI (reference path)"

    def run(self, session, request: InferenceRequest) -> EngineResult:
        """Fit by finite differences (ignores backend/shard controls)."""
        from repro.inference.importance import importance_sampling
        from repro.inference.vi import svi as finite_difference_svi

        if request.rao_blackwellize:
            raise InferenceError(
                "rao_blackwellize requires the per-site score decomposition of "
                "the vectorized 'svi' engine; finite differences have none"
            )
        rng = ensure_rng(request.seed)
        store = _store_from_request(session, request)
        param_names = guide_entry_params(session.guide_program, session.guide_entry)
        obs_trace = request.resolved_obs_trace()

        fit = None
        if store.size:
            def family(theta: np.ndarray):
                at = store.copy()
                at.load_vector(theta)
                return session.guide_program, session.guide_entry, at.guide_args(param_names)

            fit = finite_difference_svi(
                session.model_program,
                family,
                theta0=store.vector(),
                model_entry=session.model_entry,
                obs_trace=obs_trace,
                num_steps=request.num_steps,
                num_particles=request.num_particles,
                learning_rate=request.learning_rate,
                rng=rng,
                model_args=request.model_args,
                latent_channel=session.latent_channel,
                obs_channel=session.obs_channel,
                optimizer=make_optimizer(request.optimizer, request.learning_rate),
            )
            store.load_vector(fit.theta)

        final = _final_pass(session, request, store)
        importance = importance_sampling(
            session.model_program,
            session.guide_program,
            session.model_entry,
            session.guide_entry,
            obs_trace=obs_trace,
            num_samples=final.num_particles,
            rng=rng,
            model_args=request.model_args,
            guide_args=final.guide_args,
            latent_channel=session.latent_channel,
            obs_channel=session.obs_channel,
        )
        raw = _FiniteDifferenceRaw(store, fit.elbo_history if fit is not None else [])
        return SVIEngineResult(raw, importance, self.name)


@dataclass
class _FiniteDifferenceRaw:
    """Adapter giving the finite-difference fit the vectorized result surface."""

    store: ParamStore
    elbo_history: List[float]

    def fitted_params(self) -> Dict[str, object]:
        return self.store.constrained_values()


register_engine(VectorizedSVIEngine())
register_engine(FiniteDifferenceSVIEngine())

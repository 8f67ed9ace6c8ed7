"""Numerically stable helpers for working with log weights."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def log_sum_exp(log_values: Sequence[float]) -> float:
    """Stable ``log(sum(exp(x_i)))``; returns ``-inf`` for an empty input.

    Accepts lists and NumPy arrays; array inputs take a vectorized path (the
    particle engines call this with 10k+ element weight vectors).
    """
    if isinstance(log_values, np.ndarray):
        kept = log_values[log_values > -np.inf]
        if kept.size == 0:
            return -math.inf
        peak = float(np.max(kept))
        return peak + math.log(float(np.sum(np.exp(kept - peak))))
    finite = [x for x in log_values if x > -math.inf]
    if not finite:
        return -math.inf
    peak = max(finite)
    total = sum(math.exp(x - peak) for x in finite)
    return peak + math.log(total)


def log_mean_exp(log_values: Sequence[float]) -> float:
    """Stable ``log(mean(exp(x_i)))``."""
    if len(log_values) == 0:
        return -math.inf
    return log_sum_exp(log_values) - math.log(len(log_values))


def normalize_log_weights(log_weights: Sequence[float]) -> np.ndarray:
    """Convert log weights into normalised probabilities.

    All-zero (``-inf``) weight vectors normalise to the uniform distribution
    so downstream resampling never divides by zero; callers that need to
    detect weight collapse should check :func:`effective_sample_size` or the
    raw weights instead.
    """
    array = np.asarray(log_weights, dtype=float)
    if array.size == 0:
        return array
    if np.all(np.isneginf(array)):
        return np.full(array.shape, 1.0 / array.size)
    peak = np.max(array[np.isfinite(array)])
    weights = np.exp(np.clip(array - peak, -745.0, 0.0))
    weights[np.isneginf(array)] = 0.0
    total = weights.sum()
    if total == 0.0:
        return np.full(array.shape, 1.0 / array.size)
    return weights / total


def effective_sample_size(log_weights: Sequence[float]) -> float:
    """Kish effective sample size of a set of importance weights."""
    return normalized_ess(normalize_log_weights(log_weights))


def normalized_ess(weights: np.ndarray) -> float:
    """Kish effective sample size of weights already normalised to sum to 1."""
    if weights.size == 0:
        return 0.0
    return float(1.0 / np.sum(weights**2))


def weighted_mean(values: Sequence[float], log_weights: Sequence[float]) -> float:
    """Self-normalised importance-sampling estimate of a posterior mean."""
    weights = normalize_log_weights(log_weights)
    return float(np.dot(np.asarray(values, dtype=float), weights))


def weighted_variance(values: Sequence[float], log_weights: Sequence[float]) -> float:
    """Self-normalised importance-sampling estimate of a posterior variance."""
    weights = normalize_log_weights(log_weights)
    array = np.asarray(values, dtype=float)
    mean = float(np.dot(array, weights))
    return float(np.dot((array - mean) ** 2, weights))


def weighted_mean_se(values: Sequence[float], log_weights: Sequence[float]) -> tuple:
    """Posterior-mean estimate with its ESS-based Monte Carlo standard error.

    The error scale ``sqrt(Var_w(x) / ESS)`` is the standard self-normalised
    importance-sampling approximation; engines whose weights have collapsed
    (ESS near zero) report a correspondingly large standard error, which the
    fuzzer's agreement oracle uses to widen its tolerance automatically.
    """
    mean = weighted_mean(values, log_weights)
    variance = weighted_variance(values, log_weights)
    ess = effective_sample_size(log_weights)
    se = math.sqrt(max(variance, 0.0) / ess) if ess > 0 else float("inf")
    return mean, se

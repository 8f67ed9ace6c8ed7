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
        keep = log_values > -np.inf  # drops -inf and nan
        # With nothing to drop, a vector is used as it is, without the copy.
        kept = log_values if log_values.ndim == 1 and keep.all() else log_values[keep]
        if kept.size == 0:
            return -math.inf
        peak = float(kept.max())
        shifted = kept - peak
        np.exp(shifted, out=shifted)
        return peak + math.log(float(shifted.sum()))
    finite = [x for x in log_values if x > -math.inf]
    if not finite:
        return -math.inf
    peak = max(finite)
    total = sum(math.exp(x - peak) for x in finite)
    return peak + math.log(total)


def sum_rows(rows: np.ndarray) -> np.ndarray:
    """``Σ_t rows[t]`` over a ``(k, n)`` array, bitwise equal to NumPy's row sums.

    The result equals ``np.ascontiguousarray(rows.T).sum(axis=1)`` bit for
    bit, but adds whole contiguous rows instead of reducing ``n`` short rows
    one at a time.  It follows NumPy's pairwise summation of each row:
    sequential below 8 terms, eight interleaved accumulators up to 128, and
    halving (at a multiple of 8) above; the zero start is NumPy's reduction
    identity.  ``k = 0`` gives zeros.
    """
    k = len(rows)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return sum_rows(rows[:half]) + sum_rows(rows[half:])
    total = np.zeros(rows.shape[1])
    if k >= 8:
        acc = rows[:8].copy()
        whole = k - k % 8
        for start in range(8, whole, 8):
            acc += rows[start : start + 8]
        total += ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        rows = rows[whole:]
    for row in rows:
        total += row
    return total


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
    finite = np.isfinite(array)
    if finite.all():
        neginf = None
        peak = array.max()
    else:
        neginf = np.isneginf(array)
        if neginf.all():
            return np.full(array.shape, 1.0 / array.size)
        peak = array[finite].max()
    weights = array - peak
    np.clip(weights, -745.0, 0.0, out=weights)
    np.exp(weights, out=weights)
    if neginf is not None:
        weights[neginf] = 0.0
    total = weights.sum()
    if total == 0.0:
        return np.full(array.shape, 1.0 / array.size)
    weights /= total
    return weights


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

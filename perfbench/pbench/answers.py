"""Answer checks: golden posteriors, stream journals, and determinism.

The golden rule is the one ``repro bench evaluate`` applies, ``|mean -
golden| <= quality_atol + 5 * se``, with the Monte-Carlo standard error
estimated as ``posterior_sd / sqrt(ess)``.  The posterior standard
deviations are pinned in ``perfbench/data/pins.json`` (they only scale the
tolerance; the golden means come from ``bench/snapshots/v1.json``).  For an
SMC answer the effective sample size is the smallest one along the
annealing path, because the final population's ESS is reset by resampling.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

#: Monte-Carlo slack in standard errors (``repro bench evaluate``'s default).
QUALITY_SIGMA = 5.0


def effective_ess(ess: Optional[float], ess_history: Sequence[float] = ()) -> float:
    """The sample count an answer's standard error is scaled by."""
    candidates = [float(v) for v in ess_history if v is not None]
    if ess is not None:
        candidates.append(float(ess))
    if not candidates:
        raise ValueError("an answer needs an effective sample size to be checked")
    return max(min(candidates), 1.0)


def golden_violations(
    means: Mapping[str, Optional[float]],
    golden: Mapping[str, float],
    atol: float,
    posterior_sd: Mapping[str, float],
    ess: float,
    sigma: float = QUALITY_SIGMA,
) -> List[str]:
    """Sites whose estimate misses the golden mean by more than allowed.

    A site missing from ``means`` (or answered ``None``/non-finite) is a
    violation too.
    """
    bad = []
    for site, exact in golden.items():
        value = means.get(site)
        if value is None or not math.isfinite(value):
            bad.append(site)
            continue
        allowed = atol + sigma * float(posterior_sd[site]) / math.sqrt(ess)
        if abs(float(value) - float(exact)) > allowed:
            bad.append(site)
    return bad


def finite_answer(means: Mapping[str, Optional[float]]) -> bool:
    """Every requested site came back as a finite number."""
    return bool(means) and all(v is not None and math.isfinite(v) for v in means.values())


class DeterminismCheck:
    """Answers to the same request (same shape, same seed) must be bit-identical."""

    def __init__(self) -> None:
        self._seen: Dict[object, tuple] = {}

    def observe(self, key: object, answer: tuple) -> bool:
        """Record one answer; False when it differs from an earlier one."""
        return self._seen.setdefault(key, answer) == answer


def stream_rw_expected(journal: Sequence[float]) -> float:
    """Exact posterior mean of the last state of a ``stream_rw`` journal.

    SMC estimates the final state (the filtering marginal) well; earlier
    states degenerate under resampling, so only the last one is checked.
    """
    from repro.bench.golden import linear_gaussian_smoothed

    # x1 ~ N(0, 1), x_t ~ N(x_{t-1}, 1), y_t ~ N(x_t, 0.5): models/library.py.
    return linear_gaussian_smoothed(0.0, 1.0, 1.0, 0.5, list(journal))[-1]

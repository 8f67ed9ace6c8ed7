"""Percentiles with a sample-count rule, and due-time accounting.

A tail percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it, so a p99 needs at least 1000 samples.  Open-loop latency is
timed from each request's *due* time, not from when the generator got round
to writing it: a stalled generator then shows up as latency instead of
hiding queueing, and its lateness is reported separately as lag.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


class SampleCountError(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie beyond the nearest-rank ``pct``."""
    if n <= 0:
        return 0
    return n - _rank(n, pct)


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank (guarding ``ceil`` against float round-off)."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: a sample value as measured, never interpolated.

    Raises :class:`SampleCountError` for a tail percentile (above 50) that
    fewer than :data:`MIN_BEYOND` samples lie beyond.
    """
    n = len(values)
    if n == 0:
        raise SampleCountError("no samples")
    if pct > 50 and samples_beyond(n, pct) < MIN_BEYOND:
        raise SampleCountError(
            f"p{pct:g} of {n} samples has {samples_beyond(n, pct)} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return float(sorted(values)[_rank(n, pct) - 1])


def highest_percentile(values: Sequence[float], candidates=(99.9, 99.0, 90.0)) -> tuple:
    """``(pct, value)`` for the highest candidate the sample count supports."""
    for pct in candidates:
        if samples_beyond(len(values), pct) >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return 50.0, median(values)


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for an even count)."""
    if not values:
        raise SampleCountError("no samples")
    return float(statistics.median(values))


def median_over(groups: Sequence[Sequence[float]], statistic: Callable[[Sequence[float]], float]) -> float:
    """The median of ``statistic(group)`` over the groups of a run.

    A run is cut into groups (windows of requests, or passes over a fixed
    set of shapes), each figure is taken per group, and the run reports the
    median: a slow spell of a shared machine that covers fewer than half of
    the groups then hardly moves the figure, where a pooled figure would
    move in proportion to the spell.  Groups a tail statistic cannot be
    taken of (too few samples) are skipped; none left is an error.
    """
    figures = []
    for group in groups:
        try:
            figures.append(statistic(group))
        except SampleCountError:
            continue
    if not figures:
        raise SampleCountError("no group has enough samples")
    return median(figures)


def chunks(values: Sequence, size: int) -> List[list]:
    """Consecutive groups of ``size`` (the last, shorter one dropped if any)."""
    return [list(values[i:i + size]) for i in range(0, len(values) - size + 1, size)]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


@dataclass
class Exchange:
    """One open-loop request: when it was due, sent, and answered."""

    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    ok: bool = False
    kind: str = "oneshot"


@dataclass
class DueTimeLedger:
    """Due-time accounting for one open-loop phase.

    ``latency = done - due`` (so a late send counts against the request),
    ``lag = sent - due`` (how late the generator ran), and a request with no
    answer, or a failed one, counts as failed.
    """

    exchanges: Dict[object, Exchange] = field(default_factory=dict)

    def due(self, key: object, due_at: float, kind: str = "oneshot") -> None:
        """Register a request scheduled for ``due_at``."""
        self.exchanges[key] = Exchange(due=due_at, kind=kind)

    def sent(self, key: object, at: float) -> None:
        """Record when the request was written to the connection."""
        self.exchanges[key].sent = at

    def done(self, key: object, at: float, ok: bool) -> None:
        """Record the answer (first answer wins)."""
        exchange = self.exchanges[key]
        if exchange.done is None:
            exchange.done = at
            exchange.ok = bool(ok)

    def latencies(self, kind: str = "oneshot") -> List[float]:
        """Due-time latencies of the successful requests of one kind."""
        return [
            e.done - e.due
            for e in self.exchanges.values()
            if e.kind == kind and e.ok and e.done is not None
        ]

    def lags(self) -> List[float]:
        """How late each sent request left the generator."""
        return [e.sent - e.due for e in self.exchanges.values() if e.sent is not None]

    def attempted(self, kind: Optional[str] = None) -> int:
        """Requests scheduled (of one kind, or all)."""
        return sum(1 for e in self.exchanges.values() if kind is None or e.kind == kind)

    def failed(self, kind: Optional[str] = None) -> int:
        """Requests unanswered or answered with an error."""
        return sum(
            1
            for e in self.exchanges.values()
            if (kind is None or e.kind == kind) and not (e.ok and e.done is not None)
        )

"""Process-wide metrics: counters, gauges, and log-bucketed histograms.

A :class:`MetricsRegistry` holds named metric *families*; each family owns
labeled *children* (one per label-value combination) that carry the actual
numbers.  The design mirrors the Prometheus client-library data model —
``Counter`` / ``Gauge`` / ``Histogram`` with a text exposition format — but
is dependency-free and small enough to sit on the hot path:

* **Counters** only go up (requests served, cache hits, bytes shipped).
* **Gauges** go up and down (queue depth, pool size).
* **Histograms** bucket observations into *fixed log-spaced buckets*, so
  latency percentiles (p50/p90/p99) are derivable from any snapshot without
  storing raw samples — means hide tail latency; percentiles are the number
  a capacity plan needs.

Three read surfaces:

* :meth:`MetricsRegistry.snapshot` — a JSON-ready dict (benchmark artifacts,
  the server's ``metrics`` op, per-run diagnostics);
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text exposition
  format, served by the JSONL server's ``GET /metrics`` endpoint;
* :meth:`MetricsRegistry.mark` / :meth:`MetricsRegistry.delta` — a run
  ledger attributing activity to one run: while a mark is held, every
  ``inc``/``set``/``observe`` in the same :mod:`contextvars` context (thread
  or asyncio task) also adds its change to the mark, so attribution costs
  O(samples touched) and never sees another context's increments.

A family keeps at most :data:`MAX_CHILDREN_PER_FAMILY` label sets; past the
cap, new label values share one overflow child labeled ``other`` and each
redirect is counted in ``repro_metrics_dropped_labels_total{family}``, so a
client choosing label values cannot grow the registry without bound.

The process-wide default registry lives at :data:`REGISTRY`; instrumented
modules create their families at import time so the metric *catalog* is
stable (every family appears in ``/metrics`` from the first scrape, with or
without samples — and ``tests/obs/metrics_catalog.txt`` pins the set).
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left
from contextvars import ContextVar
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_TIME_BUCKETS",
    "MAX_CHILDREN_PER_FAMILY",
    "default_registry",
]

#: Label sets one family keeps before new ones share the overflow child.
MAX_CHILDREN_PER_FAMILY = 1024

#: The label value every label of a family's overflow child carries.
OVERFLOW_LABEL_VALUE = "other"


def _log_spaced(start: float, stop: float) -> Tuple[float, ...]:
    """1—2.5—5 per-decade bucket bounds from ``start`` up to ``stop``."""
    bounds: List[float] = []
    decade = 10.0 ** math.floor(math.log10(start))
    while decade <= stop * 1.0000001:
        for mult in (1.0, 2.5, 5.0):
            bound = decade * mult
            if start * 0.9999999 <= bound <= stop * 1.0000001:
                bounds.append(float(f"{bound:.12g}"))
        decade *= 10.0
    return tuple(bounds)


#: Default latency buckets: log-spaced (1—2.5—5 per decade) from 100µs to
#: 100s.  Fixed bounds mean snapshots from different processes/runs are
#: always mergeable and p50/p90/p99 are derivable from the bucket counts.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = _log_spaced(1e-4, 100.0)

#: Buckets for dimensionless counts (particles, ESS, bytes): 1 to 10^9.
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = _log_spaced(1.0, 1e9)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: Dict[str, str]) -> str:
    """``{a="x",b="y"}`` (or the empty string for unlabeled samples)."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in labels.items())
    return "{" + inner + "}"


class _Ledger(dict):
    """One open :meth:`MetricsRegistry.mark`: flat key -> change since the mark."""

    __slots__ = ("__weakref__",)


def _record(ledgers: Tuple["weakref.ref[_Ledger]", ...], key: str, change: float) -> None:
    """Add ``change`` under ``key`` to every still-held ledger in ``ledgers``."""
    for ref in ledgers:
        ledger = ref()
        if ledger is not None:
            ledger[key] = ledger.get(key, 0.0) + change


class HistogramValue:
    """One histogram's state: fixed bucket counts, a sum, a count, and the
    largest observation.

    Observations are non-negative (the quantile estimate interpolates the
    first bucket from 0), so ``max`` reads 0 before the first.  Registered
    :class:`Histogram` children wrap one of these per label set; standalone
    instances back client-side aggregates such as
    :class:`~repro.engine.loadgen.LoadReport`'s latency distribution.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if not bounds or list(bounds) != sorted(set(float(b) for b in bounds)):
            raise ValueError("histogram bucket bounds must be sorted, unique, and non-empty")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self.total = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the bucket counts."""
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Uses the same scheme as Prometheus's ``histogram_quantile``: find the
        bucket the rank lands in and interpolate linearly inside it (the
        first bucket interpolates from 0; ranks in the +Inf bucket clamp to
        the highest finite bound).  Returns ``nan`` with no observations.
        """
        if self.count == 0:
            return math.nan
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                if i == len(self.bounds):  # +Inf bucket: no finite upper bound
                    return self.bounds[-1]
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = self.bounds[i]
                position = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * position
        return self.bounds[-1]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            running += bucket_count
            out.append((bound, running))
        out.append((math.inf, running + self.bucket_counts[-1]))
        return out


class _ScalarChild:
    """A counter or gauge value whose changes also reach open run ledgers."""

    __slots__ = ("value", "_key", "_ledgers")

    def __init__(self, key: str, ledgers: ContextVar):
        self.value = 0.0
        self._key = key
        self._ledgers = ledgers

    def _add(self, amount: float) -> None:
        self.value += amount
        ledgers = self._ledgers.get()
        if ledgers:
            _record(ledgers, self._key, float(amount))


class _HistogramChild(HistogramValue):
    """A registered histogram child: observations also reach open run ledgers."""

    __slots__ = ("_count_key", "_sum_key", "_ledgers")

    def __init__(self, bounds: Sequence[float], key: str, ledgers: ContextVar):
        super().__init__(bounds)
        self._count_key = key + "_count"
        self._sum_key = key + "_sum"
        self._ledgers = ledgers

    def observe(self, value: float) -> None:
        """Fold one observation into the bucket counts (and open ledgers)."""
        super().observe(value)
        ledgers = self._ledgers.get()
        if ledgers:
            _record(ledgers, self._count_key, 1.0)
            _record(ledgers, self._sum_key, float(value))


class _Family:
    """Base class for metric families: naming, labels, child bookkeeping."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labels: Sequence[str], registry):
        self.name = name
        self.help = help_text
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._registry = registry
        self._children: "Dict[Tuple[str, ...], object]" = {}

    def _new_child(self, key: str):
        """A fresh child whose samples are flattened under ``key``."""
        raise NotImplementedError

    def labels(self, **label_values: str):
        """The child for one label-value combination (created on first use).

        Past :data:`MAX_CHILDREN_PER_FAMILY` label sets, a new combination
        gets the shared overflow child (every label ``"other"``) instead,
        and the redirect is counted in ``repro_metrics_dropped_labels_total``.
        """
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(label_values)}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._registry._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= MAX_CHILDREN_PER_FAMILY:
                    self._registry._dropped_labels().labels(family=self.name).inc()
                    key = (OVERFLOW_LABEL_VALUE,) * len(self.label_names)
                    child = self._children.get(key)
                if child is None:
                    labels = _render_labels(dict(zip(self.label_names, key)))
                    child = self._children[key] = self._new_child(self.name + labels)
        return child

    def _default_child(self):
        """The single child of an unlabeled family."""
        if self.label_names:
            raise ValueError(f"metric {self.name!r} has labels; address a child via .labels()")
        return self.labels()

    def children(self) -> Dict[Tuple[str, ...], object]:
        """Every child created so far, keyed by its label values in
        ``label_names`` order (``()`` for an unlabeled family).  A read:
        unlike :meth:`labels`, it creates none."""
        with self._registry._lock:
            return dict(self._children)

    def _samples(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels-dict, child)`` pairs in creation order."""
        return [
            (dict(zip(self.label_names, key)), child)
            for key, child in list(self._children.items())
        ]


class Counter(_Family):
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"

    class Child(_ScalarChild):
        """One labeled counter value."""

        __slots__ = ()

        def inc(self, amount: float = 1.0) -> None:
            """Increase the counter (negative increments are rejected)."""
            if amount < 0:
                raise ValueError("counters only go up")
            self._add(amount)

    def _new_child(self, key: str):
        return Counter.Child(key, self._registry._ledgers)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled child."""
        self._default_child().inc(amount)


class Gauge(_Family):
    """A value that can go up and down, optionally labeled."""

    kind = "gauge"

    class Child(_ScalarChild):
        """One labeled gauge value."""

        __slots__ = ()

        def set(self, value: float) -> None:
            """Set the gauge to ``value``."""
            value = float(value)
            ledgers = self._ledgers.get()
            if ledgers:
                _record(ledgers, self._key, value - float(self.value))
            self.value = value

        def inc(self, amount: float = 1.0) -> None:
            """Add ``amount`` (may be negative)."""
            self._add(amount)

        def dec(self, amount: float = 1.0) -> None:
            """Subtract ``amount``."""
            self._add(-amount)

    def _new_child(self, key: str):
        return Gauge.Child(key, self._registry._ledgers)

    def set(self, value: float) -> None:
        """Set the unlabeled child."""
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled child."""
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the unlabeled child."""
        self._default_child().dec(amount)


class Histogram(_Family):
    """A log-bucketed distribution of observations, optionally labeled."""

    kind = "histogram"

    def __init__(self, name, help_text, labels, registry, buckets=DEFAULT_TIME_BUCKETS):
        super().__init__(name, help_text, labels, registry)
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)

    def _new_child(self, key: str):
        return _HistogramChild(self.buckets, key, self._registry._ledgers)

    def observe(self, value: float) -> None:
        """Observe into the unlabeled child."""
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        """Quantile of the unlabeled child (``nan`` when empty)."""
        return self._default_child().quantile(q)


class MetricsRegistry:
    """A named collection of metric families with JSON and Prometheus views."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: "Dict[str, _Family]" = {}
        #: Weak references to the ledgers of the marks open in the current
        #: context; every child of this registry records into them.
        self._ledgers: "ContextVar[Tuple[weakref.ref[_Ledger], ...]]" = ContextVar(
            f"repro_metrics_ledgers_{id(self):x}", default=()
        )

    # -- family registration (get-or-create, so modules can re-import) -----

    def _register(self, cls, name: str, help_text: str, labels: Sequence[str], **kwargs):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {list(existing.label_names)}"
                    )
                return existing
            family = cls(name, help_text, labels, self, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str, labels: Sequence[str] = ()) -> Counter:
        """Get or create a counter family."""
        return self._register(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str, labels: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge family."""
        return self._register(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram family with fixed bucket bounds."""
        return self._register(Histogram, name, help_text, labels, buckets=buckets)

    def families(self) -> List[_Family]:
        """Every registered family, in registration order."""
        with self._lock:
            return list(self._families.values())

    def reset(self) -> None:
        """Drop every family's children (tests); the catalog itself stays."""
        with self._lock:
            for family in self._families.values():
                family._children.clear()

    # -- read surfaces ------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every family's samples as one JSON-ready dict."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            for family in self._families.values():
                samples: List[Dict[str, object]] = []
                for labels, child in family._samples():
                    if isinstance(child, HistogramValue):
                        samples.append(
                            {
                                "labels": labels,
                                "count": child.count,
                                "sum": child.total,
                                "buckets": {
                                    _format_value(bound): cum
                                    for bound, cum in child.cumulative_buckets()
                                },
                                "p50": child.quantile(0.50),
                                "p90": child.quantile(0.90),
                                "p99": child.quantile(0.99),
                            }
                        )
                    else:
                        samples.append({"labels": labels, "value": child.value})
                out[family.name] = {
                    "type": family.kind,
                    "help": family.help,
                    "labels": list(family.label_names),
                    "samples": samples,
                }
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            for family in self._families.values():
                lines.append(f"# HELP {family.name} {family.help}")
                lines.append(f"# TYPE {family.name} {family.kind}")
                for labels, child in family._samples():
                    if isinstance(child, HistogramValue):
                        for bound, cum in child.cumulative_buckets():
                            bucket_labels = dict(labels)
                            bucket_labels["le"] = _format_value(bound)
                            lines.append(
                                f"{family.name}_bucket{_render_labels(bucket_labels)} {cum}"
                            )
                        lines.append(
                            f"{family.name}_sum{_render_labels(labels)} "
                            f"{_format_value(child.total)}"
                        )
                        lines.append(
                            f"{family.name}_count{_render_labels(labels)} {child.count}"
                        )
                    else:
                        lines.append(
                            f"{family.name}{_render_labels(labels)} "
                            f"{_format_value(child.value)}"
                        )
        return "\n".join(lines) + "\n"

    # -- per-run attribution ------------------------------------------------

    def mark(self) -> Dict[str, float]:
        """Open a run ledger in the current context and return it.

        Until the caller drops it, the ledger collects every change this
        registry's samples take in the current :mod:`contextvars` context —
        the calling thread, or the asyncio task — and in contexts copied
        from it; marks nest.  Pass it to :meth:`delta` to read it.
        """
        ledger = _Ledger()
        live = tuple(ref for ref in self._ledgers.get() if ref() is not None)
        self._ledgers.set(live + (weakref.ref(ledger),))
        return ledger

    def delta(self, mark: Dict[str, float]) -> Dict[str, float]:
        """Per-key change since ``mark`` (only keys that moved).

        Keys are flat ``name{labels}`` strings (histograms report
        ``_count``/``_sum``); the mark stays open, so it can be read again.
        """
        return {key: change for key, change in mark.items() if change != 0.0}

    def _dropped_labels(self) -> Counter:
        """The counter of label sets redirected to an overflow child."""
        return self.counter(
            "repro_metrics_dropped_labels_total",
            "Label sets redirected to a family's overflow child (labels all "
            f'"{OVERFLOW_LABEL_VALUE}") past {MAX_CHILDREN_PER_FAMILY} children.',
            labels=("family",),
        )


#: The process-wide default registry.  Instrumented modules register their
#: families here at import time; the server's ``/metrics`` endpoint renders
#: it, and ``run_engine`` attributes each run's share of it.
REGISTRY = MetricsRegistry()
REGISTRY._dropped_labels()  # in the catalog from the first scrape


def default_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY


def metric_names(snapshot_or_text) -> List[str]:
    """The sorted family names in a snapshot dict or Prometheus text blob."""
    if isinstance(snapshot_or_text, dict):
        return sorted(snapshot_or_text)
    names = []
    for line in snapshot_or_text.splitlines():
        if line.startswith("# TYPE "):
            names.append(line.split()[2])
    return sorted(names)


def percentile_keys(hist: HistogramValue, prefix: str) -> Dict[str, float]:
    """``{prefix_p50, prefix_p90, prefix_p99}`` derived from one histogram."""
    return {
        f"{prefix}_p50": hist.quantile(0.50),
        f"{prefix}_p90": hist.quantile(0.90),
        f"{prefix}_p99": hist.quantile(0.99),
    }

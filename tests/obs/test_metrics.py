"""The metrics registry: bucket math, quantiles, rendering, attribution."""

import asyncio
import json
import math
import sys
import threading
import weakref
from pathlib import Path

import pytest

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MAX_CHILDREN_PER_FAMILY,
    HistogramValue,
    MetricsRegistry,
    _log_spaced,
    metric_names,
    percentile_keys,
)

GOLDEN = Path(__file__).parent / "golden_metrics.txt"


def _golden_registry() -> MetricsRegistry:
    """A small registry with deterministic contents, for rendering tests."""
    reg = MetricsRegistry()
    requests = reg.counter("demo_requests_total", "Requests by status.", labels=("status",))
    requests.labels(status="ok").inc(3)
    requests.labels(status="error").inc()
    reg.gauge("demo_queue_depth", "Depth of the dispatch queue.").set(2)
    latency = reg.histogram("demo_latency_seconds", "Request latency.", buckets=(0.1, 0.5, 1.0))
    for value in (0.05, 0.3, 0.7, 2.0):
        latency.observe(value)
    weird = reg.counter("demo_escapes_total", "Label escaping.", labels=("path",))
    weird.labels(path='a"b\\c\nd').inc()
    return reg


class TestBuckets:
    def test_log_spaced_follows_1_2p5_5_per_decade(self):
        assert _log_spaced(1e-2, 1.0) == (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)

    def test_default_bucket_sets_are_sorted_unique_and_span_their_range(self):
        for buckets, lo, hi in (
            (DEFAULT_TIME_BUCKETS, 1e-4, 100.0),
            (DEFAULT_COUNT_BUCKETS, 1.0, 1e9),
        ):
            assert list(buckets) == sorted(set(buckets))
            assert buckets[0] == lo and buckets[-1] == hi

    def test_unsorted_or_empty_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            HistogramValue(())
        with pytest.raises(ValueError):
            HistogramValue((1.0, 0.5))
        with pytest.raises(ValueError):
            HistogramValue((1.0, 1.0))

    def test_observation_on_a_bound_lands_in_that_bounds_bucket(self):
        # Prometheus buckets are ``le``-inclusive: an observation equal to a
        # bound counts toward that bound's cumulative count.
        h = HistogramValue((1.0, 2.0))
        h.observe(1.0)
        assert h.cumulative_buckets() == [(1.0, 1), (2.0, 1), (math.inf, 1)]

    def test_observation_beyond_the_last_bound_lands_in_inf(self):
        h = HistogramValue((1.0, 2.0))
        h.observe(5.0)
        assert h.cumulative_buckets() == [(1.0, 0), (2.0, 0), (math.inf, 1)]


class TestQuantiles:
    def test_empty_histogram_quantile_is_nan(self):
        assert math.isnan(HistogramValue().quantile(0.5))

    def test_out_of_range_quantile_rejected(self):
        h = HistogramValue()
        h.observe(0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_interpolates_within_the_bucket(self):
        # 100 observations uniformly inside (1.0, 2.0]: the median rank (50)
        # lands mid-bucket, so the estimate interpolates to ~1.5.
        h = HistogramValue((1.0, 2.0, 4.0))
        for i in range(100):
            h.observe(1.0 + (i + 0.5) / 100.0)
        assert h.quantile(0.5) == pytest.approx(1.5, abs=0.01)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)

    def test_first_bucket_interpolates_from_zero(self):
        h = HistogramValue((1.0, 2.0))
        h.observe(0.5)
        h.observe(0.5)
        assert 0.0 < h.quantile(0.5) <= 1.0

    def test_inf_bucket_clamps_to_highest_finite_bound(self):
        h = HistogramValue((1.0, 2.0))
        for _ in range(10):
            h.observe(100.0)
        assert h.quantile(0.99) == 2.0

    def test_percentile_keys_helper(self):
        h = HistogramValue((1.0, 2.0))
        h.observe(0.5)
        keys = percentile_keys(h, "latency_s")
        assert set(keys) == {"latency_s_p50", "latency_s_p90", "latency_s_p99"}


class TestFamilies:
    def test_counter_only_goes_up(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help")
        c.inc()
        c.inc(2.5)
        with pytest.raises(ValueError):
            c.inc(-1)
        assert reg.snapshot()["c_total"]["samples"][0]["value"] == 3.5

    def test_gauge_goes_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("g", "help")
        g.set(5)
        g.inc()
        g.dec(3)
        assert reg.snapshot()["g"]["samples"][0]["value"] == 3.0

    def test_label_validation(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help", labels=("status",))
        with pytest.raises(ValueError):
            c.labels(wrong="x")
        with pytest.raises(ValueError):
            c.inc()  # labeled family has no default child
        assert c.labels(status="ok") is c.labels(status="ok")

    def test_reregistration_returns_the_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("c_total", "help", labels=("x",))
        assert reg.counter("c_total", "other help", labels=("x",)) is a
        with pytest.raises(ValueError):
            reg.gauge("c_total", "type conflict")
        with pytest.raises(ValueError):
            reg.counter("c_total", "label conflict", labels=("y",))

    def test_reset_clears_samples_but_keeps_the_catalog(self):
        reg = _golden_registry()
        reg.reset()
        snap = reg.snapshot()
        assert set(snap) == {
            "demo_requests_total", "demo_queue_depth",
            "demo_latency_seconds", "demo_escapes_total",
        }
        assert all(not family["samples"] for family in snap.values())


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        snap = _golden_registry().snapshot()
        json.dumps(snap)
        hist = snap["demo_latency_seconds"]["samples"][0]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(3.05)
        assert hist["buckets"] == {"0.1": 1, "0.5": 2, "1": 3, "+Inf": 4}
        assert hist["p50"] <= hist["p90"] <= hist["p99"]

    def test_mark_delta_reports_only_what_moved(self):
        reg = _golden_registry()
        mark = reg.mark()
        assert reg.delta(mark) == {}
        reg.counter("demo_requests_total", "h", labels=("status",)).labels(status="ok").inc(2)
        reg.histogram("demo_latency_seconds", "h", buckets=(0.1, 0.5, 1.0)).observe(0.2)
        delta = reg.delta(mark)
        assert delta['demo_requests_total{status="ok"}'] == 2.0
        assert delta["demo_latency_seconds_count"] == 1.0
        assert delta["demo_latency_seconds_sum"] == pytest.approx(0.2)
        assert 'demo_requests_total{status="error"}' not in delta


class TestRunLedger:
    """``mark()``/``delta()``: a ledger of what moved in the marking context."""

    def test_keys_follow_the_flat_name_labels_format(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_seconds", "h", labels=("phase",), buckets=(1.0,))
        gauge = reg.gauge("g", "h")
        mark = reg.mark()
        hist.labels(phase="a").observe(0.5)
        hist.labels(phase="a").observe(2.0)
        gauge.set(4)
        gauge.dec()
        assert reg.delta(mark) == {
            'h_seconds{phase="a"}_count': 2.0,
            'h_seconds{phase="a"}_sum': 2.5,
            "g": 3.0,
        }

    def test_changes_that_cancel_out_are_not_reported(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g", "h")
        gauge.set(2)
        mark = reg.mark()
        gauge.inc()
        gauge.set(2)
        gauge.set(2)
        assert reg.delta(mark) == {}

    def test_delta_reads_again_and_marks_nest(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "h")
        outer = reg.mark()
        counter.inc()
        inner = reg.mark()
        counter.inc(2)
        assert reg.delta(inner) == {"c_total": 2.0}
        assert reg.delta(outer) == {"c_total": 3.0}
        assert reg.delta(outer) == {"c_total": 3.0}
        counter.inc()
        assert reg.delta(inner) == {"c_total": 3.0}
        assert reg.delta(outer) == {"c_total": 4.0}

    def test_marks_are_scoped_to_their_registry(self):
        ours, theirs = MetricsRegistry(), MetricsRegistry()
        ours.counter("c_total", "h")
        same_name = theirs.counter("c_total", "h")
        mark = ours.mark()
        same_name.inc()
        assert ours.delta(mark) == {}

    def test_standalone_histograms_stay_outside_attribution(self):
        reg = MetricsRegistry()
        mark = reg.mark()
        HistogramValue().observe(1.0)
        assert reg.delta(mark) == {}

    def test_a_dropped_mark_stops_collecting(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "h")
        mark = reg.mark()
        ledger = weakref.ref(mark)
        del mark
        assert ledger() is None
        for _ in range(1000):
            reg.mark()  # callers that never close their marks must not leak
        counter.inc()
        held = reg.mark()
        counter.inc()
        assert reg.delta(held) == {"c_total": 1.0}
        assert len(reg._ledgers.get()) <= 2

    def test_concurrent_threads_see_only_their_own_increments(self):
        """Each thread holds a mark while the other increments the shared
        counter; a whole-registry diff would report both threads' work."""
        reg = MetricsRegistry()
        shared = reg.counter("shared_total", "h")
        both_marked = threading.Barrier(2, timeout=10)
        both_incremented = threading.Barrier(2, timeout=10)
        deltas = {}

        def run(name, amount):
            mark = reg.mark()
            both_marked.wait()
            shared.inc(amount)
            both_incremented.wait()
            deltas[name] = reg.delta(mark)

        threads = [
            threading.Thread(target=run, args=("a", 1.0)),
            threading.Thread(target=run, args=("b", 10.0)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert deltas == {"a": {"shared_total": 1.0}, "b": {"shared_total": 10.0}}

    def test_attribution_stays_exact_under_thread_contention(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "h", labels=("kind",))
        hist = reg.histogram("h_seconds", "h", buckets=(1.0,))
        deltas = {}

        def run(index):
            mark = reg.mark()
            for _ in range(2000):
                counter.labels(kind="shared").inc()
                hist.observe(0.5)
            deltas[index] = reg.delta(mark)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        expected = {
            'c_total{kind="shared"}': 2000.0,
            "h_seconds_count": 2000.0,
            "h_seconds_sum": 1000.0,
        }
        assert deltas == {i: expected for i in range(8)}

    def test_asyncio_tasks_see_only_their_own_increments(self):
        reg = MetricsRegistry()
        shared = reg.counter("shared_total", "h")

        async def run(amount):
            mark = reg.mark()
            await asyncio.sleep(0)
            shared.inc(amount)
            await asyncio.sleep(0)
            return reg.delta(mark)

        async def main():
            return await asyncio.gather(run(1.0), run(10.0))

        assert asyncio.run(main()) == [{"shared_total": 1.0}, {"shared_total": 10.0}]


class TestCardinalityCap:
    def test_label_sets_past_the_cap_share_one_overflow_child(self):
        reg = MetricsRegistry()
        family = reg.counter("c_total", "h", labels=("tenant", "kind"))
        for i in range(MAX_CHILDREN_PER_FAMILY + 50):
            family.labels(tenant=f"t{i}", kind="x").inc()
        assert len(family._children) == MAX_CHILDREN_PER_FAMILY + 1
        overflow = family.labels(tenant="new", kind="x")
        assert overflow is family.labels(tenant="other", kind="other")
        assert overflow.value == 50
        assert family.labels(tenant="t0", kind="x").value == 1  # kept children still count
        # Every redirected lookup counts, including the one above that
        # never incremented.
        dropped = reg.snapshot()["repro_metrics_dropped_labels_total"]["samples"]
        assert dropped == [{"labels": {"family": "c_total"}, "value": 51.0}]

    def test_overflow_reuses_an_existing_other_child(self):
        reg = MetricsRegistry()
        family = reg.counter("c_total", "h", labels=("tenant",))
        family.labels(tenant="other").inc()
        for i in range(MAX_CHILDREN_PER_FAMILY + 10):
            family.labels(tenant=f"t{i}").inc()
        assert len(family._children) == MAX_CHILDREN_PER_FAMILY
        assert family.labels(tenant="other").value == 12

    def test_overflow_children_are_attributed_to_runs(self):
        reg = MetricsRegistry()
        family = reg.counter("c_total", "h", labels=("tenant",))
        for i in range(MAX_CHILDREN_PER_FAMILY):
            family.labels(tenant=f"t{i}")
        mark = reg.mark()
        family.labels(tenant="late").inc()
        assert reg.delta(mark) == {
            'c_total{tenant="other"}': 1.0,
            'repro_metrics_dropped_labels_total{family="c_total"}': 1.0,
        }


class TestPrometheusRendering:
    def test_matches_the_pinned_golden_file(self):
        rendered = _golden_registry().render_prometheus()
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    def test_parses_with_the_official_parser_when_available(self):
        parser = pytest.importorskip("prometheus_client.parser")
        rendered = _golden_registry().render_prometheus()
        families = {f.name for f in parser.text_string_to_metric_families(rendered)}
        # The official parser strips the _total suffix from counter names.
        assert {"demo_requests", "demo_queue_depth", "demo_latency_seconds"} <= families

    def test_histogram_lines_are_cumulative_and_end_at_inf(self):
        text = _golden_registry().render_prometheus()
        buckets = [line for line in text.splitlines()
                   if line.startswith("demo_latency_seconds_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in buckets[-1]
        assert "demo_latency_seconds_sum 3.05" in text
        assert "demo_latency_seconds_count 4" in text

    def test_label_values_are_escaped(self):
        text = _golden_registry().render_prometheus()
        assert r'path="a\"b\\c\nd"' in text

    def test_metric_names_agree_between_views(self):
        reg = _golden_registry()
        assert metric_names(reg.snapshot()) == metric_names(reg.render_prometheus())

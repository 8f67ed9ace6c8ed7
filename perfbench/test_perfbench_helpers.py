"""Tests for the benchmark's own helpers: percentiles and the sample-count
rule, due-time accounting, the answer checks, and the metric catalogue."""

from __future__ import annotations

import asyncio
import json
import math
import random
import statistics
from pathlib import Path

import pytest

from pbench import answers, stats
from pbench.common import END_TO_END, Deck, open_loop, poisson_arrivals, poisson_schedule
from pbench.layers import PER_LAYER


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.percentile(list(range(1000)), 99) == 989
    with pytest.raises(stats.SampleCountError):
        stats.percentile(list(range(999)), 99)
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(stats.SampleCountError):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(stats.SampleCountError):
        stats.percentile([], 50)


def test_highest_supported_percentile():
    assert stats.highest_percentile(list(range(10000)))[0] == 99.9
    assert stats.highest_percentile(list(range(1000)))[0] == 99.0
    assert stats.highest_percentile(list(range(200)))[0] == 90.0
    assert stats.highest_percentile(list(range(50))) == (50.0, 24.5)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_ledger_times_latency_from_the_due_time():
    ledger = stats.DueTimeLedger()
    ledger.due("a", 10.0)
    ledger.sent("a", 10.5)  # the generator ran half a second late
    ledger.done("a", 11.0, ok=True)
    ledger.due("b", 12.0)
    ledger.sent("b", 12.0)
    ledger.done("b", 12.2, ok=False)  # answered with an error
    ledger.due("c", 13.0)
    ledger.sent("c", 13.0)  # never answered
    assert ledger.latencies() == [pytest.approx(1.0)]
    assert sorted(ledger.lags()) == [pytest.approx(0.0), pytest.approx(0.0), pytest.approx(0.5)]
    assert ledger.attempted() == 3
    assert ledger.failed() == 2


def test_ledger_first_answer_wins_and_kinds_are_separate():
    ledger = stats.DueTimeLedger()
    ledger.due("p", 0.0, kind="push")
    ledger.sent("p", 0.0)
    ledger.done("p", 0.3, ok=True)
    ledger.done("p", 0.9, ok=False)
    assert ledger.latencies("push") == [pytest.approx(0.3)]
    assert ledger.latencies("oneshot") == []
    assert ledger.failed("push") == 0


class _StubConnection:
    """Answers each request ``delay`` seconds after it is written."""

    def __init__(self, delay: float, drop: int = -1):
        self.delay = delay
        self.drop = drop
        self.count = 0

    def next_id(self) -> str:
        self.count += 1
        return f"r{self.count}"

    def send(self, payload: dict):
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self.count != self.drop:
            loop.call_later(self.delay, lambda: future.set_result((loop.time(), {"ok": True})))
        return future


def test_open_loop_counts_a_late_generator_and_unanswered_requests():
    async def scenario():
        loop = asyncio.get_running_loop()
        now = loop.time()
        # The first two requests were due before the loop started: they are
        # sent late, and the lateness counts against their latency.
        schedule = [(now - 0.2, 0, {}, "oneshot"), (now - 0.1, 0, {}, "oneshot"),
                    (now + 0.01, 0, {}, "oneshot")]
        ledger = stats.DueTimeLedger()
        conn = _StubConnection(delay=0.02, drop=3)
        answered = await open_loop([conn], schedule, ledger, drain_s=0.2)
        return ledger, answered

    # open_loop reads time.monotonic(); the stub answers on the event loop's
    # clock, which is time.monotonic() too.
    ledger, answered = asyncio.run(scenario())
    assert len(answered) == 2
    assert ledger.failed() == 1
    latencies = sorted(ledger.latencies())
    assert latencies[0] >= 0.1 + 0.02 - 1e-3
    assert latencies[1] >= 0.2 + 0.02 - 1e-3
    assert max(ledger.lags()) >= 0.2 - 1e-3


def test_poisson_schedule_is_seeded():
    a = poisson_schedule(random.Random(3), 0.0, 100.0, 5.0)
    b = poisson_schedule(random.Random(3), 0.0, 100.0, 5.0)
    assert a == b
    assert all(0.0 < t < 5.0 for t in a)
    assert 350 < len(a) < 650


def test_poisson_arrivals_gives_a_fixed_count():
    a = poisson_arrivals(random.Random(5), 1.0, 40.0, 110)
    assert a == poisson_arrivals(random.Random(5), 1.0, 40.0, 110)
    assert len(a) == 110 and a == sorted(a) and a[0] > 1.0


def test_deck_deals_every_item_once_per_round():
    deck = Deck("abcd", random.Random(2))
    draws = [deck.draw() for _ in range(12)]
    for i in range(0, 12, 4):
        assert sorted(draws[i:i + 4]) == list("abcd")


def test_median_over_groups_ignores_a_slow_minority_and_thin_groups():
    fast = [1.0] * 100
    groups = [fast, fast, [3.0] * 100, fast, [2.0] * 5]
    assert stats.median_over(groups, stats.median) == 1.0
    # The five-sample group has no p90 under the sample-count rule.
    assert stats.median_over(groups, lambda g: stats.percentile(g, 90)) == 1.0
    with pytest.raises(stats.SampleCountError):
        stats.median_over([[1.0] * 5], lambda g: stats.percentile(g, 90))


def test_chunks_drop_a_short_tail():
    assert stats.chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5]]
    assert stats.chunks([1, 2], 3) == []


def test_golden_check_uses_atol_plus_five_sigma():
    golden = {"0": 1.0}
    sd = {"0": 0.5}
    # ess 100 -> se 0.05 -> allowed 0.1 + 0.25 = 0.35
    assert answers.golden_violations({"0": 1.34}, golden, 0.1, sd, 100.0) == []
    assert answers.golden_violations({"0": 1.36}, golden, 0.1, sd, 100.0) == ["0"]
    assert answers.golden_violations({"0": 0.66}, golden, 0.1, sd, 100.0) == []
    assert answers.golden_violations({}, golden, 0.1, sd, 100.0) == ["0"]
    assert answers.golden_violations({"0": math.nan}, golden, 0.1, sd, 100.0) == ["0"]
    assert answers.golden_violations({"0": None}, golden, 0.1, sd, 100.0) == ["0"]


def test_effective_ess_takes_the_smallest_along_the_path():
    assert answers.effective_ess(1000.0, [400.0, 250.0, 900.0]) == 250.0
    assert answers.effective_ess(80.0) == 80.0
    assert answers.effective_ess(0.2) == 1.0
    with pytest.raises(ValueError):
        answers.effective_ess(None)


def test_determinism_check_flags_changed_answers():
    check = answers.DeterminismCheck()
    assert check.observe("k", (1.0, 2.0))
    assert check.observe("k", (1.0, 2.0))
    assert not check.observe("k", (1.0, 2.0000001))
    assert check.observe("other", (1.0, 2.0000001))


def test_stream_expectation_is_the_exact_filtering_mean():
    # One step: x ~ N(0, 1), y ~ N(x, 0.5): E[x | y] = y * 1 / (1 + 0.25).
    assert answers.stream_rw_expected([1.0]) == pytest.approx(0.8)
    # The last state of a longer journal follows the data.
    assert answers.stream_rw_expected([0.0, 0.0, 5.0]) > 3.0


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["serve_light", "batch_kernel"]

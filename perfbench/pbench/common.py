"""What every workload shares: the outcome record and the open-loop sender."""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from pbench import stats
from pbench.inputs import WORK
from pbench.serving import Connection

#: End-to-end metrics every workload reports (name -> unit), in print order.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "rate_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """One run's figures: metrics for ``BENCHMARK.json``, the rest for people."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Named figures printed next to the metrics (with their units).
    figures: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)

    def figure(self, name: str, value: float, unit: str) -> None:
        self.figures[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def wrong_answer(self, what: str) -> None:
        self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def finish(self) -> None:
        """Derive the failure and wrong-answer shares."""
        self.figure("failed_frac", self.failed / max(self.attempted, 1), "ratio")
        self.figure("wrong_frac", self.wrong / max(self.checked, 1), "ratio")


def latency_metrics(outcome: Outcome, windows: Sequence[Sequence[float]]) -> None:
    """``latency_p50_ms`` and ``latency_p90_ms`` from latencies (seconds) in windows.

    Each is the median over the run's windows of the window's own p50 or
    p90 (see :func:`stats.median_over`), so a window must hold at least a
    hundred samples for its p90.  p90, not p99, is the gated tail: a run
    yields about a thousand samples, so a p99 has about ten beyond it and
    its run-to-run spread reached the bound.  The pooled p50, p90 and (where
    the sample count supports it) p99 of the whole run are printed as
    figures, with the sample and window counts.
    """
    pooled = [value for window in windows for value in window]
    outcome.metrics["latency_p50_ms"] = stats.median_over(windows, stats.median) * 1e3
    outcome.metrics["latency_p90_ms"] = stats.median_over(windows, lambda w: stats.percentile(w, 90)) * 1e3
    outcome.figure("latency_samples", len(pooled), "count")
    outcome.figure("latency_windows", len(windows), "count")
    if len(windows) > 1:
        outcome.figure("pooled_p50_ms", stats.median(pooled) * 1e3, "ms")
        outcome.figure("pooled_p90_ms", stats.percentile(pooled, 90) * 1e3, "ms")
    if stats.samples_beyond(len(pooled), 99) >= stats.MIN_BEYOND:
        outcome.figure("latency_p99_ms", stats.percentile(pooled, 99) * 1e3, "ms")


def lag_figure(outcome: Outcome, lags: Sequence[float]) -> None:
    """How late the load generator ran, at the highest supported percentile."""
    pct, value = stats.highest_percentile(lags)
    outcome.layer("client.lag_ms", value * 1e3, "ms")
    outcome.figure("client.lag_pct", pct, "pct")


def poisson_schedule(rng: random.Random, start: float, rate: float, seconds: float) -> List[float]:
    """Seeded Poisson arrival times in ``[start, start + seconds)``."""
    times, t = [], start
    while True:
        t += rng.expovariate(rate)
        if t >= start + seconds:
            return times
        times.append(t)


def poisson_arrivals(rng: random.Random, start: float, rate: float, count: int) -> List[float]:
    """The first ``count`` seeded Poisson arrival times after ``start``."""
    times, t = [], start
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times


class Deck:
    """Items dealt in seeded shuffled rounds: every run gets the same mix.

    Drawing with replacement would let the seed move the share of costly
    shapes in a run by several percent; dealing a shuffled deck keeps the
    mix balanced within every round of ``len(items)`` draws.
    """

    def __init__(self, items: Sequence, rng: random.Random):
        self.items, self.rng, self.hand = list(items), rng, []

    def draw(self):
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


async def open_loop(
    conns: Sequence[Connection],
    schedule: Sequence[Tuple[float, int, dict, str]],
    ledger: stats.DueTimeLedger,
    drain_s: float = 15.0,
) -> List[Tuple[dict, dict]]:
    """Send each ``(due, connection index, payload, kind)`` at its due time.

    Nothing waits for an answer before the next send.  Returns ``(payload,
    response)`` for every request answered within ``drain_s`` of the last
    due time; the rest stay unanswered in ``ledger``.
    """
    answered: List[Tuple[dict, dict]] = []

    async def collect(key: str, payload: dict, future: "asyncio.Future") -> None:
        received, response = await future
        ledger.done(key, received, bool(response.get("ok")))
        answered.append((payload, response))

    tasks = []
    for due, index, payload, kind in schedule:
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = conns[index % len(conns)]
        payload["id"] = key = conn.next_id()
        ledger.due(key, due, kind)
        future = conn.send(payload)
        ledger.sent(key, time.monotonic())
        tasks.append(asyncio.ensure_future(collect(key, payload, future)))
    if tasks:
        _, pending = await asyncio.wait(tasks, timeout=drain_s)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
    return answered


def server_split(response: dict, received_at: float, sent_at: float) -> Optional[Dict[str, float]]:
    """Per-request stage split (seconds) from a response's ``server`` block."""
    server = response.get("server") or {}
    if "latency_s" not in server:
        return None
    latency, queue, run = server["latency_s"], server["queue_wait_s"], server["run_s"]
    split = {
        "wire": (received_at - sent_at) - latency,
        "admit": latency - queue - run,
        "queue": queue,
    }
    wall = ((response.get("diagnostics") or {}).get("run_metrics") or {}).get("wall_s")
    if wall is not None:
        split["dispatch"] = run - wall
    return split


def fresh_workdir(name: str):
    """An empty scratch directory inside the checkout for this run."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def ms(seconds: float) -> float:
    return seconds * 1e3


def check_oneshot(outcome: Outcome, shape, response: dict) -> None:
    """Check one successful one-shot answer against its shape's golden."""
    from pbench import answers

    if not response.get("ok"):
        return
    outcome.checked += 1
    history = (response.get("diagnostics") or {}).get("ess_history") or ()
    ess = answers.effective_ess(response.get("effective_sample_size"), history)
    bad = answers.golden_violations(
        response.get("posterior_means") or {}, shape.golden, shape.atol, shape.posterior_sd, ess
    )
    if bad:
        outcome.wrong_answer(
            f"{shape.key} seed {response.get('id')}: sites {bad} "
            f"means {response.get('posterior_means')} vs {shape.golden} (ess {ess:.0f})"
        )

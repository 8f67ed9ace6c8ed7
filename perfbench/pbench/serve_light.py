"""``serve_light``: open-loop one-shot traffic the seed serves without backlog.

One-shot ``is``/``smc`` runs at 1000 particles on the six golden models,
from a pool of :data:`TENANTS` tenant ids that all appear during warm-up.
The run is a sequence of rounds until ``seconds`` have passed; each round is
an open-loop window of :data:`WINDOW_REQUESTS` Poisson arrivals at
:data:`RATE` requests/s, timed from their due times, then a closed-loop
chunk of :data:`CHUNK` requests pipelined :data:`CLOSED_DEPTH` deep on each
of the two connections, which gives the request rate.  The latency figures
and the rate are medians over the rounds (:func:`stats.median_over`), and
shapes are dealt from a shuffled deck, so the mix is the same in every run.
Engine work is 0.3-4 ms per request, so most of the latency is the serving
layers.  At 30 requests/s the server is busy about a fifth of the time:
queueing is present, but when the machine's speed shifted the p90 moved no
more than the closed-loop rate did, where at 40 requests/s it moved up to
twice as much.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from pbench import stats
from pbench.common import (
    Deck,
    Outcome,
    check_oneshot,
    fresh_workdir,
    lag_figure,
    latency_metrics,
    open_loop,
    poisson_arrivals,
    server_split,
)
from pbench.inputs import GOLDEN_MODELS, Inputs
from pbench.serving import ServerProcess, close_all, closed_loop, control, open_connections

RATE = 30.0
#: Arrivals per open-loop window: enough for its p90 to have ten beyond it.
WINDOW_REQUESTS = 110
PARTICLES = 1000
ENGINES = ("is", "smc")
TENANTS = 300
CHUNK = 120
#: Requests in flight per connection in the closed loop.  With four (eight
#: in all, both CPUs busy) the rate followed the machine's speed about half
#: as strongly again as the latency did.
CLOSED_DEPTH = 1
SETUPS = 3


def tenant_pool(count: int = TENANTS) -> List[str]:
    return [f"tenant-{i:03d}" for i in range(count)]


async def warm_up(conns, shapes, tenants, rng: random.Random, outcome: Outcome) -> None:
    """Every shape once (sessions and kernels), then every tenant once."""
    for shape in shapes:
        payload = shape.payload(conns[0].next_id(), rng.randrange(2**31), tenants[0])
        _, _, response = await conns[0].request(payload)
        if not response.get("ok"):
            raise RuntimeError(f"warm-up request failed: {response}")
        check_oneshot(outcome, shape, response)
    payloads = [
        shapes[i % len(shapes)].payload(None, rng.randrange(2**31), tenant)
        for i, tenant in enumerate(tenants)
    ]
    for payload, _, _, response in await closed_loop(conns, payloads, CLOSED_DEPTH):
        if not response.get("ok"):
            raise RuntimeError(f"warm-up request failed: {response}")


async def start_server(workdir, shapes, tenants, rng, outcome, extra_args=()):
    server = ServerProcess(workdir / "server.log", extra_args)
    server.start()
    try:
        conns = await open_connections(server.port)
        await warm_up(conns, shapes, tenants, rng, outcome)
    except BaseException:
        server.stop()
        raise
    return server, conns, time.monotonic() - server.launched_at


async def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = Inputs()
    rng = random.Random(seed)
    outcome = Outcome()
    shapes = inputs.shapes(GOLDEN_MODELS, ENGINES, PARTICLES)
    deck = Deck(shapes, rng)
    tenants = tenant_pool()
    workdir = fresh_workdir("serve_light")

    setups = []
    for i in range(SETUPS):
        server, conns, setup_s = await start_server(workdir, shapes, tenants, rng, outcome)
        setups.append(setup_s)
        if i < SETUPS - 1:
            await close_all(conns)
            server.stop()
    shape_of: Dict[int, object] = {}

    def next_payload() -> dict:
        shape = deck.draw()
        payload = shape.payload(None, rng.randrange(2**31), rng.choice(tenants))
        shape_of[id(payload)] = shape
        return payload

    ledgers: List[stats.DueTimeLedger] = []
    answered, closed_results, chunk_rates = [], [], []
    try:
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            # Open-loop window, timed from each request's due time.
            start = time.monotonic() + 0.05
            schedule = [
                (due, i, next_payload(), "oneshot")
                for i, due in enumerate(poisson_arrivals(rng, start, RATE, WINDOW_REQUESTS))
            ]
            ledger = stats.DueTimeLedger()
            answered += await open_loop(conns, schedule, ledger)
            ledgers.append(ledger)
            # Closed-loop chunk: CLOSED_DEPTH requests in flight per connection.
            payloads = [next_payload() for _ in range(CHUNK)]
            began = time.monotonic()
            results = await closed_loop(conns, payloads, CLOSED_DEPTH)
            closed_results += results
            ok = sum(bool(r[3].get("ok")) for r in results)
            chunk_rates.append(ok / (max(r[2] for r in results) - began))

        server_stats = (await control(conns[0], "stats"))["counters"]
        server_metrics = (await control(conns[0], "metrics"))["metrics"] if trace else None
        outcome.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        await close_all(conns)
        server.stop()

    for payload, response in answered:
        check_oneshot(outcome, shape_of[id(payload)], response)
    closed_ok = 0
    for payload, _, _, response in closed_results:
        check_oneshot(outcome, shape_of[id(payload)], response)
        closed_ok += bool(response.get("ok"))
    outcome.attempted = sum(ledger.attempted() for ledger in ledgers) + len(closed_results)
    outcome.failed = sum(ledger.failed() for ledger in ledgers) + (len(closed_results) - closed_ok)

    outcome.metrics["setup_s"] = stats.median(setups)
    latency_metrics(outcome, [ledger.latencies() for ledger in ledgers])
    outcome.metrics["rate_per_s"] = stats.median(chunk_rates)
    outcome.figure("throughput_rps", outcome.metrics["rate_per_s"], "req/s")
    lag_figure(outcome, [lag for ledger in ledgers for lag in ledger.lags()])
    outcome.figure("offered_rps", RATE, "req/s")
    outcome.figure("server.shed_total", server_stats.get("shed_total", 0), "count")
    if trace:
        from pbench import layers

        exchanges = {key: e for ledger in ledgers for key, e in ledger.exchanges.items()}
        splits = [
            server_split(response, exchanges[payload["id"]].done, exchanges[payload["id"]].sent)
            for payload, response in answered
        ]
        layers.server_layers(outcome, splits, server_stats)
        layers.registry_layers(outcome, server_metrics)
        await layers.replay(outcome, f"serve_light-{seed}", shapes, tenants)
    return outcome

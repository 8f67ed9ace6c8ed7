"""``cold_programs``: every request is a model/guide pair the server has not seen.

One client, closed loop over TCP, ``is`` at 256 particles.  The pairs come
from the pinned pool in ``perfbench/data/cold_pool.json`` (fuzz-generated
certified pairs and ``hmm_chain`` straight-line chains of up to 64 sites).
Each request misses the session cache, so the parser, the guide-type check
and the kernel compiler run on every request.  The run makes whole passes
over the pool in one fixed cyclic order; the pool is twice the server's
64-entry session and kernel caches, so a pair is always evicted before it
repeats.  The order is a shuffle with a pinned seed (:data:`ORDER_SEED`),
and the run seed only chooses where in the cycle the run starts: which
programs sit in the caches together changes the collector's work, so a
seeded order would let the seed change the workload.
A program's latency varies by half from pass to pass (collections and
cache evictions land on different requests), so each program's figure is
its median over the passes (at least :data:`MIN_PASSES`), and the run's
p50, p90 and rate are taken over those per-program medians.

Answers must match, bit for bit, the answer pinned for the pair and its
seed when the pool was drawn; chain answers are also checked against their
exact posterior.
"""

from __future__ import annotations

import random
import time

from pbench import answers, stats
from pbench.common import Outcome, check_oneshot, fresh_workdir, lag_figure, server_split
from pbench.inputs import GOLDEN_MODELS, Inputs, load_json, DATA
from pbench.serving import ServerProcess, close_all, control, open_connections

SETUPS = 3
MIN_PASSES = 3
ORDER_SEED = 0
#: Pool pairs the traced run replays in-process.
REPLAY_SAMPLE = 24


def payload(entry: dict, pool: dict, request_id: str) -> dict:
    params = {"num_particles": pool["particles"], "backend": "compiled", "seed": entry["seed"]}
    if entry["obs_values"]:
        params["obs_values"] = entry["obs_values"]
    return {
        "id": request_id,
        "model": entry["model"],
        "guide": entry["guide"],
        "engine": pool["engine"],
        "sites": [0],
        "params": params,
    }


def check(outcome: Outcome, entry: dict, pool: dict, response: dict) -> None:
    if not response.get("ok"):
        return
    outcome.checked += 1
    means = response.get("posterior_means") or {}
    if not answers.finite_answer(means) or means.get("0") != entry["expected"]["0"]:
        outcome.wrong_answer(f"{entry['name']}: {means} vs pinned {entry['expected']}")
        return
    if "golden" in entry:
        ess = answers.effective_ess(response.get("effective_sample_size"))
        bad = answers.golden_violations(
            means, entry["golden"], pool["quality_atol"], entry["posterior_sd"], ess
        )
        if bad:
            outcome.wrong_answer(f"{entry['name']}: {means} vs golden {entry['golden']}")


async def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = Inputs()
    pool = load_json(DATA / "cold_pool.json")
    rng = random.Random(seed)
    outcome = Outcome()
    warm_shapes = inputs.shapes(GOLDEN_MODELS, ("is",), pool["particles"])
    workdir = fresh_workdir("cold_programs")

    setups = []
    for i in range(SETUPS):
        server = ServerProcess(workdir / "server.log")
        server.start()
        try:
            (conn,) = await open_connections(server.port, 1)
            for shape in warm_shapes:  # parser, checker and compiler code paths
                _, _, response = await conn.request(shape.payload(conn.next_id(), rng.randrange(2**31), "default"))
                check_oneshot(outcome, shape, response)
        except BaseException:
            server.stop()
            raise
        setups.append(time.monotonic() - server.launched_at)
        if i < SETUPS - 1:
            await close_all([conn])
            server.stop()
    try:
        # One order for every pass: each pair then repeats exactly a pool
        # length later, after the caches have evicted it.
        order = list(pool["pairs"])
        random.Random(ORDER_SEED).shuffle(order)
        start = rng.randrange(len(order))
        order = order[start:] + order[:start]
        exchanges = []
        deadline = time.monotonic() + seconds
        passes = 0
        while passes < MIN_PASSES or time.monotonic() < deadline:
            passes += 1
            for entry in order:
                sent, received, response = await conn.request(payload(entry, pool, conn.next_id()))
                exchanges.append((entry, sent, received, response))
        server_stats = (await control(conn, "stats"))["counters"]
        server_metrics = (await control(conn, "metrics"))["metrics"] if trace else None
        outcome.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        await close_all([conn])
        server.stop()

    by_program, gaps = {}, []
    for i, (entry, sent, received, response) in enumerate(exchanges):
        check(outcome, entry, pool, response)
        if response.get("ok"):
            by_program.setdefault(entry["name"], []).append(received - sent)
        else:
            outcome.failed += 1
        if i:
            gaps.append(sent - exchanges[i - 1][2])
    outcome.attempted = len(exchanges)
    medians = [stats.median(v) for v in by_program.values()]
    outcome.metrics["setup_s"] = stats.median(setups)
    outcome.metrics["latency_p50_ms"] = stats.median(medians) * 1e3
    outcome.metrics["latency_p90_ms"] = stats.percentile(medians, 90) * 1e3
    outcome.metrics["rate_per_s"] = len(medians) / sum(medians)
    pooled = [v for values in by_program.values() for v in values]
    outcome.figure("programs_per_s", outcome.metrics["rate_per_s"], "1/s")
    outcome.figure("pooled_p50_ms", stats.median(pooled) * 1e3, "ms")
    outcome.figure("pooled_p90_ms", stats.percentile(pooled, 90) * 1e3, "ms")
    outcome.figure("latency_samples", len(pooled), "count")
    outcome.figure("passes", passes, "count")
    lag_figure(outcome, gaps)
    outcome.figure("server.shed_total", server_stats.get("shed_total", 0), "count")
    if trace:
        from pbench import layers

        splits = [server_split(r, rec, s) for _, s, rec, r in exchanges]
        layers.server_layers(outcome, splits, server_stats)
        layers.registry_layers(outcome, server_metrics)
        sample = rng.sample(pool["pairs"], REPLAY_SAMPLE)
        await layers.replay(outcome, f"cold_programs-{seed}", [layers.pool_shape(e, pool) for e in sample], ["default"])
    return outcome

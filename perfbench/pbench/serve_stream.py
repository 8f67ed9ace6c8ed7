"""``serve_stream``: streaming pushes interleaved with light one-shot traffic.

The server runs durable (``--checkpoint-dir``).  :data:`SLOTS` streaming
sessions of the growable ``stream_rw`` model (compiled, 1000 particles)
each push one observation every ``seconds / LENGTH`` seconds, open loop.
A session is closed after :data:`LENGTH` observations and a new one opened
in its slot; the slots start staggered by ``LENGTH / SLOTS`` observations,
so every journal length 1..LENGTH is pushed exactly ``SLOTS`` times per
run.  Each push re-certifies the model at the new length, replays SMC over
the whole journal and fsyncs a checkpoint, so its cost grows with the
journal length.  Sessions open with ``rejuvenate: false``: the seed's
ESS-triggered rejuvenation makes a push's cost depend on the observed
values (52-175 ms at one journal length of 48), which would swamp the
effect of any change; without it a push is a fixed O(t) replay.  Poisson
one-shot requests at :data:`ONESHOT_RATE` from :data:`TENANTS` tenants
(shapes dealt from a shuffled deck) share the serial dispatcher; their tail
shows head-of-line blocking behind pushes.

The latency metrics are those of the pushes, timed from their due times:
every journal length is pushed :data:`SLOTS` times per run, so the mix is
the same in every run.  The one-shot latencies are printed as figures but
not gated: pushes keep the dispatcher busy about a tenth of the time, so a
one-shot's p90 sits right where it starts to wait behind a push, and it
moved by a third between runs.  The push rate is pushes per second of push
execution (``server.run_s``), from the median execution time at each
journal length over the slots, so it covers every length 1..LENGTH once and
a slow spell hitting one slot's push at a length does not move it.

:data:`LENGTH` is chosen so that every journal length (each is its own
cached program) plus the six one-shot models fit the server's shipped
64-entry session and kernel caches: 48 + 6 = 54.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from pbench import answers, stats
from pbench.common import (
    Deck,
    Outcome,
    check_oneshot,
    fresh_workdir,
    lag_figure,
    latency_metrics,
    open_loop,
    poisson_schedule,
    server_split,
)
from pbench.inputs import GOLDEN_MODELS, Inputs
from pbench.serving import ServerProcess, close_all, control, open_connections

LENGTH = 48
SLOTS = 4
PARTICLES = 1000
ONESHOT_RATE = 60.0
ENGINES = ("is", "smc")
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
STREAM_TENANT = "tenant-stream"
SETUPS = 3
#: Journal length at which each session is checked against the exact posterior.
CHECK_LENGTH = 2


class Journals:
    """Seeded ``stream_rw`` observation streams (a simulated random walk)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def draw(self, length: int) -> List[float]:
        x, out = 0.0, []
        for t in range(length):
            x = self.rng.gauss(x if t else 0.0, 1.0)
            out.append(round(self.rng.gauss(x, 0.5), 4))
        return out


def open_payload(session_id: str, seed: int) -> dict:
    return {
        "op": "session.open",
        "session_id": session_id,
        "tenant": STREAM_TENANT,
        "benchmark": "stream_rw",
        "grow": True,
        "max_steps": LENGTH,
        "params": {"num_particles": PARTICLES, "backend": "compiled", "seed": seed, "rejuvenate": False},
    }


def push_payload(session_id: str, values: List[float]) -> dict:
    return {"op": "session.push", "session_id": session_id, "tenant": STREAM_TENANT, "values": values}


def query_payload(session_id: str, site: int) -> dict:
    return {"op": "session.query", "session_id": session_id, "tenant": STREAM_TENANT, "sites": [site]}


def close_payload(session_id: str) -> dict:
    return {"op": "session.close", "session_id": session_id, "tenant": STREAM_TENANT}


async def call(conn, payload: dict) -> dict:
    payload["id"] = conn.next_id()
    _, _, response = await conn.request(payload)
    if not response.get("ok"):
        raise RuntimeError(f"{payload['op']} failed: {response}")
    return response


async def stream_session(conn, session_id: str, seed: int, journal: List[float], checks) -> None:
    """Open, push ``journal`` one value at a time, close.

    The session is queried where the open loop queries it, for the checks.
    """
    await call(conn, open_payload(session_id, seed))
    for t, value in enumerate(journal, start=1):
        await call(conn, push_payload(session_id, [value]))
        if t in (CHECK_LENGTH, len(journal)):
            checks.add(journal[:t], await call(conn, query_payload(session_id, t - 1)))
    await call(conn, close_payload(session_id))


class StreamChecks:
    """Queried sessions to check after the run.

    SMC replays the whole journal from guide trajectories drawn up front, so
    its population degenerates as the journal grows (at 48 steps the ESS is
    in single digits).  The exact check is therefore made where SMC still
    estimates well: the last state of a :data:`CHECK_LENGTH`-step journal.
    Full-length queries must answer finitely for the right journal length.
    """

    def __init__(self) -> None:
        self.pending: List[tuple] = []

    def add(self, journal: List[float], response: dict) -> None:
        self.pending.append((list(journal), response))

    def run(self, inputs: Inputs, outcome: Outcome) -> None:
        atol = inputs.stream_atol()
        for journal, response in self.pending:
            if not response.get("ok"):
                continue
            outcome.checked += 1
            site = str(len(journal) - 1)
            means = {site: (response.get("posterior_means") or {}).get(site)}
            if response.get("steps") != len(journal) or not answers.finite_answer(means):
                outcome.wrong_answer(f"stream_rw@{len(journal)}: {response}")
                continue
            if len(journal) != CHECK_LENGTH:
                continue
            history = (response.get("diagnostics") or {}).get("ess_history") or ()
            ess = answers.effective_ess(response.get("effective_sample_size"), history)
            exact = {site: answers.stream_rw_expected(journal)}
            sd = {site: inputs.stream_last_sd(len(journal))}
            if answers.golden_violations(means, exact, atol, sd, ess):
                outcome.wrong_answer(
                    f"stream_rw@{len(journal)}: last-state mean {means[site]} vs exact "
                    f"{exact[site]:.4f} (ess {ess:.0f})"
                )


async def start_server(workdir, shapes, rng, journals, checks, outcome):
    server = ServerProcess(workdir / "server.log", ["--checkpoint-dir", str(workdir / "ckpt")])
    server.start()
    try:
        conns = await open_connections(server.port)
        for shape in shapes:
            payload = shape.payload(conns[0].next_id(), rng.randrange(2**31), TENANTS[0])
            _, _, response = await conns[0].request(payload)
            check_oneshot(outcome, shape, response)
        # Every journal length once, so each length's program is cached and compiled.
        journal = journals.draw(LENGTH)
        sid = f"warm-{rng.randrange(10**9)}"
        await stream_session(conns[0], sid, rng.randrange(2**31), journal, checks)
    except BaseException:
        server.stop()
        raise
    return server, conns, time.monotonic() - server.launched_at


async def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = Inputs()
    rng = random.Random(seed)
    journals = Journals(rng)
    outcome = Outcome()
    checks = StreamChecks()
    shapes = inputs.shapes(GOLDEN_MODELS, ENGINES, PARTICLES)
    deck = Deck(shapes, rng)
    workdir = fresh_workdir("serve_stream")

    setups = []
    for i in range(SETUPS):
        server, conns, setup_s = await start_server(workdir, shapes, rng, journals, checks, outcome)
        setups.append(setup_s)
        if i < SETUPS - 1:
            await close_all(conns)
            server.stop()
    try:
        # Slot k starts with a journal k * LENGTH / SLOTS long (pre-filled in one push).
        slots = []
        for k in range(SLOTS):
            sid = f"s{seed}-{k}-0"
            journal = journals.draw(LENGTH)
            prefill = k * LENGTH // SLOTS
            await call(conns[k % 2], open_payload(sid, rng.randrange(2**31)))
            if prefill:
                await call(conns[k % 2], push_payload(sid, journal[:prefill]))
            slots.append({"sid": sid, "journal": journal, "at": prefill, "cycle": 0})

        start = time.monotonic() + 0.05
        period = seconds / LENGTH
        schedule = []
        pushes_meta: Dict[int, tuple] = {}
        for k, slot in enumerate(slots):
            # Evenly spaced phases: with seeded phases two slots could push
            # in step, so that one always waited for the other.
            due = start + period * k / SLOTS
            for _ in range(LENGTH):
                if slot["at"] == LENGTH:
                    query = query_payload(slot["sid"], LENGTH - 1)
                    pushes_meta[id(query)] = ("query", list(slot["journal"]))
                    schedule.append((due, k, query, "query"))
                    schedule.append((due, k, close_payload(slot["sid"]), "close"))
                    slot["cycle"] += 1
                    slot["sid"] = f"s{seed}-{k}-{slot['cycle']}"
                    slot["journal"] = journals.draw(LENGTH)
                    slot["at"] = 0
                    schedule.append((due, k, open_payload(slot["sid"], rng.randrange(2**31)), "open"))
                value = slot["journal"][slot["at"]]
                slot["at"] += 1
                push = push_payload(slot["sid"], [value])
                pushes_meta[id(push)] = ("push", slot["at"])
                schedule.append((due, k, push, "push"))
                if slot["at"] == CHECK_LENGTH:
                    query = query_payload(slot["sid"], CHECK_LENGTH - 1)
                    pushes_meta[id(query)] = ("query", slot["journal"][:CHECK_LENGTH])
                    schedule.append((due, k, query, "query"))
                due += period
        shape_of = {}
        for due in poisson_schedule(rng, start, ONESHOT_RATE, seconds):
            shape = deck.draw()
            payload = shape.payload(None, rng.randrange(2**31), rng.choice(TENANTS))
            shape_of[id(payload)] = shape
            schedule.append((due, rng.randrange(2), payload, "oneshot"))
        schedule.sort(key=lambda item: item[0])  # stable: a slot's ops keep their order
        ledger = stats.DueTimeLedger()
        answered = await open_loop(conns, schedule, ledger)

        server_stats = (await control(conns[0], "stats"))["counters"]
        server_metrics = (await control(conns[0], "metrics"))["metrics"] if trace else None
        outcome.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        await close_all(conns)
        server.stop()

    push_latencies = ledger.latencies("push")
    push_run_s: Dict[int, List[float]] = {}
    for payload, response in answered:
        meta = pushes_meta.get(id(payload))
        if id(payload) in shape_of:
            check_oneshot(outcome, shape_of[id(payload)], response)
        elif meta and meta[0] == "query":
            checks.add(meta[1], response)
        elif meta and meta[0] == "push" and response.get("ok"):
            outcome.checked += 1
            push_run_s.setdefault(meta[1], []).append(response["server"]["run_s"])
            if response.get("steps") != meta[1]:
                outcome.wrong_answer(f"push expected journal {meta[1]}, got {response.get('steps')}")
    checks.run(inputs, outcome)
    outcome.attempted = ledger.attempted()
    outcome.failed = ledger.failed()

    outcome.metrics["setup_s"] = stats.median(setups)
    latency_metrics(outcome, [push_latencies])
    # Observations absorbed per second of push execution (the server's run_s,
    # without queueing), over every journal length 1..LENGTH of the run.
    outcome.metrics["rate_per_s"] = len(push_run_s) / sum(stats.median(v) for v in push_run_s.values())
    oneshots = ledger.latencies("oneshot")
    outcome.figure("push_p50_ms", outcome.metrics["latency_p50_ms"], "ms")
    outcome.figure("push_p90_ms", outcome.metrics["latency_p90_ms"], "ms")
    outcome.figure("oneshot_p50_ms", stats.median(oneshots) * 1e3, "ms")
    outcome.figure("oneshot_p90_ms", stats.percentile(oneshots, 90) * 1e3, "ms")
    if stats.samples_beyond(len(oneshots), 99) >= stats.MIN_BEYOND:
        outcome.figure("oneshot_p99_ms", stats.percentile(oneshots, 99) * 1e3, "ms")
    outcome.figure("oneshot_samples", len(oneshots), "count")
    lag_figure(outcome, ledger.lags())
    outcome.figure("server.shed_total", server_stats.get("shed_total", 0), "count")
    if trace:
        from pbench import layers

        splits = [
            server_split(response, ledger.exchanges[payload["id"]].done, ledger.exchanges[payload["id"]].sent)
            for payload, response in answered
            if id(payload) in shape_of
        ]
        layers.server_layers(outcome, splits, server_stats)
        layers.registry_layers(outcome, server_metrics)
        await layers.replay(outcome, f"serve_stream-{seed}", shapes, list(TENANTS), stream_length=LENGTH)
    return outcome

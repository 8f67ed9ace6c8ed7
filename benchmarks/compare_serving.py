#!/usr/bin/env python
"""Compare two trees' served request rate, interleaved round by round.

Starts ``repro serve --port 0`` from each tree (``PYTHONPATH=<tree>/src``,
shipped defaults otherwise), warms each server with the twelve
``serve_light`` shapes (the six golden library models under ``is`` and
``smc`` at 1000 particles, compiled, read from ``bench/snapshots/v1.json``)
and with 300 tenants, then runs closed-loop chunks of 120 requests over two
connections, one request in flight on each.  Every round runs one chunk per
tree, with the same payloads, and flips which tree goes first, so a drift
in the machine's speed lands on both sides alike.  Prints each tree's median
chunk rate with its quartiles, its closed-loop latency p50, its server's
peak RSS (``VmHWM``, read after the last round) and its time from launch
to the listening banner, and the rounds the head won; exits 1 if any
response fails.

The shapes and the client are perfbench's own (``perfbench/pbench``), so
this probe drives the servers exactly as the ``serve_light`` workload does.

Usage::

    python benchmarks/compare_serving.py BASE_TREE HEAD_TREE [--rounds 30]

Both trees may be the same checkout (a smoke of the tool itself).
"""

from __future__ import annotations

import argparse
import asyncio
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from pbench.inputs import GOLDEN_MODELS, Inputs  # noqa: E402
from pbench.serving import (  # noqa: E402
    _BANNER,
    ServerProcess,
    child_env,
    close_all,
    closed_loop,
    open_connections,
)

ENGINES = ("is", "smc")
PARTICLES = 1000
TENANTS = 300
CHUNK = 120


class TreeServer(ServerProcess):
    """A ``repro serve`` process started from ``tree``'s sources."""

    def __init__(self, tree: Path, log_path: Path):
        super().__init__(log_path)
        self.tree = tree
        #: Seconds from launch to the listening banner.
        self.banner_s = 0.0

    def start(self) -> None:
        self._log = open(self.log_path, "ab")
        self.launched_at = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(self.tree),
            env=dict(child_env(), PYTHONPATH=str(self.tree / "src")),
        )
        for line in self.proc.stdout:
            match = _BANNER.search(line.decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(1))
                self.banner_s = time.monotonic() - self.launched_at
                return
        self.stop()
        log = self.log_path.read_text(encoding="utf-8", errors="replace")
        raise SystemExit(f"repro serve from {self.tree} did not start:\n{log[-2000:]}")


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


async def compare(trees: dict, rounds: int, logs: Path) -> int:
    rng = random.Random(0)
    shapes = Inputs().shapes(GOLDEN_MODELS, ENGINES, PARTICLES)
    tenants = [f"tenant-{i:03d}" for i in range(TENANTS)]
    servers, conns = {}, {}
    try:
        for side, tree in trees.items():
            servers[side] = TreeServer(Path(tree).resolve(), logs / f"{side}.log")
            servers[side].start()
            conns[side] = await open_connections(servers[side].port)
        failed = 0
        for side in servers:
            warm = [shapes[i % len(shapes)].payload(None, i, tenants[i]) for i in range(TENANTS)]
            results = await closed_loop(conns[side], warm, 1)
            failed += sum(response.get("ok") is not True for *_, response in results)
        rates = {side: [] for side in servers}
        latencies = {side: [] for side in servers}
        head_wins = 0
        for r in range(rounds):
            chunk = [
                rng.choice(shapes).payload(None, rng.randrange(2**31), rng.choice(tenants))
                for _ in range(CHUNK)
            ]
            for side in (list(servers) if r % 2 == 0 else list(reversed(list(servers)))):
                began = time.monotonic()
                results = await closed_loop(conns[side], chunk, 1)
                elapsed = time.monotonic() - began
                ok = [response.get("ok") is True for *_, response in results]
                failed += ok.count(False)
                rates[side].append(ok.count(True) / elapsed)
                latencies[side] += [received - sent for _, sent, received, _ in results]
            head_wins += rates["head"][-1] > rates["base"][-1]
        peak_rss = {side: server.peak_rss_mb() for side, server in servers.items()}
    finally:
        for side, server in servers.items():
            await close_all(conns.get(side, ()))
            server.stop()
    for side in servers:
        q1, median, q3 = quartiles(rates[side])
        p50 = statistics.median(latencies[side]) * 1e3
        print(f"{side} ({trees[side]}): rate {median:.0f} req/s "
              f"(quartiles {q1:.0f}-{q3:.0f}), closed-loop p50 {p50:.2f} ms, "
              f"peak RSS {peak_rss[side]:.1f} MB, "
              f"launch to banner {servers[side].banner_s:.2f} s")
    print(f"head won {head_wins}/{rounds} rounds; {failed} failed response(s)")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_tree")
    parser.add_argument("head_tree")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"base": args.base_tree, "head": args.head_tree}
    with tempfile.TemporaryDirectory(prefix="compare-serving-") as logs:
        return asyncio.run(compare(trees, args.rounds, Path(logs)))


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload under several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload serve_light --seeds 1-10 [--seconds 20] [--trace 0]

For every metric it prints the median, the quartiles and the distance
between the quartiles as a share of the median (``statistics.quantiles``
with ``n=4``), next to the bound from ``BENCHMARK.json``.  Runs are made one
after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pbench.stats import quartile_spread  # noqa: E402


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        began = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=str(HERE.parent))
        wall = time.monotonic() - began
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed} ({wall:.0f} s): "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = quartile_spread(vals)
        bound = bounds.get(name)
        print(f"{name:24s} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layered benchmark of the guide-typed inference service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_light --seed 1 --seconds 40 --trace 0

Workloads: ``serve_light`` and ``batch_kernel`` (the ones in
``BENCHMARK.json``), ``serve_stream`` and ``cold_programs`` (by hand only;
see ``perfbench/README.md``).
Every run starts fresh processes, sets up, measures for ``--seconds``,
checks every answer, prints each metric by name with its unit, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (from a separate traced pass).  The exit code is non-zero on any
wrong answer, and when the program under test is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from pbench.common import END_TO_END  # noqa: E402
from pbench.inputs import WORK, require_checkout  # noqa: E402

WORKLOADS = ("serve_light", "batch_kernel", "serve_stream", "cold_programs")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(outcome, trace: bool) -> dict:
    """Print every figure by name with its unit; return the result object."""
    from pbench.layers import PER_LAYER

    for name, unit in END_TO_END.items():
        if name in outcome.metrics:
            print(f"{name:28s} {outcome.metrics[name]:14.6f} {unit}")
    for name, (value, unit) in sorted(outcome.figures.items()):
        print(f"{name:28s} {value:14.6f} {unit}")
    for name, (value, unit) in sorted(outcome.layers.items()):
        print(f"{name:28s} {value:14.6f} {unit}")
    for problem in outcome.problems:
        print(f"WRONG: {problem}")
    if trace:
        metrics = {name: {"value": outcome.layers[name][0], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": outcome.wrong == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    module = importlib.import_module(f"pbench.{args.workload}")
    try:
        outcome = asyncio.run(module.run(args.seed, args.seconds, bool(args.trace)))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    outcome.finish()
    result = report(outcome, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

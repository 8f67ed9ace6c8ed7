#!/usr/bin/env python
"""Compare two trees' fixed-seed ``repro bench run`` answers point by point.

Every point's ``stats`` (posterior means, log evidence, ESS) is a pure
function of the seed, and JSON floats round-trip exactly, so two trees that
compute the same answers write identical stats.  Each argument is a
directory holding run directories, one ``results.json`` each, as written by
``repro bench run --out DIR/<row>``.  Prints every differing point, then the
count of identical ones, and exits 1 when any point differs.

Usage::

    python benchmarks/compare_answers.py BASE_DIR HEAD_DIR

The ``same-answers`` job in ``.github/workflows/ci.yml`` runs the eight
rows (220 points) on a pull request's base and head, in one environment, and
then this comparison.
"""

from __future__ import annotations

import json
import pathlib
import sys


def stats(root: str) -> dict:
    """``(row, model, engine, backend, particles, shards) -> stats`` for every point."""
    return {
        (run.name, p["model"], p["engine"], p["backend"], p["particles"], p["shards"]): p["stats"]
        for run in sorted(pathlib.Path(root).iterdir())
        for p in json.loads((run / "results.json").read_text())["points"]
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = stats(args[0]), stats(args[1])
    bad = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    print(*bad, f"{len(a) - len(bad)}/{len(a)} points identical", sep="\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""``repro bench evaluate``: scaling curves and the regression gates.

A *curve* is one ``(model, engine, backend, shards)`` slice of a run's sweep
points, ordered by particle count: accuracy (max golden absolute error
across sites) against wall time.  Evaluation applies two independent gates
to every curve and exits non-zero if either fires:

* **quality** — each golden site's error must satisfy
  ``abs_err <= quality_atol + quality_sigma * se``: an absolute floor from
  the snapshot plus a Monte-Carlo term scaled by the estimator's own
  standard error.  With ``quality_sigma = 5`` a correct estimator
  essentially never trips this, while a 5-sigma posterior shift always does.
* **speed** — against a pinned baseline, the geometric mean of per-point
  wall-time ratios must stay under ``speed_factor``.  The geometric mean
  makes the gate scale-free across particle counts, and points faster than
  ``min_wall_s`` in both runs are skipped so timer noise on microsecond
  points cannot fire it.

Quality is gated even without a baseline; speed needs one (written with
``--write-baseline``, which stores only curve shapes, never raw results).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench import results as bench_results
from repro.errors import ReproError

BASELINE_FORMAT = 1

#: Quality floor applied when a sweep point carries no snapshot atol.
DEFAULT_QUALITY_ATOL = 0.05


@dataclass(frozen=True)
class EvaluateConfig:
    """The gate thresholds (serialized into the evaluation report)."""

    #: Monte-Carlo slack: errors within ``atol + sigma * se`` pass.
    quality_sigma: float = 5.0
    #: Maximum tolerated geometric-mean wall-time ratio vs the baseline.
    speed_factor: float = 1.75
    #: Points faster than this in both runs are excluded from the speed gate.
    min_wall_s: float = 0.005


def curve_key(point: dict) -> str:
    """The curve a sweep point belongs to.

    Points from historical runs that swept compiled-backend tiers carry a
    ``jit`` field; their non-default tier is read back as a ``+tier`` suffix
    on the backend segment (``compiled+mega``), so such runs still gate as
    separate curves.  Current runs never write the field.
    """
    jit = point.get("jit", "none")
    backend = point["backend"] if jit == "none" else f"{point['backend']}+{jit}"
    return "{}/{}/{}/shards={}".format(
        point["model"], point["engine"], backend, point["shards"]
    )


def build_curves(results_doc: dict) -> List[dict]:
    """Group a run's sweep points into scaling curves.

    Each curve's points are sorted by particle count and carry the wall
    time, the worst golden site error, and that error's Monte-Carlo slack —
    everything the gates and the plots need, nothing machine-specific
    beyond the timings themselves.
    """
    grouped: Dict[str, List[dict]] = {}
    for point in results_doc.get("points", []):
        grouped.setdefault(curve_key(point), []).append(point)
    curves = []
    for key in sorted(grouped):
        points = sorted(grouped[key], key=lambda p: p["particles"])
        first = points[0]
        curve_points = []
        for point in points:
            atol = point.get("quality_atol")
            atol = DEFAULT_QUALITY_ATOL if atol is None else float(atol)
            sites = point.get("stats", {}).get("sites", {})
            record = {
                "particles": point["particles"],
                "wall_time_s": point["wall_time_s"],
                "quality_atol": atol,
            }
            if sites:
                worst = max(sites.values(), key=lambda s: s["abs_err"])
                record["max_abs_err"] = worst["abs_err"]
                record["max_err_se"] = worst["se"]
                record["sites"] = {
                    site: {"abs_err": stats["abs_err"], "se": stats["se"]}
                    for site, stats in sorted(sites.items())
                }
            curve_points.append(record)
        curves.append(
            {
                "key": key,
                "model": first["model"],
                "engine": first["engine"],
                "backend": first["backend"],
                **({"jit": first["jit"]} if first.get("jit", "none") != "none" else {}),
                "shards": first["shards"],
                "points": curve_points,
            }
        )
    return curves


def _quality_violations(curves: List[dict], config: EvaluateConfig) -> List[dict]:
    violations = []
    for curve in curves:
        for point in curve["points"]:
            for site, stats in (point.get("sites") or {}).items():
                allowed = point["quality_atol"] + config.quality_sigma * stats["se"]
                if stats["abs_err"] > allowed:
                    violations.append(
                        {
                            "gate": "quality",
                            "curve": curve["key"],
                            "particles": point["particles"],
                            "site": site,
                            "abs_err": stats["abs_err"],
                            "allowed": allowed,
                        }
                    )
    return violations


def _speed_violations(
    curves: List[dict], baseline_curves: List[dict], config: EvaluateConfig
) -> List[dict]:
    baseline_walls: Dict[Tuple[str, int], float] = {}
    for curve in baseline_curves:
        for point in curve["points"]:
            baseline_walls[(curve["key"], point["particles"])] = point["wall_time_s"]
    violations = []
    for curve in curves:
        log_ratios = []
        for point in curve["points"]:
            base = baseline_walls.get((curve["key"], point["particles"]))
            if base is None:
                continue
            if point["wall_time_s"] < config.min_wall_s and base < config.min_wall_s:
                continue
            # Floor both sides so a sub-resolution baseline timing cannot
            # manufacture an unbounded ratio.
            ratio = max(point["wall_time_s"], config.min_wall_s) / max(base, config.min_wall_s)
            log_ratios.append(math.log(ratio))
        if not log_ratios:
            continue
        geomean = math.exp(sum(log_ratios) / len(log_ratios))
        if geomean > config.speed_factor:
            violations.append(
                {
                    "gate": "speed",
                    "curve": curve["key"],
                    "wall_ratio_geomean": geomean,
                    "allowed": config.speed_factor,
                    "points_compared": len(log_ratios),
                }
            )
    return violations


def baseline_payload(curves: List[dict], snapshot: Optional[str]) -> dict:
    """The pinned-baseline document: curve shapes only."""
    return {"format": BASELINE_FORMAT, "snapshot": snapshot, "curves": curves}


def load_baseline(path: Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load benchmark baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != BASELINE_FORMAT:
        raise ReproError(
            f"benchmark baseline {path} has format {data.get('format')!r}; "
            f"this build reads format {BASELINE_FORMAT}"
        )
    return data


def evaluate_run(
    run_dir: Path,
    config: Optional[EvaluateConfig] = None,
    baseline: Optional[dict] = None,
) -> Tuple[dict, List[dict]]:
    """Evaluate one run directory; returns ``(report, violations)``.

    The report carries the curves, the thresholds, and every violation;
    an empty violation list means both gates passed.
    """
    config = config or EvaluateConfig()
    run_dir = Path(run_dir)
    results_file = run_dir / "results.json"
    try:
        results_doc = json.loads(results_file.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load benchmark results {results_file}: {exc}") from exc

    curves = build_curves(results_doc)
    if not curves:
        raise ReproError(f"benchmark results {results_file} contain no sweep points")

    violations = _quality_violations(curves, config)
    baseline_snapshot = None
    if baseline is not None:
        baseline_snapshot = baseline.get("snapshot")
        if baseline_snapshot != results_doc.get("snapshot"):
            violations.append(
                {
                    "gate": "baseline",
                    "curve": None,
                    "detail": (
                        f"baseline pinned against snapshot {baseline_snapshot!r}, "
                        f"run used {results_doc.get('snapshot')!r}"
                    ),
                }
            )
        violations.extend(_speed_violations(curves, baseline.get("curves", []), config))

    models = sorted({curve["model"] for curve in curves})
    report = {
        "run_dir": str(run_dir),
        "snapshot": results_doc.get("snapshot"),
        "seed": results_doc.get("seed"),
        "config": {
            "quality_sigma": config.quality_sigma,
            "speed_factor": config.speed_factor,
            "min_wall_s": config.min_wall_s,
        },
        "baseline_snapshot": baseline_snapshot,
        "models": models,
        "curve_count": len(curves),
        "curves": curves,
        "violations": violations,
        "passed": not violations,
    }
    return report, violations


def record_report(report: dict, path: Optional[str] = None) -> Path:
    """Pin the report's curves into ``BENCH_results.json`` (schema 3)."""
    tag = "bench:{}:seed={}".format(report.get("snapshot"), report.get("seed"))
    payload = {
        "run_dir": report["run_dir"],
        "passed": report["passed"],
        "violations": report["violations"],
        "curves": report["curves"],
    }
    return bench_results.record_curves(tag, payload, path)

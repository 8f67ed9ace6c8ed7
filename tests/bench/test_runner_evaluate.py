"""End-to-end tests of ``repro bench run`` / ``repro bench evaluate``.

A miniature sweep (two models, one engine ladder) exercises the whole
subsystem: deterministic per-point seeding, the per-run directory layout,
curve construction, both regression gates against injected failures, and
the schema-3 ``BENCH_results.json`` recording.
"""

from __future__ import annotations

import copy
import json
import math

import pytest

from repro.bench import results as bench_results
from repro.bench.evaluate import (
    EvaluateConfig,
    baseline_payload,
    build_curves,
    evaluate_run,
    load_baseline,
    record_report,
)
from repro.bench.runner import RunnerConfig, fast_config, point_seed, run_sweep
from repro.errors import ReproError

TINY = RunnerConfig(
    seed=0,
    particles=(60, 240),
    engines=("is",),
    backends=("interp",),
    shards=(1,),
    repeats=1,
    models=("weight", "mixture_width/3"),
)


def _strip_walls(points):
    return [{k: v for k, v in p.items() if k != "wall_time_s"} for p in points]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench_run")
    document = run_sweep(TINY, out_dir)
    return out_dir, document


def test_run_writes_the_per_run_directory(tiny_run):
    out_dir, document = tiny_run
    config = json.loads((out_dir / "config.json").read_text())
    results = json.loads((out_dir / "results.json").read_text())
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert config["snapshot"] == "v1"
    assert config["instances"] == ["mixture_width/3", "weight"]
    assert results == document
    assert len(document["points"]) == 2 * 1 * 1 * 1 * 2  # models x engine grid
    assert metrics["total_wall_s"] > 0
    assert isinstance(metrics["registry_delta"], dict)


def test_sweep_statistics_are_deterministic(tiny_run, tmp_path):
    _out, first = tiny_run
    second = run_sweep(TINY, tmp_path / "again")
    assert _strip_walls(first["points"]) == _strip_walls(second["points"])


def test_point_seed_is_positional_independent(tiny_run, tmp_path):
    """Filtering to one model never changes the other points' numbers."""
    _out, full = tiny_run
    import dataclasses

    solo = run_sweep(
        dataclasses.replace(TINY, models=("weight",)), tmp_path / "solo"
    )
    full_weight = [p for p in full["points"] if p["model"] == "weight"]
    assert _strip_walls(solo["points"]) == _strip_walls(full_weight)


def test_point_seed_depends_on_identity_not_order():
    a = point_seed(0, "weight/is/interp/shards=1/particles=60")
    b = point_seed(0, "weight/is/interp/shards=1/particles=240")
    c = point_seed(1, "weight/is/interp/shards=1/particles=60")
    assert len({a, b, c}) == 3
    assert all(0 <= s < 2**31 for s in (a, b, c))


def test_unknown_model_filter_is_a_repro_error(tmp_path):
    import dataclasses

    with pytest.raises(ReproError, match="unknown sweep model"):
        run_sweep(dataclasses.replace(TINY, models=("nope",)), tmp_path / "x")


def test_models_filter_reaches_runnable_entries_outside_the_sweep(tmp_path):
    """Any runnable snapshot entry can be named; one without a golden
    records its site-0 mean, so fixed-seed answers still compare."""
    import dataclasses

    config = dataclasses.replace(TINY, particles=(60,), models=("jump",))
    first = run_sweep(config, tmp_path / "a")
    (point,) = first["points"]
    assert point["model"] == "jump"
    assert "sites" not in point["stats"]
    assert math.isfinite(point["stats"]["site0_mean"])
    again = run_sweep(config, tmp_path / "b")
    assert _strip_walls(again["points"]) == _strip_walls(first["points"])
    with pytest.raises(ReproError, match="unknown sweep model"):
        run_sweep(dataclasses.replace(TINY, models=("dp",)), tmp_path / "c")


def test_guide_argument_entries_run_or_are_refused_up_front(tmp_path):
    """``vae``'s guide takes four arguments, pinned from its parameter
    inits, so it runs beside ``weight`` under every engine; ``outliers``'
    MCMC proposal guide takes an argument nothing pins, so naming it is
    refused before the run directory is written, with the reason."""
    import dataclasses

    config = dataclasses.replace(
        TINY, particles=(60,), engines=("is", "smc", "svi"), models=("weight", "vae")
    )
    document = run_sweep(config, tmp_path / "wv")
    assert {(p["model"], p["engine"]) for p in document["points"]} == {
        (model, engine) for model in ("weight", "vae") for engine in ("is", "smc", "svi")
    }
    with pytest.raises(ReproError, match="outliers is not runnable: .*old_is_outlier"):
        run_sweep(dataclasses.replace(TINY, models=("outliers",)), tmp_path / "ol")
    assert not (tmp_path / "ol").exists()


def test_fast_config_covers_issue_floor(tmp_path):
    """Fast mode still sweeps >= 6 snapshot models and >= 3 families."""
    config = fast_config(seed=0)
    document = run_sweep(config, tmp_path / "fast")
    models = {p["model"] for p in document["points"]}
    library = {m for m in models if "/" not in m}
    families = {m.split("/")[0] for m in models if "/" in m}
    assert len(library) >= 6
    assert len(families) >= 3


def test_build_curves_groups_and_sorts(tiny_run):
    _out, document = tiny_run
    curves = build_curves(document)
    assert len(curves) == 2
    for curve in curves:
        particles = [p["particles"] for p in curve["points"]]
        assert particles == sorted(particles)
        assert all("max_abs_err" in p for p in curve["points"])


def test_evaluate_passes_on_a_clean_run(tiny_run):
    out_dir, _document = tiny_run
    report, violations = evaluate_run(out_dir)
    assert violations == []
    assert report["passed"]
    assert report["curve_count"] == 2
    assert report["models"] == ["mixture_width/3", "weight"]


def test_evaluate_passes_against_its_own_baseline(tiny_run, tmp_path):
    out_dir, _document = tiny_run
    report, _ = evaluate_run(out_dir)
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(
        json.dumps(baseline_payload(report["curves"], report["snapshot"]))
    )
    _report, violations = evaluate_run(out_dir, baseline=load_baseline(baseline_file))
    assert violations == []


def _tampered_copy(document, tmp_path, *, wall_factor=1.0, shift_sigma=0.0):
    tampered = copy.deepcopy(document)
    for point in tampered["points"]:
        point["wall_time_s"] *= wall_factor
        for stats in point.get("stats", {}).get("sites", {}).values():
            stats["mean"] += shift_sigma * stats["se"] + (0.15 if shift_sigma else 0.0)
            stats["abs_err"] = abs(stats["mean"] - stats["golden"])
    run_dir = tmp_path / "tampered"
    run_dir.mkdir()
    (run_dir / "results.json").write_text(json.dumps(tampered))
    return run_dir


def test_quality_gate_fires_on_posterior_shift(tiny_run, tmp_path):
    """A 6-sigma + 0.15 shift on every site must trip the 5-sigma gate."""
    out_dir, document = tiny_run
    run_dir = _tampered_copy(document, tmp_path, shift_sigma=6.0)
    report, violations = evaluate_run(run_dir)
    assert not report["passed"]
    assert {v["gate"] for v in violations} == {"quality"}


def test_speed_gate_fires_on_wall_time_regression(tiny_run, tmp_path):
    """A uniform 2x wall-time regression must trip the 1.75x gate."""
    out_dir, document = tiny_run
    report, _ = evaluate_run(out_dir)
    baseline = baseline_payload(report["curves"], report["snapshot"])
    run_dir = _tampered_copy(document, tmp_path, wall_factor=2.0)
    # Tiny sweeps finish in microseconds; lower the timer-noise floor so the
    # injected ratio is actually compared.
    config = EvaluateConfig(min_wall_s=0.0)
    _report, violations = evaluate_run(run_dir, config, baseline=baseline)
    assert violations
    assert {v["gate"] for v in violations} == {"speed"}
    assert all(v["wall_ratio_geomean"] == pytest.approx(2.0, rel=1e-6) for v in violations)


def test_speed_gate_ignores_sub_resolution_points(tiny_run, tmp_path):
    """With the default floor, microsecond-scale points cannot fire the gate."""
    out_dir, document = tiny_run
    report, _ = evaluate_run(out_dir)
    baseline = baseline_payload(report["curves"], report["snapshot"])
    fast_walls = all(
        p["wall_time_s"] < EvaluateConfig().min_wall_s for p in document["points"]
    )
    run_dir = _tampered_copy(document, tmp_path, wall_factor=2.0)
    _report, violations = evaluate_run(run_dir, baseline=baseline)
    if fast_walls:
        assert violations == []


def test_snapshot_mismatch_is_a_baseline_violation(tiny_run, tmp_path):
    out_dir, _document = tiny_run
    report, _ = evaluate_run(out_dir)
    baseline = baseline_payload(report["curves"], "v0-other")
    _report, violations = evaluate_run(out_dir, baseline=baseline)
    assert any(v["gate"] == "baseline" for v in violations)


def test_record_report_writes_schema_3_curves(tiny_run, tmp_path, monkeypatch):
    out_dir, _document = tiny_run
    artifact = tmp_path / "BENCH_results.json"
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(artifact))
    report, _ = evaluate_run(out_dir)
    record_report(report)
    data = json.loads(artifact.read_text())
    assert data["schema"] == bench_results.SCHEMA_VERSION == 3
    (tag,) = data["curves"]
    assert tag == "bench:v1:seed=0"
    assert data["curves"][tag]["passed"] is True
    assert len(data["curves"][tag]["curves"]) == 2


def test_curve_history_is_bounded(tmp_path):
    artifact = tmp_path / "BENCH_results.json"
    for i in range(bench_results.MAX_CURVE_SETS + 3):
        bench_results.record_curves(f"tag-{i}", {"i": i}, str(artifact))
    data = json.loads(artifact.read_text())
    assert len(data["curves"]) == bench_results.MAX_CURVE_SETS
    assert f"tag-{bench_results.MAX_CURVE_SETS + 2}" in data["curves"]
    assert "tag-0" not in data["curves"]


def test_evaluate_rejects_an_empty_run(tmp_path):
    run_dir = tmp_path / "empty"
    run_dir.mkdir()
    (run_dir / "results.json").write_text(json.dumps({"snapshot": "v1", "points": []}))
    with pytest.raises(ReproError, match="no sweep points"):
        evaluate_run(run_dir)

"""The pinned benchmark snapshot: completeness and drift.

Two invariants keep ``bench/snapshots/v1.json`` honest: *completeness* —
every benchmark the library registers (including the streaming families)
has a snapshot entry, so nothing is silently dropped from the public
surface — and *freshness* — the committed file is byte-identical to what
``build_snapshot`` derives from the live code, so any model, family, or
derivation change forces an explicit, reviewable snapshot diff.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.snapshot import (
    FAMILY_SIZES,
    GOLDEN_LIBRARY,
    SNAPSHOT_FORMAT,
    build_snapshot,
    default_snapshot_path,
    family_instance_name,
    load_snapshot,
    render_snapshot,
    sweep_models,
)
from repro.errors import ReproError
from repro.models.library import STREAMING_FAMILIES, all_benchmarks


@pytest.fixture(scope="module")
def snapshot():
    return load_snapshot()


def test_every_library_benchmark_is_in_the_snapshot(snapshot):
    missing = [b.name for b in all_benchmarks() if b.name not in snapshot["models"]]
    assert missing == []


def test_every_streaming_family_is_in_the_snapshot(snapshot):
    for name in STREAMING_FAMILIES:
        assert name in snapshot["models"]
        assert snapshot["models"][name]["kind"] == "library"


def test_every_parameterized_instance_is_in_the_snapshot(snapshot):
    for family, sizes in FAMILY_SIZES.items():
        for size in sizes:
            name = family_instance_name(family, size)
            entry = snapshot["models"].get(name)
            assert entry is not None, name
            assert entry["kind"] == "family"
            assert entry["golden"], name


def test_pinned_snapshot_matches_live_code():
    """Bit-for-bit drift guard (the same check as `repro bench snapshot`)."""
    pinned = default_snapshot_path().read_text(encoding="utf-8")
    assert pinned == render_snapshot(), (
        "bench/snapshots/v1.json is stale; regenerate with "
        "'repro bench snapshot --write' and review the diff"
    )


def test_snapshot_format_is_pinned(snapshot):
    assert snapshot["format"] == SNAPSHOT_FORMAT
    assert snapshot["snapshot"] == "v1"


def test_sweep_covers_issue_floor(snapshot):
    """>= 6 snapshot library models and >= 3 parameterized families."""
    swept = sweep_models(snapshot)
    library = [n for n, e in swept.items() if e["kind"] == "library"]
    families = {e["family"] for e in swept.values() if e["kind"] == "family"}
    assert len(library) >= 6
    assert len(families) >= 3
    assert set(library) == set(GOLDEN_LIBRARY)


def test_sweep_entries_are_runnable_with_golden_and_tolerance(snapshot):
    for name, entry in sweep_models(snapshot).items():
        assert entry["runnable"], name
        assert entry["golden"], name
        assert entry["quality_atol"] is not None, name
        assert entry["model_source"], name
        assert entry["guide_source"], name


def test_non_expressible_entries_carry_a_reason(snapshot):
    reasons = {
        name: entry.get("reason")
        for name, entry in snapshot["models"].items()
        if not entry["runnable"]
    }
    assert reasons, "expected at least one non-runnable entry (dp)"
    assert all(reasons.values()), reasons


def test_runnable_entries_pin_every_guide_argument(snapshot):
    """A runnable entry's ``guide_args`` cover its guide's parameters, so a
    sweep that names it can start; an entry whose guide needs more is pinned
    as not runnable, with the missing parameters in its reason."""
    from repro.core.parser import parse_program

    for name, entry in snapshot["models"].items():
        if entry["kind"] != "library" or entry["guide_source"] is None:
            continue
        guide = parse_program(entry["guide_source"])
        if entry["guide_entry"] is None:
            continue
        params = guide.procedure(entry["guide_entry"]).params
        if entry["runnable"]:
            assert len(entry["guide_args"]) == len(params), name
        elif len(params) > len(entry["guide_args"]):
            assert params[-1] in entry["reason"], name
    assert snapshot["models"]["vae"]["guide_args"] == [0.0, 0.0, 0.0, 0.0]
    assert snapshot["models"]["weight"]["guide_args"] == [8.5, 0.0]
    assert not snapshot["models"]["outliers"]["runnable"]


def test_load_snapshot_rejects_unknown_format(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"snapshot": "v9", "format": 99, "models": {}}))
    with pytest.raises(ReproError, match="format"):
        load_snapshot(bad)


def test_build_snapshot_is_deterministic():
    assert build_snapshot() == build_snapshot()

"""The versioned benchmark snapshot: ``bench/snapshots/v1.json``.

A snapshot is a self-contained, reviewable pin of everything a benchmark run
depends on: every library model's sources and observation data, exact golden
posterior site means where conjugacy/enumeration provides them (derived by
:mod:`repro.bench.golden`, never by an engine), and the emitted sources of
the parameterized families from :func:`repro.fuzz.generator.synthesize_family`.
``build_snapshot`` recomputes the document from the live code;
``tests/bench/test_snapshot.py`` asserts the committed file matches it
byte-for-byte, so any change to a model, a family emitter, or a derivation
shows up as an explicit snapshot diff — the NormBench discipline of dataset
snapshots applied to model programs.

Snapshot entries carry ``in_sweep`` (the default sweep benchmarks them) and
``runnable`` (the pair can execute at all, so a sweep may name it); ``dp``
is pinned as non-expressible so the registry's paper-fidelity row is
versioned too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench import golden
from repro.errors import ReproError
from repro.fuzz.generator import (
    BENCH_FAMILIES,
    HMM_CHAIN_EMIT_MEANS,
    HMM_CHAIN_EMIT_STD,
    HMM_CHAIN_INIT_P,
    HMM_CHAIN_TRANS_P,
    MIXTURE_COMPONENT_SPACING,
    MIXTURE_EMIT_STD,
    RECURSION_OBS_STD,
    RECURSION_STEP_STD,
    mixture_weights,
    recursion_cont_p,
    synthesize_family,
)
from repro.fuzz.oracles import default_obs_values
from repro.models.library import STREAMING_FAMILIES, all_benchmarks

SNAPSHOT_NAME = "v1"
SNAPSHOT_FORMAT = 1

#: Library models whose exact posterior the snapshot pins; these are the
#: default sweep set alongside the parameterized families.
GOLDEN_LIBRARY = ("weight", "coin", "sprinkler", "burglary", "hmm", "kalman", "stream_rw")

#: The sizes each parameterized family is pinned at.
FAMILY_SIZES: Dict[str, tuple] = {
    "hmm_chain": (4, 8, 12),
    "mixture_width": (3, 5, 9),
    "recursion_depth": (2, 4, 6),
}

#: Per-model absolute error floor for the quality gate (on top of the
#: sigma-scaled Monte-Carlo term); calibrated like the conformance suite's
#: tolerances at 4000 particles.
_QUALITY_ATOL = {
    "weight": 0.1,
    "coin": 0.04,
    "sprinkler": 0.04,
    "burglary": 0.04,
    "hmm": 0.05,
    "kalman": 0.12,
    "stream_rw": 0.12,
    "hmm_chain": 0.05,
    "mixture_width": 0.05,
    "recursion_depth": 0.12,
}


def _round6(value: float) -> float:
    """Golden values are pinned at 6 decimals so the snapshot is stable
    across BLAS/numpy builds (the derivations agree far beyond that)."""
    return float(round(float(value), 6))


def _library_golden(name: str, obs_values: tuple) -> Dict[str, float]:
    """Exact posterior site means for one golden library model."""
    if name == "weight":
        # Prior N(8.5, 1), likelihood N(w, 0.75) — models/library.py.
        return {"0": _round6(golden.normal_normal_posterior_mean(8.5, 1.0, 0.75, obs_values))}
    if name == "coin":
        # Prior Beta(2, 2) on the bias.
        return {"0": _round6(golden.beta_bernoulli_posterior_mean(2.0, 2.0, obs_values))}
    if name == "sprinkler":
        # rain ~ Ber(0.2), sprinkler ~ Ber(0.01 | 0.4), CPT from the model.
        rain, sprinkler = golden.enumerate_two_bernoulli(
            0.2,
            (0.01, 0.4),
            {(True, True): 0.99, (True, False): 0.8, (False, True): 0.9, (False, False): 0.05},
            observed=bool(obs_values[0]),
        )
        return {"0": _round6(rain), "1": _round6(sprinkler)}
    if name == "burglary":
        # burglary ~ Ber(0.01), earthquake ~ Ber(0.02), alarm CPT from the model.
        burglary, earthquake = golden.enumerate_two_bernoulli(
            0.01,
            (0.02, 0.02),
            {(True, True): 0.95, (True, False): 0.94, (False, True): 0.29, (False, False): 0.01},
            observed=bool(obs_values[0]),
        )
        return {"0": _round6(burglary), "1": _round6(earthquake)}
    if name == "hmm":
        # s1 ~ Ber(0.5), transitions 0.7/0.3, emissions N(±1, 1).
        smoothed = golden.binary_hmm_smoothed(0.5, (0.7, 0.3), (1.0, -1.0), 1.0, obs_values)
        return {str(i): _round6(m) for i, m in enumerate(smoothed)}
    if name in ("kalman", "stream_rw"):
        # x1 ~ N(0, 1), x_t ~ N(x_{t-1}, 1), y_t ~ N(x_t, 0.5).
        smoothed = golden.linear_gaussian_smoothed(0.0, 1.0, 1.0, 0.5, obs_values)
        return {str(i): _round6(m) for i, m in enumerate(smoothed)}
    raise ReproError(f"no golden derivation registered for library model {name!r}")


def _family_golden(family: str, size: int, obs_values: tuple) -> Dict[str, float]:
    """Exact posterior site means for one parameterized family instance."""
    if family == "hmm_chain":
        smoothed = golden.binary_hmm_smoothed(
            HMM_CHAIN_INIT_P, HMM_CHAIN_TRANS_P, HMM_CHAIN_EMIT_MEANS,
            HMM_CHAIN_EMIT_STD, obs_values,
        )
        return {str(i): _round6(m) for i, m in enumerate(smoothed)}
    if family == "mixture_width":
        mean = golden.mixture_index_posterior_mean(
            mixture_weights(size),
            [MIXTURE_COMPONENT_SPACING * k for k in range(size)],
            MIXTURE_EMIT_STD,
            float(obs_values[0]),
        )
        return {"0": _round6(mean)}
    if family == "recursion_depth":
        mean = golden.geometric_walk_first_step_mean(
            recursion_cont_p(size), RECURSION_STEP_STD, RECURSION_OBS_STD,
            float(obs_values[0]),
        )
        return {"0": _round6(mean)}
    raise ReproError(f"no golden derivation registered for family {family!r}")


def family_instance_name(family: str, size: int) -> str:
    """The snapshot key of one family instance, e.g. ``hmm_chain/8``."""
    return f"{family}/{size}"


def _json_obs(obs_values: tuple) -> List[object]:
    """Observation tuples as plain JSON scalars (bools stay bools)."""
    out: List[object] = []
    for value in obs_values:
        if isinstance(value, bool):
            out.append(value)
        elif isinstance(value, int):
            out.append(int(value))
        else:
            out.append(float(value))
    return out


def build_snapshot() -> dict:
    """Recompute the full snapshot document from the live code."""
    models: Dict[str, dict] = {}
    for bench in all_benchmarks():
        runnable = bench.expressible and bench.inference is not None
        entry = {
            "kind": "library",
            "description": bench.description,
            "runnable": runnable,
            "in_sweep": bench.name in GOLDEN_LIBRARY,
            "recursive": bench.recursive,
            "model_source": bench.model_source,
            "model_entry": bench.model_entry,
            "guide_source": bench.guide_source,
            "guide_entry": bench.guide_entry,
            "obs_values": _json_obs(bench.obs_values),
            "guide_args": [],
            "golden": None,
            "quality_atol": None,
        }
        if not bench.expressible:
            entry["reason"] = "not expressible in the coroutine calculus (paper Table 1)"
        elif bench.inference is None:
            entry["reason"] = "no observation protocol registered (prior-only example)"
        if bench.name == "weight":
            # The weight guide takes (loc, log_scale); the conformance suite
            # runs it fixed at the prior's location.
            entry["guide_args"] = [8.5, 0.0]
        if bench.name in GOLDEN_LIBRARY:
            entry["golden"] = _library_golden(bench.name, bench.obs_values)
            entry["quality_atol"] = _QUALITY_ATOL[bench.name]
        models[bench.name] = entry

    # STREAMING_FAMILIES members are registered benchmarks too (stream_rw's
    # 4-step unroll); assert rather than silently pinning a partial surface.
    for name in STREAMING_FAMILIES:
        if name not in models:
            raise ReproError(f"streaming family {name!r} missing from the benchmark registry")

    for family in BENCH_FAMILIES:
        for size in FAMILY_SIZES[family]:
            case = synthesize_family(family, size)
            obs_values = default_obs_values(case)
            models[family_instance_name(family, size)] = {
                "kind": "family",
                "family": family,
                "size": size,
                "description": f"synthesized {family} instance at size {size}",
                "runnable": True,
                "in_sweep": True,
                "recursive": family == "recursion_depth",
                "model_source": case.model_source,
                "model_entry": None,
                "guide_source": case.guide_source,
                "guide_entry": None,
                "obs_values": _json_obs(obs_values),
                "guide_args": [],
                "golden": _family_golden(family, size, obs_values),
                "quality_atol": _QUALITY_ATOL[family],
            }

    return {
        "snapshot": SNAPSHOT_NAME,
        "format": SNAPSHOT_FORMAT,
        "models": models,
    }


def render_snapshot(snapshot: Optional[dict] = None) -> str:
    """The canonical byte representation the pinned file must match."""
    return json.dumps(snapshot or build_snapshot(), indent=2, sort_keys=True) + "\n"


def default_snapshot_path() -> Path:
    """``bench/snapshots/v1.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "bench" / "snapshots" / f"{SNAPSHOT_NAME}.json"


def write_snapshot(path: Optional[Path] = None) -> Path:
    """Regenerate the pinned snapshot file (run after intentional changes)."""
    path = Path(path) if path is not None else default_snapshot_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_snapshot(), encoding="utf-8")
    return path


def load_snapshot(path: Optional[Path] = None) -> dict:
    """Load a snapshot document, validating its format pin."""
    path = Path(path) if path is not None else default_snapshot_path()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load benchmark snapshot {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != SNAPSHOT_FORMAT:
        raise ReproError(
            f"benchmark snapshot {path} has format {data.get('format')!r}; "
            f"this build reads format {SNAPSHOT_FORMAT}"
        )
    return data


def runnable_models(snapshot: dict) -> Dict[str, dict]:
    """Every snapshot entry whose pair can execute, in name order."""
    return {
        name: entry
        for name, entry in sorted(snapshot["models"].items())
        if entry.get("runnable")
    }


def sweep_models(snapshot: dict) -> Dict[str, dict]:
    """The snapshot entries the default sweep benchmarks, in name order."""
    return {name: entry for name, entry in runnable_models(snapshot).items() if entry.get("in_sweep")}

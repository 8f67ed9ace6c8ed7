"""``repro bench run``: sweep the snapshot across the engine/runtime grid.

Every sweep point is one ``session.infer`` call pinned by a deterministic
seed derived from the root seed and the point's identity — not its position
in the sweep — so filtering models or engines never changes another point's
numbers, and re-running with the same seed reproduces every statistic
bit-for-bit.  Wall time is best-of-``repeats`` and recorded *next to* the
statistics, never mixed into them: ``results.json`` separates the
deterministic ``stats`` subtree (posterior means, Monte-Carlo standard
errors, golden errors, ESS, log evidence) from the machine-dependent timing
fields, which is what lets the evaluate step gate quality and speed
independently.

A run leaves a per-run directory behind (the NormBench layout):

* ``config.json``  — the resolved sweep configuration and snapshot pin,
* ``results.json`` — one record per sweep point,
* ``metrics.json`` — the observability registry's delta over the run.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.snapshot import (
    FAMILY_SIZES,
    GOLDEN_LIBRARY,
    family_instance_name,
    load_snapshot,
    runnable_models,
    sweep_models,
)
from repro.engine.session import ProgramSession
from repro.errors import ReproError
from repro.obs import REGISTRY
from repro.utils.numerics import weighted_mean_se

#: The engines the public benchmark sweeps (each a different estimator of
#: the same posterior; ``svi`` runs its fixed-guide final pass — no
#: optimisation — so the grid stays a pure function of the seed).
SWEEP_ENGINES = ("is", "smc", "svi")


@dataclass(frozen=True)
class RunnerConfig:
    """One sweep's resolved knobs (serialized verbatim into ``config.json``)."""

    seed: int = 0
    particles: Tuple[int, ...] = (250, 1000, 4000)
    engines: Tuple[str, ...] = SWEEP_ENGINES
    backends: Tuple[str, ...] = ("interp", "compiled")
    shards: Tuple[int, ...] = (1, 2)
    repeats: int = 2
    #: Optional instance-name filter over the runnable snapshot entries
    #: (None = every in-sweep entry).
    models: Optional[Tuple[str, ...]] = None
    fast: bool = False


def fast_config(seed: int = 0) -> RunnerConfig:
    """The CI smoke shape: small particle ladder, one shard count, one repeat."""
    return RunnerConfig(
        seed=seed,
        particles=(100, 400),
        shards=(1,),
        repeats=1,
        fast=True,
    )


def _fast_instances() -> Tuple[str, ...]:
    """Fast mode keeps every golden library model and the smallest size of
    each family — still >= 6 snapshot models and >= 3 families."""
    return GOLDEN_LIBRARY + tuple(
        family_instance_name(family, min(sizes)) for family, sizes in sorted(FAMILY_SIZES.items())
    )


def point_seed(root_seed: int, key: str) -> int:
    """A deterministic per-point seed from the root seed and the point key.

    CRC32 of the key mixed with the root seed: independent of sweep order
    and of which other points the run includes.
    """
    return (zlib.crc32(key.encode("utf-8")) ^ (int(root_seed) * 0x9E3779B1)) & 0x7FFFFFFF


def _site_population(result, site: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(site values, log weights)`` population behind an engine result
    (same extraction as the fuzz oracles, generalized to any site index)."""
    raw = getattr(result, "final_pass", None) or result.raw
    run = raw.run if hasattr(raw, "run") else raw
    return run.site_values(site), np.asarray(raw.log_weights)


def _best_of(repeats: int, thunk):
    """Best-of-N wall time (mirrors ``benchmarks/_record.best_of``, which
    lives outside the installed package)."""
    best, result = float("inf"), None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - start)
    return best, result


def _request_kwargs(engine: str, entry: dict, particles: int, backend: str,
                    shards: int, seed: int) -> dict:
    kwargs = dict(
        num_particles=particles,
        obs_values=tuple(entry["obs_values"]) or None,
        seed=seed,
        backend=backend,
        shards=shards,
        guide_args=tuple(entry["guide_args"]),
    )
    if engine == "svi":
        # Fixed-guide mode: no guide_params means no optimisation — the
        # engine runs one posterior pass through the guide as given.
        kwargs["final_particles"] = particles
    return kwargs


def _point_stats(result, entry: dict) -> dict:
    """The deterministic statistics of one sweep point."""
    stats: Dict[str, object] = {}
    log_evidence = result.log_evidence()
    if log_evidence is not None:
        stats["log_evidence"] = float(log_evidence)
    ess = result.effective_sample_size()
    if ess is not None:
        stats["ess"] = float(ess)
    sites: Dict[str, dict] = {}
    for site_key, exact in (entry.get("golden") or {}).items():
        values, log_weights = _site_population(result, int(site_key))
        mean, se = weighted_mean_se(values, log_weights)
        sites[site_key] = {
            "mean": float(mean),
            "se": float(se),
            "golden": float(exact),
            "abs_err": float(abs(mean - exact)),
        }
    if sites:
        stats["sites"] = sites
    else:
        # No golden to score against; the site-0 mean still pins the answer.
        stats["site0_mean"] = float(result.posterior_mean(0))
    return stats


def run_sweep(
    config: RunnerConfig,
    out_dir: Path,
    snapshot_path: Optional[Path] = None,
    progress=None,
) -> dict:
    """Execute the sweep and write the per-run directory.

    Returns the ``results.json`` document.  ``progress``, when given, is
    called with one line per completed sweep point.
    """
    snapshot = load_snapshot(snapshot_path)
    instances = sweep_models(snapshot)
    wanted = config.models
    if wanted is None and config.fast:
        wanted = _fast_instances()
    if wanted is not None:
        runnable = runnable_models(snapshot)
        missing = sorted(set(wanted) - set(runnable))
        if missing:
            unknown = [name for name in missing if name not in snapshot["models"]]
            problems = [f"unknown sweep model(s) {unknown}"] if unknown else []
            problems += [
                f"not runnable: {name} ({snapshot['models'][name]['reason']})"
                for name in missing
                if name in snapshot["models"]
            ]
            raise ReproError(f"{'; '.join(problems)}; available: {', '.join(runnable)}")
        instances = {name: runnable[name] for name in wanted}

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(
            {
                "snapshot": snapshot.get("snapshot"),
                "snapshot_format": snapshot.get("format"),
                "config": asdict(config),
                "instances": sorted(instances),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    mark = REGISTRY.mark()
    started = time.perf_counter()
    points: List[dict] = []
    sessions: Dict[str, ProgramSession] = {}
    for name, entry in instances.items():
        session = sessions.get(name)
        if session is None:
            session = ProgramSession.from_sources(
                entry["model_source"],
                entry["guide_source"],
                model_entry=entry.get("model_entry"),
                guide_entry=entry.get("guide_entry"),
            )
            sessions[name] = session
        for engine in config.engines:
            for backend in config.backends:
                for shards in config.shards:
                    for particles in config.particles:
                        key = f"{name}/{engine}/{backend}/shards={shards}/particles={particles}"
                        seed = point_seed(config.seed, key)
                        kwargs = _request_kwargs(engine, entry, particles, backend, shards, seed)
                        wall, result = _best_of(
                            config.repeats, lambda: session.infer(engine, **kwargs)
                        )
                        diagnostics = result.diagnostics()
                        point = {
                            "model": name,
                            "engine": engine,
                            "backend": backend,
                            "shards": shards,
                            "particles": particles,
                            "seed": seed,
                            "wall_time_s": wall,
                            "backend_used": diagnostics.get("backend", "interp"),
                            "fallback_reason": diagnostics.get("fallback_reason"),
                            "quality_atol": entry.get("quality_atol"),
                            "stats": _point_stats(result, entry),
                        }
                        points.append(point)
                        if progress is not None:
                            progress(
                                f"{key}: wall={wall * 1e3:.1f}ms"
                                + (
                                    f" max_err={max(s['abs_err'] for s in point['stats']['sites'].values()):.4f}"
                                    if "sites" in point["stats"]
                                    else ""
                                )
                            )

    document = {
        "snapshot": snapshot.get("snapshot"),
        "seed": config.seed,
        "points": points,
    }
    (out_dir / "results.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    delta = REGISTRY.delta(mark)
    (out_dir / "metrics.json").write_text(
        json.dumps(
            {"total_wall_s": time.perf_counter() - started, "registry_delta": delta},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return document

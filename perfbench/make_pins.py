"""Regenerate the benchmark's pinned data files in ``perfbench/data/``.

``pins.json`` holds the posterior standard deviations that scale the 5-sigma
answer tolerance: for the golden snapshot models, a weighted standard
deviation from a 400k-particle importance run; for the last state of a
``stream_rw`` journal of each length 1..64, the exact value from the
linear-Gaussian precision matrix (it does not depend on the observed values).

``cold_pool.json`` holds the ``cold_programs`` pool: a seeded draw of
fuzz-generated pairs plus ``hmm_chain`` family instances of up to 64 sites,
kept only when they certify and answer.  The pool is pinned as source text
so that a later change to the generator cannot move the workload.

Run from the repository root:  ``PYTHONPATH=src python3 perfbench/make_pins.py``
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pbench.inputs import DATA, GOLDEN_MODELS, RECURSION_MODEL, SNAPSHOT, load_json  # noqa: E402

#: The draw that fills the pool (changing it changes the workload).
POOL_SEED = 20260
FUZZ_PAIRS = 80
CHAIN_PAIRS = 48
#: Request settings of every cold program (pinned with the pool).
COLD_PARTICLES = 256
COLD_ENGINE = "is"
MAX_SITES = 64


def _weighted_sd(values: np.ndarray, log_weights: np.ndarray) -> float:
    w = np.exp(log_weights - np.max(log_weights))
    w /= w.sum()
    mean = float(np.dot(w, values))
    return float(math.sqrt(max(np.dot(w, (values - mean) ** 2), 0.0)))


def posterior_sds(snapshot: dict) -> dict:
    from repro.engine.session import ProgramSession

    out = {}
    for name in GOLDEN_MODELS + (RECURSION_MODEL,):
        entry = snapshot[name]
        session = ProgramSession.from_sources(
            entry["model_source"], entry["guide_source"],
            model_entry=entry.get("model_entry"), guide_entry=entry.get("guide_entry"),
        )
        result = session.infer(
            "is", num_particles=400_000, obs_values=tuple(entry["obs_values"]),
            guide_args=tuple(entry["guide_args"]), backend="compiled", seed=12345,
        )
        run = result.raw.run
        log_weights = np.asarray(result.raw.log_weights)
        out[name] = {
            site: round(_weighted_sd(np.asarray(run.site_values(int(site)), dtype=float), log_weights), 6)
            for site in entry["golden"]
        }
    return out


def stream_last_sds(max_len: int = MAX_SITES) -> list:
    """Exact sd of x_T given y_1..y_T for x1~N(0,1), x_t~N(x_{t-1},1), y~N(x,0.5)."""
    out = []
    for n in range(1, max_len + 1):
        precision = np.zeros((n, n))
        precision[0, 0] += 1.0
        for t in range(1, n):
            precision[t, t] += 1.0
            precision[t - 1, t - 1] += 1.0
            precision[t, t - 1] -= 1.0
            precision[t - 1, t] -= 1.0
        precision += np.eye(n) / 0.25
        out.append(round(float(math.sqrt(np.linalg.inv(precision)[-1, -1])), 6))
    return out


def _answer(session, obs_values, seed):
    result = session.infer(
        COLD_ENGINE, num_particles=COLD_PARTICLES, obs_values=tuple(obs_values) or None,
        backend="compiled", seed=seed,
    )
    return float(result.posterior_mean(0)), float(result.effective_sample_size())


def cold_pool() -> list:
    from repro.bench import golden
    from repro.engine.session import ProgramSession
    from repro.errors import ReproError
    from repro.fuzz import generate
    from repro.fuzz import generator as gen
    from repro.fuzz.oracles import default_obs_values

    rng = np.random.default_rng(POOL_SEED)
    pairs = []
    candidates = []
    for size in sorted(rng.choice(np.arange(4, MAX_SITES + 1), size=CHAIN_PAIRS, replace=False)):
        candidates.append((f"hmm_chain/{int(size)}", gen.synthesize_family("hmm_chain", int(size))))
    fuzz_seeds = rng.choice(np.arange(1, 1_000_000), size=4 * FUZZ_PAIRS, replace=False)
    fuzz = [(f"fuzz/{int(s)}", generate(int(s))) for s in fuzz_seeds]
    kept_fuzz = 0
    for name, case in candidates + fuzz:
        if name.startswith("fuzz/") and kept_fuzz >= FUZZ_PAIRS:
            break
        obs_values = list(default_obs_values(case))
        seed = int(rng.integers(0, 2**31 - 1))
        try:
            session = ProgramSession.from_sources(case.model_source, case.guide_source)
            if not session.certified:
                continue
            mean, ess = _answer(session, obs_values, seed)
        except (ReproError, ValueError, ZeroDivisionError, FloatingPointError):
            continue
        if not math.isfinite(mean):
            continue
        entry = {
            "name": name,
            "model": case.model_source,
            "guide": case.guide_source,
            "obs_values": list(obs_values),
            "seed": seed,
            "expected": {"0": mean},
        }
        if name.startswith("hmm_chain/"):
            smoothed = golden.binary_hmm_smoothed(
                gen.HMM_CHAIN_INIT_P, gen.HMM_CHAIN_TRANS_P, gen.HMM_CHAIN_EMIT_MEANS,
                gen.HMM_CHAIN_EMIT_STD, obs_values,
            )
            m = smoothed[0]
            entry["golden"] = {"0": round(m, 6)}
            entry["posterior_sd"] = {"0": round(math.sqrt(max(m * (1 - m), 0.0)), 6)}
        else:
            kept_fuzz += 1
        pairs.append(entry)
    return pairs


def main() -> int:
    snapshot = load_json(SNAPSHOT)["models"]
    DATA.mkdir(parents=True, exist_ok=True)
    pins = {"posterior_sd": posterior_sds(snapshot), "stream_rw_last_sd": stream_last_sds()}
    (DATA / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    pool = {
        "seed": POOL_SEED,
        "engine": COLD_ENGINE,
        "particles": COLD_PARTICLES,
        "quality_atol": 0.05,
        "pairs": cold_pool(),
    }
    (DATA / "cold_pool.json").write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(pool['pairs'])} cold pairs and {len(pins['posterior_sd'])} model sds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``batch_kernel``: one in-process caller of ``ProgramSession.infer``, closed loop.

The program under test is a fresh child process that prepares every shape,
warms each once, then runs whole passes over the shapes (in a seeded order
per pass) until ``seconds`` have elapsed.  Shapes: the golden models plus
the divergent-control-flow ``switching`` and ``jump`` and one recursion
family instance (which falls back to the interpreter), under ``is``,
``smc`` and ``svi`` at :data:`PARTICLES` particles.  No serving layer runs,
so nearly all of the time is the particle kernel and the engine.

Each shape keeps one engine seed, derived from the shape alone, so its
answers must be bit-identical from pass to pass (and from run to run);
golden shapes are also checked against the snapshot.  The run seed only
orders the shapes within each pass: SMC's resampling and rejuvenation make
a run's cost depend on its engine seed, and a seed-dependent workload would
move with the seed rather than with the code.

The figures are medians over windows of :data:`WINDOW_PASSES` consecutive
passes (each window holds every shape the same number of times, and enough
calls for its p90), so a slow spell of the machine during part of the run
hardly moves them.

Run as a script, this module is the child (it reads its settings as JSON
from ``argv[1]`` and prints one JSON line).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import zlib
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from pbench import answers, stats  # noqa: E402
from pbench.common import Outcome, lag_figure, latency_metrics  # noqa: E402
from pbench.inputs import DIVERGENT_MODELS, GOLDEN_MODELS, RECURSION_MODEL, Inputs  # noqa: E402
from pbench.serving import child_env, vm_hwm_mb  # noqa: E402

PARTICLES = 20_000
ENGINES = ("is", "smc", "svi")
MODELS = GOLDEN_MODELS + DIVERGENT_MODELS + (RECURSION_MODEL,)
SETUPS = 3
#: Passes per window: 4 x 27 calls, so a window's p90 has ten beyond it.
WINDOW_PASSES = 4
MIN_PASSES = 3 * WINDOW_PASSES


def shape_seed(key: str) -> int:
    return zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF


def _answer(result, shape) -> dict:
    return {
        "means": [float(result.posterior_mean(site)) for site in shape.sites],
        "ess": result.effective_sample_size(),
        "ess_history": list(result.diagnostics().get("ess_history") or ()),
    }


def child(config: dict) -> dict:
    """Set up, then run timed passes; returns the raw record."""
    from repro.engine.session import ProgramSession

    inputs = Inputs()
    shapes = inputs.shapes(MODELS, ENGINES, PARTICLES)
    seeds = {s.key: shape_seed(s.key) for s in shapes}

    def call(shape):
        session = ProgramSession.from_sources(
            shape.model, shape.guide, model_entry=shape.model_entry, guide_entry=shape.guide_entry
        )
        return session.infer(shape.engine, **_fields(shape, seeds[shape.key]))

    for shape in shapes:  # warm-up: sessions, kernels, first-call costs
        call(shape)
    record = {"ready_at": time.monotonic(), "calls": []}
    if config["setup_only"]:
        return record
    rng = random.Random(config["seed"])
    deadline = time.monotonic() + config["seconds"]
    passes = 0
    while passes < MIN_PASSES or time.monotonic() < deadline:
        passes += 1
        order = list(shapes)
        rng.shuffle(order)
        for shape in order:
            started = time.monotonic()
            result = call(shape)
            ended = time.monotonic()
            record["calls"].append([shape.key, started, ended, _answer(result, shape)])
    record["peak_rss_mb"] = vm_hwm_mb(os.getpid())
    if config["trace"]:
        from repro.obs import REGISTRY

        record["registry"] = REGISTRY.snapshot()
    return record


def _fields(shape, seed: int) -> dict:
    fields = shape.request_fields(seed)
    fields["obs_values"] = tuple(fields["obs_values"])
    fields["guide_args"] = tuple(fields["guide_args"])
    return fields


def launch(seed: int, seconds: float, setup_only: bool, trace: bool = False):
    env = child_env()
    env["PYTHONPATH"] = env["PYTHONPATH"] + ":" + str(Path(__file__).resolve().parents[1])
    config = {"seed": seed, "seconds": seconds, "setup_only": setup_only, "trace": trace}
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), json.dumps(config)],
        capture_output=True, env=env, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"batch child failed: {proc.stderr.decode()[-2000:]}")
    record = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return record, record["ready_at"] - launched


async def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups = [launch(seed, seconds, True)[1] for _ in range(SETUPS - 1)]
    record, setup_s = launch(seed, seconds, False, trace)
    setups.append(setup_s)

    inputs = Inputs()
    shapes = {s.key: s for s in inputs.shapes(MODELS, ENGINES, PARTICLES)}
    determinism = answers.DeterminismCheck()
    calls = record["calls"]
    durations, gaps = [], []
    for i, (key, started, ended, answer) in enumerate(calls):
        durations.append(ended - started)
        if i:
            gaps.append(started - calls[i - 1][2])
        shape = shapes[key]
        outcome.checked += 1
        means = {str(site): m for site, m in zip(shape.sites, answer["means"])}
        if not answers.finite_answer(means):
            outcome.wrong_answer(f"{key}: non-finite answer {means}")
            continue
        if not determinism.observe(key, tuple(answer["means"])):
            outcome.wrong_answer(f"{key}: answer changed between passes with the same seed")
        if shape.golden:
            ess = answers.effective_ess(answer["ess"], answer["ess_history"])
            bad = answers.golden_violations(means, shape.golden, shape.atol, shape.posterior_sd, ess)
            if bad:
                outcome.wrong_answer(f"{key}: sites {bad} means {means} vs {shape.golden}")
    outcome.attempted = len(calls)
    outcome.metrics["setup_s"] = stats.median(setups)
    windows = stats.chunks(durations, WINDOW_PASSES * len(shapes))
    latency_metrics(outcome, windows)
    outcome.metrics["rate_per_s"] = stats.median_over(windows, lambda w: PARTICLES * len(w) / sum(w))
    outcome.metrics["peak_rss_mb"] = record["peak_rss_mb"]
    outcome.figure("particles_per_s", outcome.metrics["rate_per_s"], "1/s")
    outcome.figure("passes", len(calls) / len(shapes), "count")
    lag_figure(outcome, gaps)
    if trace:
        from pbench import layers

        layers.registry_layers(outcome, record["registry"])
        await layers.replay(outcome, f"batch_kernel-{seed}", list(shapes.values()), ["default"], served=False)
    return outcome


if __name__ == "__main__":
    print(json.dumps(child(json.loads(sys.argv[1]))))

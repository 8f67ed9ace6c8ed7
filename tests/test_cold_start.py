"""Cold start: no request path loads scipy unless its pair needs it.

Importing ``scipy.stats`` costs a fresh process about half a second and
46 MB, and only ``TruncatedNormal`` (outside the calculus, used by tests)
needs it.  ``scipy.special`` costs 0.2-0.3 s and 18 MB, and only a density
that calls ``gammaln`` outside its exact table of small integers needs it
(``repro.dists.special``); such a pair's session loads it when it is built,
never during a run (docs/serving.md, "Start-up and footprint").

The probe runs in a fresh interpreter, because this test process has
already imported scipy through other tests.  It imports every entry point
and runs ``is``, ``smc`` and ``svi`` on both backends for Normal
(``weight``), Beta and Bernoulli (``coin``) and Gamma (``jump``) sites,
then builds the session of ``branching``, whose Poisson leaves the table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = r"""
import json
import math
import sys

import repro
import repro.cli
import repro.engine.server
from repro.engine import ProgramSession
from repro.models import get_benchmark

runs = []
for name in ("weight", "coin", "jump"):
    bench = get_benchmark(name)
    session = ProgramSession.from_sources(
        bench.model_source,
        bench.guide_source,
        model_entry=bench.model_entry,
        guide_entry=bench.guide_entry,
    )
    for backend in ("interp", "compiled"):
        for engine in ("is", "smc", "svi"):
            fields = {
                "num_particles": 200,
                "seed": 3,
                "backend": backend,
                "obs_values": list(bench.obs_values),
                "guide_args": tuple(bench.guide_param_inits.values()),
            }
            if engine == "svi":
                fields.update(
                    guide_params=dict(bench.guide_param_inits) or None,
                    num_steps=2,
                    final_particles=200,
                )
            result = session.infer(engine, **fields)
            runs.append([name, backend, engine, math.isfinite(result.posterior_mean(0))])

after_runs = sorted(
    m for m in sys.modules if ".".join(m.split(".")[:2]) in ("scipy.stats", "scipy.special")
)
bench = get_benchmark("branching")
session = ProgramSession.from_sources(bench.model_source, bench.guide_source)
built = "scipy.special" in sys.modules
result = session.infer("is", num_particles=200, seed=3, obs_values=list(bench.obs_values))
runs.append(["branching", "interp", "is", math.isfinite(result.posterior_mean(0))])
print(json.dumps({"runs": runs, "scipy": after_runs, "branching_built_loads_special": built}))
"""


def test_request_paths_load_scipy_only_for_pairs_that_need_it():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(ROOT),
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(report["runs"]) == 19
    assert all(finite for *_, finite in report["runs"]), report["runs"]
    assert report["scipy"] == [], (
        f"a request path imported {report['scipy'][:5]}; import scipy inside the "
        "function that uses it"
    )
    assert report["branching_built_loads_special"]

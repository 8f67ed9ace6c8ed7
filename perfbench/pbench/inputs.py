"""Pinned inputs: the snapshot's sources, observations and goldens.

Sources, observations and golden means are read from
``bench/snapshots/v1.json`` (never from ``repro.models`` at run time), and
the ``cold_programs`` pool and the posterior standard deviations from the
benchmark's own ``data/`` files, so a later change to the model library or
the fuzz generator cannot move a workload.  The run seed only chooses
order, arrival times, tenants, engine seeds and streamed observation values.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: The checkout root (``perfbench/pbench/inputs.py`` -> two levels up).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SNAPSHOT = ROOT / "bench" / "snapshots" / "v1.json"
DATA = Path(__file__).resolve().parents[1] / "data"
#: Scratch space inside the checkout (checkpoints, traces); removed per run.
WORK = ROOT / ".perfbench_work"

#: The six golden library models served one-shot.
GOLDEN_MODELS = ("weight", "coin", "sprinkler", "burglary", "hmm", "kalman")
#: Divergent-control-flow models (compiled multi-path kernels).
DIVERGENT_MODELS = ("switching", "jump")
#: The recursion-family instance (outside the compiled fragment: interp).
RECURSION_MODEL = "recursion_depth/2"


def require_checkout() -> None:
    """Exit non-zero unless the program sources and the snapshot are present."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", SNAPSHOT, DATA / "pins.json")
        if not path.is_file()
    ]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Shape:
    """One distinct request shape: a pair, an engine and a particle count."""

    name: str
    model: str
    guide: str
    engine: str
    particles: int
    obs_values: tuple
    model_entry: Optional[str] = None
    guide_entry: Optional[str] = None
    guide_args: tuple = ()
    golden: Dict[str, float] = field(default_factory=dict, compare=False, hash=False)
    atol: float = 0.0
    posterior_sd: Dict[str, float] = field(default_factory=dict, compare=False, hash=False)
    sites: tuple = (0,)

    @property
    def key(self) -> str:
        return f"{self.name}/{self.engine}@{self.particles}"

    def request_fields(self, seed: int) -> dict:
        """``InferenceRequest`` fields for one run of this shape."""
        fields = {
            "num_particles": self.particles,
            "backend": "compiled",
            "seed": int(seed),
            "obs_values": list(self.obs_values),
            "guide_args": list(self.guide_args),
        }
        if self.engine == "svi":
            # Fixed-guide SVI: no guide_params means no optimisation steps,
            # just the final pass through the guide.
            fields["final_particles"] = self.particles
        return fields

    def payload(self, request_id: object, seed: int, tenant: str) -> dict:
        """The one-shot JSONL wire payload."""
        payload = {
            "id": request_id,
            "model": self.model,
            "guide": self.guide,
            "engine": self.engine,
            "sites": list(self.sites),
            "tenant": tenant,
            "params": self.request_fields(seed),
        }
        if self.model_entry:
            payload["model_entry"] = self.model_entry
        if self.guide_entry:
            payload["guide_entry"] = self.guide_entry
        return payload


class Inputs:
    """The snapshot plus the benchmark's pins, loaded once per run."""

    def __init__(self) -> None:
        self.snapshot = load_json(SNAPSHOT)["models"]
        self.pins = load_json(DATA / "pins.json")

    def shape(self, name: str, engine: str, particles: int) -> Shape:
        entry = self.snapshot[name]
        golden = dict(entry.get("golden") or {})
        sds = self.pins["posterior_sd"].get(name, {})
        return Shape(
            name=name,
            model=entry["model_source"],
            guide=entry["guide_source"],
            engine=engine,
            particles=particles,
            obs_values=tuple(entry["obs_values"]),
            model_entry=entry.get("model_entry"),
            guide_entry=entry.get("guide_entry"),
            guide_args=tuple(entry.get("guide_args") or ()),
            golden=golden,
            atol=float(entry.get("quality_atol") or 0.0),
            posterior_sd={k: float(v) for k, v in sds.items()},
            sites=tuple(int(s) for s in golden) or (0,),
        )

    def shapes(self, names, engines, particles: int) -> List[Shape]:
        return [self.shape(n, e, particles) for n in names for e in engines]

    def stream_atol(self) -> float:
        return float(self.snapshot["stream_rw"]["quality_atol"])

    def stream_last_sd(self, length: int) -> float:
        """Posterior sd of the last ``stream_rw`` state after ``length`` steps."""
        return float(self.pins["stream_rw_last_sd"][length - 1])

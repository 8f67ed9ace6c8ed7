"""Differential oracles: run one generated pair through every configuration.

Three oracle families, following the differential-testing playbook of
parallel-execution validators:

1. **Bitwise parity.**  Under common random numbers, the interpreted and
   compiled particle backends must produce bit-identical weight vectors and
   latent values — at one shard *and* under the shard plan — and re-running
   any configuration must reproduce it exactly (no hidden global state).
2. **Static acceptance implies dynamic soundness.**  A pair the typechecker
   certifies must never raise a support, density, or protocol error at
   runtime, under any engine, backend, or shard plan.
3. **Posterior agreement.**  ``is``, ``smc``, and ``svi`` are different
   estimators of the *same* posterior; their self-normalised means for the
   first latent site must agree within a tolerance scaled by each
   estimator's Monte Carlo standard error.

Every run is seeded from the case seed, so a verdict is deterministic: a
seed that passes passes forever, and a violation is reproducible from the
``repro fuzz --seed N`` command embedded in its report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.session import ProgramSession
from repro.errors import ReproError
from repro.fuzz.generator import FuzzCase, FuzzConfig
from repro.fuzz.spec import count_latent_sites, obs_signature
from repro.obs import REGISTRY
from repro.utils.numerics import weighted_mean_se


@dataclass(frozen=True)
class Violation:
    """One oracle failure for one generated case."""

    seed: int
    kind: str
    detail: str
    config_a: str = ""
    config_b: str = ""

    def describe(self) -> str:
        """One-line rendering for reports and logs."""
        configs = ""
        if self.config_a or self.config_b:
            configs = f" [{self.config_a}" + (f" vs {self.config_b}" if self.config_b else "") + "]"
        return f"seed {self.seed}: {self.kind}{configs}: {self.detail}"


@dataclass
class CaseReport:
    """Outcome of running every oracle against one case."""

    seed: int
    violations: List[Violation] = field(default_factory=list)
    #: Which oracle checks actually ran (e.g. compiled parity is skipped for
    #: recursive pairs that fall back to the interpreter).
    checks: Dict[str, bool] = field(default_factory=dict)
    posterior_means: Dict[str, float] = field(default_factory=dict)
    #: Per-case cost profile: wall time per engine configuration, kernel
    #: compile time, and the registry delta the case produced — embedded in
    #: counterexample reports so a failing seed's cost is visible without a
    #: re-run.
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no oracle flagged the case."""
        return not self.violations


# ---------------------------------------------------------------------------
# Observation synthesis
# ---------------------------------------------------------------------------


def default_obs_values(case: FuzzCase) -> Tuple[object, ...]:
    """In-support observation values for a case's static obs signature.

    Values are drawn from a case-seeded stream, so the whole differential
    run remains a pure function of ``(seed, config)``.
    """
    rng = np.random.default_rng([0x0B5EBE, case.seed])
    values: List[object] = []
    for support, cat_n in obs_signature(case.spec):
        if support == "real":
            values.append(float(round(rng.normal(0.0, 1.5), 3)))
        elif support == "preal":
            values.append(float(round(abs(rng.normal(1.2, 0.6)) + 0.1, 3)))
        elif support == "ureal":
            values.append(float(round(rng.uniform(0.1, 0.9), 3)))
        elif support == "bool":
            values.append(bool(rng.random() < 0.5))
        elif support == "nat":
            values.append(int(rng.poisson(2.0)))
        elif support == "cat":
            values.append(int(rng.integers(0, cat_n)))
        else:  # pragma: no cover - exhaustive over SUPPORTS
            raise ValueError(support)
    return tuple(values)


# ---------------------------------------------------------------------------
# Result comparison helpers
# ---------------------------------------------------------------------------


def _population(result) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(site-0 values, log weights)`` population behind an engine result."""
    raw = getattr(result, "final_pass", None) or result.raw
    if hasattr(raw, "run"):
        return raw.run.site_values(0), np.asarray(raw.log_weights)
    return raw.site_values(0), np.asarray(raw.log_weights)


def bitwise_mismatch(result_a, result_b, num_sites: int) -> Optional[str]:
    """Describe the first bitwise difference between two ``is`` results.

    Compares the importance log-weight vectors, the model/guide weight
    decomposition, and the per-particle values of every guaranteed latent
    site.  Returns ``None`` when the populations are identical.
    """
    a, b = result_a.raw, result_b.raw
    la, lb = np.asarray(a.log_weights), np.asarray(b.log_weights)
    if la.shape != lb.shape:
        return f"population sizes differ: {la.shape} vs {lb.shape}"
    if not np.array_equal(la, lb, equal_nan=True):
        idx = int(np.flatnonzero(~_eq_nan(la, lb))[0])
        return f"log weights differ first at particle {idx}: {la[idx]!r} vs {lb[idx]!r}"
    for name in ("model_log_weights", "guide_log_weights"):
        va, vb = np.asarray(getattr(a.run, name)), np.asarray(getattr(b.run, name))
        if not np.array_equal(va, vb, equal_nan=True):
            idx = int(np.flatnonzero(~_eq_nan(va, vb))[0])
            return f"{name} differ first at particle {idx}: {va[idx]!r} vs {vb[idx]!r}"
    for site in range(num_sites):
        va, vb = a.run.site_values(site), b.run.site_values(site)
        if not np.array_equal(va, vb, equal_nan=True):
            idx = int(np.flatnonzero(~_eq_nan(va, vb))[0])
            return (
                f"latent site {site} values differ first at particle {idx}: "
                f"{va[idx]!r} vs {vb[idx]!r}"
            )
    return None


def _eq_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    both_nan = np.isnan(a) & np.isnan(b)
    with np.errstate(invalid="ignore"):
        return (a == b) | both_nan


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def run_case(case: FuzzCase, config: Optional[FuzzConfig] = None) -> CaseReport:
    """Run every oracle against one generated case.

    The report carries a cost profile (``report.metrics``) alongside the
    verdict: total wall time, per-configuration engine wall times, kernel
    compile time, and the flat metrics-registry delta the case produced.
    """
    config = config or FuzzConfig()
    report = CaseReport(seed=case.seed)
    mark = REGISTRY.mark()
    started = time.perf_counter()
    try:
        _run_oracles(case, config, report)
    finally:
        delta = REGISTRY.delta(mark)
        report.metrics["total_wall_s"] = time.perf_counter() - started
        report.metrics["kernel_compile_s"] = delta.get("repro_kernel_compile_seconds_sum", 0.0)
        report.metrics["registry_delta"] = delta
    return report


def _run_oracles(case: FuzzCase, config: FuzzConfig, report: CaseReport) -> None:
    """The oracle battery behind :func:`run_case` (mutates ``report``)."""
    # Oracle 0: the generator must produce certified pairs (a rejection here
    # is a finding about either the generator or the typechecker).
    try:
        session = ProgramSession.from_sources(case.model_source, case.guide_source)
    except ReproError as exc:
        report.violations.append(
            Violation(case.seed, "generator-ill-typed", f"{type(exc).__name__}: {exc}")
        )
        return
    if not session.certified:
        report.violations.append(
            Violation(case.seed, "uncertified", str(session.certification_reason))
        )
        return

    obs = default_obs_values(case) or None
    engine_seed = case.seed * 9176 + 11
    num_sites = count_latent_sites(case.spec)
    results: Dict[str, object] = {}

    def run(label: str, engine: str, **kwargs):
        """One engine run; any exception is an oracle-2 violation."""
        run_started = time.perf_counter()
        try:
            result = session.infer(
                engine, obs_values=obs, seed=kwargs.pop("seed", engine_seed), **kwargs
            )
        except ReproError as exc:
            report.violations.append(
                Violation(case.seed, "runtime-error", f"{type(exc).__name__}: {exc}", label)
            )
            return None
        except Exception as exc:  # noqa: BLE001 - a crash IS the finding
            report.violations.append(
                Violation(case.seed, "crash", f"{type(exc).__name__}: {exc}", label)
            )
            return None
        finally:
            report.metrics.setdefault("engine_wall_s", {})[label] = (
                time.perf_counter() - run_started
            )
        results[label] = result
        return result

    if len(config.shard_counts) != 2 or config.shard_counts[0] >= config.shard_counts[1]:
        raise ValueError(
            f"shard_counts must be an increasing pair, got {config.shard_counts!r}"
        )
    shard_lo, shard_hi = config.shard_counts
    p = config.particles
    base = run(f"is/interp/shards={shard_lo}", "is", num_particles=p, backend="interp", shards=shard_lo)

    # Oracle 1a: determinism — an identical configuration reruns identically.
    rerun = run(f"is/interp/shards={shard_lo}/rerun", "is", num_particles=p, backend="interp", shards=shard_lo)
    if base is not None and rerun is not None:
        detail = bitwise_mismatch(base, rerun, num_sites)
        report.checks["determinism"] = True
        if detail:
            report.violations.append(
                Violation(case.seed, "nondeterminism", detail, f"is/interp/shards={shard_lo}")
            )

    # Oracle 1b: backend parity at both shard counts — interp × compiled
    # must agree bitwise under common random numbers (or, outside the
    # compiled fragment, both must take the identical interpretive fallback).
    for shards in (shard_lo, shard_hi):
        interp = base if shards == shard_lo else run(
            f"is/interp/shards={shards}", "is", num_particles=p, backend="interp", shards=shards
        )
        if interp is None:
            continue
        compiled = run(
            f"is/compiled/shards={shards}", "is", num_particles=p,
            backend="compiled", shards=shards,
        )
        if compiled is None:
            continue
        label = "backend-parity" if session.compiled_backend_supported else "backend-fallback-parity"
        report.checks[f"{label}/compiled/shards={shards}"] = True
        detail = bitwise_mismatch(interp, compiled, num_sites)
        if detail:
            report.violations.append(
                Violation(
                    case.seed,
                    "backend-parity",
                    detail,
                    f"is/interp/shards={shards}",
                    f"is/compiled/shards={shards}",
                )
            )

    # Oracle 1c: the shard plan is a pure function of (seed, particles,
    # shards) — the worker-pool path must be bit-identical to inline.
    if config.check_workers and base is not None:
        sharded = results.get(f"is/interp/shards={shard_hi}")
        pooled = run(
            f"is/interp/shards={shard_hi}/workers={config.workers}",
            "is",
            num_particles=p,
            backend="interp",
            shards=shard_hi,
            workers=config.workers,
        )
        if sharded is not None and pooled is not None:
            report.checks["worker-parity"] = True
            detail = bitwise_mismatch(sharded, pooled, num_sites)
            if detail:
                report.violations.append(
                    Violation(
                        case.seed,
                        "worker-parity",
                        detail,
                        f"is/interp/shards={shard_hi}",
                        f"workers={config.workers}",
                    )
                )

    # Oracle 3: cross-engine posterior agreement on the first latent site.
    if base is not None and num_sites > 0:
        spread_run = run(
            "is/interp/spread-seed", "is", num_particles=p, backend="interp",
            shards=shard_lo, seed=engine_seed + 1,
        )
        estimates: Dict[str, Tuple[float, float]] = {}
        for label, result in (("is", base), ("is-spread", spread_run)):
            if result is not None:
                estimates[label] = weighted_mean_se(*_population(result))
        if obs is not None:
            smc = run(
                "smc/interp", "smc", num_particles=config.smc_particles, backend="interp",
                shards=shard_lo,
            )
            if smc is not None:
                estimates["smc"] = weighted_mean_se(*_population(smc))
        # The svi engine seeds its final posterior pass from the request
        # seed, so an offset keeps its estimate independent of the ``is``
        # population — otherwise the agreement check compares a draw with
        # itself and can never fire.
        svi = run(
            "svi/interp", "svi", num_particles=config.svi_fit_particles,
            num_steps=config.svi_steps, final_particles=p, backend="interp",
            shards=shard_lo, seed=engine_seed + 2,
        )
        if svi is not None:
            estimates["svi"] = weighted_mean_se(*_population(svi))

        report.posterior_means = {k: m for k, (m, _) in estimates.items()}
        if "is" in estimates:
            m_is, se_is = estimates["is"]
            spread = abs(m_is - estimates["is-spread"][0]) if "is-spread" in estimates else 0.0
            for label in ("smc", "svi"):
                if label not in estimates:
                    continue
                m_other, se_other = estimates[label]
                scale = math.sqrt(se_is**2 + se_other**2) + spread
                tol = config.agreement_atol + config.agreement_k * scale
                report.checks[f"agreement/{label}"] = True
                if not (abs(m_is - m_other) <= tol or (math.isnan(m_is) and math.isnan(m_other))):
                    report.violations.append(
                        Violation(
                            case.seed,
                            "posterior-disagreement",
                            f"site-0 mean {m_is:.4f} (is) vs {m_other:.4f} ({label}); "
                            f"|diff|={abs(m_is - m_other):.4f} > tol={tol:.4f} "
                            f"(se_is={se_is:.4f}, se_{label}={se_other:.4f}, spread={spread:.4f})",
                            "is/interp",
                            f"{label}/interp",
                        )
                    )


# ---------------------------------------------------------------------------
# Campaign-level reporting
# ---------------------------------------------------------------------------


def repro_command(seed: int, config: FuzzConfig, shrink: bool = True) -> str:
    """The exact CLI invocation that reproduces one seed's verdict."""
    parts = [f"python -m repro.cli fuzz --seed {seed} --particles {config.particles}"]
    if config.check_workers:
        parts.append("--check-workers")
    if not config.allow_recursion:
        parts.append("--no-recursion")
    if shrink:
        parts.append("--shrink")
    return " ".join(parts)


def render_failure(
    case: FuzzCase,
    report: CaseReport,
    config: FuzzConfig,
    shrunk: Optional[FuzzCase] = None,
) -> str:
    """A self-contained counterexample report: violations, program, repro."""
    lines = [f"FUZZ VIOLATION (seed {case.seed})", "-" * 40]
    for violation in report.violations:
        lines.append(violation.describe())
    shown = shrunk or case
    title = "shrunk counterexample" if shrunk is not None else "counterexample (unshrunk)"
    lines += [
        "",
        f"# {title}: model",
        shown.model_source.rstrip(),
        "",
        f"# {title}: guide",
        shown.guide_source.rstrip(),
        "",
        f"reproduce with: {repro_command(case.seed, config)}",
    ]
    return "\n".join(lines)

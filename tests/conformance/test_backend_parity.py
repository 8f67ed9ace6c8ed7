"""Compiled-vs-interpretive backend parity: same bits, different runtime.

The compiled batched backend is an execution strategy, not an estimator: for
every conformance model, running the compiled kernel and the interpretive
vectorizer with common random numbers must produce **bitwise-equal**
log-weights and samples.  This is what makes ``backend="compiled"`` safe to
select anywhere — every downstream quantity (posterior means, evidence,
resampling decisions, SVI gradients) is a deterministic function of the
per-particle weights, values, and the shared RNG stream.

The suite covers these layers:

* raw runs — model/guide log-weights, per-site sample values, recorded
  message columns, and the per-observation score matrix, interp × compiled;
* engines — ``is``/``smc``/``svi`` results through
  :class:`~repro.engine.session.ProgramSession` under both backends;
* rescoring — the kernel's *compiled* group-rescoring pass against the
  interpretive replay on the SVI ledger path (per-site score ledgers
  included), with the fallback metric reading zero on supported models;
* loop kernels — tail-recursive pairs (the library's, the ``recursion_depth``
  family, a mutually recursive pair) compile to kernels whose back-edges
  replay the interpreter's splits bit for bit, and a loop no branch exits
  raises the interpreter's operation-budget error on both backends;
* the fallback — non-tail recursive models compile to the interpreter with a
  recorded reason, and still produce identical results (trivially, same
  runtime);
* parameter checks — a lane parameter invalid for part of the population
  raises the same error text on both backends, per family and parameter;
* NumPy-scalar arguments — a comparison of a ``np.float64`` model argument
  drives a branch on both backends and on the scalar reference engine.

Both backends draw and score through one record per family
(:data:`repro.dists.FAMILIES`), so this suite cannot see a change to a
family's numbers; ``tests/test_fused_codegen.py`` pins each sampler against
a literal ``Generator`` expression, and fixed-seed answers are compared with
the parent commit (``benchmarks/compare_answers.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import compiled_unsupported_reason
from repro.core.semantics import traces as tr
from repro.engine import ProgramSession, make_particle_runner
from repro.engine.backend import CompiledParticleRunner
from repro.errors import ChannelProtocolError, EvaluationError
from repro.fuzz.generator import synthesize_family
from repro.fuzz.oracles import default_obs_values
from repro.models import all_benchmarks, get_benchmark
from repro.obs import REGISTRY
from tests.conftest import session_request

#: Guide arguments for benchmarks whose guides take per-run parameters.
GUIDE_ARGS = {"outliers": (True,)}

EXPRESSIBLE = [b for b in all_benchmarks() if b.expressible]
COMPILABLE = [
    b for b in EXPRESSIBLE
    if compiled_unsupported_reason(
        b.model_program(), b.guide_program(), b.model_entry, b.guide_entry
    ) is None
]
RECURSIVE = [b for b in EXPRESSIBLE if b not in COMPILABLE]

NUM_PARTICLES = 800


def _runner_common(bench, obs):
    guide_args = GUIDE_ARGS.get(bench.name, tuple(bench.guide_param_inits.values()))
    return dict(
        model_program=bench.model_program(),
        guide_program=bench.guide_program(),
        model_entry=bench.model_entry,
        guide_entry=bench.guide_entry,
        obs_trace=obs,
        guide_args=guide_args,
    )


def _pair_of_runs(bench, obs, seed):
    """(interp, compiled) runs under common random numbers."""
    common = _runner_common(bench, obs)
    interp = make_particle_runner(*session_request(backend="interp", **common))
    compiled = make_particle_runner(*session_request(backend="compiled", **common))
    assert isinstance(compiled, CompiledParticleRunner)
    return (
        interp.run(NUM_PARTICLES, np.random.default_rng(seed)),
        compiled.run(NUM_PARTICLES, np.random.default_rng(seed)),
    )


def _assert_bitwise_equal_runs(r1, r2, context: str):
    assert np.array_equal(r1.model_log_weights, r2.model_log_weights), context
    assert np.array_equal(r1.guide_log_weights, r2.guide_log_weights), context
    assert np.array_equal(r1.log_weights(), r2.log_weights()), context
    assert r1.num_groups == r2.num_groups, context
    # Samples: every latent site column, lane for lane (nan where the
    # particle's control path lacks the site).
    for site in range(12):
        a, b = r1.site_values(site), r2.site_values(site)
        assert np.array_equal(a, b, equal_nan=True), f"{context}: site {site}"
        if np.all(np.isnan(a)):
            break
    # Recorded message columns agree, so replay-based machinery (rescoring,
    # trace materialisation) behaves identically on either run's leaves.
    for l1, l2 in zip(r1.leaves, r2.leaves):
        assert np.array_equal(l1.indices, l2.indices), context
        assert set(l1.recorded) == set(l2.recorded), context
        for channel in l1.recorded:
            m1, m2 = l1.recorded[channel], l2.recorded[channel]
            assert len(m1) == len(m2), f"{context}: {channel}"
            for x, y in zip(m1, m2):
                assert x.kind == y.kind and x.provider == y.provider, context
                if isinstance(x.payload, np.ndarray):
                    assert np.array_equal(x.payload, y.payload), context
                else:
                    assert x.payload == y.payload, context
    s1, s2 = r1.obs_score_rows(), r2.obs_score_rows()
    if s1 is None or s2 is None:
        assert s1 is None and s2 is None, context
    else:
        assert np.array_equal(s1, s2), context


@pytest.mark.parametrize("bench", COMPILABLE, ids=lambda b: b.name)
@pytest.mark.parametrize("seed", [0, 7])
def test_backends_bitwise_equal_with_observations(bench, seed):
    obs = tuple(tr.ValP(v) for v in bench.obs_values)
    r1, r2 = _pair_of_runs(bench, obs, seed)
    assert r1.backend == "interp" and r2.backend == "compiled"
    _assert_bitwise_equal_runs(r1, r2, bench.name)


@pytest.mark.parametrize("bench", COMPILABLE, ids=lambda b: b.name)
def test_backends_bitwise_equal_prior_predictive(bench):
    """Without an observation trace the model *draws* its observations; the
    compiled kernels must consume the RNG for them in the interpreter's order."""
    r1, r2 = _pair_of_runs(bench, None, seed=3)
    _assert_bitwise_equal_runs(r1, r2, f"{bench.name} (prior predictive)")


ENGINE_MATRIX = [
    ("kalman", "is", {}),
    ("switching", "is", {}),
    ("jump", "smc", {}),
    ("hmm", "smc", {}),
    ("weight", "svi", dict(guide_params={"loc": 8.5, "log_scale": 0.0}, num_steps=6)),
    ("coin", "svi", dict(num_steps=0)),
]


@pytest.mark.parametrize("name, engine, kwargs", ENGINE_MATRIX)
def test_engines_identical_across_backends(name, engine, kwargs):
    bench = get_benchmark(name)
    session = ProgramSession(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry,
    )
    interp, compiled = (
        session.infer(
            engine,
            num_particles=500,
            obs_values=bench.obs_values,
            seed=19,
            backend=backend,
            **kwargs,
        )
        for backend in ("interp", "compiled")
    )
    assert interp.posterior_mean(0) == compiled.posterior_mean(0)
    assert interp.log_evidence() == compiled.log_evidence()
    assert interp.effective_sample_size() == compiled.effective_sample_size()
    assert compiled.diagnostics().get("backend") == "compiled"
    assert session.compiled_kernel()[1] is None


@pytest.mark.parametrize(
    "name, engine, kwargs",
    [(n, e, k) for n, e, k in ENGINE_MATRIX if e == "svi"],
)
def test_svi_rescoring_never_falls_back_on_supported_models(name, engine, kwargs):
    """On compilable models the compiled backend serves SVI rescoring from
    the compiled pass: the fallback metric family must not move at all."""
    bench = get_benchmark(name)
    session = ProgramSession(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry,
    )
    mark = REGISTRY.mark()
    session.infer(
        engine,
        num_particles=300,
        obs_values=bench.obs_values,
        seed=5,
        backend="compiled",
        rao_blackwellize=True,
        **kwargs,
    )
    moved = {
        key: change
        for key, change in REGISTRY.delta(mark).items()
        if key.startswith("repro_compiled_fallback_total")
    }
    assert moved == {}, moved


@pytest.mark.parametrize("bench", COMPILABLE, ids=lambda b: b.name)
def test_mega_rescore_bitwise_matches_interp_replay(bench):
    """The compiled rescore pass replays recorded groups bit-for-bit —
    including the per-site score ledgers SVI's Rao-Blackwellized gradients
    consume — against the interpretive ``rescore_group``."""
    obs = tuple(tr.ValP(v) for v in bench.obs_values)
    common = _runner_common(bench, obs)
    interp = make_particle_runner(*session_request(backend="interp", **common))
    compiled = make_particle_runner(*session_request(backend="compiled", **common))
    run = compiled.run(200, np.random.default_rng(11))
    assert run.backend == "compiled"
    for leaf in run.leaves:
        assert leaf.path_id is not None
        gi = interp.rescore_group(leaf)
        gm = compiled.rescore_group(leaf)
        assert np.array_equal(gi.log_weights["model"], gm.log_weights["model"]), bench.name
        assert np.array_equal(gi.log_weights["guide"], gm.log_weights["guide"]), bench.name
        for side in ("model", "guide"):
            assert len(gi.site_scores[side]) == len(gm.site_scores[side]), bench.name
            for (c1, s1), (c2, s2) in zip(gi.site_scores[side], gm.site_scores[side]):
                assert c1 == c2, bench.name
                assert np.array_equal(s1, s2), bench.name


def test_mega_rescore_delegates_unstamped_leaves():
    """A leaf without a path stamp (an interpreted leaf) must divert to the
    interpretive replay — counted as a rescore divert, not crashed."""
    bench = get_benchmark("switching")
    obs = tuple(tr.ValP(v) for v in bench.obs_values)
    common = _runner_common(bench, obs)
    interp = make_particle_runner(*session_request(backend="interp", **common))
    compiled = make_particle_runner(*session_request(backend="compiled", **common))
    run = interp.run(100, np.random.default_rng(2))  # interp leaves: no stamps
    mark = REGISTRY.mark()
    for leaf in run.leaves:
        gi = interp.rescore_group(leaf)
        gm = compiled.rescore_group(leaf)
        assert np.array_equal(gi.log_weights["guide"], gm.log_weights["guide"])
    moved = REGISTRY.delta(mark)
    key = 'repro_compiled_fallback_total{reason="rescore-divert"}'
    assert moved.get(key) == float(len(run.leaves)), moved


@pytest.mark.parametrize("bench", RECURSIVE, ids=lambda b: b.name)
def test_recursive_models_fall_back_with_reason(bench):
    reason = compiled_unsupported_reason(
        bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry
    )
    assert reason is not None and "recursive" in reason
    runner = make_particle_runner(*session_request(
        model_program=bench.model_program(), guide_program=bench.guide_program(),
        model_entry=bench.model_entry, guide_entry=bench.guide_entry,
        obs_trace=tuple(tr.ValP(v) for v in bench.obs_values), backend="compiled",
    ))
    assert not isinstance(runner, CompiledParticleRunner)
    assert "recursive" in runner.fallback_reason
    # The fallback still runs (through the interpreter) and the run reports
    # the decision in its diagnostics.
    session = ProgramSession(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry, typecheck=False,
    )
    if bench.obs_values:
        result = session.infer(
            "is", num_particles=50, obs_values=bench.obs_values, seed=1,
            backend="compiled",
        )
        assert result.diagnostics()["backend"] == "interp"
        assert "recursive" in result.diagnostics().get("fallback_reason", "")
    kernel, reason = session.compiled_kernel()
    assert kernel is None and "recursive" in reason


# ---------------------------------------------------------------------------
# Loop kernels: parity the library models do not cover
# ---------------------------------------------------------------------------

_MUTUAL_MODEL = """
proc M() consume latent provide obs {
  x <- call Even(0.0);
  _ <- sample.send{obs}(Normal(x, 1.0));
  return(x)
}

proc Even(p: real) consume latent {
  s <- sample.recv{latent}(Normal(0.0, 1.0));
  c <- sample.recv{latent}(Ber(0.6));
  if.send{latent} c { call Odd(p + s) } else { return(p + s) }
}

proc Odd(p: real) consume latent {
  s <- sample.recv{latent}(Normal(1.0, 1.0));
  c <- sample.recv{latent}(Ber(0.5));
  if.send{latent} c { call Even(p - s) } else { return(p) }
}
"""

_MUTUAL_GUIDE = """
proc G() provide latent {
  call GEven()
}

proc GEven() provide latent {
  s <- sample.send{latent}(Normal(0.0, 1.5));
  c <- sample.send{latent}(Ber(0.6));
  if.recv{latent} { call GOdd() } else { return(s) }
}

proc GOdd() provide latent {
  s <- sample.send{latent}(Normal(1.0, 1.5));
  c <- sample.send{latent}(Ber(0.5));
  if.recv{latent} { call GEven() } else { return(s) }
}
"""

#: The continuation branch always selects the recursive arm.
_ENDLESS_MODEL = """
proc M() consume latent provide obs {
  x <- call Step(0.0);
  _ <- sample.send{obs}(Normal(x, 1.0));
  return(x)
}

proc Step(p: real) consume latent {
  s <- sample.recv{latent}(Normal(0.0, 1.0));
  if.send{latent} true { call Step(p + s) } else { return(p + s) }
}
"""

_ENDLESS_GUIDE = """
proc G() provide latent {
  call GStep()
}

proc GStep() provide latent {
  s <- sample.send{latent}(Normal(0.0, 1.0));
  if.recv{latent} { call GStep() } else { return(s) }
}
"""


def _engines_agree(session, engine, obs_values, num_particles=2000, seed=23):
    kwargs = {"final_particles": num_particles} if engine == "svi" else {}
    interp, compiled = (
        session.infer(
            engine, num_particles=num_particles, obs_values=obs_values, seed=seed,
            backend=backend, **kwargs,
        )
        for backend in ("interp", "compiled")
    )
    assert compiled.diagnostics().get("backend") == "compiled"
    assert interp.posterior_mean(0) == compiled.posterior_mean(0)
    assert interp.log_evidence() == compiled.log_evidence()
    assert interp.effective_sample_size() == compiled.effective_sample_size()


@pytest.mark.parametrize("engine", ["is", "smc", "svi"])
@pytest.mark.parametrize("size", [2, 4, 6])
def test_recursion_family_identical_across_backends(size, engine):
    case = synthesize_family("recursion_depth", size)
    session = ProgramSession.from_sources(case.model_source, case.guide_source)
    _engines_agree(session, engine, list(default_obs_values(case)))


def test_mutually_tail_recursive_pair_identical_across_backends():
    session = ProgramSession.from_sources(_MUTUAL_MODEL, _MUTUAL_GUIDE)
    assert session.certified
    for engine in ("is", "smc"):
        _engines_agree(session, engine, [1.5])
    common = dict(
        model_program=session.model_program, guide_program=session.guide_program,
        model_entry="M", guide_entry="G", obs_trace=(tr.ValP(1.5),),
    )
    interp = make_particle_runner(*session_request(backend="interp", **common))
    compiled = make_particle_runner(*session_request(backend="compiled", **common))
    r1, r2 = (r.run(NUM_PARTICLES, np.random.default_rng(5)) for r in (interp, compiled))
    assert r2.backend == "compiled"
    _assert_bitwise_equal_runs(r1, r2, "mutual recursion")


def test_endless_loop_exhausts_the_op_budget_on_both_backends():
    """No branch ever leaves the loop and no group ever splits: both backends
    stop the path at the interpreter's operation budget."""
    session = ProgramSession.from_sources(_ENDLESS_MODEL, _ENDLESS_GUIDE)
    assert session.certified
    kernel, reason = session.compiled_kernel()
    assert kernel is not None, reason
    for backend in ("interp", "compiled"):
        with pytest.raises(ChannelProtocolError, match="operation budget"):
            session.infer("is", num_particles=200, obs_values=[1.5], seed=3, backend=backend)


_COUNTED_LOOP_MODEL = """
proc M() consume latent provide obs {
  x <- call Step(0.0, 0);
  _ <- sample.send{obs}(Normal(x, 1.0));
  return(x)
}

proc Step(p: real, k: nat) consume latent {
  s <- sample.recv{latent}(Normal(0.0, 1.0));
  if.send{latent} k < LEVELS { call Step(p + s, k + 1) } else { return(p + s) }
}
"""


@pytest.mark.parametrize("levels, exhausts", [(1248, False), (1249, True)])
def test_loop_kernel_counts_operations_like_the_interpreter(levels, exhausts):
    """A loop of fixed length sits right at the operation budget: one more
    level tips both backends over it, so each counts every operation
    (blocked receives and fold handshakes included) exactly as the other."""
    session = ProgramSession.from_sources(
        _COUNTED_LOOP_MODEL.replace("LEVELS", str(levels)), _ENDLESS_GUIDE
    )
    for backend in ("interp", "compiled"):
        if exhausts:
            with pytest.raises(ChannelProtocolError, match="operation budget"):
                session.infer("is", num_particles=20, obs_values=[1.0], seed=0, backend=backend)
        else:
            result = session.infer(
                "is", num_particles=20, obs_values=[1.0], seed=0, backend=backend
            )
            assert result.diagnostics()["backend"] == backend


@pytest.mark.parametrize("name", ["marsaglia", "ptrace", "randomwalk"])
def test_loop_kernel_rescoring_never_falls_back(name):
    """Every recursive leaf rescoring from its fork-direction stamp stays on
    the compiled pass: the fallback metric family does not move."""
    bench = get_benchmark(name)
    common = _runner_common(bench, tuple(tr.ValP(v) for v in bench.obs_values))
    compiled = make_particle_runner(*session_request(backend="compiled", **common))
    run = compiled.run(NUM_PARTICLES, np.random.default_rng(13))
    assert run.backend == "compiled"
    deepest = max(len(dirs) for dirs in compiled.kernel.path_dirs)
    assert max(len(leaf.path_id) for leaf in run.leaves) > deepest
    mark = REGISTRY.mark()
    for leaf in run.leaves:
        compiled.rescore_group(leaf)
    moved = {
        key: change
        for key, change in REGISTRY.delta(mark).items()
        if key.startswith("repro_compiled_fallback_total")
    }
    assert moved == {}, moved


#: A loop whose continuation compares a fresh draw with the entry's threshold.
_THRESHOLD_MODEL = """
proc M(theta: real) consume latent provide obs {
  x <- call Step(0.0, theta);
  _ <- sample.send{obs}(Normal(x, 1.0));
  return(x)
}

proc Step(p: real, theta: real) consume latent {
  s <- sample.recv{latent}(Normal(0.0, 1.0));
  if.send{latent} s < theta { call Step(p + s, theta) } else { return(p + s) }
}
"""

_COIN_LOOP_MODEL = """
proc M() consume latent provide obs {
  x <- call Step(0.0);
  _ <- sample.send{obs}(Normal(x, 1.0));
  return(x)
}

proc Step(p: real) consume latent {
  s <- sample.recv{latent}(Normal(0.0, 1.0));
  c <- sample.recv{latent}(Ber(0.7));
  if.send{latent} c { call Step(p + s) } else { return(p + s) }
}
"""

#: A guide-parameter-dependent pure branch inside the tail-recursive helper.
_THRESHOLD_GUIDE = """
proc G(theta: real) provide latent {
  call GStep(theta)
}

proc GStep(theta: real) provide latent {
  s <- sample.send{latent}(Normal(0.0, 1.0));
  c <- if s < theta { sample.send{latent}(Ber(0.8)) } else { sample.send{latent}(Ber(0.6)) };
  if.recv{latent} { call GStep(theta) } else { return(s) }
}
"""


@pytest.mark.parametrize("side", ["model", "guide"])
def test_loop_rescore_rechecks_every_unfolding_under_perturbed_args(side):
    """Rescoring at other arguments re-evaluates each unfolding's branch:
    a threshold that flips on a later iteration is masked (the model's
    communicated branch) or diverts (the guide's pure branch) exactly as the
    interpretive replay does, on leaves deeper than the compiled path tree."""
    model, guide = (
        (_THRESHOLD_MODEL, _ENDLESS_GUIDE) if side == "model"
        else (_COIN_LOOP_MODEL, _THRESHOLD_GUIDE)
    )
    session = ProgramSession.from_sources(model, guide)
    assert session.certified
    common = dict(
        model_program=session.model_program, guide_program=session.guide_program,
        model_entry="M", guide_entry="G", obs_trace=(tr.ValP(1.5),),
    )
    args = f"{side}_args"
    forward = make_particle_runner(*session_request(
        backend="compiled", **{args: (0.8,)}, **common,
    ))
    run = forward.run(2000, np.random.default_rng(3))
    compiled_depth = max(len(dirs) for dirs in forward.kernel.path_dirs)
    interp, compiled = (
        make_particle_runner(*session_request(backend=backend, **{args: (0.3,)}, **common))
        for backend in ("interp", "compiled")
    )
    deep = 0
    for leaf in run.leaves:
        try:
            gi = interp.rescore_group(leaf)
        except Exception as exc:  # the pure branch flipped for part of the group
            with pytest.raises(type(exc)):
                compiled.rescore_group(leaf)
            continue
        gm = compiled.rescore_group(leaf)
        for role in ("model", "guide"):
            assert np.array_equal(gi.log_weights[role], gm.log_weights[role]), leaf.path_id
        deep += len(leaf.path_id) > compiled_depth
    assert deep > 0  # back-edges were taken and replayed


# ---------------------------------------------------------------------------
# Parameter checks: identical errors, per family and per parameter
# ---------------------------------------------------------------------------

#: Lane expressions invalid for part of the population: ``exp`` of
#: ``x ~ Normal(709, 1)`` overflows to ``inf`` for about a quarter of the
#: particles, and ``exp(z)`` with ``z ~ Normal(0, 1)`` leaves (0, 1) for half.
_BAD = {"real": "exp(x)", "positive": "exp(x)", "unit": "exp(z)"}
#: Valid lane expressions whose provenance proves the constraint (draws of a
#: family whose support implies it) and ones that prove nothing.
_PROVEN = {"real": "z", "positive": "g", "unit": "u"}
_UNPROVEN = {"real": "exp(z)", "positive": "exp(z)", "unit": "(1.0 / (1.0 + exp(z)))"}

#: family -> its parameters' names and constraints.
_CHECKED = {
    "Normal": (("mean", "real"), ("stddev", "positive")),
    "Gamma": (("shape", "positive"), ("rate", "positive")),
    "Beta": (("alpha", "positive"), ("beta", "positive")),
    "Ber": (("p", "unit"),),
    "Geo": (("p", "unit"),),
    "Pois": (("rate", "positive"),),
}

#: A shared value (a guide argument ``s``) that fails every lane, the
#: argument's type, and a valid literal for the model's copy of the site.
_SHARED = {
    "real": (float("inf"), "real", "0.0"),
    "positive": (-1.0, "preal", "1.0"),
}

#: ``proven`` is whether the other parameter's provenance discharges its
#: check, ``None`` for one-parameter families, and ``"shared"`` when the bad
#: parameter is a guide argument next to an unproven lane parameter.
PARAM_CHECK_CASES = [
    (family, bad, proven)
    for family, params in _CHECKED.items()
    for bad in range(len(params))
    for proven in ([True, False, "shared"] if len(params) > 1 else [None])
]


def _param_check_pair(family: str, bad: int, proven) -> tuple:
    constraints = [c for _, c in _CHECKED[family]]
    shared = proven == "shared"

    def args(side: str) -> str:
        return ", ".join(
            (("s" if side == "guide" else _SHARED[c][2]) if shared else _BAD[c])
            if i == bad
            else (_PROVEN if proven is True else _UNPROVEN)[c]
            for i, c in enumerate(constraints)
        )

    def proc(side: str, header: str, op: str) -> str:
        sites = [
            ("x", "Normal(709.0, 1.0)"),
            ("z", "Normal(0.0, 1.0)"),
            ("g", "Gamma(2.0, 1.0)"),
            ("u", "Beta(2.0, 2.0)"),
            ("y", f"{family}({args(side)})"),
        ]
        return f"proc {header} {{\n" + "".join(
            f"  {v} <- sample.{op}{{latent}}({d});\n" for v, d in sites
        ) + "  return(y)\n}\n"

    params = f"s: {_SHARED[constraints[bad]][1]}" if shared else ""
    guide_args = (_SHARED[constraints[bad]][0],) if shared else ()
    model = proc("model", "M() consume latent", "recv")
    guide = proc("guide", f"G({params}) provide latent", "send")
    return model, guide, guide_args


@pytest.mark.parametrize(
    "family, bad, proven",
    PARAM_CHECK_CASES,
    ids=[
        f"{f}-param{b}"
        + {None: "", True: "-other-proven", False: "-other-unproven", "shared": "-shared"}[p]
        for f, b, p in PARAM_CHECK_CASES
    ],
)
def test_parameter_check_errors_match_across_backends(family, bad, proven):
    """A lane parameter invalid for part of the population raises the same
    ``EvaluationError`` text on both backends, counted failures included —
    with the other parameter discharged by provenance (the kernel checks
    only the bad one) and without (the kernel checks both).  A shared guide
    argument that is invalid next to a lane parameter fails every particle
    on both backends."""
    model, guide, guide_args = _param_check_pair(family, bad, proven)
    # The type system keeps Ber/Geo parameters in (0, 1); skip it there.
    typecheck = family not in ("Ber", "Geo")
    session = ProgramSession.from_sources(model, guide, "M", "G", typecheck=typecheck)
    messages = {}
    for backend in ("interp", "compiled"):
        with pytest.raises(EvaluationError) as raised:
            session.infer(
                "is", num_particles=1000, seed=3, backend=backend, guide_args=guide_args
            )
        messages[backend] = str(raised.value)
    assert session.compiled_kernel()[0] is not None
    assert messages["interp"] == messages["compiled"]
    name = _CHECKED[family][bad][0]
    assert messages["compiled"].startswith(f"invalid parameters for {family}: {name} "), messages
    failed = int(messages["compiled"].split("(failed for ")[1].split(" ")[0])
    if proven == "shared":
        assert failed == 1000, messages
    else:
        assert 0 < failed < 1000, messages


_COMPARISON_MODEL = """
proc M(x: real) consume latent provide obs {
  y <- sample.recv{latent}(Normal(0.0, 1.0));
  z <- if (x OP 1.0) { return(y) } else { return(0.0 - y) };
  _ <- sample.send{obs}(Normal(z, 1.0));
  return(y)
}
"""

_COMPARISON_GUIDE = """
proc G() provide latent {
  y <- sample.send{latent}(Normal(0.5, 1.0));
  return(y)
}
"""


@pytest.mark.parametrize("x", [2.0, np.float64(2.0)], ids=["float", "float64"])
@pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
def test_comparisons_of_numpy_scalar_arguments_agree_across_backends(op, x):
    """A NumPy comparison of two scalars gives a ``np.bool_``; every Boolean
    screen takes it as a Boolean, so the branch runs on ``interp``,
    ``compiled`` and ``is-sequential`` alike, with identical answers on the
    two vectorized backends."""
    model = _COMPARISON_MODEL.replace("OP", op)
    session = ProgramSession.from_sources(model, _COMPARISON_GUIDE, "M", "G")
    request = dict(num_particles=20, obs_values=[0.3], seed=1, model_args=(x,))
    interp, compiled = (
        session.infer("is", backend=backend, **request) for backend in ("interp", "compiled")
    )
    assert compiled.diagnostics().get("backend") == "compiled"
    assert interp.posterior_mean(0) == compiled.posterior_mean(0)
    assert interp.log_evidence() == compiled.log_evidence()
    assert interp.effective_sample_size() == compiled.effective_sample_size()
    sequential = session.infer("is-sequential", **request)
    assert np.isfinite(sequential.posterior_mean(0))


# ---------------------------------------------------------------------------
# Observed values of any numeric kind: one guard on both backends
# ---------------------------------------------------------------------------

#: family -> the observed site, and the prior of its latent parameter ``x``.
_OBSERVED_SITES = {
    "Normal": ("Normal(x, 1.0)", "Normal(0.0, 1.0)"),
    "Gamma": ("Gamma(2.0, x)", "Gamma(2.0, 1.0)"),
    "Beta": ("Beta(x, 2.0)", "Gamma(2.0, 1.0)"),
    "Geo": ("Geo(x)", "Beta(2.0, 2.0)"),
    "Pois": ("Pois(x)", "Gamma(2.0, 1.0)"),
}

#: JSON decodes a large integer literal as an ``int`` past 2**64.
_OBSERVED_VALUES = {
    "int": 3,
    "float": 2.5,
    "int64": np.int64(5),
    "float32": np.float32(9.3),
    "2**64": 2**64,
    "10**20": 10**20,
    "10**400": 10**400,
}


def _outcome(session, backend: str, value) -> object:
    try:
        result = session.infer(
            "is", backend=backend, num_particles=50, seed=0, obs_values=[value]
        )
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)
    return tuple(
        float(x).hex()
        for x in (
            result.log_evidence(), result.posterior_mean(0), result.effective_sample_size()
        )
    )


@pytest.mark.parametrize("value", list(_OBSERVED_VALUES.values()), ids=list(_OBSERVED_VALUES))
@pytest.mark.parametrize("family", sorted(_OBSERVED_SITES))
def test_observed_numbers_of_any_kind_agree_across_backends(family, value):
    """An observed int, NumPy scalar or int past 2**64 scores the same on
    both backends: the compiled kernels' observation guard takes ``float(y)``,
    as the interpreter's float batch does.  Past float range both raise the
    same exception."""
    site, prior = _OBSERVED_SITES[family]
    model = (
        "proc M() consume latent provide obs {\n"
        f"  x <- sample.recv{{latent}}({prior});\n"
        f"  _ <- sample.send{{obs}}({site});\n"
        "  return(x)\n}\n"
    )
    guide = f"proc G() provide latent {{\n  x <- sample.send{{latent}}({prior});\n  return(x)\n}}\n"
    session = ProgramSession.from_sources(model, guide, "M", "G")
    interp, compiled = (_outcome(session, backend, value) for backend in ("interp", "compiled"))
    assert session.compiled_kernel()[0] is not None
    assert interp == compiled

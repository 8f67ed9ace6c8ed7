"""Unit tests for the compiled batched backend: codegen, helpers, caching.

The conformance-level guarantee (bitwise-equal runs on whole models) lives
in ``tests/conformance/test_backend_parity.py``; here we pin the pieces:

* each family's record in :data:`repro.dists.FAMILIES`: its sampler equals
  the literal ``numpy.random.Generator`` expression written here, and its
  in-bounds kernel equals its masked kernel on in-support draws.  Both
  backends call these same functions, so the interp-vs-compiled parity suite
  cannot see a change to a family's numbers; these literals can;
* the generic runtime scorers (one lane scorer, one observation scorer)
  agree bit-for-bit with :class:`~repro.engine.batched.BatchedDist`;
* the supported-fragment check rejects exactly the features the compiled
  kernel cannot mirror, with actionable reasons;
* kernels are compiled once per session and the session cache key includes
  the typechecker version, so a compiler change can never replay stale
  cached artifacts.

The kernel's mechanics (path stamps, ledgers, the rescore pass) are pinned
in ``tests/test_mega_codegen.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.compiler import (
    compile_kernel_pair,
    compiled_unsupported_reason,
    load_kernel,
)
from repro.compiler import batched_runtime as rt
from repro.core import ast
from repro.core.parser import parse_program
from repro.core.semantics import traces as tr
from repro.dists import FAMILIES
from repro.dists.continuous import (
    Normal,
    beta_log_prob_kernel,
    gamma_log_prob_kernel,
    normal_log_prob_kernel,
)
from repro.dists.discrete import poisson_log_prob_kernel
from repro.engine import ProgramSession, clear_kernel_cache, clear_session_cache
from repro.engine.backend import make_particle_runner
from repro.engine.batched import BatchedDist
from repro.errors import CompilationError, EvaluationError, InferenceError
from repro.models import get_benchmark
from repro.obs import REGISTRY
from tests.conftest import session_request


# ---------------------------------------------------------------------------
# Helper-vs-BatchedDist bitwise agreement
# ---------------------------------------------------------------------------


N = 257  # odd size: exercises any vector-width tail path


def _lane(rng, kind):
    """An in-support value batch drawn by the family's own sampler."""
    dist = BatchedDist(kind, _params(kind, scalar=True), N)
    return dist.sample(rng)


def _params(kind, scalar):
    base = {
        ast.DistKind.NORMAL: (0.3, 1.7),
        ast.DistKind.GAMMA: (2.0, 1.5),
        ast.DistKind.BETA: (2.5, 1.5),
        ast.DistKind.UNIF: (),
        ast.DistKind.BER: (0.37,),
        ast.DistKind.GEO: (0.42,),
        ast.DistKind.POIS: (3.2,),
    }[kind]
    if scalar:
        return list(base)
    return [np.full(N, p) for p in base]


KINDS = [
    ast.DistKind.NORMAL,
    ast.DistKind.GAMMA,
    ast.DistKind.BETA,
    ast.DistKind.UNIF,
    ast.DistKind.BER,
    ast.DistKind.GEO,
    ast.DistKind.POIS,
]

#: Each family's sampler, written out: what ``FAMILIES[kind].draw`` must equal.
LITERAL_DRAWS = {
    ast.DistKind.NORMAL: lambda rng, n, m, s: rng.normal(m, s, size=n),
    ast.DistKind.GAMMA: lambda rng, n, k, r: np.maximum(
        rng.gamma(k, 1.0 / r, size=n), math.ulp(0.0)
    ),
    ast.DistKind.BETA: lambda rng, n, a, b: np.clip(
        rng.beta(a, b, size=n), 1e-12, 1.0 - 1e-12
    ),
    ast.DistKind.UNIF: lambda rng, n: np.clip(rng.random(n), 1e-12, 1.0 - 1e-12),
    ast.DistKind.BER: lambda rng, n, p: rng.random(n) < p,
    ast.DistKind.GEO: lambda rng, n, p: rng.geometric(p, size=n) - 1,
    ast.DistKind.POIS: lambda rng, n, r: rng.poisson(r, size=n),
}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("scalar_params", [True, False], ids=["scalar", "array"])
def test_inbounds_score_helpers_match_batched_dist(kind, scalar_params):
    """Each family's in-bounds kernel equals its masked kernel on in-support draws."""
    family = FAMILIES[kind]
    rng = np.random.default_rng(0)
    values = _lane(rng, kind)
    params = _params(kind, scalar_params)
    boolean = kind is ast.DistKind.BER
    masked = family.log_prob(*params, values if boolean else values.astype(float))
    fast = family.log_prob_inbounds(*params, values)
    assert fast.dtype == masked.dtype
    assert np.array_equal(fast, masked)
    assert np.array_equal(fast, BatchedDist(kind, params, N).log_prob(values))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_obs_score_helpers_match_batched_dist(kind):
    """Scalar observed values score identically to the full-broadcast path."""
    rng = np.random.default_rng(1)
    params = _params(kind, scalar=True)
    dist = BatchedDist(kind, params, N)
    draws = _lane(rng, kind)
    candidates = [draws[0], -1.0, 2.5, float("nan")]
    if kind is ast.DistKind.BER:
        candidates = [True, False, 1.0]
    for y in candidates:
        y = y.item() if isinstance(y, np.generic) else y
        reference = rt.score_dist(dist, y, N)
        fast = rt.score_obs(FAMILIES[kind], params, y, N)
        assert np.array_equal(fast, reference, equal_nan=True), (kind, y)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_array_param_samplers_match_batched_dist(kind):
    """One sampler per family: the literal draw, for shared and per-particle parameters."""
    params = _params(kind, scalar=False)
    draw = FAMILIES[kind].draw(np.random.default_rng(5), N, *params)
    literal = LITERAL_DRAWS[kind](np.random.default_rng(5), N, *params)
    assert draw.dtype == literal.dtype
    assert np.array_equal(draw, literal)
    shared = BatchedDist(kind, _params(kind, scalar=True), N).sample(np.random.default_rng(5))
    assert shared.dtype == draw.dtype
    assert np.array_equal(shared, draw)
    scalar_class = FAMILIES[kind].build(_params(kind, scalar=True))
    assert np.array_equal(scalar_class.sample_n(np.random.default_rng(5), N), draw)
    per_particle = BatchedDist(kind, params, N).sample(np.random.default_rng(5))
    assert np.array_equal(per_particle, draw)


_LANES = np.random.default_rng(11).normal(0.0, 3.0, size=2 * N)

#: ``(mean, stddev)`` pairs with per-particle parameters, each ``N`` lanes
#: (the 0-d case draws ``N`` values around one 0-d mean).
NORMAL_LANE_CASES = {
    "lane-mean": (_LANES[:N], 1.7),
    "lane-stddev": (0.3, np.abs(_LANES[:N]) + 0.1),
    "both-lanes": (_LANES[:N], np.abs(_LANES[N:]) + 0.1),
    "int64-mean": (np.arange(N, dtype=np.int64) - 100, 2.5),
    "bool-mean": (_LANES[:N] > 0.0, 0.25),
    "strided-view": (_LANES[::2][:N], 0.9),
    "huge-mean": (np.where(_LANES[:N] > 0.0, 1e300, -1e300), np.full(N, 1e-300)),
    "int-stddev": (_LANES[:N], np.arange(1, N + 1, dtype=np.int64)),
    "zero-d-mean": (np.asarray(0.4), 1.3),
}


@pytest.mark.parametrize("case", sorted(NORMAL_LANE_CASES))
@pytest.mark.parametrize("n", [N, 1])
def test_normal_draw_with_lane_parameters_is_rng_normal(case, n):
    """Per-particle Normal draws (``mean + stddev * standard_normal``) equal
    the literal ``rng.normal`` bit for bit: same draws consumed, same
    rounding, same dtype and shape."""
    mean, stddev = NORMAL_LANE_CASES[case]
    if n == 1:
        mean, stddev = (p[:1] if np.ndim(p) else p for p in (mean, stddev))
    for seed in range(4):
        rng, literal_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = FAMILIES[ast.DistKind.NORMAL].draw(rng, n, mean, stddev)
        literal = literal_rng.normal(mean, stddev, size=n)
        assert draw.dtype == literal.dtype and draw.shape == literal.shape
        assert draw.tobytes() == literal.tobytes(), (case, seed)
        assert rng.random() == literal_rng.random()  # the same stream consumed


def test_normal_stddev_is_checked_before_every_lane_draw():
    """The lane draw skips ``rng.normal``'s negative-scale check, so each
    caller refuses a bad ``stddev`` before drawing: ``BatchedDist``, the
    kernels' ``check_param`` and the scalar constructor."""
    family = FAMILIES[ast.DistKind.NORMAL]
    bad = np.where(_LANES[:N] > 0.0, 1.0, -1.0)
    with pytest.raises(EvaluationError, match="stddev must be positive"):
        BatchedDist(ast.DistKind.NORMAL, [0.0, bad], N)
    with pytest.raises(EvaluationError, match="stddev must be positive"):
        rt.check_param(family, 1, bad, N)
    with pytest.raises(EvaluationError, match="stddev"):
        family.build([0.0, -1.0])


@pytest.mark.parametrize("p", [0.37, np.linspace(0.05, 0.95, N)], ids=["scalar-p", "lane-p"])
@pytest.mark.parametrize(
    "value", [True, False, np.True_, np.False_, np.asarray(True), np.asarray(False)],
    ids=["True", "False", "np.True_", "np.False_", "0d-True", "0d-False"],
)
def test_bernoulli_kernel_on_one_value_is_np_where(p, value):
    """One observed Boolean scores only its own branch, and returns exactly
    the array ``np.where`` returns: dtype, shape and bits."""
    kernel = FAMILIES[ast.DistKind.BER].log_prob_inbounds
    got = kernel(p, value)
    expected = np.where(value, np.log(p), np.log1p(-p))
    assert type(got) is np.ndarray
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_score_full_matches_masked_kernels_out_of_support():
    """Values of unknown provenance go through the masked kernels exactly."""
    x = np.array([0.5, -1.0, np.nan, np.inf, 3.0])
    n = len(x)
    for kind, kernel, params in [
        (ast.DistKind.GAMMA, gamma_log_prob_kernel, (np.full(n, 2.0), np.full(n, 1.5))),
        (ast.DistKind.NORMAL, normal_log_prob_kernel, (np.full(n, 0.0), np.full(n, 2.0))),
        (ast.DistKind.BETA, beta_log_prob_kernel, (np.full(n, 2.0), np.full(n, 2.0))),
        (ast.DistKind.POIS, poisson_log_prob_kernel, (np.full(n, 1.5),)),
    ]:
        reference = kernel(*params, x)
        lanes = rt.score_lanes(FAMILIES[kind], params, x, n)
        assert np.array_equal(lanes, reference, equal_nan=True)
        interp = BatchedDist(kind, list(params), n).log_prob(x)
        assert np.array_equal(interp, reference, equal_nan=True)


# ---------------------------------------------------------------------------
# Supported-fragment check
# ---------------------------------------------------------------------------


GUIDE_MIN = """
proc G() provide latent {
  x <- sample.send{latent}(Normal(0.0, 1.0));
  return(x)
}
"""


def _reason(model_src, guide_src=GUIDE_MIN, model_entry="M", guide_entry="G"):
    return compiled_unsupported_reason(
        parse_program(model_src), parse_program(guide_src), model_entry, guide_entry
    )


def test_fragment_accepts_plain_pairs():
    bench = get_benchmark("lr")
    assert compiled_unsupported_reason(
        bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry
    ) is None


def test_fragment_rejects_recursion():
    bench = get_benchmark("gp-dsl")
    reason = compiled_unsupported_reason(
        bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry
    )
    assert "recursive" in reason


def test_fragment_rejects_lambdas():
    src = """
proc M() consume latent provide obs {
  x <- sample.recv{latent}(Normal(0.0, 1.0));
  f <- return(fun(y) y + 1.0);
  _ <- sample.send{obs}(Normal(f(x), 1.0));
  return(x)
}
"""
    assert "higher-order" in _reason(src)


def test_fragment_rejects_first_class_distributions():
    src = """
proc M() consume latent provide obs {
  d <- return(Normal(0.0, 1.0));
  x <- sample.recv{latent}(d);
  _ <- sample.send{obs}(Normal(x, 1.0));
  return(x)
}
"""
    assert "first-class distribution" in _reason(src)


def test_fragment_rejects_model_receiving_on_obs():
    src = """
proc M() consume latent provide obs {
  x <- sample.recv{latent}(Normal(0.0, 1.0));
  y <- sample.recv{obs}(Normal(x, 1.0));
  return(x)
}
"""
    assert "observation channel" in _reason(src)


def test_compile_fused_raises_for_unsupported():
    bench = get_benchmark("ex-2")
    with pytest.raises(CompilationError, match="recursive"):
        compile_kernel_pair(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
        )


@pytest.mark.parametrize("name", ["ptrace", "marsaglia"])
def test_tail_recursive_pairs_compile_to_loop_kernels(name):
    """Tail recursion closes into back-edges: the kernel source stays finite
    and its leaves carry their fork directions as path stamps."""
    bench = get_benchmark(name)
    pair = (bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry)
    assert compiled_unsupported_reason(*pair) is None
    kernel = load_kernel(*pair)
    # Paths run deeper than the compile-time tree, which back-edges keep finite.
    leaves = kernel.run(np.random.default_rng(0), 300, None, (), ())
    for leaf in leaves:
        assert isinstance(leaf.path_id, tuple)
        assert all(isinstance(turn, bool) for turn in leaf.path_id)
    deepest = max(len(dirs) for dirs in kernel.path_dirs)
    assert max(len(leaf.path_id) for leaf in leaves) > deepest


def test_fragment_rejects_observations_inside_loops():
    src = """
proc M() consume latent provide obs {
  x <- call Step();
  return(x)
}

proc Step() consume latent provide obs {
  x <- sample.recv{latent}(Normal(0.0, 1.0));
  _ <- sample.send{obs}(Normal(x, 1.0));
  if.send{latent} x < 0.0 { call Step() } else { return(x) }
}
"""
    assert _reason(src) == "observation traffic inside recursive model procedures"


def test_unconditional_recursion_falls_back():
    """A loop no branch exits would only run into the operation budget; the
    compiler detects the repeated state and hands it to the interpreter."""
    model = parse_program("""
proc M() consume latent provide obs {
  x <- call Step(0.0);
  return(x)
}

proc Step(p: real) consume latent {
  s <- sample.recv{latent}(Normal(0.0, 1.0));
  call Step(p + s)
}
""")
    guide = parse_program("""
proc G() provide latent {
  call GStep()
}

proc GStep() provide latent {
  s <- sample.send{latent}(Normal(0.0, 1.0));
  call GStep()
}
""")
    assert compiled_unsupported_reason(model, guide, "M", "G") is None
    with pytest.raises(CompilationError, match="unconditional recursion"):
        compile_kernel_pair(model, guide, "M", "G")


# ---------------------------------------------------------------------------
# Loaded kernels
# ---------------------------------------------------------------------------


def test_fused_kernel_handles_divergent_branches():
    bench = get_benchmark("ex-1")
    kernel = load_kernel(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry,
    )
    # uniform_or_none partitioning; the worklist pushes the true arm first
    # so the false subgroup runs first (interp LIFO order).
    assert "uniform_or_none" in kernel.source
    assert "for _sb, _sg in ((True, " in kernel.source
    leaves = kernel.run(np.random.default_rng(0), 64, None, (), ())
    assert len(leaves) == 2
    covered = np.sort(np.concatenate([leaf.indices for leaf in leaves]))
    assert np.array_equal(covered, np.arange(64))


def test_fused_kernel_entry_arity_errors_match_interp():
    bench = get_benchmark("weight")
    kernel = load_kernel(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry,
    )
    from repro.errors import EvaluationError

    with pytest.raises(EvaluationError, match="WeighGuide expects 2 arguments"):
        kernel.run(np.random.default_rng(0), 8, None, (), ())


# ---------------------------------------------------------------------------
# Kernel caching and the versioned session cache key
# ---------------------------------------------------------------------------


def test_session_compiles_kernel_once():
    bench = get_benchmark("coin")
    session = ProgramSession(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry,
    )
    kernel1, reason1 = session.compiled_kernel()
    kernel2, _ = session.compiled_kernel()
    assert reason1 is None
    assert kernel1 is kernel2
    assert kernel1 is not None


def test_backend_name_is_validated():
    bench = get_benchmark("coin")
    session = ProgramSession(
        bench.model_program(), bench.guide_program(),
        bench.model_entry, bench.guide_entry,
    )
    with pytest.raises(InferenceError, match="unknown particle backend"):
        session.infer("is", num_particles=10, obs_values=bench.obs_values,
                      backend="gpu")


def test_session_cache_key_includes_typechecker_version(monkeypatch):
    """Regression: a typechecker/compiler version bump must invalidate
    memoised sessions, so stale cached kernels can never be replayed."""
    import repro.engine.session as session_mod

    bench = get_benchmark("weight")
    clear_session_cache()
    clear_kernel_cache()
    s1 = ProgramSession.from_sources(bench.model_source, bench.guide_source)
    assert ProgramSession.from_sources(bench.model_source, bench.guide_source) is s1

    monkeypatch.setattr(session_mod, "TYPECHECKER_VERSION", "9999.test-bump")
    s2 = ProgramSession.from_sources(bench.model_source, bench.guide_source)
    assert s2 is not s1  # the version participates in the key

    monkeypatch.undo()
    assert ProgramSession.from_sources(bench.model_source, bench.guide_source) is s1
    clear_session_cache()


def test_runtime_tuple_arm_merges_like_interp():
    """Regression: a tuple-typed conditional arm under a per-particle
    condition merges component by component on both backends, whether only
    runtime analysis can see the tuples (``let``-bound variables) or the arms
    are tuple literals.  The compiled kernel runs it itself, in one group,
    bit for bit what the interpreter computes, and so does its rescore pass."""
    guide_src = """
proc G() provide latent {
  x <- sample.send{latent}(Normal(0.0, 2.0));
  return(x)
}
"""
    guide = parse_program(guide_src)
    obs = (tr.ValP(0.4),)
    for arm in (
        "(let t = (x, 1.0) in let u = (1.0, x) in if x > 0.0 then t else u).0",
        "(if x > 0.0 then (x, 1.0) else (1.0, x)).1",
    ):
        model = parse_program(
            f"""
proc M() consume latent provide obs {{
  x <- sample.recv{{latent}}(Normal(0.0, 1.0));
  y <- return({arm});
  _ <- sample.send{{obs}}(Normal(y, 1.0));
  return(y)
}}
"""
        )
        assert compiled_unsupported_reason(model, guide, "M", "G") is None
        runners, runs = {}, {}
        for backend in ("interp", "compiled"):
            runners[backend] = make_particle_runner(*session_request(
                model_program=model, guide_program=guide, model_entry="M", guide_entry="G",
                obs_trace=obs, backend=backend,
            ))
            runs[backend] = runners[backend].run(40, np.random.default_rng(9))
            assert runs[backend].backend == backend
            assert runs[backend].num_groups == 1
        assert np.array_equal(
            runs["interp"].model_log_weights, runs["compiled"].model_log_weights
        )
        assert np.array_equal(
            runs["interp"].guide_log_weights, runs["compiled"].guide_log_weights
        )
        leaf = runs["compiled"].leaves[0]
        replayed = {backend: runner.rescore_group(leaf) for backend, runner in runners.items()}
        for side in ("model", "guide"):
            assert np.array_equal(
                replayed["interp"].log_weights[side], replayed["compiled"].log_weights[side]
            )


def test_distribution_host_arguments_run_on_the_interpreter():
    """The gate keeps first-class distributions out of compiled programs, but
    a host argument can still carry one into an ``if`` under a per-particle
    condition, where the group must split — which only the interpreter's
    scheduler does.  ``backend="compiled"`` serves such a request on the
    interpreter, counted and reasoned like a gate refusal."""
    model = parse_program("""
proc M(d: dist(real), e: dist(real)) consume latent provide obs {
  x <- sample.recv{latent}(Normal(0.0, 1.0));
  y <- sample.recv{latent}(if x > 0.0 then d else e);
  _ <- sample.send{obs}(Normal(y, 1.0));
  return(y)
}
""")
    guide = parse_program("""
proc G() provide latent {
  x <- sample.send{latent}(Normal(0.0, 2.0));
  y <- sample.send{latent}(Normal(0.0, 2.0));
  return(x)
}
""")
    assert compiled_unsupported_reason(model, guide, "M", "G") is None
    runs = {}
    mark = REGISTRY.mark()
    for backend in ("interp", "compiled"):
        runner = make_particle_runner(*session_request(
            model_program=model, guide_program=guide, model_entry="M", guide_entry="G",
            obs_trace=(tr.ValP(0.4),), model_args=(Normal(1.0, 1.0), Normal(-1.0, 2.0)),
            backend=backend,
        ))
        runs[backend] = runner.run(100, np.random.default_rng(0))
    moved = REGISTRY.delta(mark)
    assert moved.get('repro_compiled_fallback_total{reason="unsupported-fragment"}') == 1.0
    assert runs["compiled"].backend == "interp"
    assert "passed as arguments" in runs["compiled"].fallback_reason
    assert runs["compiled"].num_groups == 2
    assert np.array_equal(runs["interp"].model_log_weights, runs["compiled"].model_log_weights)


# ---------------------------------------------------------------------------
# Fuzzer-found regression: const provenance must not survive materialisation
# ---------------------------------------------------------------------------


def test_branch_constant_result_feeding_dist_params_compiles():
    """A branch whose arms return literals, feeding a later dist parameter.

    Found by ``repro fuzz`` (seed 12 of the original campaign): the branch
    result is materialised into a per-path local (``_bN = ...``) but used to
    carry its ``const`` provenance flag, so a downstream ``Normal(m, 2.0)``
    looked all-const and was hoisted into the module preamble — where the
    local name does not exist, a ``NameError`` at kernel load.
    """
    model_src = """
proc M() consume latent provide obs {
  x <- sample.recv{latent}(Normal(0.0, 1.0));
  m <- if.send{latent} x > 0.0 {
    _ <- sample.send{obs}(Normal(1.0, 1.0));
    return(2.5)
  } else {
    _ <- sample.send{obs}(Normal(-1.0, 1.0));
    return(-0.5)
  };
  y <- sample.recv{latent}(Normal(m, 2.0));
  return(y)
}
"""
    guide_src = """
proc G() provide latent {
  x <- sample.send{latent}(Normal(0.0, 1.5));
  m <- if.recv{latent} { return(x) } else { return(x) };
  y <- sample.send{latent}(Normal(0.0, 2.0));
  return(y)
}
"""
    model, guide = parse_program(model_src), parse_program(guide_src)
    assert compiled_unsupported_reason(model, guide, "M", "G") is None
    kernel = load_kernel(model, guide, "M", "G")  # must not raise NameError

    obs = (tr.ValP(0.4),)
    runs = {}
    for backend in ("interp", "compiled"):
        runner = make_particle_runner(*session_request(
            model_program=model, guide_program=guide, model_entry="M", guide_entry="G",
            obs_trace=obs, backend=backend,
        ))
        runs[backend] = runner.run(64, np.random.default_rng(3))
    assert runs["compiled"].backend == "compiled"
    assert np.array_equal(
        runs["interp"].log_weights(), runs["compiled"].log_weights()
    )
    assert kernel.lines_of_code > 0


def test_observe_commands_compile_and_match_interp():
    """Regression: a model-side ``observe`` must record its score in the
    leaf's observation scores like the interpreter, in op order with the
    channel observations — the path-tree kernel used to reference an
    ``obs_sc`` list it never bound (a NameError at run time)."""
    model_src = """
proc M() consume latent provide obs {
  x <- sample.recv{latent}(Normal(0.0, 1.0));
  _ <- observe(Normal(x, 1.0), 0.3);
  _ <- sample.send{obs}(Normal(x, 1.0));
  return(x)
}
"""
    guide_src = """
proc G() provide latent {
  x <- sample.send{latent}(Normal(0.0, 2.0));
  return(x)
}
"""
    model, guide = parse_program(model_src), parse_program(guide_src)
    assert compiled_unsupported_reason(model, guide, "M", "G") is None
    common = dict(
        model_program=model, guide_program=guide, model_entry="M",
        guide_entry="G", obs_trace=(tr.ValP(0.4),),
    )
    interp = make_particle_runner(*session_request(backend="interp", **common))
    compiled = make_particle_runner(*session_request(backend="compiled", **common))
    r_interp = interp.run(50, np.random.default_rng(1))
    r_compiled = compiled.run(50, np.random.default_rng(1))
    assert r_compiled.backend == "compiled"
    assert np.array_equal(r_interp.log_weights(), r_compiled.log_weights())
    assert np.array_equal(r_interp.obs_score_rows(), r_compiled.obs_score_rows())
    for leaf in r_compiled.leaves:
        expected = interp.rescore_group(leaf)
        got = compiled.rescore_group(leaf)
        assert np.array_equal(expected.log_weights["model"], got.log_weights["model"])

"""Correctness of the lockstep vectorized particle runtime.

The strongest check available: for any particle, the per-particle log
weights accumulated by the vectorized scheduler must *exactly* match the
big-step evaluator's ``log_density`` of that particle's materialised trace —
the same cross-validation the sequential coroutine scheduler is tested
against.  On top of that, estimator-level agreement with the sequential
importance sampler, and group-splitting behaviour at divergent branches,
including ``if`` expressions over tuples, closures and distributions.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.compiler import batched_runtime as _rt
from repro.compiler import compiled_unsupported_reason
from repro.core import ast
from repro.core.parser import parse_program
from repro.core.semantics import traces as tr
from repro.core.semantics.evaluate import log_density
from repro.engine import BatchedDist, vectorized_importance
from repro.engine.backend import CompiledParticleRunner, make_particle_runner
from repro.engine.smc import smc
from repro.engine.vectorize import (
    ParticleVectorizer,
    VecMessage,
    eval_expr_vec,
    interpret_command_vec,
    interpret_procedure_vec,
    merge_lanes,
)
from repro.errors import (
    ChannelProtocolError,
    EvaluationError,
    InferenceError,
    TraceExhausted,
    TraceTypeMismatch,
)
from repro.inference import importance_sampling
from repro.models import get_benchmark

#: A recursive pair whose recursion terminates with probability one (the
#: Fig. 6 PCFG is supercritical for half its ``k`` draws, so it is not
#: usable for deterministic tests — both the sequential and the vectorized
#: engines hit the operation budget on any sizeable batch).
SUBCRITICAL_CHAIN_MODEL = """
proc Chain() consume latent provide obs {
  total <- call Step(0.0);
  _ <- sample.send{obs}(Normal(total, 1.0));
  return(total)
}
proc Step(acc: real) consume latent {
  u <- sample.recv{latent}(Unif);
  if.send{latent} u < 0.75 {
    x <- sample.recv{latent}(Normal(0.0, 1.0));
    return(acc + x)
  } else {
    rest <- call Step(acc);
    return(rest)
  }
}
"""

SUBCRITICAL_CHAIN_GUIDE = """
proc ChainGuide() provide latent {
  total <- call StepGuide(0.0);
  return(total)
}
proc StepGuide(acc: real) provide latent {
  u <- sample.send{latent}(Unif);
  if.recv{latent} {
    x <- sample.send{latent}(Normal(0.5, 1.5));
    return(acc + x)
  } else {
    rest <- call StepGuide(acc);
    return(rest)
  }
}
"""


def _cross_check_densities(run, bench, obs_trace, guide_args=(), stride=37):
    """Every materialised trace scores identically under the evaluator."""
    model = bench.model_program()
    guide = bench.guide_program()
    for i in range(0, run.num_particles, stride):
        trace = run.trace_for(i)
        traces = {"latent": trace}
        if obs_trace and model.procedure(bench.model_entry).provides == "obs":
            traces["obs"] = obs_trace
        model_lw = log_density(model, bench.model_entry, traces)
        guide_lw = log_density(guide, bench.guide_entry, {"latent": trace}, args=guide_args)
        assert run.model_log_weights[i] == pytest.approx(model_lw, abs=1e-8)
        assert run.guide_log_weights[i] == pytest.approx(guide_lw, abs=1e-8)


class TestExactness:
    @pytest.mark.parametrize(
        "name,site",
        [("ex-1", 0), ("lr", 0), ("gmm", 0), ("kalman", 3), ("sprinkler", 0),
         ("hmm", 0), ("branching", 0), ("coin", 0)],
    )
    def test_per_particle_weights_match_the_evaluator(self, name, site):
        bench = get_benchmark(name)
        obs_trace = tuple(tr.ValP(v) for v in bench.obs_values) or None
        result = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=400,
            rng=np.random.default_rng(5),
        )
        _cross_check_densities(result.run, bench, obs_trace)
        # Sanity: the estimator is usable.
        assert math.isfinite(result.log_evidence())
        assert math.isfinite(result.posterior_expectation_of_site(site))

    def test_guide_arguments_thread_through(self):
        bench = get_benchmark("weight")
        obs_trace = (tr.ValP(9.5),)
        result = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=3000,
            rng=np.random.default_rng(0), guide_args=(8.5, 0.0),
        )
        _cross_check_densities(result.run, bench, obs_trace, guide_args=(8.5, 0.0))
        # Conjugate normal-normal posterior mean: 9.1379...
        assert result.posterior_expectation_of_site(0) == pytest.approx(9.138, abs=0.15)

    def test_recursive_model_splits_and_stays_exact(self):
        model = parse_program(SUBCRITICAL_CHAIN_MODEL)
        guide = parse_program(SUBCRITICAL_CHAIN_GUIDE)
        obs_trace = (tr.ValP(1.2),)
        result = vectorized_importance(
            model, guide, "Chain", "ChainGuide",
            obs_trace=obs_trace, num_particles=600, rng=np.random.default_rng(3),
        )
        run = result.run
        # Recursion depth differs across particles: there must be one group
        # per realised unfolding depth, all exact.
        assert run.num_groups > 1
        for i in range(0, 600, 29):
            trace = run.trace_for(i)
            model_lw = log_density(model, "Chain", {"latent": trace, "obs": obs_trace})
            guide_lw = log_density(guide, "ChainGuide", {"latent": trace})
            assert run.model_log_weights[i] == pytest.approx(model_lw, abs=1e-8)
            assert run.guide_log_weights[i] == pytest.approx(guide_lw, abs=1e-8)


class TestEstimatorAgreement:
    def test_posterior_mean_matches_sequential_path(self):
        bench = get_benchmark("ex-1")
        obs_trace = (tr.ValP(0.8),)
        vec = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=4000, rng=np.random.default_rng(1),
        )
        seq = importance_sampling(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_samples=4000, rng=np.random.default_rng(2),
        )
        assert vec.posterior_expectation_of_site(0) == pytest.approx(
            seq.posterior_expectation_of_site(0), abs=0.3
        )
        assert vec.log_evidence() == pytest.approx(seq.log_evidence(), abs=0.2)

    def test_to_importance_result_materialises_equivalent_samples(self):
        bench = get_benchmark("ex-1")
        obs_trace = (tr.ValP(0.8),)
        vec = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=300, rng=np.random.default_rng(1),
        )
        materialised = vec.to_importance_result()
        assert materialised.num_samples == 300
        assert materialised.posterior_expectation_of_site(0) == pytest.approx(
            vec.posterior_expectation_of_site(0), abs=1e-9
        )
        # Materialised traces carry plain Python payloads, like the scalar path.
        for sample in materialised.samples[:20]:
            for value in sample.latent_values:
                assert isinstance(value, (bool, int, float))


class TestRunStructure:
    def test_branch_split_produces_two_groups(self):
        bench = get_benchmark("ex-1")
        result = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=(tr.ValP(0.8),), num_particles=500, rng=np.random.default_rng(0),
        )
        run = result.run
        assert run.num_groups == 2
        # Group membership agrees with the branch predicate v < 2.0.
        first_site = run.site_values(0)
        second_site = run.site_values(1)  # @m exists only on the else branch
        assert np.all(np.isnan(second_site[first_site < 2.0]))
        assert np.all(~np.isnan(second_site[first_site >= 2.0]))

    def test_obs_score_matrix_decomposes_model_weight(self):
        bench = get_benchmark("kalman")
        obs_trace = tuple(tr.ValP(v) for v in bench.obs_values)
        result = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=200, rng=np.random.default_rng(0),
        )
        run = result.run
        scores = run.obs_score_rows()
        assert scores.shape == (len(bench.obs_values), 200)
        # Each row is exactly the kalman likelihood term Normal(x_t, 0.5)
        # of that observation given the particle's latent state.
        from repro.dists.continuous import Normal

        for i in range(0, 200, 17):
            states = [float(v) for v in tr.sample_values(run.trace_for(i))]
            for t, observed in enumerate(bench.obs_values):
                expected = Normal(states[t], 0.5).log_prob(observed)
                assert scores[t, i] == pytest.approx(expected, abs=1e-8)
        assert np.all(np.isfinite(run.guide_log_weights))

    def test_leaves_partition_the_population_in_order(self):
        """On every runnable library pair, both backends (and a 2-shard
        merge) give leaves whose indices ascend and partition ``0..n-1``,
        so a run with one leaf holds every particle in order.  The
        population arrays ``VectorRunResult`` builds (straight copies for
        that one leaf) equal the scatter through each leaf's indices and
        never alias the leaves' arrays."""
        from repro.bench.snapshot import load_snapshot, runnable_models
        from repro.engine import ProgramSession
        from repro.errors import ReproError

        whole = 0
        for name, entry in runnable_models(load_snapshot()).items():
            session = ProgramSession.from_sources(
                entry["model_source"], entry["guide_source"],
                model_entry=entry.get("model_entry"), guide_entry=entry.get("guide_entry"),
            )
            obs = tuple(tr.ValP(v) for v in entry["obs_values"]) or None
            for backend, shards, n in (
                ("interp", 1, 1), ("interp", 1, 97), ("compiled", 1, 1),
                ("compiled", 1, 97), ("compiled", 2, 97),
            ):
                runner = make_particle_runner(
                    session.model_program, session.guide_program,
                    session.model_entry, session.guide_entry, obs_trace=obs,
                    guide_args=tuple(entry["guide_args"]), backend=backend,
                    session=session, shards=shards,
                )
                try:
                    run = runner.run(n, np.random.default_rng(7))
                except ReproError:
                    continue  # e.g. a supercritical recursion over its budget
                indices = [leaf.indices for leaf in run.leaves]
                assert all(np.all(np.diff(ix) > 0) for ix in indices), (name, backend)
                assert np.array_equal(np.sort(np.concatenate(indices)), np.arange(n))
                if len(run.leaves) == 1:
                    whole += 1
                    assert np.array_equal(indices[0], np.arange(n)), (name, backend)
                self._assert_population_is_the_scatter(run, n)
        assert whole > 20

    @staticmethod
    def _assert_population_is_the_scatter(run, n):
        for attr in ("model_log_weights", "guide_log_weights"):
            expected = np.empty(n)
            for leaf in run.leaves:
                expected[leaf.indices] = getattr(leaf, attr)
                assert not np.shares_memory(getattr(run, attr), getattr(leaf, attr))
            assert getattr(run, attr).tobytes() == expected.tobytes()
        rows = run.obs_score_rows()
        if rows is not None:
            expected = np.zeros(rows.shape)
            for leaf in run.leaves:
                for t, scores in enumerate(leaf.obs_scores):
                    expected[t, leaf.indices] = scores
                    assert not np.shares_memory(rows, scores)
            assert rows.tobytes() == expected.tobytes()
        values = run.site_values(0)
        expected = np.full(n, np.nan)
        for leaf in run.leaves:
            columns = [m.payload for m in leaf.recorded.get("latent", []) if m.kind == "val"]
            if columns:
                expected[leaf.indices] = np.asarray(columns[0], dtype=float)
                assert not np.shares_memory(values, columns[0])
        assert values.tobytes() == expected.tobytes()

    def test_all_zero_weights_raise(self):
        model = parse_program(
            """
            proc M() consume latent provide obs {
              b <- sample.recv{latent}(Ber(0.5));
              _ <- sample.send{obs}(Normal(0.0, 1.0));
              return(b)
            }
            """
        )
        guide = parse_program(
            """
            proc G() provide latent {
              p <- sample.send{latent}(Unif);
              return(p)
            }
            """
        )
        with pytest.raises(InferenceError):
            vectorized_importance(
                model, guide, "M", "G",
                obs_trace=(tr.ValP(0.3),), num_particles=50,
                rng=np.random.default_rng(6),
            )


#: Lane ``if``s over every kind of value the language has, as one model line
#: each: ``(line, arms a kernel can merge, groups the lockstep run ends in)``.
#: A closure or distribution arm cannot be merged, so its group splits on
#: ``x > 0`` (two groups); a tuple merges component by component (one group).
LANE_IF_ARMS = {
    "let-tuple": (
        "y <- return((let t = (x, 1.0) in let u = (1.0, x) in if x > 0.0 then t else u).0);",
        True, 1,
    ),
    "syntactic-tuple": (
        "y <- return((if x > 0.0 then (x, 1.0) else (1.0, x)).1);",
        True, 1,
    ),
    "closure": (
        "y <- return(let f = (if x > 0.0 then fun(z) z + 1.0 else fun(z) z - 1.0) in f(x));",
        False, 2,
    ),
    "distribution": (
        "y <- sample.recv{latent}(if x > 0.0 then Normal(1.0, 1.0) else Normal(-1.0, 2.0));",
        False, 2,
    ),
}


def _lane_if_pair(name):
    line = LANE_IF_ARMS[name][0]
    model = parse_program(
        f"""
        proc M() consume latent provide obs {{
          x <- sample.recv{{latent}}(Normal(0.0, 1.0));
          {line}
          _ <- sample.send{{obs}}(Normal(y, 1.0));
          return(y)
        }}
        """
    )
    second = (
        "y <- sample.send{latent}(Normal(0.0, 2.0));" if name == "distribution" else ""
    )
    guide = parse_program(
        f"""
        proc G() provide latent {{
          x <- sample.send{{latent}}(Normal(0.0, 2.0));
          {second}
          return(x)
        }}
        """
    )
    return model, guide


@pytest.mark.parametrize("name", sorted(LANE_IF_ARMS))
def test_lane_if_runs_lockstep_over_every_kind_of_value(name):
    """An ``if`` under a per-particle condition is total over the language's
    values: tuples merge, closures and distributions split the group.  Every
    run stays one lockstep run, exact against ``log_density``, on both
    backends, and SMC runs it."""
    _, mergeable, groups = LANE_IF_ARMS[name]
    model, guide = _lane_if_pair(name)
    obs = (tr.ValP(0.4),)
    runs = {}
    for backend in ("interp", "compiled"):
        runner = make_particle_runner(
            model_program=model, guide_program=guide, model_entry="M", guide_entry="G",
            obs_trace=obs, backend=backend,
        )
        assert isinstance(runner, CompiledParticleRunner) == (backend == "compiled" and mergeable)
        run = runner.run(300, np.random.default_rng(9))
        runs[backend] = run
        assert run.num_groups == groups
        assert run.obs_score_rows().shape == (1, 300)
        for i in range(0, 300, 23):
            trace = run.trace_for(i)
            model_lw = log_density(model, "M", {"latent": trace, "obs": obs})
            guide_lw = log_density(guide, "G", {"latent": trace})
            assert run.model_log_weights[i] == pytest.approx(model_lw, abs=1e-9)
            assert run.guide_log_weights[i] == pytest.approx(guide_lw, abs=1e-9)
    if mergeable:
        assert compiled_unsupported_reason(model, guide, "M", "G") is None
        assert runs["compiled"].backend == "compiled"
        for side in ("model_log_weights", "guide_log_weights"):
            assert np.array_equal(getattr(runs["interp"], side), getattr(runs["compiled"], side))
        assert np.array_equal(runs["interp"].site_values(0), runs["compiled"].site_values(0))
    result = smc(model, guide, "M", "G", obs, 200, rng=np.random.default_rng(3))
    assert np.isfinite(result.posterior_mean(0))


class TestVectorizedExpressions:
    def test_if_expression_merges_lanes(self):
        expr = parse_program(
            """
            proc P(x: real) consume latent {
              v <- sample.recv{latent}(Normal(if x < 0.0 then 0.0 - x else x, 1.0));
              return(v)
            }
            """
        ).procedure("P").body
        dist_expr = expr.first.dist
        values = eval_expr_vec({"x": np.asarray([-2.0, 3.0])}, dist_expr, 2)
        assert isinstance(values, BatchedDist)

    def test_batched_dist_array_params_match_scalar_loop(self):
        rng = np.random.default_rng(0)
        means = np.asarray([-1.0, 0.0, 2.0])
        dist = BatchedDist(ast.DistKind.NORMAL, [means, 0.5], 3)
        values = dist.sample(rng)
        scores = dist.log_prob(values)
        from repro.dists.continuous import Normal

        for i in range(3):
            expected = Normal(float(means[i]), 0.5).log_prob(float(values[i]))
            assert scores[i] == pytest.approx(expected, abs=1e-10)

    def test_batched_dist_invalid_array_params_raise(self):
        with pytest.raises(EvaluationError):
            BatchedDist(ast.DistKind.NORMAL, [np.asarray([0.0, 0.0]), np.asarray([1.0, -1.0])], 2)

    # -- the shared lane helpers ----------------------------------------------
    #
    # The interpreter (``eval_expr_vec`` and the scheduler) and the compiled
    # kernels (``batched_runtime``'s ``_rt`` helpers) call one set of lane
    # helpers, so interp-vs-compiled parity cannot see a change to one of
    # them; these literal expectations pin each on scalar, NumPy-scalar and
    # lane inputs.

    @pytest.mark.parametrize(
        "op, scalar, lanes",
        [
            (ast.BinOp.ADD, 4.0, [3.0, 4.0, 6.0]),
            (ast.BinOp.SUB, 0.0, [-1.0, 0.0, 2.0]),
            (ast.BinOp.MUL, 4.0, [2.0, 4.0, 8.0]),
            (ast.BinOp.DIV, 1.0, [0.5, 1.0, 2.0]),
            (ast.BinOp.LT, False, [True, False, False]),
            (ast.BinOp.LE, True, [True, True, False]),
            (ast.BinOp.GT, False, [False, False, True]),
            (ast.BinOp.GE, True, [False, True, True]),
            (ast.BinOp.EQ, True, [False, True, False]),
            (ast.BinOp.NE, False, [True, False, True]),
        ],
        ids=["ADD", "SUB", "MUL", "DIV", "LT", "LE", "GT", "GE", "EQ", "NE"],
    )
    def test_binary_operators_on_scalars_numpy_scalars_and_lanes(self, op, scalar, lanes):
        helper = {ast.BinOp.EQ: _rt.eq, ast.BinOp.NE: _rt.ne, ast.BinOp.DIV: _rt.div}.get(op)
        expr = ast.PrimOp(op, ast.Var("x"), ast.Var("y"))
        for x in (2.0, np.float64(2.0), np.asarray([1.0, 2.0, 4.0])):
            want = lanes if isinstance(x, np.ndarray) else scalar
            results = [eval_expr_vec({"x": x, "y": 2.0}, expr, 3)]
            if helper is not None:
                results.append(helper(x, 2.0))
            for got in results:
                assert isinstance(got, np.ndarray) == isinstance(x, np.ndarray)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "op, helper, scalar, lanes",
        [
            (ast.UnOp.NEG, None, -4.0, [-1.0, -4.0]),
            (ast.UnOp.EXP, _rt.exp_, math.exp(4.0), [math.e, math.exp(4.0)]),
            (ast.UnOp.LOG, _rt.log_, math.log(4.0), [0.0, math.log(4.0)]),
            (ast.UnOp.SQRT, _rt.sqrt_, 2.0, [1.0, 2.0]),
        ],
        ids=["NEG", "EXP", "LOG", "SQRT"],
    )
    def test_unary_operators_on_scalars_numpy_scalars_and_lanes(self, op, helper, scalar, lanes):
        expr = ast.PrimUnOp(op, ast.Var("x"))
        for x in (4.0, np.float64(4.0), np.asarray([1.0, 4.0])):
            want = lanes if isinstance(x, np.ndarray) else scalar
            results = [eval_expr_vec({"x": x}, expr, 2)]
            if helper is not None:
                results.append(helper(x))
            for got in results:
                assert isinstance(got, np.ndarray) == isinstance(x, np.ndarray)
                np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_partial_operators_raise_on_scalars_and_mask_lanes(self):
        cases = [
            (ast.PrimOp(ast.BinOp.DIV, ast.Var("x"), ast.RealLit(0.0)), lambda x: _rt.div(x, 0.0),
             1.0, "division by zero", np.inf),
            (ast.PrimUnOp(ast.UnOp.LOG, ast.Var("x")), _rt.log_,
             -1.0, "log of a non-positive number -1.0", np.nan),
            (ast.PrimUnOp(ast.UnOp.SQRT, ast.Var("x")), _rt.sqrt_,
             -1.0, "sqrt of a negative number -1.0", np.nan),
        ]
        for expr, helper, bad, message, lane in cases:
            for x in (bad, np.float64(bad)):
                with pytest.raises(EvaluationError) as raised:
                    eval_expr_vec({"x": x}, expr, 2)
                assert str(raised.value) == message
                with pytest.raises(EvaluationError) as raised:
                    helper(x)
                assert str(raised.value) == message
            x = np.asarray([bad, 4.0])
            for got in (eval_expr_vec({"x": x}, expr, 2), helper(x)):
                np.testing.assert_array_equal(got[:1], [lane])

    def test_boolean_operators_short_circuit_on_scalars(self):
        boom = ast.Var("undefined")  # raises if evaluated

        def raising():
            raise AssertionError("the right operand was evaluated")

        assert eval_expr_vec({}, ast.PrimOp(ast.BinOp.AND, ast.BoolLit(False), boom), 2) is False
        assert eval_expr_vec({}, ast.PrimOp(ast.BinOp.OR, ast.BoolLit(True), boom), 2) is True
        assert _rt.and_(False, raising) is False
        assert _rt.or_(True, raising) is True
        x_lt = ast.PrimOp(ast.BinOp.LT, ast.Var("x"), ast.RealLit(3.0))
        not_true = ast.PrimUnOp(ast.UnOp.NOT, ast.BoolLit(True))
        env = {"x": 2.0}
        assert eval_expr_vec(env, ast.PrimOp(ast.BinOp.AND, ast.BoolLit(True), x_lt), 2) is True
        assert eval_expr_vec(env, ast.PrimOp(ast.BinOp.OR, ast.BoolLit(False), not_true), 2) is False
        assert _rt.and_(True, lambda: False) is False
        assert _rt.or_(False, lambda: True) is True
        assert eval_expr_vec({}, ast.PrimUnOp(ast.UnOp.NOT, ast.BoolLit(True)), 2) is False
        assert _rt.not_(False) is True

    def test_boolean_operators_are_strict_over_lanes(self):
        x = np.asarray([1.0, 2.0, 4.0])
        lt3 = ast.PrimOp(ast.BinOp.LT, ast.Var("x"), ast.RealLit(3.0))
        gt1 = ast.PrimOp(ast.BinOp.GT, ast.Var("x"), ast.RealLit(1.5))
        env = {"x": x}
        np.testing.assert_array_equal(
            eval_expr_vec(env, ast.PrimOp(ast.BinOp.AND, lt3, gt1), 3), [False, True, False]
        )
        np.testing.assert_array_equal(
            eval_expr_vec(env, ast.PrimOp(ast.BinOp.OR, gt1, ast.BoolLit(False)), 3),
            [False, True, True],
        )
        np.testing.assert_array_equal(
            eval_expr_vec(env, ast.PrimUnOp(ast.UnOp.NOT, lt3), 3), [False, False, True]
        )
        with pytest.raises(EvaluationError, match="unbound variable 'undefined'"):
            eval_expr_vec(env, ast.PrimOp(ast.BinOp.OR, lt3, ast.Var("undefined")), 3)
        mask = np.asarray([True, False])
        np.testing.assert_array_equal(_rt.and_(mask, lambda: np.asarray([True, True])), mask)
        np.testing.assert_array_equal(_rt.or_(mask, lambda: False), mask)
        np.testing.assert_array_equal(_rt.not_(mask), [False, True])
        with pytest.raises(EvaluationError, match="right operand of &&: expected a Boolean, got 1.0"):
            _rt.and_(mask, lambda: 1.0)

    def test_boolean_screens_reject_non_booleans_with_their_texts(self):
        one = ast.RealLit(1.0)
        cases = [
            (ast.IfExpr(one, one, one), "if-condition: expected a Boolean, got 1.0"),
            (ast.PrimOp(ast.BinOp.AND, one, ast.BoolLit(True)),
             "left operand of &&: expected a Boolean, got 1.0"),
            (ast.PrimOp(ast.BinOp.OR, ast.BoolLit(False), one),
             "right operand of ||: expected a Boolean, got 1.0"),
            (ast.PrimUnOp(ast.UnOp.NOT, one), "operand of !: expected a Boolean, got 1.0"),
        ]
        for expr, message in cases:
            with pytest.raises(EvaluationError) as raised:
                eval_expr_vec({}, expr, 2)
            assert str(raised.value) == message
        for value, shown in ((1.0, "1.0"), (np.asarray([1.0, 0.0]), "array([1., 0.])")):
            with pytest.raises(EvaluationError) as raised:
                _rt.as_bool(value, "branch predicate")
            assert str(raised.value) == f"branch predicate: expected a Boolean, got {shown}"
        lanes = np.asarray([True, False])
        assert _rt.as_bool(lanes, "branch predicate") is lanes
        assert _rt.as_bool(False, "branch predicate") is False

    def test_boolean_screens_accept_numpy_booleans(self):
        from repro.core.semantics.values import _as_bool

        for screen in (_rt.as_bool, _as_bool):
            got = screen(np.True_, "branch predicate")
            assert got is True
        eq = ast.PrimOp(ast.BinOp.EQ, ast.Var("x"), ast.RealLit(2.0))
        expr = ast.IfExpr(eq, ast.RealLit(1.0), ast.RealLit(0.0))
        assert eval_expr_vec({"x": np.float64(2.0)}, expr, 2) == 1.0
        assert _rt.ifexp(np.True_, lambda: 1.0, lambda: 0.0) == 1.0
        assert _rt.not_(np.False_) is True
        assert _rt.and_(np.True_, lambda: np.False_) is False

    def test_if_expression_is_lazy_on_scalars_and_strict_over_lanes(self):
        positive = ast.PrimOp(ast.BinOp.GT, ast.Var("x"), ast.RealLit(0.0))
        log_x = ast.IfExpr(positive, ast.PrimUnOp(ast.UnOp.LOG, ast.Var("x")), ast.RealLit(0.0))
        inv_x = ast.IfExpr(
            positive, ast.PrimOp(ast.BinOp.DIV, ast.RealLit(1.0), ast.Var("x")), ast.RealLit(0.0)
        )
        assert eval_expr_vec({"x": -1.0}, log_x, 2) == 0.0
        np.testing.assert_array_equal(
            eval_expr_vec({"x": np.asarray([-1.0, math.e])}, log_x, 2), [0.0, 1.0]
        )
        np.testing.assert_array_equal(
            eval_expr_vec({"x": np.asarray([0.0, 2.0])}, inv_x, 2), [0.0, 0.5]
        )

        def raising():
            raise AssertionError("the unselected arm was evaluated")

        assert _rt.ifexp(True, lambda: 1.0, raising) == 1.0
        assert _rt.ifexp(False, raising, lambda: 2.0) == 2.0
        np.testing.assert_array_equal(
            _rt.ifexp(np.asarray([True, False]), lambda: np.asarray([1.0, 2.0]), lambda: 5.0),
            [1.0, 5.0],
        )
        with pytest.raises(EvaluationError, match="if-expression arm: expected a number"):
            _rt.ifexp(np.asarray([True, False]), lambda: (1.0,), lambda: 5.0)

    @pytest.mark.parametrize(
        "then_value, else_value",
        [
            (0.7, 0.3), (float("nan"), -0.0), (-0.0, 0.0), (1e308, -5e-324),
            (1, 0), (True, False), (1, 0.5), (0.5, True), (np.float64(0.7), 0.3),
        ],
        ids=["floats", "nan-negzero", "signed-zeros", "extremes", "ints", "bools",
             "int-float", "float-bool", "np.float64-float"],
    )
    @pytest.mark.parametrize("lanes", [257, 0, 1], ids=["lanes", "empty", "one"])
    def test_merge_lanes_is_np_where(self, then_value, else_value, lanes):
        """Two Python-float arms gather from a two-entry table; every other
        arm pair keeps ``np.where``.  Either way the result is the array
        ``np.where`` returns: dtype, shape and bits, over 1-d and 0-d
        conditions (a 0-d condition keeps ``np.where``'s 0-d array)."""
        conds = [np.random.default_rng(3).random(lanes) < 0.5, np.asarray(True), np.asarray(False)]
        conds.append(conds[0][::-1])  # a negatively strided view
        for cond in conds:
            got = merge_lanes(cond, then_value, else_value)
            expected = np.where(cond, then_value, else_value)
            assert type(got) is np.ndarray
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_projection_and_distribution_values(self):
        pair = (1.0, 2.0)
        assert eval_expr_vec({"t": pair}, ast.Proj(ast.Var("t"), 1), 2) == 2.0
        assert _rt.proj(pair, 1) == 2.0
        with pytest.raises(EvaluationError) as raised:
            eval_expr_vec({"t": pair}, ast.Proj(ast.Var("t"), 2), 2)
        assert str(raised.value) == "invalid projection .2 from (1.0, 2.0)"
        with pytest.raises(EvaluationError) as raised:
            _rt.proj(pair, 2)
        assert str(raised.value) == "invalid projection .2 from (1.0, 2.0)"

        normal = ast.DistExpr(ast.DistKind.NORMAL, (ast.BoolLit(True), ast.RealLit(1.0)))
        with pytest.raises(EvaluationError) as raised:
            eval_expr_vec({}, normal, 3)
        assert str(raised.value) == "Normal parameter: expected a number, got True"
        with pytest.raises(EvaluationError) as raised:
            _rt.make_batched(ast.DistKind.NORMAL, (True, 1.0), 3)
        assert str(raised.value) == "Normal parameter: expected a number, got True"
        assert isinstance(_rt.make_batched(ast.DistKind.NORMAL, (np.float64(0.0), 1.0), 3),
                          BatchedDist)

        program = parse_program(
            "proc P(d: real) consume latent {\n"
            "  v <- sample.recv{latent}(d);\n"
            "  return(v)\n}\n",
        )
        with pytest.raises(EvaluationError) as raised:
            next(interpret_procedure_vec(program, "P", (1.0,), 3))
        assert str(raised.value) == "sample command expects a distribution, got 1.0"
        with pytest.raises(EvaluationError) as raised:
            _rt.as_batched(1.0, 3)
        assert str(raised.value) == "sample command expects a distribution, got 1.0"
        from repro.dists.continuous import Normal

        wrapped = _rt.as_batched(Normal(0.0, 1.0), 3)
        assert isinstance(wrapped, BatchedDist) and wrapped.n == 3

    def test_argument_binding_texts(self):
        program = parse_program(
            "proc P(a: real, b: real) consume latent {\n"
            "  v <- sample.recv{latent}(Normal(a, b));\n"
            "  return(v)\n}\n"
            "proc Q() consume latent {\n"
            "  v <- call P(1.0);\n"
            "  return(v)\n}\n",
        )
        with pytest.raises(EvaluationError) as raised:
            interpret_procedure_vec(program, "P", (1.0,), 3)
        assert str(raised.value) == "P expects 2 arguments, got 1"
        with pytest.raises(EvaluationError) as raised:
            _rt.bind_args("P", 2, (1.0,))
        assert str(raised.value) == "P expects 2 arguments, got 1"
        with pytest.raises(EvaluationError) as raised:
            next(interpret_command_vec(program, program.procedure("Q").body, {}, 3))
        assert str(raised.value) == "P expects 2 arguments, got 1.0"
        with pytest.raises(EvaluationError) as raised:
            _rt.bind_call("P", 2, 1.0)
        assert str(raised.value) == "P expects 2 arguments, got 1.0"
        assert _rt.bind_args("P", 2, [1.0, 2.0]) == (1.0, 2.0)
        assert _rt.bind_call("P", 2, (1.0, 2.0)) == (1.0, 2.0)

    def test_branch_uniformity(self):
        assert _rt.uniform_or_none(True) is True
        assert _rt.uniform_or_none(False) is False
        assert _rt.uniform_or_none(np.asarray([True, True])) is True
        assert _rt.uniform_or_none(np.asarray([False, False])) is False
        assert _rt.uniform_or_none(np.asarray([True, False])) is None

    def test_observation_replay_texts(self):
        model = parse_program(
            "proc M() consume latent provide obs {\n"
            "  x <- sample.recv{latent}(Normal(0.0, 1.0));\n"
            "  _ <- call Obs(x);\n"
            "  return(x)\n}\n"
            "proc Obs(x: real) provide obs {\n"
            "  _ <- sample.send{obs}(Normal(x, 1.0));\n"
            "  return(x)\n}\n",
        )
        guide = parse_program(
            "proc G() provide latent {\n"
            "  x <- sample.send{latent}(Normal(0.0, 1.0));\n"
            "  return(x)\n}\n",
        )
        cases = [
            ((), TraceExhausted,
             "call marker on obs: expected a Fold message but the trace is exhausted"),
            ((tr.ValP(1.0),), TraceTypeMismatch,
             "call marker on obs: expected a Fold message but found valP(1)"),
            ((tr.Fold(),), TraceExhausted,
             "send on obs: expected a Message message but the trace is exhausted"),
            ((tr.Fold(), tr.Fold()), ChannelProtocolError,
             "send on obs: replay trace provides fold, expected a sample value"),
        ]
        for obs, error, message in cases:
            vectorizer = ParticleVectorizer(model, guide, "M", "G", obs_trace=obs)
            with pytest.raises(error) as raised:
                vectorizer.run(3, np.random.default_rng(0))
            assert str(raised.value) == message
        runtime = [
            (lambda: _rt.obs_fold((), 0, "call marker on obs"), TraceExhausted, cases[0][2]),
            (lambda: _rt.obs_fold((tr.ValP(1.0),), 0, "call marker on obs"),
             TraceTypeMismatch, cases[1][2]),
            (lambda: _rt.obs_value((tr.Fold(),), 1, "send on obs"), TraceExhausted, cases[2][2]),
            (lambda: _rt.obs_value((tr.Fold(),), 0, "send on obs"),
             ChannelProtocolError, cases[3][2]),
        ]
        for call, error, message in runtime:
            with pytest.raises(error) as raised:
                call()
            assert str(raised.value) == message
        assert _rt.obs_value((tr.Fold(), tr.ValP(0.5)), 1, "send on obs") == 0.5
        assert _rt.obs_fold((tr.Fold(),), 0, "call marker on obs") is None

    def test_replay_error_texts(self):
        model = parse_program(
            "proc M() consume latent {\n"
            "  x <- sample.recv{latent}(Normal(0.0, 1.0));\n"
            "  return(x)\n}\n",
        )
        guide = parse_program(
            "proc G() provide latent {\n"
            "  x <- sample.send{latent}(Normal(0.0, 1.0));\n"
            "  return(x)\n}\n",
        )
        vectorizer = ParticleVectorizer(model, guide, "M", "G")
        (leaf,) = vectorizer.run(3, np.random.default_rng(0)).leaves
        (value,) = leaf.recorded["latent"]
        diverged = "the replayed execution diverged from the recorded control path"
        overrun = f"rescore on 'latent' ran past the recorded message log; {diverged}"
        mismatch = "group replay on 'latent': expected a val message, found a dir message"
        unconsumed = f"rescore on 'latent' consumed only 1 of 2 recorded messages; {diverged}"
        for log, message in (
            ([], overrun),
            ([VecMessage("dir", True, True)], mismatch),
            ([value, value], unconsumed),
        ):
            doctored = dataclasses.replace(leaf, recorded={"latent": log})
            with pytest.raises(ChannelProtocolError) as raised:
                vectorizer.rescore_group(doctored)
            assert str(raised.value) == message
        for call, message in (
            (lambda: _rt.rep_val([], 0, "latent"), overrun),
            (lambda: _rt.rep_val([VecMessage("dir", True, True)], 0, "latent"), mismatch),
            (lambda: _rt.rep_end([value, value], 1, "latent"), unconsumed),
        ):
            with pytest.raises(ChannelProtocolError) as raised:
                call()
            assert str(raised.value) == message
        assert _rt.rep_val([value], 0, "latent") is value.payload
        assert _rt.rep_end([value], 1, "latent") is None

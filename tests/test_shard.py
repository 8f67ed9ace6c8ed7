"""Unit tests for the sharded execution layer (plans, transport, pool)."""

import pickle

import numpy as np
import pytest

from repro.engine import ProgramSession
from repro.engine.shard import (
    SHM_MIN_BYTES,
    ShardTask,
    derive_shard_seeds,
    execute_tasks,
    pack_result,
    plan_shards,
    pool_available,
    resolve_shards,
    run_shard_task,
    unpack_result,
)
from repro.errors import InferenceError
from repro.models import get_benchmark
from tests.conftest import session_request


def test_plan_shards_partitions_exactly():
    for n, s in [(10, 3), (7, 7), (100, 4), (5, 8), (1, 1)]:
        spans = plan_shards(n, s)
        assert spans[0][0] == 0
        assert sum(count for _, count in spans) == n
        for (start, count), (next_start, _) in zip(spans, spans[1:]):
            assert next_start == start + count
        # Balanced: sizes differ by at most one.
        sizes = [count for _, count in spans]
        assert max(sizes) - min(sizes) <= 1
        # Never more shards than particles.
        assert len(spans) == min(s, n)


def test_plan_shards_rejects_bad_inputs():
    with pytest.raises(InferenceError):
        plan_shards(0, 2)
    with pytest.raises(InferenceError):
        plan_shards(10, 0)


def test_resolve_shards_defaults_to_workers():
    assert resolve_shards(1, None) == 1
    assert resolve_shards(4, None) == 4
    assert resolve_shards(2, 8) == 8
    with pytest.raises(InferenceError):
        resolve_shards(0, None)
    with pytest.raises(InferenceError):
        resolve_shards(1, 0)


def test_derive_shard_seeds_consumes_one_draw():
    """The parent stream advances identically for any shard count."""
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    derive_shard_seeds(rng_a, 2)
    derive_shard_seeds(rng_b, 16)
    assert rng_a.integers(0, 2**63 - 1) == rng_b.integers(0, 2**63 - 1)


def _weight_task(count=64, seed_entropy=0, backend="interp"):
    bench = get_benchmark("weight")
    session = ProgramSession(
        bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry
    )
    from repro.core.semantics import traces as tr

    return ShardTask(
        model_program=session.model_program,
        guide_program=session.guide_program,
        model_entry=session.model_entry,
        guide_entry=session.guide_entry,
        obs_trace=tuple(tr.ValP(v) for v in bench.obs_values),
        model_args=(),
        guide_args=(8.5, 0.0),
        latent_channel="latent",
        obs_channel="obs",
        backend=backend,
        count=count,
        seed=np.random.SeedSequence(seed_entropy),
    )


def test_shared_memory_round_trip_preserves_leaves():
    """A compiled shard's leaves cross the shared-memory block whole,
    including the path stamps the compiled rescore pass replays."""
    result = run_shard_task(_weight_task(count=2048, backend="compiled"))
    encoded = pack_result(result)
    assert encoded[0] == "shm"
    restored = unpack_result(encoded)
    assert len(restored.leaves) == len(result.leaves)
    for a, b in zip(result.leaves, restored.leaves):
        assert isinstance(a.path_id, tuple) and b.path_id == a.path_id
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.model_log_weights, b.model_log_weights)
        np.testing.assert_array_equal(a.guide_log_weights, b.guide_log_weights)
        assert set(a.recorded) == set(b.recorded)
        for channel in a.recorded:
            for m_a, m_b in zip(a.recorded[channel], b.recorded[channel]):
                assert m_a.kind == m_b.kind and m_a.provider == m_b.provider
                if isinstance(m_a.payload, np.ndarray):
                    np.testing.assert_array_equal(m_a.payload, m_b.payload)
                else:
                    assert m_a.payload == m_b.payload


def test_small_result_round_trips_through_pickle():
    """A result under ``SHM_MIN_BYTES`` crosses the pipe as a plain pickle
    (no shared-memory block) and unpacks to the same leaves, path stamps
    included."""
    result = run_shard_task(_weight_task(count=8, backend="compiled"))
    encoded = pack_result(result)
    kind, payload, name = encoded
    assert kind == "pickle" and name is None
    assert 0 < payload.payload_bytes < SHM_MIN_BYTES
    restored = unpack_result(pickle.loads(pickle.dumps(encoded)))
    assert len(restored.leaves) == len(result.leaves)
    for a, b in zip(result.leaves, restored.leaves):
        assert isinstance(a.path_id, tuple) and b.path_id == a.path_id
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.model_log_weights, b.model_log_weights)
        np.testing.assert_array_equal(a.guide_log_weights, b.guide_log_weights)


def test_pool_and_inline_execution_agree():
    """The pool path returns exactly what inline execution returns."""
    tasks = [_weight_task(count=32, seed_entropy=k) for k in range(3)]
    inline = execute_tasks(tasks, workers=1)
    if not pool_available(2):
        pytest.skip("no multiprocessing pool in this environment")
    pooled = execute_tasks(tasks, workers=2)
    for a, b in zip(inline, pooled):
        for leaf_a, leaf_b in zip(a.leaves, b.leaves):
            np.testing.assert_array_equal(leaf_a.model_log_weights, leaf_b.model_log_weights)
            np.testing.assert_array_equal(leaf_a.guide_log_weights, leaf_b.guide_log_weights)


def test_compiled_task_runs_in_worker():
    result = run_shard_task(_weight_task(count=16, backend="compiled"))
    assert all(isinstance(leaf.path_id, tuple) for leaf in result.leaves)
    run = _sharded_runner("weight", backend="compiled").run(32, np.random.default_rng(0))
    assert run.backend == "compiled"
    assert all(isinstance(leaf.path_id, tuple) for leaf in run.leaves)


def test_sharded_compiled_svi_rescores_on_the_compiled_pass():
    """Merged compiled leaves keep their path stamps, so sharded SVI with
    fitted guide parameters rescores every group on the compiled pass and
    counts no compiled-backend fallback, as unsharded SVI does."""
    from repro.obs import REGISTRY

    bench = get_benchmark("weight")
    session = ProgramSession(
        bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry
    )
    mark = REGISTRY.mark()
    result = session.infer(
        "svi", backend="compiled", shards=2, num_particles=200, num_steps=2,
        obs_values=bench.obs_values, seed=0,
        guide_params={"loc": 8.5, "log_scale": 0.0},
    )
    moved = {
        key: change
        for key, change in REGISTRY.delta(mark).items()
        if key.startswith("repro_compiled_fallback_total")
    }
    assert moved == {}, moved
    assert result.diagnostics()["backend"] == "compiled"


def test_task_error_in_pool_does_not_poison_it():
    """A per-task failure re-raises in the parent but leaves the pool
    healthy for the next wave (review regression: task errors used to mark
    the pool permanently broken and silently fall back to inline)."""
    if not pool_available(2):
        pytest.skip("no multiprocessing pool in this environment")
    good = _weight_task(count=16, seed_entropy=1)
    bad = _weight_task(count=16, seed_entropy=2)
    bad.count = -1  # InferenceError inside the worker
    with pytest.raises(InferenceError):
        execute_tasks([good, bad], workers=2)
    assert pool_available(2), "pool must survive a task-level error"
    results = execute_tasks([good, _weight_task(count=16, seed_entropy=3)], workers=2)
    assert len(results) == 2


def _broken_map(*_args, **_kwargs):
    raise OSError("simulated worker crash: pipe closed")


def test_infrastructure_failure_degrades_inline_then_rebuilds():
    """An infrastructure failure (dead worker, closed pipe) tears the pool
    down and serves that wave inline; the *next* wave rebuilds the pool and
    a completed pool wave resets the failure budget (review regression: the
    old ``_POOL_BROKEN`` latch disabled the pool for the process lifetime
    after a single transient failure)."""
    from repro.engine import shard

    if not pool_available(2):
        pytest.skip("no multiprocessing pool in this environment")
    shard.shutdown_pool()
    tasks = [_weight_task(count=16, seed_entropy=k) for k in (1, 2)]
    try:
        pool = shard.ensure_pool(2)
        pool.map = _broken_map  # next wave hits "infrastructure failure"
        inline = execute_tasks(tasks, workers=2)
        assert len(inline) == 2, "the failed wave must still serve inline"
        assert shard._POOL_FAILURES == 1
        assert shard._POOL is None, "broken pool must be torn down"
        # The next wave rebuilds a healthy pool and forgives the failure.
        rebuilt = execute_tasks(tasks, workers=2)
        assert len(rebuilt) == 2
        assert shard._POOL_FAILURES == 0, "a completed pool wave resets the budget"
        assert shard._POOL is not None
        for a, b in zip(inline, rebuilt):
            for leaf_a, leaf_b in zip(a.leaves, b.leaves):
                np.testing.assert_array_equal(
                    leaf_a.model_log_weights, leaf_b.model_log_weights
                )
    finally:
        shard.shutdown_pool()


def test_pool_rebuilds_are_capped_then_forgiven_by_shutdown():
    """After ``POOL_MAX_FAILURES`` consecutive infrastructure failures the
    pool stops being rebuilt (execution stays inline); an explicit
    ``shutdown_pool`` resets the budget."""
    from repro.engine import shard

    if not pool_available(2):
        pytest.skip("no multiprocessing pool in this environment")
    shard.shutdown_pool()
    tasks = [_weight_task(count=16, seed_entropy=k) for k in (1, 2)]
    try:
        for i in range(shard.POOL_MAX_FAILURES):
            pool = shard.ensure_pool(2)
            assert pool is not None, f"rebuild {i} should still be allowed"
            pool.map = _broken_map
            assert len(execute_tasks(tasks, workers=2)) == 2
        assert shard._POOL_FAILURES == shard.POOL_MAX_FAILURES
        assert shard.ensure_pool(2) is None, "budget exhausted: no more rebuilds"
        # Inline execution still serves traffic with the pool given up.
        assert len(execute_tasks(tasks, workers=2)) == 2
        shard.shutdown_pool()
        assert shard.ensure_pool(2) is not None, "shutdown_pool forgives the budget"
    finally:
        shard.shutdown_pool()


def _sharded_runner(name, backend="interp", shards=2):
    from repro.core.semantics import traces as tr
    from repro.engine.backend import make_particle_runner

    bench = get_benchmark(name)
    return make_particle_runner(*session_request(
        bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry,
        obs_trace=tuple(tr.ValP(v) for v in bench.obs_values),
        guide_args=tuple(bench.guide_param_inits.values()), backend=backend, workers=1,
        shards=shards,
    ))


def test_gate_fallback_freezes_interp_tasks():
    """A pair outside the compiled fragment resolves to interp ONCE, at
    construction; the frozen task template never re-attempts compilation."""
    runner = _sharded_runner("gp-dsl", backend="compiled")
    assert runner.requested_backend == "compiled"
    assert runner.effective_backend == "interp"
    assert "recursive" in runner.fallback_reason
    wave = runner.prepare(32, np.random.default_rng(0))
    for task in wave.tasks:
        assert task.backend == "interp"
    run = runner.run(32, np.random.default_rng(0))
    assert "recursive" in run.fallback_reason


def test_fallback_state_is_consistent_across_threads():
    """Regression: fallback state used to be *derived* from ``self.local``
    on every read, so concurrent requests could observe a torn view (one
    thread seeing ``backend == "compiled"`` while another read a non-None
    ``fallback_reason``).  It is now resolved once at construction and
    frozen as plain attributes, so every thread reads one coherent pair."""
    from concurrent.futures import ThreadPoolExecutor

    for name, expect_backend in [("weight", "compiled"), ("gp-dsl", "interp")]:
        runner = _sharded_runner(name, backend="compiled")

        def observe(_):
            return (runner.backend, runner.effective_backend, runner.fallback_reason)

        with ThreadPoolExecutor(max_workers=8) as pool:
            views = set(pool.map(observe, range(64)))
        assert len(views) == 1, f"{name}: torn fallback state {views}"
        backend, effective, reason = views.pop()
        assert backend == effective == expect_backend
        assert (reason is None) == (expect_backend == "compiled")

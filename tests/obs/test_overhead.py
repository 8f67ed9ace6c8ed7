"""Overhead contracts: the always-on instrumentation must be ~free.

The engines keep their ``span(...)`` calls in the hot loops permanently, so
the disabled path (one module-global check returning a shared no-op) is held
to a contract: a 10k-particle importance-sampling run with tracing *disabled*
must cost within 2% of the same run with every ``span`` call replaced by an
inert stub.  Every run is also attributed (``mark()``/``delta()`` in
``run_engine``), and that cost must not grow with the registry: it is held
flat between an empty registry and one with 10,000 labeled children.
Wall-clock comparisons are noisy, so each variant takes the minimum over
several interleaved repetitions (the minimum estimates the noise-free cost)
and each contract gets a handful of attempts before failing.
"""

import sys
import time

import pytest

import repro.engine.api
import repro.engine.backend
import repro.engine.session
import repro.engine.shard
import repro.engine.smc
import repro.engine.svi
import repro.engine.vectorize
from repro.engine.session import ProgramSession
from repro.models import get_benchmark
from repro.obs import trace as trace_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import disable_tracing, tracing_enabled

# sys.modules entries, because ``repro.engine``'s package namespace exports
# same-named *functions* (e.g. ``smc``) that shadow the submodules.
INSTRUMENTED_MODULES = tuple(
    sys.modules[f"repro.engine.{name}"]
    for name in ("api", "backend", "session", "shard", "smc", "svi", "vectorize")
)

BENCH = get_benchmark("weight")


class _StubSpan:
    """What the engines would cost with no instrumentation at all."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_STUB = _StubSpan()


def _stub_span(name, _tid=None, **attrs):
    return _STUB


@pytest.fixture(autouse=True)
def _tracing_disabled():
    disable_tracing()
    yield
    disable_tracing()


def _run_once(sess):
    started = time.perf_counter()
    sess.infer(
        "is", num_particles=10_000, seed=3,
        obs_values=list(BENCH.obs_values), guide_args=(8.5, 0.0),
    )
    return time.perf_counter() - started


def _min_cost_pair(sess, monkeypatch, repetitions=5):
    """(disabled-tracing cost, stubbed cost): minima over interleaved reps."""
    disabled, stubbed = [], []
    for _ in range(repetitions):
        assert not tracing_enabled()
        disabled.append(_run_once(sess))
        with pytest.MonkeyPatch.context() as patch:
            for module in INSTRUMENTED_MODULES:
                patch.setattr(module, "span", _stub_span)
            stubbed.append(_run_once(sess))
    return min(disabled), min(stubbed)


def test_disabled_tracing_costs_under_two_percent(monkeypatch):
    sess = ProgramSession.from_sources(BENCH.model_source, BENCH.guide_source)
    _run_once(sess)  # warm up: session caches, numpy, allocator
    for attempt in range(4):
        disabled_s, stubbed_s = _min_cost_pair(sess, monkeypatch)
        if disabled_s <= stubbed_s * 1.02:
            return
    pytest.fail(
        f"disabled tracing costs {disabled_s / stubbed_s - 1:+.1%} over the "
        f"no-op stub (contract: <2%); disabled={disabled_s:.4f}s stub={stubbed_s:.4f}s"
    )


def test_disabled_span_allocates_nothing():
    """The disabled fast path returns one shared singleton, not a new object."""
    a = trace_mod.span("hot.loop", particles=10_000)
    b = trace_mod.span("other")
    assert a is b is trace_mod._NOOP


def _instrumented_registry(labeled_children: int):
    """A registry shaped like a served run's, with extra labeled children.

    Returns the registry and a callable making one run's fixed set of
    increments; ``labeled_children`` more children are spread over ten
    families the run never touches (none reaches the per-family cap).
    """
    reg = MetricsRegistry()
    tenants = reg.counter("repro_tenant_requests_total", "h", labels=("tenant",))
    runs = reg.histogram("repro_run_seconds", "h", labels=("engine", "backend"))
    cache = reg.counter("repro_cache_total", "h", labels=("event",))
    depth = reg.gauge("repro_queue_depth", "h")
    idle = [reg.counter(f"repro_idle_{i}_total", "h", labels=("tenant",)) for i in range(10)]
    for i in range(labeled_children):
        idle[i % 10].labels(tenant=f"tenant-{i}").inc()

    def one_run():
        tenants.labels(tenant="tenant-0").inc()
        cache.labels(event="hit").inc()
        depth.set(3)
        runs.labels(engine="is", backend="compiled").observe(0.002)
        depth.set(0)

    return reg, one_run


def _attribution_cost(reg, one_run, runs=200):
    started = time.perf_counter()
    for _ in range(runs):
        mark = reg.mark()
        one_run()
        reg.delta(mark)
    return (time.perf_counter() - started) / runs


def test_attribution_cost_is_flat_in_registry_size():
    """``mark()`` + a run's increments + ``delta()`` costs the same with
    10,000 labeled children in the registry as with none."""
    empty = _instrumented_registry(0)
    crowded = _instrumented_registry(10_000)
    for attempt in range(4):
        empty_s, crowded_s = [], []
        for _ in range(7):
            empty_s.append(_attribution_cost(*empty))
            crowded_s.append(_attribution_cost(*crowded))
        if min(crowded_s) <= min(empty_s) * 1.25:
            return
    pytest.fail(
        f"attribution costs {min(crowded_s) * 1e3:.4f} ms per run with 10k labeled "
        f"children vs {min(empty_s) * 1e3:.4f} ms with none (contract: within 25%)"
    )

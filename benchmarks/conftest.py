"""Benchmark-session fixtures: one fresh run record per benchmark session."""

import pytest

import _record


@pytest.fixture(scope="session", autouse=True)
def fresh_bench_results():
    """Open this session's run record in the results artifact.

    Other sessions' runs in the same artifact are preserved (schema 2 keeps
    per-run entry lists), so two harness invocations in one CI workflow no
    longer clobber each other's measurements.
    """
    _record.reset_results()
    yield


@pytest.fixture
def fresh_registry():
    """The process-wide metrics registry, emptied of samples, so the
    server counters a test reads back (maxima included) are its own."""
    from repro.obs import REGISTRY

    REGISTRY.reset()
    return REGISTRY

"""Server observability: failure accounting, percentiles, the /metrics surface."""

import asyncio
import json

import pytest

from repro.engine.server import (
    _SERVER_TENANT_REQUESTS,
    InferenceService,
    ServerCounters,
    serve_tcp,
)
from repro.models import get_benchmark
from repro.obs import REGISTRY
from repro.obs.metrics import MAX_CHILDREN_PER_FAMILY

BENCH = get_benchmark("weight")


def _payload(seed=0, request_id=None, particles=300, **overrides):
    payload = {
        "id": request_id,
        "model": BENCH.model_source,
        "guide": BENCH.guide_source,
        "engine": "is",
        "sites": [0],
        "params": {
            "num_particles": particles,
            "seed": seed,
            "obs_values": list(BENCH.obs_values),
            "guide_args": [8.5, 0.0],
        },
    }
    payload.update(overrides)
    return payload


class TestFailureAccounting:
    """Regression: failures are counted but excluded from latency aggregates.

    The old ``observe`` folded a failed request's (meaningless) timings into
    every latency total — a validation rejection took microseconds and
    dragged the means toward zero; a five-second blow-up inflated the max.
    """

    def test_failure_timings_never_reach_latency_aggregates(self):
        counters = ServerCounters()
        counters.observe(0.0, 5.0, 0, ok=False, latency_s=5.0)  # a slow failure
        counters.observe(0.1, 0.2, 10, ok=True, latency_s=0.3)
        snap = counters.snapshot()
        assert snap["requests_total"] == 2
        assert snap["failures_total"] == 1
        assert snap["particles_total"] == 10
        # Means divide by successes only, and the failure's 5s never landed.
        assert snap["latency_s_mean"] == pytest.approx(0.3)
        assert snap["latency_s_max"] == pytest.approx(0.3)
        assert snap["queue_wait_s_mean"] == pytest.approx(0.1)
        assert snap["run_s_mean"] == pytest.approx(0.2)
        assert counters.latency_hist.count == 1

    def test_all_failure_snapshot_stays_finite_and_serialisable(self):
        counters = ServerCounters()
        counters.observe(0.0, 3.0, 0, ok=False, latency_s=3.0)
        snap = counters.snapshot()
        assert snap["failures_total"] == snap["requests_total"] == 1
        assert snap["latency_s_mean"] == 0.0
        json.dumps(snap)  # NaN percentiles must not break serialisation

    def test_busy_share_accounting_skips_failures(self):
        counters = ServerCounters()
        counters.observe(0.0, 2.0, 100, ok=True, latency_s=2.0, busy_s=0.5)
        assert counters.run_s_total == pytest.approx(0.5)
        assert counters.latency_s_total == pytest.approx(2.0)


class TestPercentiles:
    def test_snapshot_has_histogram_derived_percentiles(self):
        counters = ServerCounters()
        for i in range(100):
            run_s = 0.001 + i * 0.001
            counters.observe(0.001, run_s, 10, ok=True, latency_s=0.001 + run_s)
        snap = counters.snapshot()
        for prefix in ("latency_s", "queue_wait_s", "run_s"):
            p50, p90, p99 = (snap[f"{prefix}_p{q}"] for q in (50, 90, 99))
            assert 0.0 < p50 <= p90 <= p99
        assert snap["latency_s_p99"] <= snap["latency_s_max"] * 1.5

    def test_legacy_keys_survive(self):
        snap = ServerCounters().snapshot()
        legacy = {
            "requests_total", "failures_total", "batches_total",
            "coalesced_requests_total", "particles_total", "uptime_s",
            "requests_per_s", "particles_per_s", "queue_wait_s_mean",
            "run_s_mean", "latency_s_mean", "latency_s_max",
        }
        assert legacy <= set(snap)

    def test_observe_batch_tracks_groups_and_coalescing(self):
        counters = ServerCounters()
        mark = REGISTRY.mark()
        counters.observe_batch(1, "loop")
        counters.observe_batch(3, "worker")
        counters.observe_batch(1, "worker")
        assert counters.batches_total == 3
        assert counters.coalesced_requests_total == 3
        moved = REGISTRY.delta(mark)
        assert moved['repro_server_batches_total{site="loop"}'] == 1
        assert moved['repro_server_batches_total{site="worker"}'] == 2


async def _serving(run, workers=1):
    service = InferenceService(workers=workers, batch_window_s=0.005)
    await service.start()
    server = await serve_tcp(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await run(service, port)
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()


async def _jsonl_roundtrip(port, payloads):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for payload in payloads:
        writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    writer.write_eof()
    responses = []
    while True:
        line = await reader.readline()
        if not line:
            break
        responses.append(json.loads(line))
    writer.close()
    return {r["id"]: r for r in responses}


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: test\r\nAccept: */*\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.decode("latin-1"), body


class TestMetricsSurface:
    def test_metrics_op_returns_the_registry_snapshot(self):
        async def go(service, port):
            return await _jsonl_roundtrip(
                port, [_payload(request_id="r1"), {"id": "m", "op": "metrics"}]
            )

        responses = asyncio.run(_serving(go))
        assert responses["r1"]["ok"]
        metrics = responses["m"]["metrics"]
        assert responses["m"]["ok"]
        assert metrics["repro_requests_total"]["type"] == "counter"
        assert metrics["repro_request_latency_seconds"]["type"] == "histogram"

    def test_infer_response_carries_run_metrics(self):
        async def go(service, port):
            return await _jsonl_roundtrip(port, [_payload(request_id="r1")])

        responses = asyncio.run(_serving(go))
        run_metrics = responses["r1"]["diagnostics"]["run_metrics"]
        assert run_metrics["engine"] == "is"
        assert run_metrics["wall_s"] > 0.0

    def test_unknown_op_mentions_metrics(self):
        async def go(service, port):
            return await _jsonl_roundtrip(port, [{"id": "x", "op": "bogus"}])

        responses = asyncio.run(_serving(go))
        error = responses["x"]["error"]
        assert "unknown op" in error and "metrics" in error

    def test_http_scrape_serves_prometheus_text(self):
        async def go(service, port):
            await service.submit(_payload(request_id="warm"))
            return await _http_get(port, "/metrics")

        head, body = asyncio.run(_serving(go))
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain; version=0.0.4" in head
        assert f"Content-Length: {len(body)}" in head
        text = body.decode()
        for family in (
            "repro_requests_total", "repro_request_latency_seconds_bucket",
            "repro_engine_run_seconds", "repro_session_cache_total",
            "repro_server_batches_total",
        ):
            assert family in text
        assert 'repro_requests_total{status="ok"}' in text

    def test_http_scrape_of_unknown_path_is_404(self):
        async def go(service, port):
            return await _http_get(port, "/other")

        head, body = asyncio.run(_serving(go))
        assert head.startswith("HTTP/1.0 404")

    def test_jsonl_still_works_after_a_scrape_connection(self):
        async def go(service, port):
            await _http_get(port, "/metrics")
            return await _jsonl_roundtrip(port, [_payload(request_id="after")])

        responses = asyncio.run(_serving(go))
        assert responses["after"]["ok"]


class TestTenantCardinality:
    def test_rotating_tenants_keep_the_registry_and_scrape_bounded(self, monkeypatch):
        """10k distinct client-chosen tenant ids, through the real intake
        path, leave at most cap + 1 tenant children and a bounded scrape."""
        dropped = REGISTRY._dropped_labels()
        monkeypatch.setattr(_SERVER_TENANT_REQUESTS, "_children", {})
        monkeypatch.setattr(dropped, "_children", {})
        before = REGISTRY.render_prometheus()

        async def go():
            service = InferenceService()
            await service.start()
            await service.stop()  # admission still counts tenants, then sheds
            for i in range(10_000):
                response = await service.submit(_payload(tenant=f"tenant-{i}"))
                assert response["code"] == "shutting_down"

        asyncio.run(go())
        tenants = _SERVER_TENANT_REQUESTS._children
        assert len(tenants) <= MAX_CHILDREN_PER_FAMILY + 1
        assert _SERVER_TENANT_REQUESTS.labels(tenant="other").value == (
            10_000 - MAX_CHILDREN_PER_FAMILY
        )
        family = "repro_server_tenant_requests_total"
        assert dropped.labels(family=family).value == 10_000 - MAX_CHILDREN_PER_FAMILY
        after = REGISTRY.render_prometheus()
        added = set(after.splitlines()) - set(before.splitlines())
        tenant_lines = [line for line in added if line.startswith(family + "{")]
        assert len(tenant_lines) == len(tenants)
        assert len(added) - len(tenant_lines) <= 20  # the cap and queue bookkeeping

"""Server observability: failure accounting, percentiles, the /metrics surface."""

import asyncio
import json
import time

import pytest

from repro.engine.server import (
    _SERVER_TENANT_REQUESTS,
    InferenceService,
    ServerCounters,
    serve_tcp,
)
from repro.models import get_benchmark
from repro.obs import DEFAULT_TIME_BUCKETS, REGISTRY, HistogramValue, percentile_keys
from repro.obs.metrics import MAX_CHILDREN_PER_FAMILY
from tests.conftest import stats_delta

BENCH = get_benchmark("weight")


def _payload(seed=0, request_id=None, particles=300, shards=1, **overrides):
    """A ``weight`` IS request; ``shards > 1`` makes it coalescable."""
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
            "shards": shards,
        },
    }
    payload.update(overrides)
    return payload


async def _submit_all(payloads, **kwargs):
    """Submit ``payloads`` in order to a fresh service; the responses and
    the ``op: stats`` counters read after the last."""
    service = InferenceService(**kwargs)
    await service.start()
    try:
        responses = [await service.submit(payload) for payload in payloads]
        return responses, service.counters.snapshot()
    finally:
        await service.stop()


class TestFailureAccounting:
    """Regression: failures are counted but excluded from latency aggregates.

    An old ``observe`` folded a failed request's (meaningless) timings into
    every latency total — a validation rejection took microseconds and
    dragged the means toward zero; a five-second blow-up inflated the max.
    """

    def test_failure_timings_never_reach_latency_aggregates(self, fresh_registry, monkeypatch):
        import repro.engine.server as server

        real = server.run_engine

        def slow_failure(name, session, request):
            if request.seed == 99:
                time.sleep(0.2)
                raise RuntimeError("blew up after 200 ms")
            return real(name, session, request)

        monkeypatch.setattr(server, "run_engine", slow_failure)
        (failed, ok), snap = asyncio.run(_submit_all([_payload(seed=99), _payload(seed=1)]))
        assert failed["code"] == "engine_error" and ok["ok"], (failed, ok)
        assert snap["requests_total"] == 2
        assert snap["failures_total"] == 1
        assert snap["particles_total"] == 2 * 300  # a failed run's particles count
        # Means divide by successes only, and the failure's 200 ms never landed.
        timings = ok["server"]
        assert snap["latency_s_mean"] == pytest.approx(timings["latency_s"])
        assert snap["latency_s_max"] == timings["latency_s"] < 0.2
        assert snap["queue_wait_s_mean"] == pytest.approx(timings["queue_wait_s"])
        assert snap["run_s_mean"] == pytest.approx(timings["run_s"])
        latency = REGISTRY.snapshot()["repro_request_latency_seconds"]["samples"]
        assert [sample["count"] for sample in latency] == [1]

    def test_all_failure_snapshot_stays_finite_and_serialisable(self, fresh_registry):
        (refused,), snap = asyncio.run(_submit_all([_payload(engine="bogus")]))
        assert refused["code"] == "invalid_request"
        assert snap["failures_total"] == snap["requests_total"] == 1
        assert snap["latency_s_mean"] == 0.0
        assert snap["latency_s_p50"] is None and snap["run_s_p99"] is None
        json.dumps(snap, allow_nan=False)  # strict JSON: no NaN percentiles

    def test_busy_share_accounting_skips_failures(self, fresh_registry):
        """Each member of a coalesced wave perceives the whole wave but
        accounts for only its share of it; a failure adds to no mean."""

        async def go():
            service = InferenceService(batch_window_s=0.05)
            await service.start()
            try:
                responses = await asyncio.gather(
                    *(service.submit(_payload(seed=s, shards=2)) for s in range(2)),
                    service.submit(_payload(engine="bogus")),
                )
                return responses, service.counters.snapshot()
            finally:
                await service.stop()

        responses, snap = asyncio.run(go())
        ok = [r for r in responses if r["ok"]]
        assert [r["server"]["batch_size"] for r in ok] == [2, 2]
        assert snap["failures_total"] == 1
        assert snap["coalesced_requests_total"] == 2
        shares = [r["server"]["run_s"] / r["server"]["batch_size"] for r in ok]
        assert snap["run_s_mean"] == pytest.approx(sum(shares) / 2)
        assert snap["latency_s_mean"] == pytest.approx(
            sum(r["server"]["latency_s"] for r in ok) / 2
        )


class TestPercentiles:
    def test_snapshot_has_histogram_derived_percentiles(self, fresh_registry):
        responses, snap = asyncio.run(_submit_all([_payload(seed=s) for s in range(20)]))
        assert all(r["ok"] for r in responses)
        mine = {name: HistogramValue() for name in ("latency_s", "queue_wait_s", "run_s")}
        for response in responses:
            for name, hist in mine.items():
                hist.observe(response["server"][name])
        for prefix, hist in mine.items():
            p50, p90, p99 = (snap[f"{prefix}_p{q}"] for q in (50, 90, 99))
            assert 0.0 < p50 <= p90 <= p99
            assert {key: snap[key] for key in percentile_keys(hist, prefix)} == (
                percentile_keys(hist, prefix)
            )
        # An estimate never leaves the bucket that holds the largest latency.
        top = min(bound for bound in DEFAULT_TIME_BUCKETS if bound >= snap["latency_s_max"])
        assert snap["latency_s_p99"] <= top

    def test_snapshot_keys_are_the_wire_contract(self):
        assert list(ServerCounters().snapshot()) == [
            "requests_total", "failures_total", "batches_total",
            "coalesced_requests_total", "particles_total", "shed_total",
            "shed_by_reason", "waves_total", "wave_size_max", "uptime_s",
            "requests_per_s", "particles_per_s", "queue_wait_s_mean",
            "run_s_mean", "latency_s_mean", "latency_s_max",
            "latency_s_p50", "latency_s_p90", "latency_s_p99",
            "queue_wait_s_p50", "queue_wait_s_p90", "queue_wait_s_p99",
            "run_s_p50", "run_s_p90", "run_s_p99",
        ]

    def test_groups_and_coalescing_are_counted_by_site(self):
        """One solo group and one coalesced group of three: two batches,
        three coalesced requests, each group under the thread it ran on."""

        def by_site():
            samples = REGISTRY.snapshot()["repro_server_batches_total"]["samples"]
            return {s["labels"]["site"]: s["value"] for s in samples}

        async def go():
            service = InferenceService(batch_window_s=0.05)
            await service.start()
            try:
                before, sites = service.counters.snapshot(), by_site()
                await service.submit(_payload(seed=0))
                await asyncio.gather(
                    *(service.submit(_payload(seed=s, shards=2)) for s in range(3))
                )
                return stats_delta(before, service.counters.snapshot()), sites, by_site()
            finally:
                await service.stop()

        delta, before, after = asyncio.run(go())
        assert delta["batches_total"] == 2
        assert delta["coalesced_requests_total"] == 3
        # Neither group's shapes ran before, so both hop to a worker.
        assert after.get("worker", 0) - before.get("worker", 0) == 2
        assert after.get("loop", 0) == before.get("loop", 0)


def _strict(line):
    """One response line parsed as strict JSON: ``NaN``/``Infinity`` refused."""

    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(line, parse_constant=refuse)


class TestOneLedger:
    def test_every_stats_counter_matches_the_clients_tally(self, fresh_registry):
        """One TCP server (2 workers) answers an ok request, an invalid one,
        a quota shed, a deadline shed and a coalesced wave of three 2-shard
        requests; every ``op: stats`` counter equals what the client tallied
        from its own requests and answers, counts as deltas."""

        async def go():
            service = InferenceService(
                workers=2, batch_window_s=0.2, tenant_rate=1e-3, tenant_burst=1
            )
            await service.start()
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def exchange(*payloads):
                for payload in payloads:
                    writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return [
                    _strict(await asyncio.wait_for(reader.readline(), 60)) for _ in payloads
                ]

            try:
                (before,) = await exchange({"id": "before", "op": "stats"})
                answers = []
                # Every tenant's bucket holds one token: its second request is shed.
                for payload in (
                    _payload(request_id="ok", tenant="t-ok"),
                    _payload(request_id="invalid", engine="bogus"),
                    _payload(request_id="quota-1", tenant="t-q"),
                    _payload(request_id="quota-2", tenant="t-q"),
                    _payload(request_id="late", tenant="t-d", deadline_ms=1e-6),
                ):
                    answers += await exchange(payload)
                answers += await exchange(*(
                    _payload(seed=s, request_id=f"wave-{s}", tenant=f"t-w{s}", shards=2)
                    for s in range(3)
                ))
                (after,) = await exchange({"id": "after", "op": "stats"})
                return before["counters"], after["counters"], answers
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                await service.stop()

        before, after, answers = asyncio.run(go())
        ok = [a for a in answers if a["ok"]]
        wave = [a for a in ok if a["id"].startswith("wave-")]
        codes = {a["id"]: a["code"] for a in answers if not a["ok"]}
        assert codes == {
            "invalid": "invalid_request", "quota-2": "quota_exceeded", "late": "deadline_exceeded",
        }
        assert sorted(a["id"] for a in ok) == ["ok", "quota-1", "wave-0", "wave-1", "wave-2"]
        # The three 2-shard requests shared one dispatch group, so one wave.
        assert [a["server"]["batch_size"] for a in wave] == [3, 3, 3]
        shed = {"quota_exceeded": 1, "deadline_exceeded": 1}
        assert stats_delta(before, after) == {
            "requests_total": len(answers),
            "failures_total": len(codes),
            "batches_total": round(sum(1 / a["server"]["batch_size"] for a in ok)),
            "coalesced_requests_total": len(wave),
            "particles_total": 300 * len(ok),
            "shed_total": sum(shed.values()),
            "waves_total": len(ok) - len(wave) + 1,
            "shed_by_reason": shed,
        }
        # Maxima, means and percentiles: the registry held nothing before.
        assert before["latency_s_p50"] is None and before["wave_size_max"] == 0
        latency = [a["server"]["latency_s"] for a in ok]
        queue_wait = [a["server"]["queue_wait_s"] for a in ok]
        busy = [a["server"]["run_s"] / a["server"]["batch_size"] for a in ok]
        assert after["wave_size_max"] == len(wave)
        assert after["latency_s_max"] == max(latency)
        assert after["latency_s_mean"] == pytest.approx(sum(latency) / len(ok))
        assert after["queue_wait_s_mean"] == pytest.approx(sum(queue_wait) / len(ok))
        assert after["run_s_mean"] == pytest.approx(sum(busy) / len(ok))
        assert after["particles_per_s"] == pytest.approx(300 * len(ok) / sum(busy))
        assert after["requests_per_s"] == pytest.approx(
            after["requests_total"] / after["uptime_s"]
        )
        for prefix, values in (("latency_s", latency), ("queue_wait_s", queue_wait),
                               ("run_s", busy)):
            mine = HistogramValue()
            for value in values:
                mine.observe(value)
            assert {key: after[key] for key in percentile_keys(mine, prefix)} == (
                percentile_keys(mine, prefix)
            )


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

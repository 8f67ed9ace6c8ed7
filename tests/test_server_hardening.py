"""Service hardening: deadlines, backpressure, quotas, fairness, shutdown.

Every scenario the load harness exercises statistically is pinned here
deterministically, over the real JSONL TCP front-end where the ISSUE asks
for it: deadline-expired-while-queued (the request is *never* executed),
queue-full rejection, per-tenant quota exhaustion, round-robin tenant
fairness, bounded dispatch waves under a burst, exactly-one-response across
``stop()``, the latency >= queue_wait + run invariant, and LRU capacity
enforcement for the kernel/session caches.
"""

import asyncio
import json

import pytest

from repro.engine.server import (
    CODE_DEADLINE_EXCEEDED,
    CODE_INVALID_REQUEST,
    CODE_OVERLOADED,
    CODE_QUOTA_EXCEEDED,
    CODE_SHUTTING_DOWN,
    SHED_CODES,
    InferenceService,
    serve_tcp,
)
from repro.models import get_benchmark
from repro.obs import REGISTRY
from tests.conftest import stats_delta

BENCH = get_benchmark("weight")


def _payload(seed=0, request_id=None, particles=200, shards=None, **overrides):
    """A ``weight`` IS request; ``shards > 1`` makes it coalescable, so the
    batch window holds it in the queue."""
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
    if shards is not None:
        payload["params"]["shards"] = shards
    payload.update(overrides)
    return payload


async def _start_service(**kwargs):
    service = InferenceService(**kwargs)
    await service.start()
    return service


async def _connect(service):
    server = await serve_tcp(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    return server, reader, writer


async def _send(writer, payload):
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def _recv(reader, timeout=30.0):
    line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


async def _recv_many(reader, count, timeout=60.0):
    return [await _recv(reader, timeout=timeout) for _ in range(count)]


async def _close(server, writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    server.close()
    await server.wait_closed()


class TestDeadlines:
    def test_deadline_expired_while_queued_is_shed_not_executed(self):
        """A queued request whose deadline passes is rejected with a
        structured ``deadline_exceeded`` and never reaches the engine."""

        async def go():
            # A long batch window guarantees the deadline expires while the
            # request sits in the queue, before wave collection; two shards
            # make the request coalescable, so the window is held for it.
            service = await _start_service(batch_window_s=0.3)
            server, reader, writer = await _connect(service)
            try:
                # Warm the session cache so admission is instant afterwards.
                await _send(writer, _payload(request_id="warm"))
                warm = await _recv(reader)
                assert warm["ok"], warm
                before = service.counters.snapshot()
                await _send(writer, _payload(request_id="doomed", deadline_ms=50, shards=2))
                response = await _recv(reader)
                return response, stats_delta(before, service.counters.snapshot())
            finally:
                await _close(server, writer)
                await service.stop()

        response, delta = asyncio.run(go())
        assert response["id"] == "doomed"
        assert response["ok"] is False
        assert response["code"] == CODE_DEADLINE_EXCEEDED
        assert "while queued" in response["error"]
        # The engine never ran it: no new dispatch batch was executed.
        assert delta["batches_total"] == 0
        assert delta["shed_by_reason"] == {CODE_DEADLINE_EXCEEDED: 1}

    def test_expired_deadline_rejected_at_admission(self):
        async def go():
            service = await _start_service()
            try:
                # Warm the session cache, then submit with a deadline so
                # short it expires during (cached, still non-zero) admission.
                await service.submit(_payload(request_id="warm"))
                return await service.submit(
                    _payload(request_id="late", deadline_ms=1e-6)
                )
            finally:
                await service.stop()

        response = asyncio.run(go())
        assert response["ok"] is False
        assert response["code"] == CODE_DEADLINE_EXCEEDED

    def test_invalid_deadline_is_invalid_request(self):
        async def go():
            service = await _start_service()
            try:
                return [
                    await service.submit(_payload(deadline_ms=bad))
                    for bad in (0, -5, "soon", True)
                ]
            finally:
                await service.stop()

        for response in asyncio.run(go()):
            assert response["ok"] is False
            assert response["code"] == CODE_INVALID_REQUEST


KALMAN = get_benchmark("kalman")
BAD_SITES = [[-1], [-4], [-5], [1.5], ["2"], [True]]


def _kalman_payload(engine, sites):
    return {
        "model": KALMAN.model_source,
        "guide": KALMAN.guide_source,
        "model_entry": KALMAN.model_entry,
        "guide_entry": KALMAN.guide_entry,
        "engine": engine,
        "sites": sites,
        "params": {
            "num_particles": 100,
            "seed": 0,
            "obs_values": list(KALMAN.obs_values),
            "burn_in": 10,
        },
    }


#: ``(path, field, value)``: execution controls no run could use, on
#: one-shot requests and on ``session.open``.
BAD_CONTROLS = [
    (path, field, value)
    for path in ("infer", "session.open")
    for field, value in (
        ("backend", "gpu"), ("shards", "x"), ("shards", 0),
        ("num_particles", "abc"), ("num_particles", 0),
    )
] + [
    ("session.open", "ess_threshold", "x"),
    ("session.open", "max_steps", "many"),
] + [
    # Switches take JSON Booleans only: the string "false" is truthy.
    (path, field, value)
    for path in ("infer", "session.open")
    for field, value in (("force", "false"), ("force", "no"), ("rejuvenate", "false"))
] + [
    ("infer", "rao_blackwellize", "no"),
    ("session.open", "grow", "false"),
] + [
    # Counts take integers only: never truncated, never a Boolean.
    (path, "workers", value) for path in ("infer", "session.open") for value in (1.5, True)
] + [
    ("session.open", field, value)
    for field in ("num_particles", "max_steps")
    for value in (100.7, True)
] + [
    # Engine knobs are screened whatever the engine (these rows run `is`):
    # counts are integers, rates finite non-Boolean numbers above zero
    # (`ess_threshold` at least zero).
    ("infer", field, value)
    for field, value in (
        ("ess_threshold", "0.5"), ("ess_threshold", True),
        ("ess_threshold", float("nan")), ("ess_threshold", -0.5),
        ("num_steps", 2.5), ("final_particles", 10.5),
        ("learning_rate", "x"), ("learning_rate", 0.0), ("score_epsilon", -1.0),
        ("num_chains", "4"), ("burn_in", 1.5), ("burn_in", -3),
    )
] + [
    ("session.open", "ess_threshold", value) for value in ("0.5", True, float("nan"), -0.5)
] + [
    # One screen for both admissions: a seed is null or a non-negative
    # integer, arguments are lists.
    (path, field, value)
    for path in ("infer", "session.open")
    for field, value in (
        ("seed", "abc"), ("seed", 1.5), ("seed", -1), ("seed", True),
        ("model_args", 5), ("guide_args", "x"),
    )
] + [
    # Observations are a list of values; a trace's messages are Python
    # objects that JSON cannot carry.  SVI's names and tables are screened
    # whatever the engine.
    ("infer", field, value)
    for field, value in (
        ("obs_values", "abc"), ("obs_values", 3), ("obs_trace", [1.0]),
        ("optimizer", "nope"), ("param_constraints", {"loc": "nope"}),
        ("guide_params", 5),
    )
]

#: ``BAD_CONTROLS`` fields that sit at a payload's top level, not in ``params``.
TOP_LEVEL_CONTROLS = {"force", "grow", "max_steps"}

#: A pair outside the certified fragment: the guide proposes a Normal for the
#: model's Gamma latent, so its proposals leave the model's support.
UNCERTIFIED_MODEL = """
proc M() consume latent provide obs {
  v <- sample.recv{latent}(Gamma(2.0, 1.0));
  _ <- sample.send{obs}(Normal(v, 1.0));
  return(v)
}
"""
UNCERTIFIED_GUIDE = """
proc G() provide latent {
  v <- sample.send{latent}(Normal(2.0, 1.0));
  return(v)
}
"""


class TestAdmissionValidation:
    """Malformed fields are refused at admission with ``invalid_request``,
    never answered under a wrong key, run, or reported as ``engine_error``."""

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
    )
    def test_non_finite_deadline_is_invalid_request(self, bad):
        async def go():
            service = await _start_service()
            try:
                return await service.submit(_payload(deadline_ms=bad))
            finally:
                await service.stop()

        response = asyncio.run(go())
        assert response["ok"] is False
        assert response["code"] == CODE_INVALID_REQUEST

    @pytest.mark.parametrize("sites", BAD_SITES, ids=repr)
    @pytest.mark.parametrize("engine", ["is", "smc", "mh"])
    def test_bad_sites_are_invalid_request(self, engine, sites):
        async def go():
            service = await _start_service()
            try:
                return await service.submit(_kalman_payload(engine, sites))
            finally:
                await service.stop()

        response = asyncio.run(go())
        assert response["ok"] is False, response
        assert response["code"] == CODE_INVALID_REQUEST
        assert "sites" in response["error"]

    @pytest.mark.parametrize("sites", BAD_SITES, ids=repr)
    def test_bad_query_sites_are_invalid_request(self, sites):
        async def go():
            service = await _start_service()
            try:
                opened = await service.submit(
                    {"op": "session.open", "session_id": "k", "benchmark": "kalman",
                     "params": {"num_particles": 100, "seed": 0}}
                )
                pushed = await service.submit(
                    {"op": "session.push", "session_id": "k",
                     "values": list(KALMAN.obs_values)}
                )
                assert opened["ok"] and pushed["ok"], (opened, pushed)
                return await service.submit(
                    {"op": "session.query", "session_id": "k", "sites": sites}
                )
            finally:
                await service.stop()

        response = asyncio.run(go())
        assert response["ok"] is False, response
        assert response["code"] == CODE_INVALID_REQUEST
        assert "sites" in response["error"]

    def test_workers_above_the_pool_are_invalid_request(self):
        """A client cannot resize the shared pool: ``params.workers`` above
        the service's ``workers`` is refused, for ``infer`` and for
        ``session.open``, and the pool keeps its size."""
        from repro.engine import shard

        shard.shutdown_pool()
        if not shard.pool_available(2):
            pytest.skip("no multiprocessing pool in this environment")
        shard.shutdown_pool()

        async def go():
            service = await _start_service(workers=2)
            try:
                infer = _payload(shards=6)
                infer["params"]["workers"] = 6
                opened = {"op": "session.open", "benchmark": "stream_rw", "grow": True,
                          "params": {"num_particles": 200, "seed": 5, "workers": 6}}
                responses = [await service.submit(infer), await service.submit(opened)]
                return responses, shard.pool_worker_pids()
            finally:
                await service.stop()

        try:
            responses, pids = asyncio.run(go())
        finally:
            shard.shutdown_pool()
        for response in responses:
            assert response["ok"] is False, response
            assert response["code"] == CODE_INVALID_REQUEST
            assert "workers" in response["error"]
        assert len(pids) == 2

    @pytest.mark.parametrize(
        "path, field, value", BAD_CONTROLS, ids=[f"{p}-{f}={v!r}" for p, f, v in BAD_CONTROLS]
    )
    def test_bad_execution_controls_are_refused_before_anything_runs(
        self, tmp_path, path, field, value
    ):
        """A field that no run could use is refused with ``invalid_request``:
        a one-shot before it is queued, a ``session.open`` before the
        session (and its checkpoint) exists.  The service has a 2-worker
        pool, so a ``workers`` value under it is refused for its type, not
        its size."""
        if path == "infer":
            payload = _payload(request_id="bad")
        else:
            payload = {"id": "bad", "op": "session.open", "session_id": "s",
                       "benchmark": "stream_rw", "grow": True,
                       "params": {"num_particles": 100, "seed": 5}}
        (payload if field in TOP_LEVEL_CONTROLS else payload["params"])[field] = value

        async def go():
            service = await _start_service(checkpoint_dir=str(tmp_path), workers=2)
            server, reader, writer = await _connect(service)
            try:
                await _send(writer, {"id": "before", "op": "stats"})
                before = await _recv(reader)
                await _send(writer, payload)
                response = await _recv(reader)
                await _send(writer, {"id": "stats", "op": "stats"})
                return before, response, await _recv(reader)
            finally:
                await _close(server, writer)
                await service.stop()

        before, response, stats = asyncio.run(go())
        assert response["ok"] is False, response
        assert response["code"] == CODE_INVALID_REQUEST, response
        assert stats["sessions"]["live"] == 0
        if path == "infer":
            # Never queued.
            assert stats_delta(before["counters"], stats["counters"])["waves_total"] == 0
        assert not list(tmp_path.iterdir())

    def test_uncertified_pair_with_string_force_is_refused_and_never_runs(self):
        from repro.engine import ProgramSession

        assert not ProgramSession.from_sources(UNCERTIFIED_MODEL, UNCERTIFIED_GUIDE).certified
        payload = {"id": "u", "model": UNCERTIFIED_MODEL, "guide": UNCERTIFIED_GUIDE,
                   "engine": "is", "force": "false",
                   "params": {"num_particles": 50, "seed": 0, "obs_values": [1.0]}}

        async def go():
            service = await _start_service()
            try:
                before = service.counters.snapshot()
                response = await service.submit(payload)
                return response, stats_delta(before, service.counters.snapshot())["waves_total"]
            finally:
                await service.stop()

        response, waves = asyncio.run(go())
        assert response["ok"] is False, response
        assert response["code"] == CODE_INVALID_REQUEST
        assert "force must be true or false" in response["error"]
        assert waves == 0

    def test_too_deeply_nested_program_is_invalid_request(self):
        """A program nested too deeply to parse or certify exhausts Python's
        recursion; the request is refused with ``invalid_request`` and the
        service keeps serving."""
        from repro.models.library import streaming_sources

        model, guide = streaming_sources(1000)
        deep = {"id": "deep", "model": model, "guide": guide, "engine": "is",
                "params": {"num_particles": 10, "seed": 0}}

        async def go():
            service = await _start_service()
            try:
                return await service.submit(deep), await service.submit(_payload(request_id="next"))
            finally:
                await service.stop()

        refused, served = asyncio.run(go())
        assert refused["ok"] is False, refused
        assert refused["code"] == CODE_INVALID_REQUEST
        assert refused["id"] == "deep"
        assert "nested too deeply" in refused["error"]
        assert served["ok"] is True, served


class TestBackpressure:
    def test_queue_full_rejects_with_overloaded(self):
        """With ``max_queue=2`` and a held-open batch window (the burst is
        coalescable), a burst of 8 gets 2 admissions and 6 structured
        ``overloaded`` rejections."""

        async def go():
            service = await _start_service(max_queue=2, batch_window_s=0.5)
            server, reader, writer = await _connect(service)
            try:
                await _send(writer, _payload(request_id="warm"))
                assert (await _recv(reader))["ok"]
                for i in range(8):
                    await _send(writer, _payload(request_id=f"r{i}", seed=i, shards=2))
                return await _recv_many(reader, 8)
            finally:
                await _close(server, writer)
                await service.stop()

        responses = asyncio.run(go())
        ok = [r for r in responses if r["ok"]]
        rejected = [r for r in responses if not r["ok"]]
        assert len(ok) + len(rejected) == 8
        assert rejected, "queue bound never tripped"
        assert {r["code"] for r in rejected} == {CODE_OVERLOADED}
        for r in rejected:
            assert "queue is full" in r["error"]
        # The admitted requests still completed normally.
        assert len(ok) >= 2

    def test_burst_of_200_is_served_in_bounded_waves(self, fresh_registry):
        """Satellite regression: a 200-request burst must not dispatch as
        one giant wave — every wave stays within ``max_batch``."""

        async def go():
            service = await _start_service(
                max_queue=256, max_batch=8, batch_window_s=0.05
            )
            try:
                await service.submit(_payload(request_id="warm"))
                responses = await asyncio.gather(
                    *(
                        service.submit(_payload(request_id=f"b{i}", seed=i, particles=50))
                        for i in range(200)
                    )
                )
                return service.counters.snapshot(), responses
            finally:
                await service.stop()

        counters, responses = asyncio.run(go())
        assert all(r["ok"] for r in responses)
        assert counters["wave_size_max"] <= 8
        # 200 requests at <=8 per wave needs at least 25 waves.
        assert counters["waves_total"] >= 25


class TestQuotas:
    def test_tenant_quota_exhaustion_is_isolated_per_tenant(self):
        """Tenant A burns its burst of 2 and gets ``quota_exceeded``; tenant
        B's untouched bucket still admits."""

        async def go():
            service = await _start_service(tenant_rate=0.001, tenant_burst=2)
            server, reader, writer = await _connect(service)
            try:
                results = []
                for i in range(5):
                    await _send(
                        writer, _payload(request_id=f"a{i}", seed=i, tenant="tenant-a")
                    )
                    results.append(await _recv(reader))
                await _send(writer, _payload(request_id="b0", tenant="tenant-b"))
                results.append(await _recv(reader))
                return results
            finally:
                await _close(server, writer)
                await service.stop()

        responses = asyncio.run(go())
        a_responses, b_response = responses[:5], responses[5]
        assert [r["ok"] for r in a_responses] == [True, True, False, False, False]
        for r in a_responses[2:]:
            assert r["code"] == CODE_QUOTA_EXCEEDED
            assert "tenant-a" in r["error"]
        assert b_response["ok"], "tenant-b must not pay for tenant-a's burst"

    def test_invalid_tenant_is_invalid_request(self):
        async def go():
            service = await _start_service()
            try:
                return [
                    await service.submit(_payload(tenant=bad))
                    for bad in ("", 7, "x" * 65)
                ]
            finally:
                await service.stop()

        for response in asyncio.run(go()):
            assert response["ok"] is False
            assert response["code"] == CODE_INVALID_REQUEST


class TestFairness:
    def test_small_tenant_is_not_starved_by_a_flood(self):
        """Tenant B's 2 requests complete in the first few waves despite
        tenant A's 8-deep backlog (round-robin wave collection)."""

        async def go():
            service = await _start_service(max_batch=2, batch_window_s=0.15)
            server, reader, writer = await _connect(service)
            try:
                await _send(writer, _payload(request_id="warm"))
                assert (await _recv(reader))["ok"]
                for i in range(8):
                    await _send(
                        writer,
                        _payload(request_id=f"a{i}", seed=i, particles=100,
                                 shards=2, tenant="flood"),
                    )
                for i in range(2):
                    await _send(
                        writer,
                        _payload(request_id=f"b{i}", seed=i, particles=100,
                                 shards=2, tenant="small"),
                    )
                return await _recv_many(reader, 10)
            finally:
                await _close(server, writer)
                await service.stop()

        responses = asyncio.run(go())
        assert all(r["ok"] for r in responses), responses
        completion_order = [r["id"] for r in responses]
        b_positions = [completion_order.index(f"b{i}") for i in range(2)]
        # Round-robin puts one "small" request into each of the first two
        # waves of 2; even with in-wave reordering both land early.
        assert max(b_positions) <= 5, (
            f"tenant 'small' starved: completion order {completion_order}"
        )


class TestShutdown:
    def test_stop_resolves_every_request_exactly_once(self):
        """``stop()`` racing a dispatch leaves no caller hanging: every
        submit resolves to exactly one dict (ok or ``shutting_down``)."""

        async def go():
            service = await _start_service(batch_window_s=0.05)
            await service.submit(_payload(request_id="warm"))
            # Two shards make the requests coalescable, so the batch window
            # holds them in the queue when stop() runs.
            submits = [
                asyncio.ensure_future(
                    service.submit(
                        _payload(request_id=f"s{i}", seed=i, particles=100, shards=2)
                    )
                )
                for i in range(12)
            ]
            # Let some requests reach the queue (and possibly dispatch),
            # then stop mid-flight.
            await asyncio.sleep(0.02)
            await service.stop()
            return await asyncio.gather(*submits)

        responses = asyncio.run(go())
        assert len(responses) == 12
        for response in responses:
            assert isinstance(response, dict)
            if response["ok"]:
                assert "posterior_means" in response
            else:
                assert response["code"] in (CODE_SHUTTING_DOWN,)
        assert any(r.get("code") == CODE_SHUTTING_DOWN for r in responses), responses

    def test_submit_after_stop_is_structured_shutting_down(self):
        async def go():
            service = await _start_service()
            await service.submit(_payload(request_id="warm"))
            await service.stop()
            return await service.submit(_payload(request_id="late"))

        response = asyncio.run(go())
        assert response["ok"] is False
        assert response["code"] == CODE_SHUTTING_DOWN


class TestLatencyInvariant:
    def test_response_latency_covers_queue_wait_plus_run(self, fresh_registry):
        """The measured enqueue-to-response latency is always >= the sum of
        its parts (the old ``queue_wait + run`` undercounted), and the ledger
        records that measured latency, not the sum."""

        async def go():
            service = await _start_service()
            try:
                response = await service.submit(_payload(request_id="solo"))
                return response, service.counters.snapshot()
            finally:
                await service.stop()

        response, counters = asyncio.run(go())
        assert response["ok"], response
        server = response["server"]
        assert server["latency_s"] >= server["queue_wait_s"] + server["run_s"]
        assert counters["latency_s_max"] == counters["latency_s_mean"] == server["latency_s"]
        assert counters["queue_wait_s_mean"] == server["queue_wait_s"]
        assert counters["run_s_mean"] == server["run_s"]


class TestErrorCodes:
    def test_every_shed_code_is_documented(self):
        assert SHED_CODES == {
            "overloaded", "quota_exceeded", "deadline_exceeded", "shutting_down",
        }

    def test_tcp_protocol_errors_carry_invalid_request(self):
        async def go():
            service = await _start_service()
            server, reader, writer = await _connect(service)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                bad_json = await _recv(reader)
                await _send(writer, {"id": "q", "op": "frobnicate"})
                bad_op = await _recv(reader)
                await _send(writer, {"id": "v", "op": "infer", "model": 3, "guide": 4})
                bad_payload = await _recv(reader)
                return bad_json, bad_op, bad_payload
            finally:
                await _close(server, writer)
                await service.stop()

        bad_json, bad_op, bad_payload = asyncio.run(go())
        for response in (bad_json, bad_op, bad_payload):
            assert response["ok"] is False
            assert response["code"] == CODE_INVALID_REQUEST

    def test_stats_exposes_shed_accounting(self, fresh_registry):
        async def go():
            service = await _start_service(max_queue=1, batch_window_s=0.3)
            server, reader, writer = await _connect(service)
            try:
                await _send(writer, _payload(request_id="warm"))
                assert (await _recv(reader))["ok"]
                await _send(writer, {"id": "before", "op": "stats"})
                before = await _recv(reader)
                for i in range(4):
                    await _send(writer, _payload(request_id=f"r{i}", seed=i, shards=2))
                await _recv_many(reader, 4)
                await _send(writer, {"id": "st", "op": "stats"})
                return before, await _recv(reader)
            finally:
                await _close(server, writer)
                await service.stop()

        before, stats = asyncio.run(go())
        assert stats["ok"]
        delta = stats_delta(before["counters"], stats["counters"])
        assert delta["shed_total"] >= 1
        assert delta["shed_by_reason"].get("overloaded", 0) >= 1
        assert delta["waves_total"] >= 1
        assert stats["counters"]["wave_size_max"] >= 1


def _cache_size(cache):
    """``repro_cache_size{cache}`` as the registry holds it now."""
    samples = REGISTRY.snapshot()["repro_cache_size"]["samples"]
    return {s["labels"]["cache"]: s["value"] for s in samples}[cache]


class TestCacheCapacity:
    def test_session_cache_respects_capacity_and_counts_evictions(self):
        from repro.engine.session import (
            _SESSION_CACHE,
            ProgramSession,
            clear_session_cache,
            session_cache_len,
            set_session_cache_capacity,
        )

        clear_session_cache()
        set_session_cache_capacity(2)
        evictions_before = _SESSION_CACHE.evictions
        mark = REGISTRY.mark()
        try:
            # Three source-distinct (but semantically identical) programs.
            for i in range(3):
                ProgramSession.from_sources(
                    BENCH.model_source + f"\n# variant {i}\n", BENCH.guide_source
                )
            assert session_cache_len() <= 2
            assert _SESSION_CACHE.evictions == evictions_before + 1
            # The cache publishes its own evictions and size.
            assert REGISTRY.delta(mark)['repro_cache_evictions_total{cache="session"}'] == 1
            assert _cache_size("session") == session_cache_len()
            # The survivors are the two most recently used variants.
            ProgramSession.from_sources(
                BENCH.model_source + "\n# variant 2\n", BENCH.guide_source
            )
            assert _SESSION_CACHE.evictions == evictions_before + 1  # cache hit
        finally:
            set_session_cache_capacity(64)
            clear_session_cache()

    def test_kernel_cache_respects_capacity_and_counts_evictions(self):
        from repro.engine.backend import (
            _KERNEL_CACHE,
            clear_kernel_cache,
            kernel_for,
            kernel_cache_len,
            set_kernel_cache_capacity,
        )

        clear_kernel_cache()
        set_kernel_cache_capacity(1)
        evictions_before = _KERNEL_CACHE.evictions
        try:
            weight, coin = get_benchmark("weight"), get_benchmark("coin")
            programs = [
                (weight.model_program(), weight.guide_program(),
                 weight.model_entry, weight.guide_entry),
                (coin.model_program(), coin.guide_program(),
                 coin.model_entry, coin.guide_entry),
            ]
            for model, guide, model_entry, guide_entry in programs:
                kernel_for(model, guide, model_entry, guide_entry)
            assert kernel_cache_len() == 1
            assert _KERNEL_CACHE.evictions == evictions_before + 1
            assert _cache_size("kernel") == 1
        finally:
            set_kernel_cache_capacity(64)
            clear_kernel_cache()
        assert _cache_size("kernel") == 0

    def test_shrinking_capacity_evicts_immediately(self):
        from repro.utils.lru import LruCache

        cache = LruCache(4)
        for i in range(4):
            cache.put(i, i)
        cache.get(0)  # promote: 0 is now most recent
        cache.set_capacity(2)
        assert len(cache) == 2
        assert 0 in cache and 3 in cache
        assert cache.evictions == 2

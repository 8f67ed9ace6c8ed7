"""The async batch-inference service: coalescing, counters, TCP protocol."""

import asyncio
import json

import pytest

from repro.engine import ProgramSession
from repro.engine.server import InferenceService, ServerCounters, _Pending, serve_tcp
from repro.models import get_benchmark

BENCH = get_benchmark("weight")


def _payload(seed=0, request_id=None, particles=400, **overrides):
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
            "shards": 4,
        },
    }
    payload.update(overrides)
    return payload


async def _with_service(coro, workers=1, batch_window_s=0.005):
    service = InferenceService(workers=workers, batch_window_s=batch_window_s)
    await service.start()
    try:
        return await coro(service)
    finally:
        await service.stop()


class TestSubmit:
    def test_single_request_round_trip(self):
        async def go(service):
            return await service.submit(_payload(request_id="r1"))

        response = asyncio.run(_with_service(go))
        assert response["ok"] and response["id"] == "r1"
        assert response["engine"] == "is"
        assert response["posterior_means"]["0"] == pytest.approx(9.14, abs=0.2)
        assert response["log_evidence"] is not None
        assert response["server"]["run_s"] >= 0.0

    def test_coalesced_requests_match_solo_runs(self):
        """Batched scheduling never changes values: every coalesced response
        equals the same request submitted alone."""

        async def batched(service):
            return await asyncio.gather(
                *[service.submit(_payload(seed=s, request_id=f"r{s}")) for s in range(3)]
            )

        async def solo(service):
            return [await service.submit(_payload(seed=s)) for s in range(3)]

        together = asyncio.run(_with_service(batched))
        alone = asyncio.run(_with_service(solo, batch_window_s=0.0))
        assert any(r["server"]["batch_size"] > 1 for r in together)
        for got, want in zip(together, alone):
            assert got["posterior_means"] == want["posterior_means"]
            assert got["log_evidence"] == want["log_evidence"]

    def test_coalescable_members_run_in_one_pool_wave(self, monkeypatch):
        """Concurrent multi-shard ``is`` requests run in the pool wave, which
        returns an outcome for every member (none fall back to solo runs)."""
        import repro.engine.server as server

        wave = server.run_engine_batch
        wave_sizes = []

        def counted_wave(name, session, requests):
            outcomes = wave(name, session, requests)
            wave_sizes.append(len(outcomes))
            return outcomes

        monkeypatch.setattr(server, "run_engine_batch", counted_wave)

        async def go(service):
            await service.submit(_payload(request_id="warm"))
            wave_sizes.clear()
            return await asyncio.gather(
                *[service.submit(_payload(seed=s, request_id=f"r{s}")) for s in range(3)]
            )

        responses = asyncio.run(_with_service(go))
        assert all(r["ok"] for r in responses), responses
        assert wave_sizes == [3]

    def test_mixed_engines_in_one_batch(self):
        async def go(service):
            return await asyncio.gather(
                service.submit(_payload(engine="is")),
                service.submit(_payload(engine="smc")),
            )

        is_resp, smc_resp = asyncio.run(_with_service(go))
        assert is_resp["ok"] and smc_resp["ok"]
        assert smc_resp["posterior_means"]["0"] == pytest.approx(
            is_resp["posterior_means"]["0"], abs=0.3
        )


def _bench_payload(name, seed, **params):
    bench = get_benchmark(name)
    return {
        "model": bench.model_source,
        "guide": bench.guide_source,
        "model_entry": bench.model_entry,
        "guide_entry": bench.guide_entry,
        "engine": "is",
        "sites": [0],
        "params": {
            "seed": seed,
            "obs_values": list(bench.obs_values),
            "guide_args": list(bench.guide_param_inits.values()),
            **params,
        },
    }


def _coalesced_and_solo(payloads):
    """The payloads answered together in one coalesced wave, then alone."""

    async def together(service):
        await service.submit(payloads[0])  # warm the session: one group, one wave
        return await asyncio.gather(*[service.submit(p) for p in payloads])

    async def alone(service):
        return [await service.submit(p) for p in payloads]

    return (
        asyncio.run(_with_service(together)),
        asyncio.run(_with_service(alone, batch_window_s=0.0)),
    )


class TestCoalescedParity:
    """A coalesced response equals the same request answered alone,
    diagnostics included."""

    def test_coalesced_diagnostics_match_solo_runs(self):
        """``gp-dsl`` is outside the compiled fragment: the gate-level
        fallback reason and the run metrics reach coalesced responses too."""
        payloads = [
            _bench_payload("gp-dsl", s, num_particles=200, backend="compiled", shards=2)
            for s in range(3)
        ]
        together, alone = _coalesced_and_solo(payloads)
        for got, want in zip(together, alone):
            assert got["ok"] and want["ok"], (got, want)
            assert got["server"]["batch_size"] == 3
            assert set(got["diagnostics"]) == set(want["diagnostics"])
            assert "run_metrics" in got["diagnostics"]
            assert "recursive" in want["diagnostics"]["fallback_reason"]
            assert got["diagnostics"]["fallback_reason"] == want["diagnostics"]["fallback_reason"]
            assert got["posterior_means"] == want["posterior_means"]

    def test_one_particle_coalesced_means_match_solo_runs(self):
        """A one-particle run does not shard: in a wave it still draws from
        the caller's generator, as it does alone."""
        payloads = [_bench_payload("weight", s, num_particles=1, shards=4) for s in range(3)]
        together, alone = _coalesced_and_solo(payloads)
        for got, want in zip(together, alone):
            assert got["ok"] and want["ok"], (got, want)
            assert got["server"]["batch_size"] == 3
            assert got["posterior_means"] == want["posterior_means"]
            assert got["log_evidence"] == want["log_evidence"]


def _uncoalescable(kind):
    """A request that cannot join a coalesced wave."""
    if kind == "session.open":
        return {"op": "session.open", "benchmark": "stream_rw", "grow": True,
                "params": {"num_particles": 200, "seed": 5}}
    engine, shards = {"is-1-shard": ("is", 1), "smc-2-shards": ("smc", 2)}[kind]
    payload = _payload(engine=engine)
    payload["params"]["shards"] = shards
    return payload


class TestBatchWindow:
    """The batch window is held only while a queued request can coalesce."""

    @pytest.mark.parametrize("kind", ["is-1-shard", "smc-2-shards", "session.open"])
    def test_uncoalescable_request_is_dispatched_without_the_window(self, kind):
        async def go(service):
            return await service.submit(_uncoalescable(kind))

        response = asyncio.run(_with_service(go, batch_window_s=0.5))
        assert response["ok"], response
        assert response["server"]["queue_wait_s"] < 0.25


def test_response_normalises_the_weights_once(monkeypatch):
    """Building the response for a 4-site SMC result normalises its weights
    once, not once per site plus once more for the ESS."""
    import importlib

    import repro.utils.numerics as numerics

    # ``repro.engine.smc`` is also the name of the function the package exports.
    smc_module = importlib.import_module("repro.engine.smc")

    bench = get_benchmark("kalman")
    session = ProgramSession.from_sources(
        bench.model_source, bench.guide_source,
        model_entry=bench.model_entry, guide_entry=bench.guide_entry,
    )
    result = session.infer(
        "smc", num_particles=500, obs_values=list(bench.obs_values), seed=0
    )
    real = numerics.normalize_log_weights
    calls = []

    def counting(log_weights):
        calls.append(len(log_weights))
        return real(log_weights)

    for module in (numerics, smc_module):
        monkeypatch.setattr(module, "normalize_log_weights", counting)
    pending = _Pending(payload={"id": "k"}, session=session, engine="smc",
                       request=None, sites=[0, 1, 2, 3], future=None)
    response = InferenceService()._result_response(pending, result, 0.0, 0.0)
    assert None not in response["posterior_means"].values()
    assert response["effective_sample_size"] > 0
    assert calls == [500]


class TestValidation:
    def test_parse_error_is_reported_not_raised(self):
        async def go(service):
            return await service.submit(_payload(model="not a program"))

        response = asyncio.run(_with_service(go))
        assert not response["ok"] and "error" in response

    def test_unknown_engine_rejected(self):
        async def go(service):
            return await service.submit(_payload(engine="quantum"))

        response = asyncio.run(_with_service(go))
        assert not response["ok"] and "unknown engine" in response["error"]

    def test_unknown_request_fields_rejected(self):
        async def go(service):
            bad = _payload()
            bad["params"]["particules"] = 7
            return await service.submit(bad)

        response = asyncio.run(_with_service(go))
        assert not response["ok"] and "particules" in response["error"]

    def test_jit_param_is_invalid_request(self):
        """The compiled backend has one tier; ``jit`` is an unknown field."""

        async def go(service):
            bad = _payload()
            bad["params"]["jit"] = "mega"
            return await service.submit(bad)

        response = asyncio.run(_with_service(go))
        assert not response["ok"]
        assert response["code"] == "invalid_request"
        assert "jit" in response["error"]

    def test_uncertified_pair_refused_without_force(self):
        model = """
        proc M() consume latent provide obs {
          v <- sample.recv{latent}(Normal(0.0, 1.0));
          _ <- sample.send{obs}(Normal(v, 1.0));
          return(v)
        }
        """
        guide = """
        proc G() provide latent {
          v <- sample.send{latent}(Unif);
          return(v)
        }
        """
        # Sanity: this pair really is uncertified (Unif cannot cover Normal).
        assert not ProgramSession.from_sources(model, guide).certified

        async def go(service):
            refused = await service.submit(
                {"model": model, "guide": guide, "params": {"num_particles": 10}}
            )
            forced = await service.submit(
                {"model": model, "guide": guide, "force": True,
                 "params": {"num_particles": 10, "seed": 0}}
            )
            return refused, forced

        refused, forced = asyncio.run(_with_service(go))
        assert not refused["ok"] and "not certified" in refused["error"]
        # Forced runs execute (they may still fail statistically downstream,
        # but this pair overlaps enough to produce weights).
        assert forced["ok"]


class TestCounters:
    def test_counters_track_requests_and_coalescing(self):
        async def go(service):
            await asyncio.gather(
                *[service.submit(_payload(seed=s)) for s in range(3)]
            )
            await service.submit(_payload(model="broken source"))
            return service.counters.snapshot()

        snap = asyncio.run(_with_service(go))
        assert snap["requests_total"] == 4
        assert snap["failures_total"] == 1
        assert snap["particles_total"] == 3 * 400
        assert snap["batches_total"] >= 1
        assert snap["latency_s_max"] >= snap["queue_wait_s_mean"]
        assert snap["requests_per_s"] > 0

    def test_counters_snapshot_is_json_serialisable(self):
        json.dumps(ServerCounters().snapshot())


class TestTCP:
    def test_jsonl_round_trip_and_stats(self):
        async def go(service):
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write((json.dumps(_payload(request_id="a")) + "\n").encode())
            writer.write((json.dumps(_payload(seed=1, request_id="b")) + "\n").encode())
            writer.write(b'{"op": "stats", "id": "stats"}\n')
            writer.write(b'not json\n')
            writer.write(b'{"op": "warp", "id": "w"}\n')
            await writer.drain()
            responses = [json.loads(await reader.readline()) for _ in range(5)]
            writer.close()
            server.close()
            await server.wait_closed()
            return {r.get("id"): r for r in responses}

        by_id = asyncio.run(_with_service(go))
        assert by_id["a"]["ok"] and by_id["b"]["ok"]
        assert by_id["a"]["posterior_means"]["0"] != by_id["b"]["posterior_means"]["0"]
        # Responses stream back out of order; stats may answer before the
        # inference requests land, so only its shape is guaranteed.
        assert by_id["stats"]["ok"] and "requests_total" in by_id["stats"]["counters"]
        assert not by_id[None]["ok"] and "bad JSON" in by_id[None]["error"]
        assert not by_id["w"]["ok"] and "unknown op" in by_id["w"]["error"]

    def test_finished_requests_do_not_stay_alive_on_the_connection(self):
        """A long-lived connection keeps only its unfinished line handlers:
        after a few hundred requests, no finished one is still alive."""
        import gc

        def finished_handlers():
            gc.collect()
            return [
                obj for obj in gc.get_objects()
                if isinstance(obj, asyncio.Task) and obj.done()
                and obj.get_coro().__qualname__.endswith("handle_line")
            ]

        async def go(service):
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i in range(300):
                op = "stats" if i % 3 else "warp"
                writer.write((json.dumps({"op": op, "id": i}) + "\n").encode())
            writer.write((json.dumps(_payload(request_id="infer")) + "\n").encode())
            await writer.drain()
            responses = [
                json.loads(await asyncio.wait_for(reader.readline(), timeout=30))
                for _ in range(301)
            ]
            for _ in range(3):
                await asyncio.sleep(0)
            alive = len(finished_handlers())
            writer.close()
            server.close()
            await server.wait_closed()
            return responses, alive

        responses, alive = asyncio.run(_with_service(go))
        assert sorted(map(str, (r["id"] for r in responses))) == sorted(
            [str(i) for i in range(300)] + ["infer"]
        )
        assert alive == 0

    def test_cancelled_connection_cancels_its_pending_requests(self):
        """Cancelling a connection's handler cancels the requests it still
        has in flight (EOF, by contrast, waits for them)."""
        from repro.engine.server import _handle_connection

        class NullWriter:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

            async def wait_closed(self):
                pass

        class StuckService:
            def __init__(self):
                self.entered = asyncio.Event()

            async def submit(self, payload):
                self.entered.set()
                await asyncio.Event().wait()

        async def go():
            service, reader = StuckService(), asyncio.StreamReader()
            reader.feed_data(b'{"id": 1}\n')
            handler = asyncio.create_task(_handle_connection(service, reader, NullWriter()))
            await service.entered.wait()
            (pending,) = [
                task for task in asyncio.all_tasks()
                if task.get_coro().__qualname__.endswith("handle_line")
            ]
            handler.cancel()
            with pytest.raises(asyncio.CancelledError):
                await handler
            await asyncio.sleep(0)
            return pending

        assert asyncio.run(go()).cancelled()


def test_serve_subcommand_registered():
    """The CLI exposes the server with its shard controls."""
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "2", "--batch-window-ms", "1"]
    )
    assert args.workers == 2 and args.port == 0


class TestResilience:
    """Regression tests for failure modes found in review."""

    def test_bad_param_type_fails_one_request_not_the_dispatcher(self):
        """A request whose params blow up inside the engine must come back
        as ok:false — and the dispatcher must keep serving afterwards."""

        async def go(service):
            bad = _payload()
            bad["params"]["num_particles"] = "ten"  # passes intake, fails in-engine
            first = await service.submit(bad)
            second = await service.submit(_payload())  # dispatcher must survive
            return first, second

        first, second = asyncio.run(_with_service(go))
        assert not first["ok"] and "error" in first
        assert second["ok"]

    def test_single_shard_wave_members_build_one_runner_each(self, monkeypatch):
        """Single-shard members of a coalesced ``is`` group are left to
        ``run_engine`` before the wave builds a runner for them."""
        import repro.engine.backend as backend

        real = backend.make_particle_runner
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("shards"))
            return real(*args, **kwargs)

        monkeypatch.setattr(backend, "make_particle_runner", counting)

        def payload(seed):
            body = _payload(seed=seed)
            body["params"]["shards"] = 1
            return body

        async def go(service):
            return await asyncio.gather(*[service.submit(payload(s)) for s in range(3)])

        responses = asyncio.run(_with_service(go, batch_window_s=0.05))
        assert all(r["ok"] for r in responses)
        assert any(r["server"]["batch_size"] > 1 for r in responses)
        assert len(calls) == 3

    def test_coalesced_zero_weight_requests_fail_like_solo_runs(self):
        """The coalesced wave applies the same all-weights-zero guard as a
        solo vectorized_importance run."""
        model = """
        proc M() consume latent provide obs {
          v <- sample.recv{latent}(Beta(2.0, 2.0));
          _ <- sample.send{obs}(Normal(v, 1.0));
          return(v)
        }
        """
        guide = """
        proc G() provide latent {
          v <- sample.send{latent}(Normal(5.0, 0.1));
          return(v)
        }
        """

        def payload(seed):
            return {
                "id": f"z{seed}", "model": model, "guide": guide,
                "engine": "is", "force": True,
                "params": {"num_particles": 200, "seed": seed,
                           "obs_values": [0.5], "shards": 4},
            }

        async def coalesced(service):
            return await asyncio.gather(
                service.submit(payload(0)), service.submit(payload(1))
            )

        async def solo(service):
            return [await service.submit(payload(0))]

        together = asyncio.run(_with_service(coalesced))
        alone = asyncio.run(_with_service(solo, batch_window_s=0.0))
        assert not alone[0]["ok"] and "weights are zero" in alone[0]["error"]
        for response in together:
            assert not response["ok"] and "weights are zero" in response["error"]

    def test_half_close_client_still_receives_responses(self):
        """write -> EOF -> read is the canonical JSONL batch client; queued
        requests must be answered, not cancelled, after the read side sees
        EOF."""

        async def go(service):
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write((json.dumps(_payload(seed=0, request_id="h0")) + "\n").encode())
            writer.write((json.dumps(_payload(seed=1, request_id="h1")) + "\n").encode())
            await writer.drain()
            writer.write_eof()  # half-close: no more requests
            lines = []
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                if not line:
                    break
                lines.append(json.loads(line))
            writer.close()
            server.close()
            await server.wait_closed()
            return lines

        responses = asyncio.run(_with_service(go))
        assert {r["id"] for r in responses} == {"h0", "h1"}
        assert all(r["ok"] for r in responses)

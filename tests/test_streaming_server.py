"""Streaming session verbs over the real JSONL TCP front-end.

``session.open/push/query/close`` ride the same admission pipeline as
``infer`` — same tenant quotas, deadlines, and wave accounting — so these
tests pin the wire contract: ok bodies carry the session summary plus
server timing, failures carry the structured session codes, back-to-back
same-connection ops on one session execute in arrival order (what lets an
open-loop client choose its own session ids), ``op: stats`` exposes the
session table and shard-pool pids, and ``stop()`` resolves still-queued
session ops with ``shutting_down`` while checkpointing every live session
for the next process.
"""

import asyncio
import json

from repro.engine.server import (
    CODE_SHUTTING_DOWN,
    SESSION_OPS,
    InferenceService,
    serve_tcp,
)
from repro.models import get_benchmark

OBS = [0.4, 1.1, 0.8, 1.6]
WEIGHT = get_benchmark("weight")


def _open_payload(request_id="open", session_id="s1", particles=200, **overrides):
    payload = {
        "id": request_id,
        "op": "session.open",
        "session_id": session_id,
        "benchmark": "stream_rw",
        "grow": True,
        "params": {"num_particles": particles, "seed": 5},
    }
    payload.update(overrides)
    return payload


def _is_payload(request_id, shards=1):
    """A one-shot ``weight`` IS request; ``shards > 1`` makes it coalescable."""
    return {
        "id": request_id,
        "model": WEIGHT.model_source,
        "guide": WEIGHT.guide_source,
        "engine": "is",
        "sites": [0],
        "params": {
            "num_particles": 200,
            "seed": 0,
            "obs_values": list(WEIGHT.obs_values),
            "guide_args": [8.5, 0.0],
            "shards": shards,
        },
    }


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


async def _recv(reader, timeout=60.0):
    line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


async def _close(server, writer):
    writer.close()
    server.close()
    await server.wait_closed()


class TestWireVerbs:
    def test_full_lifecycle_on_one_connection(self):
        async def go():
            service = await _start_service()
            server, reader, writer = await _connect(service)
            try:
                responses = []
                await _send(writer, _open_payload())
                responses.append(await _recv(reader))
                for i, value in enumerate(OBS):
                    await _send(
                        writer,
                        {
                            "id": f"push-{i}",
                            "op": "session.push",
                            "session_id": "s1",
                            "values": [value],
                        },
                    )
                    responses.append(await _recv(reader))
                await _send(
                    writer,
                    {
                        "id": "query",
                        "op": "session.query",
                        "session_id": "s1",
                        "sites": [0, 3],
                    },
                )
                responses.append(await _recv(reader))
                await _send(
                    writer,
                    {"id": "close", "op": "session.close", "session_id": "s1"},
                )
                responses.append(await _recv(reader))
                await _send(
                    writer,
                    {"id": "gone", "op": "session.query", "session_id": "s1"},
                )
                responses.append(await _recv(reader))
                return responses
            finally:
                await _close(server, writer)
                await service.stop()

        responses = asyncio.run(go())
        opened, pushes, queried, closed, gone = (
            responses[0],
            responses[1:5],
            responses[5],
            responses[6],
            responses[7],
        )
        assert opened["ok"] and opened["op"] == "session.open"
        assert opened["session_id"] == "s1" and opened["status"] == "buffering"
        for i, push in enumerate(pushes):
            assert push["ok"], push
            assert push["status"] == "active"
            assert push["steps"] == i + 1
            assert "log_evidence" in push and "resample_steps" in push
            assert push["server"]["latency_s"] >= push["server"]["run_s"]
        assert queried["ok"]
        assert set(queried["posterior_means"]) == {"0", "3"}
        assert queried["diagnostics"]["ess_history"]
        assert closed["ok"] and closed["closed"] is True
        assert gone["ok"] is False and gone["code"] == "session_not_found"

    def test_same_connection_ops_admit_in_arrival_order(self):
        """Open + pushes + query written back-to-back, no waiting between."""

        async def go():
            service = await _start_service()
            server, reader, writer = await _connect(service)
            try:
                await _send(writer, _open_payload(request_id="o"))
                for i, value in enumerate(OBS):
                    await _send(
                        writer,
                        {
                            "id": f"p{i}",
                            "op": "session.push",
                            "session_id": "s1",
                            "values": [value],
                        },
                    )
                await _send(
                    writer,
                    {"id": "q", "op": "session.query", "session_id": "s1", "sites": [0]},
                )
                return [await _recv(reader) for _ in range(6)]
            finally:
                await _close(server, writer)
                await service.stop()

        responses = asyncio.run(go())
        assert [r["id"] for r in responses] == ["o", "p0", "p1", "p2", "p3", "q"]
        assert all(r["ok"] for r in responses), responses
        assert responses[-1]["steps"] == len(OBS)

    def test_session_errors_are_structured(self):
        async def go():
            service = await _start_service(sessions_per_tenant=1)
            try:
                missing = await service.submit(
                    {"id": "m", "op": "session.push", "session_id": "nope", "values": [1]}
                )
                bad_keys = await service.submit(
                    {"id": "b", "op": "session.query", "session_id": "x", "values": [1]}
                )
                no_sid = await service.submit({"id": "n", "op": "session.query"})
                await service.submit(_open_payload(request_id="o1", session_id="a"))
                capped = await service.submit(
                    _open_payload(request_id="o2", session_id="b")
                )
                return missing, bad_keys, no_sid, capped
            finally:
                await service.stop()

        missing, bad_keys, no_sid, capped = asyncio.run(go())
        assert missing["code"] == "session_not_found"
        assert bad_keys["code"] == "invalid_request" and "values" in bad_keys["error"]
        assert no_sid["code"] == "invalid_request"
        assert capped["code"] == "session_limit"

    def test_stats_expose_sessions_and_pool(self):
        async def go():
            service = await _start_service()
            server, reader, writer = await _connect(service)
            try:
                await _send(writer, _open_payload())
                assert (await _recv(reader))["ok"]
                await _send(writer, {"id": "st", "op": "stats"})
                return await _recv(reader)
            finally:
                await _close(server, writer)
                await service.stop()

        stats = asyncio.run(go())
        assert stats["sessions"]["live"] == 1
        assert isinstance(stats["pool"]["worker_pids"], list)

    def test_unknown_op_lists_session_verbs(self):
        async def go():
            service = await _start_service()
            server, reader, writer = await _connect(service)
            try:
                await _send(writer, {"id": "x", "op": "session.nope"})
                return await _recv(reader)
            finally:
                await _close(server, writer)
                await service.stop()

        response = asyncio.run(go())
        assert response["ok"] is False
        for op in SESSION_OPS:
            assert op in response["error"]


class TestNonFinitePush:
    """``NaN`` and ``Infinity`` decode from the wire as floats; a push
    carrying one is refused before it reaches the journal, whether the
    session is still buffering or already active."""

    def test_non_finite_push_is_refused_in_both_states(self):
        async def go():
            service = await _start_service()
            server, reader, writer = await _connect(service)

            async def push(request_id, values_text):
                # Literal JSON text: NaN/Infinity as Python's json writes them.
                writer.write(
                    b'{"id": "%s", "op": "session.push", "session_id": "k", "values": %s}\n'
                    % (request_id.encode(), values_text.encode())
                )
                await writer.drain()
                return await _recv(reader)

            def journal():
                return list(service.sessions.get("default", "k").journal)

            try:
                await _send(writer, {"id": "open", "op": "session.open", "session_id": "k",
                                     "benchmark": "kalman",
                                     "params": {"num_particles": 200, "seed": 0}})
                assert (await _recv(reader))["ok"]
                steps = []
                for request_id, text in (
                    ("first", "[0.4]"), ("nan", "[0.9, NaN]"), ("buffered", "[0.9]"),
                    ("rest", "[1.3, 1.9]"), ("inf", "[-Infinity]"), ("inf2", "[Infinity]"),
                    ("after", "[2.2]"),
                ):
                    steps.append((request_id, await push(request_id, text), journal()))
                return steps
            finally:
                await _close(server, writer)
                await service.stop()

        steps = {request_id: rest for request_id, *rest in asyncio.run(go())}
        assert steps["first"][0]["status"] == "buffering"
        for refused, before in (("nan", "first"), ("inf", "rest"), ("inf2", "rest")):
            response, journal = steps[refused]
            assert response["ok"] is False and response["code"] == "invalid_request", response
            assert "must be a finite real" in response["error"]
            assert journal == steps[before][1]
        buffered, journal = steps["buffered"]
        assert buffered["ok"] and buffered["status"] == "buffering" and buffered["steps"] == 2
        assert journal == [0.4, 0.9]
        rest = steps["rest"][0]
        assert rest["ok"] and rest["status"] == "active" and rest["steps"] == 4, rest
        after, journal = steps["after"]
        assert after["ok"] and after["steps"] == 5 and journal == [0.4, 0.9, 1.3, 1.9, 2.2]


class TestShutdown:
    def test_stop_resolves_queued_session_ops_with_shutting_down(self):
        async def go():
            service = await _start_service(batch_window_s=0.05)
            await service.submit(_open_payload(request_id="o"))
            await service.submit(_is_payload(request_id="warm"))
            # Session ops never hold the batch window; a queued two-shard
            # ``is`` request does, so the pushes queued behind it are still
            # queued when stop() runs.
            held = asyncio.ensure_future(
                service.submit(_is_payload(request_id="held", shards=2))
            )
            submits = [
                asyncio.ensure_future(
                    service.submit(
                        {
                            "id": f"p{i}",
                            "op": "session.push",
                            "session_id": "s1",
                            "values": [0.1 * i],
                        }
                    )
                )
                for i in range(8)
            ]
            await asyncio.sleep(0.02)
            await service.stop()
            assert isinstance(await held, dict)
            return await asyncio.gather(*submits)

        responses = asyncio.run(go())
        assert len(responses) == 8
        for response in responses:
            assert isinstance(response, dict)
            if not response["ok"]:
                assert response["code"] == CODE_SHUTTING_DOWN
        assert any(r.get("code") == CODE_SHUTTING_DOWN for r in responses), responses

    def test_stop_checkpoints_sessions_for_the_next_service(self, tmp_path):
        async def go():
            service = await _start_service(checkpoint_dir=str(tmp_path))
            opened = await service.submit(_open_payload())
            pushed = await service.submit(
                {"id": "p", "op": "session.push", "session_id": "s1", "values": OBS}
            )
            await service.stop()

            service2 = await _start_service(checkpoint_dir=str(tmp_path))
            try:
                queried = await service2.submit(
                    {"id": "q", "op": "session.query", "session_id": "s1", "sites": [0]}
                )
            finally:
                await service2.stop()
            return opened, pushed, queried

        opened, pushed, queried = asyncio.run(go())
        assert opened["ok"] and pushed["ok"]
        assert queried["ok"], queried
        assert queried["steps"] == len(OBS)
        assert queried["log_evidence"] == pushed["log_evidence"]

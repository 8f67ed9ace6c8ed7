"""Streaming-SMC sessions: determinism, durability, and the session table.

The load-bearing guarantee is the determinism oracle: a session that
received its observations one push at a time must hold *bit-identical*
state to a one-shot SMC run over the same observations — for both backends
and across shard counts, because replay-from-seed recomputes the whole
prefix with the pinned seed on every push.  Durability is pinned the hard
way: a subprocess opens and feeds a session, dies via SIGKILL (no shutdown
hook runs), and a fresh :class:`SessionManager` on the same checkpoint
directory must restore it bit-identically.  The rest pins the table
semantics: TTL expiry answers ``session_expired``, per-tenant caps answer
``session_limit``, closed ids answer ``session_not_found``, tenants cannot
see each other's sessions, and fixed-demand models buffer until their
observation demand is met.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.engine.api import InferenceRequest, run_engine
from repro.engine.session import ProgramSession
from repro.engine.streaming import (
    CODE_SESSION_EXPIRED,
    CODE_SESSION_LIMIT,
    CODE_SESSION_NOT_FOUND,
    SessionManager,
    StreamingError,
    checkpoint_filename,
)
from repro.errors import InferenceError
from repro.models import STREAMING_FAMILIES, get_benchmark, streaming_sources

OBS = [0.4, 1.1, 0.8, 1.6]


def _open_payload(particles=300, seed=11, backend="interp", shards=None, **extra):
    payload = {
        "benchmark": "stream_rw",
        "grow": True,
        "params": {"num_particles": particles, "seed": seed, "backend": backend},
    }
    if shards is not None:
        payload["params"]["shards"] = shards
    payload.update(extra)
    return payload


def _one_shot(obs, particles=300, seed=11, backend="interp", shards=None):
    """The oracle: one-shot SMC over ``obs`` with the same pinned seed."""
    model, guide = streaming_sources(len(obs))
    session = ProgramSession.from_sources(model, guide)
    request = InferenceRequest(
        num_particles=particles,
        shards=shards,
        backend=backend,
        obs_values=list(obs),
        seed=seed,
    )
    return run_engine("smc", session, request)


class TestDeterminismOracle:
    """Streamed == one-shot, bitwise, for both backends and shard counts."""

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    @pytest.mark.parametrize("shards", [None, 4])
    def test_streamed_equals_one_shot(self, backend, shards):
        manager = SessionManager()
        sid = manager.open("t0", _open_payload(backend=backend, shards=shards))[
            "session_id"
        ]
        for value in OBS:
            body = manager.push("t0", sid, [value])
            assert body["status"] == "active"
        session = manager.get("t0", sid)
        oracle = _one_shot(OBS, backend=backend, shards=shards)

        assert np.array_equal(
            session.result.raw.log_weights, oracle.raw.log_weights
        ), f"streamed population diverged from one-shot ({backend}, shards={shards})"
        assert session.result.log_evidence() == oracle.log_evidence()
        assert session.result.raw.resample_steps == oracle.raw.resample_steps
        for site in range(len(OBS)):
            assert session.result.posterior_mean(site) == oracle.posterior_mean(site)

    def test_push_granularity_is_irrelevant(self):
        """One push of four observations == four pushes of one."""
        manager = SessionManager()
        one = manager.open("t0", _open_payload())["session_id"]
        manager.push("t0", one, OBS)
        four = manager.open("t0", _open_payload())["session_id"]
        for value in OBS:
            manager.push("t0", four, [value])
        a = manager.get("t0", one).result
        b = manager.get("t0", four).result
        assert np.array_equal(a.raw.log_weights, b.raw.log_weights)
        assert a.log_evidence() == b.log_evidence()

    def test_mid_stream_checkpoint_restore_reproduces_final_population(self, tmp_path):
        """Checkpoint after 2 pushes, restore, push the rest: same result."""
        manager = SessionManager(checkpoint_dir=str(tmp_path))
        sid = manager.open("t0", _open_payload(), session_id="mid")["session_id"]
        manager.push("t0", sid, OBS[:2])
        assert manager.shutdown() == 1

        restored = SessionManager(checkpoint_dir=str(tmp_path))
        restored.push("t0", sid, OBS[2:])
        streamed = restored.get("t0", sid).result
        oracle = _one_shot(OBS)
        assert np.array_equal(streamed.raw.log_weights, oracle.raw.log_weights)
        assert streamed.log_evidence() == oracle.log_evidence()


def _walk(steps):
    """A deterministic observation stream of ``steps`` values."""
    return [round(0.05 * t - 0.4, 3) for t in range(steps)]


class TestLongProtocols:
    """Protocols past 64 messages: the guide-type equality counts unfoldings only."""

    @pytest.mark.parametrize("steps", [65, 128])
    def test_long_stream_rw_certifies_and_backends_agree(self, steps):
        model, guide = streaming_sources(steps)
        session = ProgramSession.from_sources(model, guide)
        assert session.certified
        interp, compiled = (
            session.infer(
                "is", num_particles=200, obs_values=_walk(steps), seed=5, backend=backend
            )
            for backend in ("interp", "compiled")
        )
        assert compiled.diagnostics().get("backend") == "compiled"
        assert interp.log_evidence() == compiled.log_evidence()
        for site in (0, steps // 2, steps - 1):
            assert interp.posterior_mean(site) == compiled.posterior_mean(site)

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_growable_session_takes_a_65th_push(self, backend):
        obs = _walk(65)
        manager = SessionManager()
        sid = manager.open("t0", _open_payload(particles=100, backend=backend))["session_id"]
        assert manager.push("t0", sid, obs[:64])["status"] == "active"
        assert manager.push("t0", sid, obs[64:])["status"] == "active"
        streamed = manager.get("t0", sid).result
        oracle = _one_shot(obs, particles=100, backend=backend)
        assert np.array_equal(streamed.raw.log_weights, oracle.raw.log_weights)
        assert streamed.log_evidence() == oracle.log_evidence()


class TestCheckpointDurability:
    def test_sigkilled_process_restores_bit_identically(self, tmp_path):
        """Open + push in a subprocess, SIGKILL it, restore here."""
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.engine.streaming import SessionManager
            manager = SessionManager(checkpoint_dir={str(tmp_path)!r})
            manager.open(
                "t0",
                {{"benchmark": "stream_rw", "grow": True,
                  "params": {{"num_particles": 300, "seed": 11}}}},
                session_id="doomed",
            )
            manager.push("t0", "doomed", {OBS[:3]!r})
            print("READY", flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert "READY" in proc.stdout, proc.stderr
        assert proc.returncode == -signal.SIGKILL

        manager = SessionManager(checkpoint_dir=str(tmp_path))
        streamed = manager.get("t0", "doomed").result
        oracle = _one_shot(OBS[:3])
        assert np.array_equal(streamed.raw.log_weights, oracle.raw.log_weights)
        assert streamed.log_evidence() == oracle.log_evidence()
        # And the restored session keeps accepting pushes.
        body = manager.push("t0", "doomed", [OBS[3]])
        assert body["steps"] == 4

    def test_corrupt_checkpoint_is_structured_not_found(self, tmp_path):
        manager = SessionManager(checkpoint_dir=str(tmp_path))
        manager.open("t0", _open_payload(), session_id="hurt")
        manager.shutdown()
        path = tmp_path / checkpoint_filename("t0", "hurt")
        path.write_text(path.read_text().replace("stream_rw", "stream_xx"))
        fresh = SessionManager(checkpoint_dir=str(tmp_path))
        with pytest.raises(StreamingError) as err:
            fresh.get("t0", "hurt")
        assert err.value.code == CODE_SESSION_NOT_FOUND

    def test_open_alone_is_durable(self, tmp_path):
        """A session is durable from open, not from its first push."""
        manager = SessionManager(checkpoint_dir=str(tmp_path))
        manager.open("t0", _open_payload(), session_id="bare")
        fresh = SessionManager(checkpoint_dir=str(tmp_path))
        assert fresh.get("t0", "bare").status == "buffering"


#: A version-1 checkpoint written by an earlier build: tenant ``pinned``
#: opened session ``kalman-v1`` with ``V1_OPEN_PAYLOAD`` (the compiled
#: backend, a pinned seed) and pushed ``[0.4, 0.9]``, ``[1.3]`` and ``[1.9]``.
V1_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data", "streaming_checkpoint_v1.json")
V1_OPEN_PAYLOAD = {
    "benchmark": "kalman",
    "params": {"num_particles": 400, "seed": 20211, "backend": "compiled"},
}
#: The ``config`` keys of a version-1 checkpoint, in the order a session writes them.
V1_CONFIG_KEYS = [
    "model_source", "guide_source", "model_entry", "guide_entry", "latent_channel",
    "obs_channel", "benchmark", "grow", "num_particles", "seed", "backend", "shards",
    "workers", "ess_threshold", "rejuvenate", "model_args", "guide_args", "force",
    "max_steps",
]
#: What the build that wrote the checkpoint answered after its third push.
V1_MEANS = {"0": "0x1.b90385e5a2306p-2", "1": "0x1.d1e9d2ed067b0p-1", "2": "0x1.46f336251e91dp+0"}
V1_LOG_EVIDENCE = "-0x1.2a2cdc5f55649p+2"
V1_ESS = "0x1.8ffffffffffffp+8"


class TestPinnedCheckpoint:
    """Sessions on disk survive an upgrade: a checkpoint an earlier build
    wrote restores to the same answers, and opening the same payload writes
    the same ``config`` object."""

    def test_version_1_checkpoint_restores_bit_identically(self, tmp_path):
        with open(V1_CHECKPOINT, encoding="utf-8") as fh:
            written = fh.read()
        (tmp_path / checkpoint_filename("pinned", "kalman-v1")).write_text(written)
        manager = SessionManager(checkpoint_dir=str(tmp_path), ttl_s=0)
        body = manager.query("pinned", "kalman-v1", [0, 1, 2])
        session = manager.get("pinned", "kalman-v1")
        assert session.journal == [0.4, 0.9, 1.3, 1.9]
        assert session.checkpoint_dict()["seed"] == 20211
        assert (body["status"], body["steps"], body["steps_applied"]) == ("active", 4, 4)
        assert {site: mean.hex() for site, mean in body["posterior_means"].items()} == V1_MEANS
        assert body["log_evidence"].hex() == V1_LOG_EVIDENCE
        assert body["effective_sample_size"].hex() == V1_ESS
        assert body["diagnostics"]["backend"] == "compiled"

    def test_open_writes_the_version_1_config(self, tmp_path):
        manager = SessionManager(checkpoint_dir=str(tmp_path), ttl_s=0)
        manager.open("pinned", json.loads(json.dumps(V1_OPEN_PAYLOAD)), session_id="kalman-v1")
        config = manager.get("pinned", "kalman-v1").checkpoint_dict()["config"]
        assert list(config) == V1_CONFIG_KEYS
        with open(V1_CHECKPOINT, encoding="utf-8") as fh:
            pinned = json.load(fh)["config"]
        with open(tmp_path / checkpoint_filename("pinned", "kalman-v1"), encoding="utf-8") as fh:
            assert json.load(fh)["config"] == pinned


class TestAtomicPush:
    def test_failed_push_leaves_memory_and_checkpoint_unchanged(self, tmp_path, monkeypatch):
        """A push whose replay raises commits nothing: the in-memory state
        and the on-disk checkpoint both keep their pre-push values, and the
        next push builds on the accepted observations only."""
        import repro.engine.streaming as streaming_mod

        manager = SessionManager(checkpoint_dir=str(tmp_path))
        sid = manager.open("t0", _open_payload(), session_id="atomic")["session_id"]
        manager.push("t0", sid, OBS[:2])
        session = manager.get("t0", sid)
        before = (list(session.journal), session.result, session.steps_applied, session.status)
        path = tmp_path / checkpoint_filename("t0", sid)
        on_disk = path.read_text()

        def failing_replay(*args, **kwargs):
            raise InferenceError("replay failed")

        monkeypatch.setattr(streaming_mod, "run_engine", failing_replay)
        with pytest.raises(InferenceError):
            manager.push("t0", sid, [99.0])
        monkeypatch.undo()

        after = (session.journal, session.result, session.steps_applied, session.status)
        assert after == before
        assert path.read_text() == on_disk
        assert json.loads(on_disk)["journal"] == session.journal

        manager.push("t0", sid, OBS[2:])
        oracle = _one_shot(OBS)
        assert np.array_equal(manager.get("t0", sid).result.raw.log_weights, oracle.raw.log_weights)


class TestSessionTable:
    def test_ttl_expiry_answers_session_expired(self):
        clock = {"now": 0.0}
        manager = SessionManager(ttl_s=10.0, clock=lambda: clock["now"])
        sid = manager.open("t0", _open_payload())["session_id"]
        clock["now"] = 9.0
        assert manager.get("t0", sid) is not None  # touch resets idleness
        clock["now"] = 18.5
        manager.get("t0", sid)
        clock["now"] = 30.0
        with pytest.raises(StreamingError) as err:
            manager.push("t0", sid, [1.0])
        assert err.value.code == CODE_SESSION_EXPIRED
        # The id stays distinguishable from a never-seen one (tombstoned).
        with pytest.raises(StreamingError) as err:
            manager.get("t0", sid)
        assert err.value.code == CODE_SESSION_EXPIRED
        with pytest.raises(StreamingError) as err:
            manager.get("t0", "never-seen")
        assert err.value.code == CODE_SESSION_NOT_FOUND

    def test_sweep_expires_idle_sessions(self):
        clock = {"now": 0.0}
        manager = SessionManager(ttl_s=10.0, clock=lambda: clock["now"])
        manager.open("t0", _open_payload())
        manager.open("t0", _open_payload())
        clock["now"] = 60.0
        assert manager.sweep() == 2
        assert manager.stats()["live"] == 0

    def test_per_tenant_cap_answers_session_limit(self):
        manager = SessionManager(per_tenant=2)
        manager.open("t0", _open_payload())
        manager.open("t0", _open_payload())
        with pytest.raises(StreamingError) as err:
            manager.open("t0", _open_payload())
        assert err.value.code == CODE_SESSION_LIMIT
        # Another tenant is unaffected.
        manager.open("t1", _open_payload())

    def test_close_tombstones_the_id(self):
        manager = SessionManager()
        sid = manager.open("t0", _open_payload())["session_id"]
        body = manager.close("t0", sid)
        assert body["closed"] is True
        with pytest.raises(StreamingError) as err:
            manager.get("t0", sid)
        assert err.value.code == CODE_SESSION_NOT_FOUND

    def test_tenant_isolation(self):
        manager = SessionManager()
        sid = manager.open("t0", _open_payload())["session_id"]
        with pytest.raises(StreamingError) as err:
            manager.query("t1", sid, [0])
        assert err.value.code == CODE_SESSION_NOT_FOUND

    def test_capacity_eviction_restores_from_checkpoint(self, tmp_path):
        manager = SessionManager(capacity=1, checkpoint_dir=str(tmp_path))
        a = manager.open("t0", _open_payload())["session_id"]
        manager.push("t0", a, OBS[:2])
        manager.open("t0", _open_payload())  # evicts a (checkpointed first)
        assert manager.stats()["live"] == 1
        assert manager.get("t0", a).journal == OBS[:2]

    def test_journal_cap_answers_session_limit(self):
        manager = SessionManager()
        sid = manager.open("t0", _open_payload(max_steps=2))["session_id"]
        manager.push("t0", sid, OBS[:2])
        with pytest.raises(StreamingError) as err:
            manager.push("t0", sid, [1.0])
        assert err.value.code == CODE_SESSION_LIMIT

    def test_duplicate_client_id_rejected(self):
        manager = SessionManager()
        manager.open("t0", _open_payload(), session_id="dup")
        with pytest.raises(StreamingError) as err:
            manager.open("t0", _open_payload(), session_id="dup")
        assert err.value.code == "invalid_request"


class TestFixedDemandModels:
    def test_buffering_until_demand_met(self):
        bench = get_benchmark("seasonal")
        manager = SessionManager()
        sid = manager.open("t0", {"benchmark": "seasonal", "params": {"seed": 3}})[
            "session_id"
        ]
        demand = len(bench.obs_values)
        for i, value in enumerate(bench.obs_values):
            body = manager.push("t0", sid, [float(value)])
            expected = "active" if i == demand - 1 else "buffering"
            assert body["status"] == expected, f"push {i}: {body}"
        assert body["steps_applied"] == demand

    def test_extra_observations_reported_unused(self):
        bench = get_benchmark("seasonal")
        manager = SessionManager()
        sid = manager.open("t0", {"benchmark": "seasonal", "params": {"seed": 3}})[
            "session_id"
        ]
        manager.push("t0", sid, [float(v) for v in bench.obs_values])
        body = manager.push("t0", sid, [9.9])
        assert body["status"] == "active"
        assert body["unused_observations"] == 1


class TestGrowableFamilies:
    def test_stream_rw_registered(self):
        assert "stream_rw" in STREAMING_FAMILIES
        bench = get_benchmark("stream_rw")
        assert bench.model_entry == "StreamRW"

    @pytest.mark.parametrize("steps", [1, 2, 5, 9])
    def test_every_unroll_certifies(self, steps):
        model, guide = streaming_sources(steps)
        session = ProgramSession.from_sources(model, guide)
        assert session.certified, session.certification_reason

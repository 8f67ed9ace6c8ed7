"""Overload behaviour under the open-loop load harness (the PR 7 contract).

Drives the real server at ~2x its measured sustained capacity and asserts
the hardening guarantees: the server stays up, every request gets exactly
one structured response (zero hangs, zero unstructured errors), overflow is
rejected with ``overloaded``/``deadline_exceeded``, and the kernel/session
caches never exceed their configured capacity.  The latency percentiles
(p50/p90/p99, histogram-derived) and the shed rate land in
``BENCH_results.json`` so p99-under-load is a tracked number PR-over-PR.
"""

from __future__ import annotations

import os

import _record
from load_harness import run_overload_harness, run_streaming_harness
from repro.engine.shard import shutdown_pool

FAST = bool(os.environ.get("REPRO_FAST_BENCH"))


def test_overload_sheds_structurally_and_stays_up(fresh_registry):
    outcome = run_overload_harness(
        duration_s=1.5 if FAST else 3.0,
        rate_multiplier=2.0,
        particles=2_000 if FAST else 4_000,
    )
    report = outcome.report

    # The server kept answering: the post-run stats fetch got a snapshot.
    assert report.server_stats is not None, "server stopped answering op: stats"
    # Zero client hangs and zero unstructured failures, even at 2x capacity.
    assert report.unanswered == 0, f"{report.unanswered} requests never answered"
    assert report.unstructured_errors == 0, "ok:false responses without a code"
    assert report.ok + report.shed == report.answered
    # At twice sustained capacity the server must actually shed...
    assert report.shed > 0, (
        f"no sheds at {outcome.offered_rps:.0f} req/s offered "
        f"(capacity {outcome.capacity_rps:.0f} req/s)"
    )
    # ...with the documented codes only.
    assert set(report.by_code) <= {"overloaded", "deadline_exceeded", "quota_exceeded"}
    # ...and still make real progress.
    assert report.ok > 0
    # Dispatch waves stayed bounded while the queue was slammed.
    assert outcome.counters["wave_size_max"] <= 8
    # Cache capacity held for the whole run.
    assert outcome.kernel_cache_len <= outcome.kernel_cache_cap
    assert outcome.session_cache_len <= outcome.session_cache_cap

    pct = report.percentiles()
    print(
        f"\nload: offered {outcome.offered_rps:.0f} req/s "
        f"(capacity {outcome.capacity_rps:.0f}), {report.offered} requests, "
        f"ok {report.ok}, shed {report.shed} ({100 * report.shed_rate:.0f}%), "
        f"p50/p99 {pct['latency_s_p50'] * 1e3:.1f}/{pct['latency_s_p99'] * 1e3:.1f}ms"
    )
    _record.record(
        suite="load",
        model="weight",
        engine="is",
        backend="interp",
        particles=report.config.particles,
        wall_time_s=report.wall_time_s,
        **{k: v for k, v in report.bench_extra().items()},
    )
    shutdown_pool()


def test_streaming_load_and_restart_recovery(tmp_path):
    outcome = run_streaming_harness(
        checkpoint_dir=str(tmp_path / "ckpt"),
        duration_s=1.5 if FAST else 3.0,
        rate=20.0,
        particles=200 if FAST else 500,
    )
    report = outcome.report

    # The usual hardening contract holds for session traffic too.
    assert report.unanswered == 0, f"{report.unanswered} requests never answered"
    assert report.unstructured_errors == 0, "ok:false responses without a code"
    assert report.ok > 0
    assert len(report.sessions) > 0, "streaming mode opened no sessions"
    # Every session the run opened answers a query on a fresh service
    # restored purely from the checkpoint directory.
    assert outcome.verify["checked"] == len(report.sessions)
    assert outcome.verify["recovered"] == outcome.verify["checked"], (
        f"sessions lost across restart: {outcome.verify['failed']}"
    )

    print(
        f"\nstreaming: {report.offered} ops over {len(report.sessions)} sessions, "
        f"ok {report.ok}, recovered {outcome.verify['recovered']}"
        f"/{outcome.verify['checked']} after restart"
    )
    _record.record(
        suite="load",
        model="stream_rw",
        engine="smc",
        backend="interp",
        particles=report.config.particles,
        wall_time_s=report.wall_time_s,
        sessions_recovered=outcome.verify["recovered"],
        sessions_checked=outcome.verify["checked"],
        **{k: v for k, v in report.bench_extra().items()},
    )
    shutdown_pool()

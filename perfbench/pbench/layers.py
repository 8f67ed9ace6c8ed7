"""Per-layer metrics of the traced runs.

Layers are named after the program's modules.  Three sources feed them:

* the stage split of every served request, read from outside through the
  response's ``server`` block (``server.wire/admit/queue/dispatch``);
* the server's ``op: stats`` / ``op: metrics`` snapshots (batch size,
  sheds, session-cache hits, compiled fallbacks);
* an in-process replay of every distinct request shape of the workload
  through ``InferenceService.submit`` and ``SessionManager.push``, with
  spans around the calls into parser, type checker, session, kernel
  compiler, particle runner, ``run_engine`` and metric attribution
  (:mod:`pbench.tracing`).  The replay runs each shape cold (caches
  cleared), then warm, alternating calls with and without spans to measure
  the tracing overhead.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

from pbench import stats
from pbench.common import Outcome, ms

#: Every per-layer metric (name -> unit); each traced run reports all of them.
PER_LAYER = {
    "server.wire_ms": "ms",
    "server.admit_ms": "ms",
    "server.queue_ms": "ms",
    "server.dispatch_ms": "ms",
    "server.batch_size_mean": "count",
    "server.shed_frac": "ratio",
    "obs.attribution_ms": "ms",
    "engine.run_ms": "ms",
    "engine.setup_ms": "ms",
    "engine.ess_frac": "ratio",
    "vectorize.kernel_ms": "ms",
    "codegen.compile_ms": "ms",
    "codegen.fallback_frac": "ratio",
    "parser.parse_ms": "ms",
    "typecheck.check_ms": "ms",
    "session.hit_ratio": "ratio",
    "streaming.push_ms": "ms",
    "streaming.replay_ms": "ms",
    "streaming.checkpoint_ms": "ms",
    "client.lag_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Warm calls per shape in the replay, each made traced and untraced.
WARM_REPEATS = 5
ATTRIBUTION_REPEATS = 25
#: Where traced runs leave their spans (inside the checkout, git-ignored).
TRACE_DIR = ".perfbench_traces"


def _median_ms(values) -> float:
    return ms(stats.median(list(values)))


def server_layers(outcome: Outcome, splits: Sequence[Optional[dict]], counters: dict) -> None:
    """Medians of the served requests' stage splits, plus sheds."""
    splits = [s for s in splits if s]
    for stage in ("wire", "admit", "queue", "dispatch"):
        outcome.layer(f"server.{stage}_ms", _median_ms(s[stage] for s in splits if stage in s), "ms")
    total = max(int(counters.get("requests_total", 0)), 1)
    outcome.layer("server.shed_frac", counters.get("shed_total", 0) / total, "ratio")
    for reason, count in sorted((counters.get("shed_by_reason") or {}).items()):
        outcome.figure(f"server.shed_frac.{reason}", count / total, "ratio")


def _samples(snapshot: dict, family: str) -> List[dict]:
    return ((snapshot or {}).get(family) or {}).get("samples") or []


def _sum_values(snapshot: dict, family: str, **labels) -> float:
    out = 0.0
    for sample in _samples(snapshot, family):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            out += sample.get("value", sample.get("count", 0.0))
    return out


def registry_layers(outcome: Outcome, snapshot: dict) -> None:
    """Ratios from the registry of the process under test."""
    hits = _sum_values(snapshot, "repro_session_cache_total", event="hit")
    misses = _sum_values(snapshot, "repro_session_cache_total", event="miss")
    outcome.layer("session.hit_ratio", hits / max(hits + misses, 1.0), "ratio")
    compiled_runs = _sum_values(snapshot, "repro_engine_run_seconds", backend="compiled")
    fallbacks = _sum_values(snapshot, "repro_compiled_fallback_total")
    outcome.layer("codegen.fallback_frac", fallbacks / max(compiled_runs, 1.0), "ratio")
    batch_size(outcome, snapshot)


def batch_size(outcome: Outcome, snapshot: dict) -> None:
    """Mean requests per dispatch group, from the server's histogram."""
    batches = _samples(snapshot, "repro_server_batch_size")
    count = sum(s["count"] for s in batches)
    outcome.layer("server.batch_size_mean", sum(s["sum"] for s in batches) / max(count, 1), "count")


def pool_shape(entry: dict, pool: dict):
    """A ``cold_programs`` pool pair as a replayable shape."""
    from pbench.inputs import Shape

    return Shape(
        name=entry["name"], model=entry["model"], guide=entry["guide"], engine=pool["engine"],
        particles=pool["particles"], obs_values=tuple(entry["obs_values"]),
    )


def _streamable(shape) -> bool:
    values = shape.obs_values
    return bool(values) and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


class _Replay:
    """The in-process replay of a workload's shapes through every layer."""

    def __init__(self) -> None:
        from pbench.tracing import Tracer

        self.tracer = Tracer()

    def install(self) -> None:
        import repro.engine.backend as backend
        import repro.engine.server as server
        import repro.engine.session as session
        import repro.engine.streaming as streaming
        from repro.obs import REGISTRY

        t = self.tracer
        t.patch(session, "parse_program", "parser.parse")
        t.patch(session, "check_model_guide_pair", "typecheck.check")
        t.patch(session.ProgramSession, "from_sources", "session.from_sources")
        for module in (server, streaming, session):
            t.patch(module, "run_engine", "engine.run")
        t.patch(REGISTRY, "mark", "obs.mark")
        t.patch(REGISTRY, "delta", "obs.delta")

        def make_runner(name, fn):
            def traced(*args, **kwargs):
                span = t.open("codegen.make_runner")
                try:
                    runner = fn(*args, **kwargs)
                finally:
                    t.close(span)
                runner.run = t.wrap("vectorize.run", runner.run)
                return runner

            return traced

        t.patch(backend, "make_particle_runner", "codegen.make_runner", make_runner)

    async def submit(self, service, payload: dict, request: str) -> dict:
        self.tracer.request = request
        span = self.tracer.open("server.submit")
        try:
            return await service.submit(payload)
        finally:
            self.tracer.close(span)


async def replay(
    outcome: Outcome,
    name: str,
    shapes: Sequence,
    tenants: Sequence[str],
    stream_length: Optional[int] = None,
    served: bool = True,
) -> None:
    """Replay every distinct shape in-process and derive the layer metrics.

    ``served=False`` (the in-process workload) also takes the ``server.*``
    stage split from the replay's own ``submit`` calls, where the "wire" is
    the call minus the response's ``latency_s``.
    """
    from repro.engine.backend import clear_kernel_cache
    from repro.engine.server import InferenceService
    from repro.engine.session import clear_session_cache
    from repro.obs import REGISTRY

    from pbench import answers
    from pbench.common import fresh_workdir, server_split
    from pbench.inputs import ROOT

    workdir = fresh_workdir("replay")
    rng = random.Random(0)
    service = InferenceService(batch_window_s=0.002)
    await service.start()
    # Reach the workload's registry size: every tenant label once.
    for tenant in tenants:
        await service.submit(shapes[0].payload(f"t-{tenant}", 1, tenant))

    run = _Replay()
    splits, untraced, traced, ess = [], {}, {}, []
    for i, shape in enumerate(shapes):
        payload = shape.payload(f"r{i}", rng.randrange(2**31), tenants[i % len(tenants)])
        clear_session_cache()
        clear_kernel_cache()
        run.install()
        try:
            response = await run.submit(service, dict(payload), f"cold/{i}")
        finally:
            run.tracer.restore()
        if not response.get("ok"):
            raise RuntimeError(f"replay of {shape.key} failed: {response}")
        # Warm calls alternate traced and untraced, so the difference is
        # the tracing overhead and not a drift between two passes.
        for k in range(WARM_REPEATS):
            run.install()
            try:
                began = time.perf_counter()
                response = await run.submit(service, dict(payload), f"warm/{i}/{k}")
                traced.setdefault(i, []).append(time.perf_counter() - began)
            finally:
                run.tracer.restore()
            if not served:
                splits.append(server_split(response, time.perf_counter(), began))
            began = time.perf_counter()
            await service.submit(dict(payload))
            untraced.setdefault(i, []).append(time.perf_counter() - began)
        history = (response.get("diagnostics") or {}).get("ess_history") or ()
        ess.append(answers.effective_ess(response["effective_sample_size"], history) / shape.particles)
    run.install()
    try:
        if stream_length:
            _stream_growable(run, workdir, stream_length)
        else:
            _stream_fixed(run, workdir, [s for s in shapes if _streamable(s)][:8])
    finally:
        run.tracer.restore()
    counters = service.counters.snapshot()
    registry = REGISTRY.snapshot()
    await service.stop()

    t = run.tracer
    attribution = []
    for _ in range(ATTRIBUTION_REPEATS):
        began = time.perf_counter()
        REGISTRY.delta(REGISTRY.mark())
        attribution.append(time.perf_counter() - began)
    outcome.layer("obs.attribution_ms", _median_ms(attribution), "ms")

    def per_request(name: str, prefix: str) -> List[float]:
        return list(t.self_times(name, prefix).values())

    outcome.layer("parser.parse_ms", _median_ms(per_request("parser.parse", "cold/")), "ms")
    outcome.layer("typecheck.check_ms", _median_ms(per_request("typecheck.check", "cold/")), "ms")
    outcome.layer("codegen.compile_ms", _median_ms(per_request("codegen.make_runner", "cold/")), "ms")
    outcome.layer("vectorize.kernel_ms", _median_ms(per_request("vectorize.run", "warm/")), "ms")
    outcome.layer("engine.run_ms", _median_ms(s.duration for s in t.by_name("engine.run", "warm/")), "ms")
    is_requests = tuple(f"warm/{i}/" for i, s in enumerate(shapes) if s.engine == "is")
    children: Dict[int, float] = {}
    for span in t.spans:
        if span.name in ("vectorize.run", "obs.mark", "obs.delta") and span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration
    setup = [
        span.duration - children.get(span.index, 0.0)
        for span in t.by_name("engine.run", "warm/")
        if span.request.startswith(is_requests)
    ]
    outcome.layer("engine.setup_ms", _median_ms(setup), "ms")
    outcome.layer("engine.ess_frac", stats.median(ess), "ratio")
    mark_delta = [a + b for a, b in zip(per_request("obs.mark", "warm/"), per_request("obs.delta", "warm/"))]
    outcome.figure("obs.attribution_in_run_ms", _median_ms(mark_delta), "ms")
    outcome.figure("server.submit_self_ms", _median_ms(per_request("server.submit", "warm/")), "ms")
    outcome.layer("streaming.push_ms", _median_ms(s.duration for s in t.by_name("streaming.push")), "ms")
    outcome.layer("streaming.replay_ms", _median_ms(
        s.duration for s in t.by_name("engine.run", "stream/")), "ms")
    outcome.layer("streaming.checkpoint_ms", _median_ms(
        s.duration for s in t.by_name("streaming.checkpoint")), "ms")
    for length, spans in _by_length(t).items():
        outcome.figure(f"streaming.replay_ms.t{length}", _median_ms(spans), "ms")
    overhead = [
        stats.median(traced[i]) - stats.median(untraced[i]) for i in range(len(shapes))
    ]
    outcome.layer("trace.overhead_ms", ms(stats.median(overhead)), "ms")
    if not served:
        server_layers(outcome, splits, counters)
        batch_size(outcome, registry)
    t.write(ROOT / TRACE_DIR / f"{name}.json")


def _push_all(run: _Replay, manager, sid: str, values, traced: bool) -> None:
    t = run.tracer
    for step, value in enumerate(values, start=1):
        if not traced:
            # Inner spans still open; this request id keeps them out of the metrics.
            t.request = f"stream-warm/{step}"
            manager.push("stream", sid, [value])
            continue
        t.request = f"stream/{step}"
        span = t.open("streaming.push")
        try:
            manager.push("stream", sid, [value])
        finally:
            t.close(span)


def _stream_growable(run: _Replay, workdir, length: int) -> None:
    """Two ``stream_rw`` sessions: one to warm every length, one traced."""
    from repro.engine.streaming import SessionManager

    from pbench.serve_stream import Journals, open_payload

    manager = SessionManager(checkpoint_dir=str(workdir / "ckpt"))
    run.tracer.patch(manager, "_checkpoint", "streaming.checkpoint")
    journals = Journals(random.Random(0))
    for sid, traced in (("warm", False), ("traced", True)):
        manager.open("stream", open_payload(sid, 1), session_id=sid)
        _push_all(run, manager, sid, journals.draw(length), traced)


def _stream_fixed(run: _Replay, workdir, shapes) -> None:
    """Each numeric-observation shape as a fixed-source session, warm then traced."""
    from repro.engine.streaming import SessionManager

    manager = SessionManager(checkpoint_dir=str(workdir / "ckpt"))
    run.tracer.patch(manager, "_checkpoint", "streaming.checkpoint")
    for i, shape in enumerate(shapes):
        payload = {"model": shape.model, "guide": shape.guide,
                   "params": {"num_particles": shape.particles, "backend": "compiled", "seed": 1,
                              "guide_args": list(shape.guide_args)}}
        if shape.model_entry:
            payload["model_entry"] = shape.model_entry
            payload["guide_entry"] = shape.guide_entry
        for sid, traced in ((f"warm-{i}", False), (f"traced-{i}", True)):
            manager.open("stream", payload, session_id=sid)
            _push_all(run, manager, sid, shape.obs_values, traced)


def _by_length(tracer) -> Dict[int, List[float]]:
    out: Dict[int, List[float]] = {}
    for span in tracer.by_name("engine.run", "stream/"):
        length = int(span.request.split("/")[1])
        if length in (1, 2, 4, 8, 16, 32, 48, 64):
            out.setdefault(length, []).append(span.duration)
    return out

"""Command-line interface for the guide-types reproduction.

Usage (after ``python setup.py develop`` / ``pip install -e .``)::

    python -m repro.cli infer-types  MODEL.gt            # print inferred guide types
    python -m repro.cli check        MODEL.gt GUIDE.gt   # absolute-continuity certificate
    python -m repro.cli compile      MODEL.gt GUIDE.gt   # emit mini-Pyro Python code
    python -m repro.cli run-is       MODEL.gt GUIDE.gt --obs 0.8 --particles 1000
    python -m repro.cli run-smc      MODEL.gt GUIDE.gt --obs 0.8 --particles 1000
    python -m repro.cli run-svi      MODEL.gt GUIDE.gt --obs 0.8 --steps 50 \
                                     --param loc=8.5 --param log_scale=0.0
    python -m repro.cli serve        --port 7341 --workers 4   # batch-inference server
    python -m repro.cli loadgen      --port 7341 --rate 50 --duration 5   # open-loop load
    python -m repro.cli benchmarks                       # list the bundled benchmarks
    python -m repro.cli bench run    --fast --out bench_runs/smoke   # benchmark sweep
    python -m repro.cli bench evaluate --run bench_runs/smoke        # curves + gates

``run-is`` executes on the vectorized particle engine by default; pass
``--engine sequential`` for the original one-particle-at-a-time loop.
Model/guide entry procedures default to the first procedure that consumes /
provides the ``latent`` channel respectively; override with ``--model-entry``
and ``--guide-entry``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Optional

from repro.compiler import compile_pair
from repro.core.ast import Program
from repro.core.parser import parse_program
from repro.core.typecheck import infer_guide_types
from repro.engine import ProgramSession
from repro.errors import InferenceError, ReproError
from repro.models import all_benchmarks
from repro.utils.pretty import pretty_guide_type, pretty_type_table


def _load_program(path: str) -> Program:
    source = Path(path).read_text(encoding="utf-8")
    return parse_program(source)


def _session_for(args: argparse.Namespace, typecheck: bool = True) -> ProgramSession:
    """Build (or fetch from cache) the prepared session for a CLI request."""
    return ProgramSession.from_sources(
        Path(args.model).read_text(encoding="utf-8"),
        Path(args.guide).read_text(encoding="utf-8"),
        model_entry=args.model_entry,
        guide_entry=args.guide_entry,
        latent_channel=args.latent,
        typecheck=typecheck,
    )


def cmd_infer_types(args: argparse.Namespace) -> int:
    program = _load_program(args.model)
    result = infer_guide_types(program)
    print(pretty_type_table(result.table))
    print()
    for proc, channels in result.channel_types.items():
        for channel, guide_type in channels.items():
            print(f"{proc} / {channel}: {pretty_guide_type(guide_type)}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    session = _session_for(args)
    result = session.check
    print(f"model latent protocol : {pretty_guide_type(result.latent_type_model)}")
    print(f"guide latent protocol : {pretty_guide_type(result.latent_type_guide)}")
    if result.compatible:
        print("RESULT: compatible — absolute continuity certified")
        return 0
    print(f"RESULT: INCOMPATIBLE — {result.reason}")
    return 1


def cmd_compile(args: argparse.Namespace) -> int:
    # Compilation never gated on the certificate before the session rework;
    # keep it that way (the generated code carries its own runtime checks).
    session = _session_for(args, typecheck=False)
    source = compile_pair(
        session.model_program, session.guide_program,
        session.model_entry, session.guide_entry,
    )
    if args.output:
        Path(args.output).write_text(source, encoding="utf-8")
        print(f"wrote {len(source.splitlines())} lines to {args.output}")
    else:
        print(source)
    return 0


def _refuse_uncertified(session: ProgramSession, args: argparse.Namespace) -> bool:
    if not session.certified and not args.force:
        print(f"refusing to run: {session.certification_reason}")
        print("(pass --force to run anyway)")
        return True
    return False


def _print_backend(session, diagnostics: dict) -> None:
    """Report which particle runtime actually served the request.

    The fallback reason is surfaced uniformly across ``run-is``/``run-smc``/
    ``run-svi``: the per-run diagnostics win (they carry runtime fallbacks
    like a mid-run sequential divert), with the session's compile-gate
    verdict as the fallback source.
    """
    backend = diagnostics.get("backend")
    if backend is None and session.compiled_backend_supported is None:
        return
    reason = diagnostics.get("fallback_reason") or session.compiled_fallback_reason
    if reason is not None:
        print(f"backend                 : interp (compiled fallback: {reason})")
    elif backend is not None:
        print(f"backend                 : {backend}")


def _print_sharding(args: argparse.Namespace) -> None:
    """Report the shard plan when the request asked for one."""
    from repro.engine.shard import plan_info

    if getattr(args, "workers", 1) == 1 and getattr(args, "shards", None) is None:
        return
    print(f"sharding                : {plan_info(args.workers, args.shards).describe()}")


def _shard_kwargs(args: argparse.Namespace) -> dict:
    """The request fields carrying the CLI's shard controls."""
    return {"workers": args.workers, "shards": args.shards}


def _start_run_observability(args: argparse.Namespace) -> bool:
    """Turn on structured tracing when ``--profile``/``--trace-out`` ask for it.

    Must run before the session is built so parse/typecheck/compile spans are
    captured too.  Returns whether tracing was enabled (the matching
    :func:`_finish_run_observability` call needs to know).
    """
    from repro.obs import enable_tracing

    if not (getattr(args, "profile", False) or getattr(args, "trace_out", None)):
        return False
    enable_tracing()
    return True


def _finish_run_observability(args: argparse.Namespace, enabled: bool) -> None:
    """Flush tracing output: the Chrome trace file and/or the profile table."""
    from repro.obs import disable_tracing

    if not enabled:
        return
    recorder = disable_tracing()
    if recorder is None:
        return
    if getattr(args, "trace_out", None):
        recorder.save(args.trace_out)
        print(f"trace                   : {len(recorder.events)} span(s) -> {args.trace_out}")
    if getattr(args, "profile", False):
        summary = recorder.summary()
        if summary:
            print()
            print(f"{'phase':<20} {'count':>7} {'total ms':>10} {'max ms':>10}")
            for name, row in sorted(
                summary.items(), key=lambda kv: kv[1]["total_s"], reverse=True
            ):
                print(f"{name:<20} {row['count']:>7} "
                      f"{row['total_s'] * 1e3:>10.2f} {row['max_s'] * 1e3:>10.2f}")


def _print_engine_summary(result, num_particles: int) -> None:
    print(f"particles               : {num_particles}")
    log_evidence = result.log_evidence()
    if log_evidence is not None:
        print(f"log evidence estimate   : {log_evidence:.4f}")
    ess = result.effective_sample_size()
    if ess is not None:
        print(f"effective sample size   : {ess:.1f}")
    try:
        print(f"posterior mean (site 0) : {result.posterior_mean(0):.4f}")
    except ReproError:
        pass


def cmd_run_is(args: argparse.Namespace) -> int:
    tracing = _start_run_observability(args)
    try:
        session = _session_for(args)
        if _refuse_uncertified(session, args):
            return 1
        engine = "is" if args.engine == "vectorized" else "is-sequential"
        result = session.infer(
            engine,
            num_particles=args.particles,
            obs_values=args.obs or None,  # empty --obs means prior predictive
            seed=args.seed,
            backend=args.backend,
            **_shard_kwargs(args),
        )
        _print_engine_summary(result, args.particles)
        diagnostics = result.diagnostics()
        if "num_groups" in diagnostics:
            print(f"control-flow groups     : {diagnostics['num_groups']}")
        _print_backend(session, diagnostics)
        _print_sharding(args)
        return 0
    finally:
        _finish_run_observability(args, tracing)


def cmd_run_smc(args: argparse.Namespace) -> int:
    tracing = _start_run_observability(args)
    try:
        session = _session_for(args)
        if _refuse_uncertified(session, args):
            return 1
        if not args.obs:
            print("error: run-smc requires at least one --obs value", file=sys.stderr)
            return 2
        result = session.infer(
            "smc",
            num_particles=args.particles,
            obs_values=args.obs,
            seed=args.seed,
            ess_threshold=args.ess_threshold,
            rejuvenate=not args.no_rejuvenation,
            backend=args.backend,
            **_shard_kwargs(args),
        )
        _print_engine_summary(result, args.particles)
        diagnostics = result.diagnostics()
        resampled = diagnostics["resample_steps"]
        print(f"resampled at steps      : {resampled if resampled else 'never'}")
        rates = diagnostics["rejuvenation_rates"]
        if rates:
            print(f"rejuvenation acceptance : {', '.join(f'{r:.2f}' for r in rates)}")
        _print_backend(session, diagnostics)
        _print_sharding(args)
        return 0
    finally:
        _finish_run_observability(args, tracing)


def _parse_param_specs(specs, what: str) -> dict:
    """Parse repeated ``name=value`` CLI arguments into a dict."""
    out = {}
    for spec in specs or []:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise InferenceError(f"{what} expects name=value, got {spec!r}")
        out[name] = value
    return out


def cmd_run_svi(args: argparse.Namespace) -> int:
    from repro.engine.svi import guide_entry_params

    tracing = _start_run_observability(args)
    try:
        session = _session_for(args)
        if _refuse_uncertified(session, args):
            return 1
        guide_proc_params = guide_entry_params(session.guide_program, session.guide_entry)

        inits = {}
        for name, value in _parse_param_specs(args.param, "--param").items():
            try:
                inits[name] = float(value)
            except ValueError:
                raise InferenceError(f"--param {name} expects a numeric value, got {value!r}")
        constraints = _parse_param_specs(args.constraint, "--constraint")
        if not inits and guide_proc_params:
            # No explicit initial values: start each parameter at its transform's
            # unconstrained origin (0.0 for real, softplus(0)=log 2 ~ 0.69 for
            # positive, sigmoid(0)=0.5 for unit).
            defaults = {"positive": math.log(2.0), "unit": 0.5}
            inits = {
                name: defaults.get(constraints.get(name, "real"), 0.0)
                for name in guide_proc_params
            }
            print(f"no --param given: initialising {dict(inits)}")

        result = session.infer(
            args.engine,
            num_particles=args.particles,
            obs_values=args.obs or None,
            seed=args.seed,
            guide_params=inits or None,
            param_constraints=constraints or None,
            num_steps=args.steps,
            optimizer=args.optimizer,
            learning_rate=args.lr,
            rao_blackwellize=args.rao_blackwellize,
            final_particles=args.final_particles,
            backend=args.backend,
            **_shard_kwargs(args),
        )
        diagnostics = result.diagnostics()
        history = diagnostics.get("elbo_history", [])
        print(f"engine                  : {diagnostics.get('engine', args.engine)}")
        print(f"optimisation steps      : {diagnostics.get('num_steps', 0)}")
        if history:
            print(f"ELBO trajectory         : {history[0]:.4f} -> {history[-1]:.4f}")
        fitted = diagnostics.get("fitted_params", {})
        if fitted:
            rendered = ", ".join(f"{k}={v:.4f}" for k, v in fitted.items())
            print(f"fitted parameters       : {rendered}")
        # Evidence/ESS/posterior all come from the final pass through the fitted
        # guide, so report that pass's particle count, not the fit batch size.
        _print_engine_summary(result, args.final_particles or args.particles)
        _print_backend(session, diagnostics)
        _print_sharding(args)
        return 0
    finally:
        _finish_run_observability(args, tracing)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async batch-inference server until interrupted."""
    import asyncio

    from repro.engine.server import run_server

    if args.kernel_cache is not None:
        from repro.engine.backend import set_kernel_cache_capacity

        set_kernel_cache_capacity(args.kernel_cache)
    if args.session_cache is not None:
        from repro.engine.session import set_session_cache_capacity

        set_session_cache_capacity(args.session_cache)
    try:
        asyncio.run(
            run_server(
                host=args.host,
                port=args.port,
                workers=args.workers,
                batch_window_s=args.batch_window_ms / 1e3,
                max_queue=args.max_queue,
                max_batch=args.max_batch,
                tenant_rate=args.tenant_rate,
                tenant_burst=args.tenant_burst,
                session_ttl_s=args.session_ttl,
                max_sessions=args.max_sessions,
                sessions_per_tenant=args.sessions_per_tenant,
                checkpoint_dir=args.checkpoint_dir,
            )
        )
    except KeyboardInterrupt:
        print("server stopped")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running server with open-loop Poisson load and report on it."""
    import asyncio
    import json as json_mod

    from repro.engine.loadgen import (
        LoadConfig,
        parse_csv,
        record_bench_entry,
        report_as_json,
        run_load,
        run_session_verify,
    )

    if args.verify_sessions:
        try:
            recorded = json_mod.loads(Path(args.verify_sessions).read_text())
        except (OSError, ValueError) as exc:
            print(f"loadgen: cannot read {args.verify_sessions}: {exc}", file=sys.stderr)
            return 2
        sessions = recorded.get("sessions") or []
        if not sessions:
            print(f"loadgen: no sessions recorded in {args.verify_sessions}", file=sys.stderr)
            return 2
        try:
            verdict = asyncio.run(run_session_verify(args.host, args.port, sessions))
        except ConnectionRefusedError:
            print(f"loadgen: no server listening on {args.host}:{args.port}", file=sys.stderr)
            return 2
        print(
            f"sessions : {verdict['recovered']}/{verdict['checked']} recovered "
            f"after restart"
        )
        for failure in verdict["failed"]:
            print(f"  failed : {json_mod.dumps(failure)}", file=sys.stderr)
        return 0 if verdict["recovered"] == verdict["checked"] else 1

    config = LoadConfig(
        host=args.host,
        port=args.port,
        rate=args.rate,
        duration_s=args.duration,
        deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        tenants=args.tenants,
        particles=args.particles,
        engines=parse_csv(args.engines),
        models=parse_csv(args.models),
        seed=args.seed,
        drain_timeout_s=args.drain_timeout,
        streaming=args.streaming,
        sessions=args.sessions,
        pushes=args.pushes,
        inject_kill_after_s=args.inject_worker_kill_after,
    )
    try:
        report = asyncio.run(run_load(config))
    except ConnectionRefusedError:
        print(f"loadgen: no server listening on {args.host}:{args.port}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json:
        Path(args.json).write_text(json_mod.dumps(report_as_json(report), indent=2) + "\n")
        print(f"report written to {args.json}")
    if args.record:
        path = record_bench_entry(report, path=args.record)
        print(f"load entry recorded into {path}")
    if not report.healthy():
        print(
            f"loadgen: contract violated — {report.unanswered} unanswered, "
            f"{report.unstructured_errors} unstructured errors",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: generate pairs, run every oracle, report failures."""
    import json

    from repro.fuzz import FuzzConfig, generate, run_case, shrink_case
    from repro.fuzz.oracles import render_failure, repro_command
    from repro.fuzz.shrinker import default_predicate

    config = FuzzConfig(
        particles=args.particles,
        check_workers=args.check_workers,
        allow_recursion=not args.no_recursion,
    )
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.seed_start, args.seed_start + args.seeds))

    failures = 0
    report_dir = Path(args.report_dir) if args.report_dir else None
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)

    for count, seed in enumerate(seeds, 1):
        case = generate(seed, config)
        report = run_case(case, config)
        if report.violations:
            failures += 1
            shrunk = None
            if args.shrink:
                kinds = {v.kind for v in report.violations}
                shrunk = shrink_case(case, default_predicate(config, kinds))
            print(render_failure(case, report, config, shrunk))
            print()
            if report_dir is not None:
                payload = {
                    "seed": seed,
                    "violations": [v.describe() for v in report.violations],
                    "model_source": (shrunk or case).model_source,
                    "guide_source": (shrunk or case).guide_source,
                    "repro": repro_command(seed, config),
                    "metrics": report.metrics,
                }
                path = report_dir / f"counterexample_{seed}.json"
                path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        if args.progress_every and count % args.progress_every == 0:
            print(f"[fuzz] {count}/{len(seeds)} seeds, {failures} failing")

    print(
        f"fuzz: {len(seeds)} seed(s), {failures} with violations"
        + (f" (reports in {report_dir})" if report_dir is not None and failures else "")
    )
    return 1 if failures else 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Sweep the benchmark snapshot and write a per-run directory."""
    from repro.bench.runner import RunnerConfig, fast_config, run_sweep
    from repro.engine.loadgen import parse_csv

    if args.fast:
        config = fast_config(seed=args.seed)
    else:
        config = RunnerConfig(seed=args.seed)
    overrides = {}
    if args.particles:
        overrides["particles"] = tuple(int(p) for p in parse_csv(args.particles))
    if args.engines:
        overrides["engines"] = parse_csv(args.engines)
    if args.backends:
        overrides["backends"] = parse_csv(args.backends)
    if args.shards:
        overrides["shards"] = tuple(int(s) for s in parse_csv(args.shards))
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.models:
        overrides["models"] = parse_csv(args.models)
    if overrides:
        config = dataclasses.replace(config, **overrides)

    out_dir = Path(args.out)
    progress = None if args.quiet else (lambda line: print(f"[bench] {line}"))
    snapshot_path = Path(args.snapshot) if args.snapshot else None
    document = run_sweep(config, out_dir, snapshot_path=snapshot_path, progress=progress)
    models = sorted({point["model"] for point in document["points"]})
    print(
        f"bench run: {len(document['points'])} sweep points over "
        f"{len(models)} models -> {out_dir}"
    )
    return 0


def cmd_bench_evaluate(args: argparse.Namespace) -> int:
    """Build scaling curves from a run directory and gate quality/speed."""
    import json

    from repro.bench.evaluate import (
        EvaluateConfig,
        baseline_payload,
        evaluate_run,
        load_baseline,
        record_report,
    )

    config = EvaluateConfig(
        quality_sigma=args.quality_sigma,
        speed_factor=args.speed_factor,
        min_wall_s=args.min_wall_ms / 1e3,
    )
    baseline = load_baseline(Path(args.baseline)) if args.baseline else None
    report, violations = evaluate_run(Path(args.run), config, baseline=baseline)
    print(
        f"bench evaluate: {report['curve_count']} curves over "
        f"{len(report['models'])} models (snapshot {report['snapshot']})"
    )
    if args.write_baseline:
        payload = baseline_payload(report["curves"], report["snapshot"])
        Path(args.write_baseline).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"baseline written to {args.write_baseline}")
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.report}")
    if not args.no_record:
        path = record_report(report)
        print(f"curves recorded into {path}")
    for violation in violations:
        print(f"VIOLATION {json.dumps(violation, sort_keys=True)}", file=sys.stderr)
    if violations:
        print(f"bench evaluate: FAILED ({len(violations)} violation(s))", file=sys.stderr)
        return 1
    print("bench evaluate: all gates passed")
    return 0


def cmd_bench_plot(args: argparse.Namespace) -> int:
    """Render per-model scaling-curve SVGs from a run directory."""
    from repro.bench.evaluate import evaluate_run
    from repro.bench.plots import plot_report

    report, _violations = evaluate_run(Path(args.run))
    out_dir = Path(args.out) if args.out else Path(args.run) / "plots"
    written = plot_report(report, out_dir)
    for name in written:
        print(f"bench plot: wrote {out_dir / name}")
    print(f"bench plot: {len(written)} figure(s) in {out_dir}")
    return 0


def cmd_bench_snapshot(args: argparse.Namespace) -> int:
    """Check (default) or regenerate the pinned benchmark snapshot."""
    from repro.bench.snapshot import default_snapshot_path, render_snapshot, write_snapshot

    path = Path(args.path) if args.path else default_snapshot_path()
    if args.write:
        write_snapshot(path)
        print(f"snapshot written to {path}")
        return 0
    expected = render_snapshot()
    try:
        actual = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"bench snapshot: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    if actual != expected:
        print(
            f"bench snapshot: {path} is stale — regenerate with "
            f"'repro bench snapshot --write' and review the diff",
            file=sys.stderr,
        )
        return 1
    print(f"bench snapshot: {path} matches the live code")
    return 0


def cmd_benchmarks(_args: argparse.Namespace) -> int:
    print(f"{'name':<12} {'selected':<9} {'inference':<9} {'LOC':>4}  description")
    for bench in all_benchmarks():
        loc = bench.model_loc if bench.expressible else 0
        print(
            f"{bench.name:<12} {'yes' if bench.selected else 'no':<9} "
            f"{bench.inference or '-':<9} {loc:>4}  {bench.description}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Guide-types PPL command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer-types", help="infer guide types for a program")
    p_infer.add_argument("model", help="path to a .gt source file")
    p_infer.set_defaults(func=cmd_infer_types)

    def add_pair_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="path to the model source file")
        p.add_argument("guide", help="path to the guide source file")
        p.add_argument("--model-entry", default=None)
        p.add_argument("--guide-entry", default=None)
        p.add_argument("--latent", default="latent", help="latent channel name")

    p_check = sub.add_parser("check", help="check model/guide absolute continuity")
    add_pair_arguments(p_check)
    p_check.set_defaults(func=cmd_check)

    p_compile = sub.add_parser("compile", help="compile a pair to mini-Pyro Python")
    add_pair_arguments(p_compile)
    p_compile.add_argument("--output", "-o", default=None)
    p_compile.set_defaults(func=cmd_compile)

    def add_inference_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--obs", type=float, nargs="*", default=None,
                       help="observed values for the obs channel, in order")
        p.add_argument("--particles", type=int, default=1000,
                       help="number of particles")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--force", action="store_true",
                       help="run even if the pair is not certified")
        p.add_argument("--backend", choices=["interp", "compiled"], default="interp",
                       help="particle runtime: the lockstep interpreter, or a "
                            "batched kernel compiled per model/guide pair "
                            "(bitwise-identical results; falls back to interp "
                            "for non-tail recursive programs)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for sharded execution (1 = in-process). "
                            "Results depend on the shard plan, not the pool size — "
                            "but --shards defaults to one per worker, so pin it "
                            "when varying --workers for identical numbers")
        p.add_argument("--shards", type=int, default=None,
                       help="particle shards with independently derived RNG streams "
                            "(default: one per worker; results are a pure function "
                            "of seed, particles, and shards)")
        p.add_argument("--profile", action="store_true",
                       help="print a phase-time table after the run (session prepare, "
                            "kernel compile, per-engine phases, shard waves)")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the run's spans as Chrome trace_event JSON "
                            "(open in chrome://tracing or Perfetto; shard workers "
                            "appear as their own tracks)")

    p_is = sub.add_parser("run-is", help="run importance sampling on a pair")
    add_pair_arguments(p_is)
    add_inference_arguments(p_is)
    p_is.add_argument("--engine", choices=["vectorized", "sequential"],
                      default="vectorized",
                      help="particle runtime: lockstep arrays or the scalar loop")
    p_is.set_defaults(func=cmd_run_is)

    p_smc = sub.add_parser("run-smc", help="run Sequential Monte Carlo on a pair")
    add_pair_arguments(p_smc)
    add_inference_arguments(p_smc)
    p_smc.add_argument("--ess-threshold", type=float, default=0.5,
                       help="resample when ESS falls below this fraction of n")
    p_smc.add_argument("--no-rejuvenation", action="store_true",
                       help="disable the post-resampling MH rejuvenation move")
    p_smc.set_defaults(func=cmd_run_smc)

    p_svi = sub.add_parser("run-svi", help="fit the guide's parameters by SVI, then query the posterior")
    add_pair_arguments(p_svi)
    add_inference_arguments(p_svi)
    p_svi.add_argument("--engine", choices=["svi", "svi-fd"], default="svi",
                       help="batched score-function SVI or the sequential finite-difference path")
    p_svi.add_argument("--steps", type=int, default=30,
                       help="number of gradient steps")
    p_svi.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    p_svi.add_argument("--lr", type=float, default=0.05, help="learning rate")
    p_svi.add_argument("--param", action="append", default=None, metavar="NAME=INIT",
                       help="initial value for a guide parameter (repeatable); "
                            "defaults to 0.0 per guide parameter")
    p_svi.add_argument("--constraint", action="append", default=None, metavar="NAME=KIND",
                       help="constraint transform for a parameter: real, positive, or unit "
                            "(simplex needs vector initial values, library API only)")
    p_svi.add_argument("--rao-blackwellize", action="store_true",
                       help="use per-site Rao-Blackwellized learning signals")
    p_svi.add_argument("--final-particles", type=int, default=None,
                       help="particles for the posterior pass through the fitted guide")
    p_svi.set_defaults(func=cmd_run_svi)

    p_serve = sub.add_parser(
        "serve",
        help="run the async batch-inference server (JSONL over TCP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7341)
    p_serve.add_argument("--workers", type=int, default=1,
                         help="worker processes in the shared shard pool (also the "
                              "most a request's params.workers may ask for)")
    p_serve.add_argument("--batch-window-ms", type=float, default=2.0,
                         help="how long to hold a dispatch batch open so concurrent "
                              "requests can coalesce into one sharded run; held only "
                              "while a queued request can coalesce (engine 'is' with "
                              "more than one shard), other requests dispatch at once")
    p_serve.add_argument("--max-queue", type=int, default=256,
                         help="admitted requests allowed to wait for dispatch; "
                              "overflow is rejected immediately with code 'overloaded'")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="requests per dispatch wave (bounds coalesced-wave memory)")
    p_serve.add_argument("--tenant-rate", type=float, default=None,
                         help="per-tenant admitted requests/second (token bucket; "
                              "default: quotas disabled)")
    p_serve.add_argument("--tenant-burst", type=float, default=None,
                         help="per-tenant burst capacity (default: max(1, tenant-rate))")
    p_serve.add_argument("--kernel-cache", type=int, default=None,
                         help="compiled-kernel LRU capacity (default 64)")
    p_serve.add_argument("--session-cache", type=int, default=None,
                         help="prepared-session LRU capacity (default 64)")
    p_serve.add_argument("--session-ttl", type=float, default=600.0,
                         help="idle seconds before a streaming session expires "
                              "(answers 'session_expired'; 0 disables the TTL)")
    p_serve.add_argument("--max-sessions", type=int, default=256,
                         help="live streaming sessions process-wide; past the cap "
                              "the least-recently-used session is evicted "
                              "(checkpointed first when --checkpoint-dir is set)")
    p_serve.add_argument("--sessions-per-tenant", type=int, default=32,
                         help="live streaming sessions one tenant may hold "
                              "(opens beyond it fail with 'session_limit')")
    p_serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="directory for streaming-session checkpoints; "
                              "sessions then survive eviction and server "
                              "restarts (exact replay from seed + journal)")
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load generator against a running server",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=7341)
    p_load.add_argument("--rate", type=float, default=50.0,
                        help="offered arrival rate in requests/second (Poisson)")
    p_load.add_argument("--duration", type=float, default=5.0,
                        help="seconds of arrivals to generate")
    p_load.add_argument("--deadline-ms", type=float, default=1000.0,
                        help="per-request deadline on the wire (<= 0 disables)")
    p_load.add_argument("--tenants", type=int, default=2,
                        help="distinct tenants to spread traffic across")
    p_load.add_argument("--particles", type=int, default=1000,
                        help="particles per request")
    p_load.add_argument("--engines", default="is",
                        help="comma-separated engines to cycle through")
    p_load.add_argument("--models", default="weight",
                        help="comma-separated benchmark models to cycle through")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds to wait for straggler responses after "
                             "the last arrival")
    p_load.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON to PATH")
    p_load.add_argument("--record", default=None, metavar="PATH",
                        help="append a 'load' entry to BENCH_results.json at PATH")
    p_load.add_argument("--streaming", action="store_true",
                        help="drive session.open/push/query cycles instead of "
                             "one-shot infer requests (use --models stream_rw "
                             "for the growable streaming family)")
    p_load.add_argument("--sessions", type=int, default=4,
                        help="concurrent streaming sessions cycled through")
    p_load.add_argument("--pushes", type=int, default=None,
                        help="observations pushed per session before its query "
                             "(default: the model's own observation count)")
    p_load.add_argument("--inject-worker-kill-after", type=float, default=None,
                        metavar="SECONDS",
                        help="failure injection: SIGKILL one shard-pool worker "
                             "this many seconds into the run (loadgen and "
                             "server must share a host)")
    p_load.add_argument("--verify-sessions", default=None, metavar="PATH",
                        help="instead of generating load, re-query the "
                             "sessions recorded in a previous --json report "
                             "and exit non-zero unless all recovered")
    p_load.set_defaults(func=cmd_loadgen)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random well-typed pairs through every "
             "engine/backend/shard configuration",
    )
    p_fuzz.add_argument("--seeds", type=int, default=50,
                        help="number of consecutive seeds to fuzz")
    p_fuzz.add_argument("--seed-start", type=int, default=0,
                        help="first seed of the range")
    p_fuzz.add_argument("--seed", type=int, default=None,
                        help="fuzz exactly one seed (reproduction mode)")
    p_fuzz.add_argument("--particles", type=int, default=384,
                        help="particle count per differential run")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="greedily minimise any counterexample before reporting")
    p_fuzz.add_argument("--check-workers", action="store_true",
                        help="also verify process-pool parity (spawns a worker pool)")
    p_fuzz.add_argument("--no-recursion", action="store_true",
                        help="generate only non-recursive programs")
    p_fuzz.add_argument("--report-dir", default=None,
                        help="write one JSON counterexample file per failing seed")
    p_fuzz.add_argument("--progress-every", type=int, default=25,
                        help="print a progress line every N seeds (0 = quiet)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_bench = sub.add_parser("benchmarks", help="list the bundled benchmark programs")
    p_bench.set_defaults(func=cmd_benchmarks)

    p_suite = sub.add_parser(
        "bench",
        help="versioned benchmark suite: snapshot sweeps, scaling curves, "
             "regression gates",
    )
    suite_sub = p_suite.add_subparsers(dest="bench_command", required=True)

    p_run = suite_sub.add_parser(
        "run", help="sweep the pinned snapshot across engines/backends/particles"
    )
    p_run.add_argument("--out", default="bench_runs/latest", metavar="DIR",
                       help="per-run output directory (config/results/metrics)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="root seed; every sweep point derives its own seed "
                            "from this and its identity")
    p_run.add_argument("--fast", action="store_true",
                       help="CI smoke shape: small particle ladder, one shard "
                            "count, one repeat, smallest family sizes")
    p_run.add_argument("--particles", default=None,
                       help="comma-separated particle ladder override")
    p_run.add_argument("--engines", default=None,
                       help="comma-separated engine override (default is,smc,svi)")
    p_run.add_argument("--backends", default=None,
                       help="comma-separated backend override (default interp,compiled)")
    p_run.add_argument("--shards", default=None,
                       help="comma-separated shard-count override")
    p_run.add_argument("--repeats", type=int, default=None,
                       help="best-of-N wall-time repeats per point")
    p_run.add_argument("--models", default=None,
                       help="comma-separated runnable snapshot entries "
                            "(default the in-sweep set; e.g. weight,hmm_chain/8,jump)")
    p_run.add_argument("--snapshot", default=None, metavar="PATH",
                       help="snapshot file to sweep (default bench/snapshots/v1.json)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")
    p_run.set_defaults(func=cmd_bench_run)

    p_eval = suite_sub.add_parser(
        "evaluate",
        help="render scaling curves from a run and gate quality/speed regressions",
    )
    p_eval.add_argument("--run", default="bench_runs/latest", metavar="DIR",
                        help="run directory written by 'bench run'")
    p_eval.add_argument("--baseline", default=None, metavar="PATH",
                        help="pinned baseline curves; enables the speed gate")
    p_eval.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="write this run's curves as a new baseline")
    p_eval.add_argument("--report", default=None, metavar="PATH",
                        help="also write the full evaluation report as JSON")
    p_eval.add_argument("--quality-sigma", type=float, default=5.0,
                        help="Monte-Carlo slack multiplier for the quality gate")
    p_eval.add_argument("--speed-factor", type=float, default=1.75,
                        help="maximum geometric-mean wall-time ratio vs baseline")
    p_eval.add_argument("--min-wall-ms", type=float, default=5.0,
                        help="points faster than this in both runs skip the speed gate")
    p_eval.add_argument("--no-record", action="store_true",
                        help="do not record curves into BENCH_results.json")
    p_eval.set_defaults(func=cmd_bench_evaluate)

    p_plot = suite_sub.add_parser(
        "plot", help="render one scaling-curve SVG per model from a run"
    )
    p_plot.add_argument("--run", default="bench_runs/latest", metavar="DIR",
                        help="run directory written by 'bench run'")
    p_plot.add_argument("--out", default=None, metavar="DIR",
                        help="output directory for SVGs (default <run>/plots)")
    p_plot.set_defaults(func=cmd_bench_plot)

    p_snap = suite_sub.add_parser(
        "snapshot", help="check (default) or regenerate the pinned snapshot"
    )
    p_snap.add_argument("--write", action="store_true",
                        help="regenerate the snapshot file from the live code")
    p_snap.add_argument("--path", default=None,
                        help="snapshot file (default bench/snapshots/v1.json)")
    p_snap.set_defaults(func=cmd_bench_snapshot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Unit tests for the compiled kernel's mechanics: path stamps, ledger
elision, the lazily compiled rescore pass, and rescore delegation.

Bitwise parity against the interpreter lives in
``tests/conformance/test_backend_parity.py``; this file covers the things
that could silently go wrong without changing a single weight on the happy
path.
"""

import re

import numpy as np
import pytest

from repro.core.semantics import traces as tr
from repro.engine.api import InferenceRequest
from repro.engine.backend import (
    CompiledParticleRunner,
    clear_kernel_cache,
    make_particle_runner,
    record_compiled_fallback,
)
from repro.models import get_benchmark
from repro.obs import REGISTRY
from tests.conftest import session_request


def _bench_pair(name="switching"):
    bench = get_benchmark(name)
    return bench, dict(
        model_program=bench.model_program(),
        guide_program=bench.guide_program(),
        model_entry=bench.model_entry,
        guide_entry=bench.guide_entry,
    )


def _compiled_runner(name="switching", trim_site_scores=False):
    bench, pair = _bench_pair(name)
    runner = make_particle_runner(*session_request(
        obs_trace=tuple(tr.ValP(v) for v in bench.obs_values),
        guide_args=tuple(bench.guide_param_inits.values()), backend="compiled", **pair,
    ), trim_site_scores=trim_site_scores)
    assert isinstance(runner, CompiledParticleRunner)
    return runner


def test_mega_run_stamps_leaf_paths():
    runner = _compiled_runner()
    run = runner.run(300, np.random.default_rng(4))
    assert run.backend == "compiled"
    stamps = [leaf.path_id for leaf in run.leaves]
    # One stamp per populated path, holding its fork directions; paths no
    # particle took are dropped.  A loop-free kernel's paths are its
    # compile-time paths.
    assert len(set(stamps)) == len(stamps)
    for stamp in stamps:
        assert isinstance(stamp, tuple) and all(isinstance(turn, bool) for turn in stamp)
        assert stamp in runner.kernel.path_dirs


def test_ledger_elision_preserves_weights():
    """``trim_site_scores=True`` elides the per-site score ledgers inside
    the kernel (IS/SMC never read them) without touching the weights."""
    full = _compiled_runner()
    trimmed = _compiled_runner(trim_site_scores=True)
    r_full = full.run(300, np.random.default_rng(9))
    r_trim = trimmed.run(300, np.random.default_rng(9))
    assert np.array_equal(r_full.log_weights(), r_trim.log_weights())
    assert any(leaf.model_site_scores is not None for leaf in r_full.leaves)
    for leaf in r_trim.leaves:
        assert leaf.model_site_scores is None
        assert leaf.guide_site_scores is None


def test_rescore_pass_compiles_on_first_use():
    """A forward-only run never builds the rescore function; the first
    rescore builds it and still matches interpretive replay bit for bit."""
    _, pair = _bench_pair()
    clear_kernel_cache()
    try:
        runner = _compiled_runner()
        run = runner.run(200, np.random.default_rng(6))
        assert runner.kernel.rescore_entry is None
        interp = make_particle_runner(*session_request(
            backend="interp", obs_trace=runner.obs_trace, guide_args=runner.guide_args, **pair,
        ))
        for leaf in run.leaves:
            expected = interp.rescore_group(leaf)
            got = runner.rescore_group(leaf)
            for side in ("model", "guide"):
                assert np.array_equal(expected.log_weights[side], got.log_weights[side])
        assert runner.kernel.rescore_entry is not None
    finally:
        clear_kernel_cache()


def test_rescore_divert_falls_back_to_interp_replay():
    """A stamp that is not a tuple of fork directions (e.g. a leaf from a
    different program revision), or no stamp at all, diverts to the
    interpretive replay and increments the fallback metric — never crashes,
    never rescores the wrong path."""
    runner = _compiled_runner()
    run = runner.run(100, np.random.default_rng(1))
    leaf = run.leaves[0]
    leaf.path_id = len(runner.kernel.path_dirs) + 5
    mark = REGISTRY.mark()
    diverted = runner.rescore_group(leaf)
    leaf.path_id = None
    reference = runner.rescore_group(leaf)
    moved = REGISTRY.delta(mark)
    assert moved.get('repro_compiled_fallback_total{reason="rescore-divert"}') == 2.0
    assert np.array_equal(
        diverted.log_weights["guide"], reference.log_weights["guide"]
    )


def test_loop_kernel_stamps_leaves_with_their_fork_path():
    """A loop kernel's paths are unbounded, so each leaf carries its fork
    directions as its stamp; a stamp cut short diverts to the interpretive
    replay instead of reading past its end."""
    runner = _compiled_runner("ptrace")
    run = runner.run(200, np.random.default_rng(3))
    leaf = max(run.leaves, key=lambda item: len(item.path_id))
    assert len(leaf.path_id) > max(len(dirs) for dirs in runner.kernel.path_dirs)
    assert all(isinstance(turn, bool) for turn in leaf.path_id)
    reference = runner.rescore_group(leaf)
    leaf.path_id = leaf.path_id[:-1]
    mark = REGISTRY.mark()
    diverted = runner.rescore_group(leaf)
    moved = REGISTRY.delta(mark)
    assert moved.get('repro_compiled_fallback_total{reason="rescore-divert"}') == 1.0
    assert np.array_equal(diverted.log_weights["guide"], reference.log_weights["guide"])


def test_record_compiled_fallback_labels_are_closed_set():
    """The metric family's label values are an API (dashboards group by
    them); recording goes through one helper with normalized reasons."""
    mark = REGISTRY.mark()
    for reason in ("unsupported-fragment", "rescore-divert"):
        record_compiled_fallback(reason)
    moved = REGISTRY.delta(mark)
    assert len(moved) == 2
    assert all(key.startswith("repro_compiled_fallback_total{") for key in moved)


# ---------------------------------------------------------------------------
# Each lane value computed once per segment
# ---------------------------------------------------------------------------

#: Pairs whose model scores a value under the guide's own distribution, or
#: repeats a conditional or a parameter check on one path.
SHARED_PAIRS = ("hmm", "kalman", "gmm", "recursion_depth/2")


def _snapshot_session(name):
    from repro.bench.snapshot import load_snapshot
    from repro.engine import ProgramSession

    entry = load_snapshot()["models"][name]
    session = ProgramSession.from_sources(
        entry["model_source"], entry["guide_source"],
        model_entry=entry.get("model_entry"), guide_entry=entry.get("guide_entry"),
    )
    return entry, session


def _top_level_segments(source):
    """Each segment's top-level statements (lines nested under an ``if``
    inside the segment are left out)."""
    segments, current, top = [], None, None
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith(("if _seg == ", "elif _seg == ")):
            current, top = [], None
            segments.append(current)
        elif current is not None and stripped:
            indent = len(line) - len(stripped)
            top = indent if top is None else top
            if indent < top:
                current = None  # past the segment chain
            elif indent == top:
                current.append(stripped)
    return segments


@pytest.mark.parametrize("name", SHARED_PAIRS)
def test_kernels_compute_each_score_conditional_and_check_once(name):
    """Within a segment no top-level statement repeats the computation of an
    earlier one: the model reuses the guide's score of a value drawn from
    the same distribution, and a repeated conditional or parameter check is
    bound or run once.  Draws (which read ``rng``) are not repeats."""
    from repro.compiler.codegen import _RescoreCompiler

    _entry, session = _snapshot_session(name)
    kernel, _reason = session.compiled_kernel()
    rescore = _RescoreCompiler(
        session.model_program, session.guide_program, session.model_entry, session.guide_entry
    ).compile()
    for source in (kernel.source, rescore):
        segments = _top_level_segments(source)
        assert segments
        for statements in segments:
            computed = [
                line.split(" = ", 1)[1] if re.match(r"_[a-z]+\d+ = ", line) else line
                for line in statements
                if line.startswith(("_rt.check_param(", "_p", "_b", "_s", "_ca"))
                and "rng" not in line and " = _live" not in line
            ]
            assert len(computed) == len(set(computed)), (name, computed)
        # The model's ledger entry for a shared latent score is the guide's array.
        shared = [
            line for statements in segments for line in statements
            if line.startswith("lw_m += ") and any(
                other == "lw_g += " + line[len("lw_m += "):] for other in statements
            )
        ]
        assert shared, name


def test_segment_memo_records_only_top_level_lines():
    """A value bound inside ``if obs is None:`` is not defined on the
    ``else:`` side, so the memo never records it; a top-level value is
    reused anywhere later in its segment, and a new segment starts empty."""
    from repro.compiler.codegen import _Emitter

    lines = []
    em = _Emitter(lines, [0], 4)
    score, check = "_normal_in(_v1, 1.0, _v2)", "_rt.check_param(_normal, 0, _p3, n)"
    em.ln("if obs is None:")
    em.indent += 1
    assert em.bind("_s4", score) == "_s4"
    em.once(check)
    em.indent -= 1
    assert em.bind("_s5", score) == "_s5"
    em.once(check)
    assert em.bind("_s6", score) == "_s5"
    em.once(check)
    assert [line.strip() for line in lines] == [
        "if obs is None:", f"_s4 = {score}", check, f"_s5 = {score}", check,
    ]
    assert _Emitter(lines, [0], 4).bind("_s7", score) == "_s7"


@pytest.mark.parametrize("name", SHARED_PAIRS)
def test_shared_lane_values_match_the_interpreter_with_and_without_obs(name):
    """The kernels that share scores, conditionals and checks stay bitwise
    equal to the interpreter, replaying observations and in prior mode
    (``obs is None``, where the observation sites draw)."""
    entry, session = _snapshot_session(name)
    for obs in (tuple(tr.ValP(v) for v in entry["obs_values"]), None):
        runs = {}
        for backend in ("interp", "compiled"):
            runner = make_particle_runner(session, InferenceRequest(
                obs_trace=obs, guide_args=tuple(entry["guide_args"]), backend=backend,
            ))
            runs[backend] = runner.run(2000, np.random.default_rng(5))
        a, b = runs["interp"], runs["compiled"]
        assert b.backend == "compiled"
        for array in ("model_log_weights", "guide_log_weights"):
            assert getattr(a, array).tobytes() == getattr(b, array).tobytes(), (name, obs)
        assert a.obs_score_rows().tobytes() == b.obs_score_rows().tobytes()
        assert a.site_values(0).tobytes() == b.site_values(0).tobytes()

"""The generator's contract: deterministic, diverse, well-typed, certified."""

from __future__ import annotations

import collections

import pytest

from repro.core import ast
from repro.engine import ProgramSession, clear_session_cache
from repro.fuzz import FuzzConfig, generate, obs_signature
from repro.fuzz.spec import (
    Branch,
    LatentSite,
    ObsSite,
    PureCond,
    PureLet,
    Recurse,
    count_latent_sites,
)

SWEEP = 60


@pytest.fixture(autouse=True)
def _fresh_session_cache():
    clear_session_cache()
    yield


def _walk_nodes(nodes):
    for node in nodes:
        yield node
        if isinstance(node, Branch):
            yield from _walk_nodes(node.then)
            yield from _walk_nodes(node.orelse)
        elif isinstance(node, Recurse):
            yield from _walk_nodes(node.body)


def test_generation_is_deterministic():
    for seed in (0, 7, 23):
        a, b = generate(seed), generate(seed)
        assert a.model_source == b.model_source
        assert a.guide_source == b.guide_source
        assert a.spec == b.spec


def test_different_seeds_differ():
    sources = {generate(seed).model_source for seed in range(20)}
    assert len(sources) == 20


def test_every_generated_pair_typechecks_and_certifies():
    for seed in range(SWEEP):
        case = generate(seed)
        session = ProgramSession.from_sources(case.model_source, case.guide_source)
        assert session.certified, (
            f"seed {seed} failed certification: {session.certification_reason}\n"
            f"{case.model_source}\n{case.guide_source}"
        )


def test_structural_invariants():
    for seed in range(SWEEP):
        case = generate(seed)
        nodes = case.spec.nodes
        # Site 0 of the latent trace must exist for every particle: the
        # agreement oracle indexes it unconditionally.
        assert isinstance(nodes[0], LatentSite)
        assert count_latent_sites(case.spec) >= 1
        # SMC needs at least one observation to anneal over.
        assert len(obs_signature(case.spec)) >= 1


def test_branch_arms_mirror_obs_signatures():
    def arm_sig(nodes):
        sig = []
        for node in nodes:
            if isinstance(node, ObsSite):
                sig.append((node.support, node.cat_n))
            elif isinstance(node, Branch):
                sig.extend(arm_sig(node.then))
        return sig

    checked = 0
    for seed in range(SWEEP):
        for node in _walk_nodes(generate(seed).spec.nodes):
            if isinstance(node, Branch):
                assert arm_sig(node.then) == arm_sig(node.orelse)
                checked += 1
    assert checked > 10


def test_sweep_covers_all_supports_and_node_kinds():
    supports = collections.Counter()
    kinds = collections.Counter()
    families = set()
    for seed in range(SWEEP):
        for node in _walk_nodes(generate(seed).spec.nodes):
            kinds[type(node).__name__] += 1
            if isinstance(node, LatentSite):
                supports[node.support] += 1
                families.add(node.model_family)
                families.add(node.guide_family)
            elif isinstance(node, ObsSite):
                families.add(node.family)
    # All six support classes and all eight distribution families appear.
    assert set(supports) == {"real", "preal", "ureal", "bool", "nat", "cat"}
    assert families == set(ast.DistKind)
    # Every structural feature is exercised somewhere in the sweep.
    for kind in (LatentSite, ObsSite, Branch, Recurse, PureLet, PureCond):
        assert kinds[kind.__name__] > 0, f"sweep never generated {kind.__name__}"


def test_recursion_can_be_disabled():
    config = FuzzConfig(allow_recursion=False)
    for seed in range(30):
        for node in _walk_nodes(generate(seed, config).spec.nodes):
            assert not isinstance(node, Recurse)


def test_compiled_fragment_coverage():
    """Every generated pair compiles, recursive ones included.

    A loop that stops closing falls back to the interpreter silently and
    still passes every parity check, so coverage is the guard against it.
    """
    for seed in range(SWEEP):
        case = generate(seed)
        session = ProgramSession.from_sources(case.model_source, case.guide_source)
        kernel, reason = session.compiled_kernel()
        assert kernel is not None, f"seed {seed} falls back: {reason}"

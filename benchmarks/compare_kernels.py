#!/usr/bin/env python
"""Dump, or compare, the compiled kernels of a fixed set of model/guide pairs.

A change to the kernel compiler or to a distribution family that claims
byte-identical kernels is checked by dumping every pair's forward source
(``compile_kernel_pair``) and rescore source (``_RescoreCompiler``) on the
base tree and on the head tree, then comparing the two dumps.  A pair
outside the compiled fragment dumps its refusal text instead, so a changed
refusal shows up as well.  The pairs are:

* the library's expressible pairs;
* ``hmm_chain``, ``mixture_width`` and ``recursion_depth`` at eight sizes
  from 2 to 12 (``synthesize_family``);
* ``stream_rw`` unrolled to 1, 4 and 16 steps;
* fuzz seeds 0-1499 (``repro.fuzz.generator.generate``).

``dump`` writes one ``<pair>.forward`` and one ``<pair>.rescore`` file per
pair into DIR, using the ``repro`` package on ``PYTHONPATH``; ``compare``
prints every pair whose files differ (or exist on one side only), then the
count of identical pairs and refusals, and exits 1 when any pair differs.

Usage::

    PYTHONPATH=src python benchmarks/compare_kernels.py dump DIR
    python benchmarks/compare_kernels.py compare BASE_DIR HEAD_DIR

The ``same-answers`` job in ``.github/workflows/ci.yml`` dumps a pull
request's base and head and compares them.
"""

from __future__ import annotations

import pathlib
import sys

FAMILY_SIZES = (2, 3, 4, 5, 6, 8, 10, 12)
STREAM_STEPS = (1, 4, 16)
FUZZ_SEEDS = range(1500)
PASSES = ("forward", "rescore")
REFUSED = "refused: "


def pairs():
    """``(name, model_source, guide_source, model_entry, guide_entry)`` per pair."""
    from repro.fuzz.generator import BENCH_FAMILIES, generate, synthesize_family
    from repro.models import all_benchmarks, streaming_sources

    for bench in all_benchmarks():
        if bench.expressible:
            yield (f"lib-{bench.name}", bench.model_source, bench.guide_source,
                   bench.model_entry, bench.guide_entry)
    for family in BENCH_FAMILIES:
        for size in FAMILY_SIZES:
            case = synthesize_family(family, size)
            yield f"{family}-{size}", case.model_source, case.guide_source, None, None
    for steps in STREAM_STEPS:
        yield (f"stream_rw-{steps}", *streaming_sources(steps), None, None)
    for seed in FUZZ_SEEDS:
        case = generate(seed)
        yield f"fuzz-{seed}", case.model_source, case.guide_source, None, None


def kernels(model_source, guide_source, model_entry, guide_entry):
    """The pair's forward and rescore sources, or its refusal text for both."""
    from repro.compiler.codegen import _KERNEL_HEADER, _RescoreCompiler, compile_kernel_pair
    from repro.core.parser import parse_program
    from repro.engine.session import default_guide_entry, default_model_entry
    from repro.errors import CompilationError

    model, guide = parse_program(model_source), parse_program(guide_source)
    model_entry = model_entry or default_model_entry(model, "latent")
    guide_entry = guide_entry or default_guide_entry(guide, "latent")
    try:
        forward, _paths = compile_kernel_pair(model, guide, model_entry, guide_entry)
    except CompilationError as exc:
        return {name: f"{REFUSED}{exc}\n" for name in PASSES}
    rescore = _RescoreCompiler(model, guide, model_entry, guide_entry).compile()
    return {"forward": forward, "rescore": _KERNEL_HEADER + "\n" + rescore}


def dump(out: str) -> int:
    root = pathlib.Path(out)
    root.mkdir(parents=True, exist_ok=True)
    count = refused = 0
    for name, *pair in pairs():
        sources = kernels(*pair)
        for kind, text in sources.items():
            (root / f"{name}.{kind}").write_text(text)
        count += 1
        refused += sources["forward"].startswith(REFUSED)
    print(f"{count} pairs dumped to {root}, {refused} refused")
    return 0


def compare(base: str, head: str) -> int:
    a, b = pathlib.Path(base), pathlib.Path(head)
    files = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    bad, refused = set(), set()
    for name in files:
        pair = name.rsplit(".", 1)[0]
        left, right = a / name, b / name
        if not (left.exists() and right.exists()) or left.read_bytes() != right.read_bytes():
            bad.add(pair)
        elif left.read_text().startswith(REFUSED):
            refused.add(pair)
    total = len({name.rsplit(".", 1)[0] for name in files})
    print(*sorted(bad), f"{total - len(bad)}/{total} pairs identical "
          f"({len(refused - bad)} of them refused)", sep="\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "dump":
        return dump(args[1])
    if len(args) == 3 and args[0] == "compare":
        return compare(args[1], args[2])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Helpers of the layered benchmark driven by ``perfbench/run.py``.

The package holds no program code of its own: it generates seeded inputs,
drives ``repro serve`` over JSONL/TCP or calls the library in-process,
checks every answer, and reduces timings to the metrics named in
``BENCHMARK.json``.
"""

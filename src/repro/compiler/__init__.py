"""Prototype compiler from the coroutine-based PPL to mini-Pyro Python code.

The paper's artifact compiles its language to Pyro, using ``greenlet`` for
coroutine switching.  This package targets :mod:`repro.minipyro` instead and
uses Python generators for coroutine switching:

* :func:`repro.compiler.codegen.compile_program` translates every procedure
  into a Python *generator function* that yields channel operations;
* :func:`repro.compiler.codegen.compile_pair` additionally emits a module
  with importance-sampling and SVI entry points for a model/guide pair;
* :mod:`repro.compiler.runtime` provides the scheduler that drives the
  generated coroutines, routing every sample through
  :func:`repro.minipyro.sample` so the substrate's tracing machinery is
  exercised exactly as it is by handwritten mini-Pyro code.
"""

from repro.compiler.codegen import (
    CompiledKernel,
    CompiledModule,
    compile_kernel_pair,
    compile_pair,
    compile_program,
    compiled_unsupported_reason,
    load_compiled,
    load_kernel,
)
from repro.compiler.runtime import (
    CompiledImportanceResults,
    run_compiled_pair,
    compiled_importance_sampling,
    compiled_svi,
)

__all__ = [
    "CompiledKernel",
    "compile_kernel_pair",
    "compiled_unsupported_reason",
    "load_kernel",
    "compile_program",
    "compile_pair",
    "load_compiled",
    "CompiledModule",
    "run_compiled_pair",
    "compiled_importance_sampling",
    "compiled_svi",
    "CompiledImportanceResults",
]

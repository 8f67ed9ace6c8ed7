"""Type checking for the coroutine-based PPL.

``basic``
    Simply-typed checking/inference for the deterministic fragment and a
    forward result-type pass over commands (paper Fig. 12, expression rules).
``equality``
    Structural equality and agreement checks on guide types.
``guide_infer``
    Backward, syntax-directed guide-type inference (paper Fig. 9 + Sec. 4
    "Type-inference algorithm").
"""

#: Version of the typechecking pipeline (basic types + guide-type inference).
#: Bump on any change that can alter inference results or certificates:
#: caches keyed by program source (e.g. the ProgramSession cache, compiled
#: kernels) include this value so a compiler/typechecker change can
#: never replay stale cached artifacts.
TYPECHECKER_VERSION = "2021.guide-types.3"

from repro.core.typecheck.basic import (
    BasicSignature,
    check_program_basic,
    infer_expr_type,
    command_result_type,
)
from repro.core.typecheck.equality import guide_types_equal, require_equal
from repro.core.typecheck.guide_infer import (
    InferenceResult,
    check_model_guide_pair,
    infer_guide_types,
)

__all__ = [
    "TYPECHECKER_VERSION",
    "BasicSignature",
    "check_program_basic",
    "infer_expr_type",
    "command_result_type",
    "guide_types_equal",
    "require_equal",
    "InferenceResult",
    "infer_guide_types",
    "check_model_guide_pair",
]

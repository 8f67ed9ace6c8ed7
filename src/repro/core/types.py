"""Type syntax for the core calculus: basic types and guide types.

Basic types (paper Fig. 7)::

    τ ::= 𝟙 | 𝟚 | ℝ(0,1) | ℝ+ | ℝ | ℕn | ℕ | τ1 → τ2 | dist(τ)

Guide types (paper Sec. 4)::

    A, B ::= X | 𝟙 | T[A] | τ ∧ A | τ ⊃ A | A ⊕ B | A & B
    F    ::= τ1 ↝ τ2 | (a : T_a); (b : T_b)
    T    ::= typedef(T. X. A)

Naming: the paper writes the provider-selects branch type with ⊕ and the
consumer-selects branch type with N.  We call them :class:`Offer` (provider
sends the selection) and :class:`Choose` (consumer sends the selection).

The module also implements the *scalar subtyping* order used by the basic
type checker (ℝ(0,1) <: ℝ+ <: ℝ and ℕn <: ℕ), value-membership checks
(`value_has_type`), guide-type well-formedness, substitution of type
variables, and structural equality up to operator unfolding depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import GuideTypeError

# ---------------------------------------------------------------------------
# Basic types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseType:
    """Base class of basic types τ."""


@dataclass(frozen=True)
class UnitTy(BaseType):
    """𝟙 — the unit type with single inhabitant ``triv``."""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "unit"


@dataclass(frozen=True)
class BoolTy(BaseType):
    """𝟚 — Booleans."""

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class URealTy(BaseType):
    """ℝ(0,1) — the open unit interval."""

    def __str__(self) -> str:
        return "ureal"


@dataclass(frozen=True)
class PRealTy(BaseType):
    """ℝ+ — strictly positive reals."""

    def __str__(self) -> str:
        return "preal"


@dataclass(frozen=True)
class RealTy(BaseType):
    """ℝ — all reals."""

    def __str__(self) -> str:
        return "real"


@dataclass(frozen=True)
class FinNatTy(BaseType):
    """ℕn — the integer ring {0, …, n-1}."""

    size: int

    def __str__(self) -> str:
        return f"nat[{self.size}]"


@dataclass(frozen=True)
class NatTy(BaseType):
    """ℕ — natural numbers."""

    def __str__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class FunTy(BaseType):
    """τ1 → τ2 — simply-typed functions."""

    arg: BaseType
    result: BaseType

    def __str__(self) -> str:
        return f"({self.arg} -> {self.result})"


@dataclass(frozen=True)
class DistTy(BaseType):
    """dist(τ) — primitive distributions whose support is exactly τ."""

    support: BaseType

    def __str__(self) -> str:
        return f"dist({self.support})"


@dataclass(frozen=True)
class TupleTy(BaseType):
    """Product type extension used by benchmark models (pairs/triples)."""

    items: Tuple[BaseType, ...]

    def __str__(self) -> str:
        return "(" + " * ".join(str(t) for t in self.items) + ")"


# Convenient singletons ------------------------------------------------------

UNIT = UnitTy()
BOOL = BoolTy()
UREAL = URealTy()
PREAL = PRealTy()
REAL = RealTy()
NAT = NatTy()


_NUMERIC_ORDER = {URealTy: 0, PRealTy: 1, RealTy: 2}


def is_numeric(tau: BaseType) -> bool:
    """True for the real-valued scalar types ℝ(0,1), ℝ+, ℝ."""
    return isinstance(tau, (URealTy, PRealTy, RealTy))


def is_integral(tau: BaseType) -> bool:
    """True for ℕ and ℕn."""
    return isinstance(tau, (NatTy, FinNatTy))


def is_subtype(sub: BaseType, sup: BaseType) -> bool:
    """Scalar subtyping: ℝ(0,1) <: ℝ+ <: ℝ, ℕn <: ℕ, ℕn <: ℕm for n <= m.

    Function, distribution, and tuple types are invariant.  ``dist`` types
    are *not* related by subtyping of their supports because the support
    characterisation must be exact (paper Sec. 3).
    """
    if sub == sup:
        return True
    if is_numeric(sub) and is_numeric(sup):
        return _NUMERIC_ORDER[type(sub)] <= _NUMERIC_ORDER[type(sup)]
    if isinstance(sub, FinNatTy) and isinstance(sup, NatTy):
        return True
    if isinstance(sub, FinNatTy) and isinstance(sup, FinNatTy):
        return sub.size <= sup.size
    # Natural numbers embed into the reals (but not into ℝ+ or ℝ(0,1),
    # because 0 is a natural number).  This lets models use counts as
    # distribution parameters, e.g. ``Normal(k, 0.1)`` for a ℕ-valued k.
    if is_integral(sub) and isinstance(sup, RealTy):
        return True
    if isinstance(sub, TupleTy) and isinstance(sup, TupleTy):
        return len(sub.items) == len(sup.items) and all(
            is_subtype(a, b) for a, b in zip(sub.items, sup.items)
        )
    return False


def join(a: BaseType, b: BaseType) -> Optional[BaseType]:
    """Least upper bound of two scalar types, or ``None`` if incomparable."""
    if is_subtype(a, b):
        return b
    if is_subtype(b, a):
        return a
    if is_numeric(a) and is_numeric(b):
        return REAL
    if is_integral(a) and is_integral(b):
        return NAT
    return None


def value_has_type(value: object, tau: BaseType) -> bool:
    """Value-membership: does the Python value ``value`` inhabit type τ?

    This is the semantic judgment ``v : τ`` of paper Fig. 13, restricted to
    scalar and tuple values (closures and distribution values are handled by
    the evaluator directly).
    """
    if isinstance(tau, UnitTy):
        return value is None or value == ()
    if isinstance(tau, BoolTy):
        return isinstance(value, bool)
    if isinstance(tau, URealTy):
        return isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 < float(value) < 1.0
    if isinstance(tau, PRealTy):
        return isinstance(value, (int, float)) and not isinstance(value, bool) and float(value) > 0.0
    if isinstance(tau, RealTy):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(tau, FinNatTy):
        return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < tau.size
    if isinstance(tau, NatTy):
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0
    if isinstance(tau, TupleTy):
        return (
            isinstance(value, tuple)
            and len(value) == len(tau.items)
            and all(value_has_type(v, t) for v, t in zip(value, tau.items))
        )
    return False


# ---------------------------------------------------------------------------
# Guide types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuideType:
    """Base class of guide types A, B."""


@dataclass(frozen=True)
class End(GuideType):
    """𝟙 — an ended channel: the guidance trace is empty."""

    def __str__(self) -> str:
        return "end"


@dataclass(frozen=True)
class TyVar(GuideType):
    """A type variable X (continuation placeholder inside a typedef body)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class OpApp(GuideType):
    """T[A] — instantiation of a unary type operator with a continuation."""

    operator: str
    arg: GuideType

    def __str__(self) -> str:
        return f"{self.operator}[{self.arg}]"


@dataclass(frozen=True)
class SendVal(GuideType):
    """τ ∧ A — the provider samples, sends a τ-valued message, continues as A."""

    payload: BaseType
    cont: GuideType

    def __str__(self) -> str:
        return f"{self.payload} /\\ {self.cont}"


@dataclass(frozen=True)
class RecvVal(GuideType):
    """τ ⊃ A — the consumer samples and sends a τ-valued message (dual of ∧)."""

    payload: BaseType
    cont: GuideType

    def __str__(self) -> str:
        return f"{self.payload} => {self.cont}"


@dataclass(frozen=True)
class Offer(GuideType):
    """A ⊕ B — the provider evaluates a predicate and sends the selection."""

    then: GuideType
    orelse: GuideType

    def __str__(self) -> str:
        return f"({self.then} (+) {self.orelse})"


@dataclass(frozen=True)
class Choose(GuideType):
    """A & B (paper's N) — the consumer sends the branch selection."""

    then: GuideType
    orelse: GuideType

    def __str__(self) -> str:
        return f"({self.then} & {self.orelse})"


@dataclass(frozen=True)
class TypeDef:
    """``typedef(T. X. A)`` — declaration of a unary type operator."""

    name: str
    param: str
    body: GuideType

    def instantiate(self, arg: GuideType) -> GuideType:
        """Return ``body[arg / param]``."""
        return substitute(self.body, {self.param: arg})

    def __str__(self) -> str:
        return f"typedef {self.name}[{self.param}] = {self.body}"


@dataclass(frozen=True)
class ProcSignature:
    """Procedure signature ``τ1 ↝ τ2 | (a : T_a); (b : T_b)``.

    ``consume_op`` / ``provide_op`` name the type operators associated with
    the consumed / provided channel, or are ``None`` when the procedure does
    not touch that channel.
    """

    param_types: Tuple[BaseType, ...]
    result_type: BaseType
    consume_channel: Optional[str]
    consume_op: Optional[str]
    provide_channel: Optional[str]
    provide_op: Optional[str]

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types) or "unit"
        pieces = [f"({params}) ~> {self.result_type}"]
        if self.consume_channel:
            pieces.append(f"consume {self.consume_channel}: {self.consume_op}")
        if self.provide_channel:
            pieces.append(f"provide {self.provide_channel}: {self.provide_op}")
        return " | ".join(pieces)


@dataclass
class TypeTable:
    """A collection T of type-operator definitions plus procedure signatures Σ.

    The result of guide-type inference over a program.
    """

    typedefs: Dict[str, TypeDef] = field(default_factory=dict)
    signatures: Dict[str, ProcSignature] = field(default_factory=dict)

    def define(self, typedef: TypeDef) -> None:
        if typedef.name in self.typedefs:
            raise GuideTypeError(f"duplicate type operator definition: {typedef.name}")
        self.typedefs[typedef.name] = typedef

    def lookup(self, operator: str) -> TypeDef:
        try:
            return self.typedefs[operator]
        except KeyError as exc:
            raise GuideTypeError(f"unknown type operator: {operator}") from exc

    def unfold(self, ty: GuideType) -> GuideType:
        """Unfold a top-level operator application once; other types unchanged."""
        if isinstance(ty, OpApp):
            return self.lookup(ty.operator).instantiate(ty.arg)
        return ty

    def signature(self, proc: str) -> ProcSignature:
        try:
            return self.signatures[proc]
        except KeyError as exc:
            raise GuideTypeError(f"no signature for procedure: {proc}") from exc


# ---------------------------------------------------------------------------
# Guide-type utilities
# ---------------------------------------------------------------------------


def substitute(ty: GuideType, subst: Mapping[str, GuideType]) -> GuideType:
    """Capture-free substitution of type variables in a guide type.

    Type operators bind their own parameter inside typedef bodies; this
    function only substitutes inside a *type expression*, where operator
    applications carry their argument explicitly, so no capture can occur.
    """
    if isinstance(ty, TyVar):
        return subst.get(ty.name, ty)
    if isinstance(ty, End):
        return ty
    if isinstance(ty, OpApp):
        return OpApp(ty.operator, substitute(ty.arg, subst))
    if isinstance(ty, SendVal):
        return SendVal(ty.payload, substitute(ty.cont, subst))
    if isinstance(ty, RecvVal):
        return RecvVal(ty.payload, substitute(ty.cont, subst))
    if isinstance(ty, Offer):
        return Offer(substitute(ty.then, subst), substitute(ty.orelse, subst))
    if isinstance(ty, Choose):
        return Choose(substitute(ty.then, subst), substitute(ty.orelse, subst))
    raise GuideTypeError(f"unknown guide type node: {ty!r}")


def free_type_vars(ty: GuideType) -> frozenset[str]:
    """Free type variables of a guide type."""
    if isinstance(ty, TyVar):
        return frozenset({ty.name})
    if isinstance(ty, End):
        return frozenset()
    if isinstance(ty, OpApp):
        return free_type_vars(ty.arg)
    if isinstance(ty, (SendVal, RecvVal)):
        return free_type_vars(ty.cont)
    if isinstance(ty, (Offer, Choose)):
        return free_type_vars(ty.then) | free_type_vars(ty.orelse)
    raise GuideTypeError(f"unknown guide type node: {ty!r}")


def is_closed(ty: GuideType) -> bool:
    """True when the guide type has no free type variables."""
    return not free_type_vars(ty)


def is_choose_free(ty: GuideType, table: Optional[TypeTable] = None,
                   _seen: Optional[set] = None) -> bool:
    """True when the guide type contains no ``&`` (paper: N-free).

    A model's consumed `latent` channel and a guide's provided `latent`
    channel must be &-free / ⊕-free respectively for the normalization
    theorems (Thm. 4.6) and the absolute-continuity theorem (Thm. 5.2).
    Operator applications are unfolded co-inductively with a visited set so
    recursive typedefs terminate.
    """
    return _connective_free(ty, Choose, table, _seen if _seen is not None else set())


def is_offer_free(ty: GuideType, table: Optional[TypeTable] = None,
                  _seen: Optional[set] = None) -> bool:
    """True when the guide type contains no ``⊕`` (paper: ⊕-free)."""
    return _connective_free(ty, Offer, table, _seen if _seen is not None else set())


def _connective_free(ty: GuideType, connective: type, table: Optional[TypeTable],
                     seen: set) -> bool:
    if isinstance(ty, connective):
        return False
    if isinstance(ty, (End, TyVar)):
        return True
    if isinstance(ty, (SendVal, RecvVal)):
        return _connective_free(ty.cont, connective, table, seen)
    if isinstance(ty, (Offer, Choose)):
        return _connective_free(ty.then, connective, table, seen) and _connective_free(
            ty.orelse, connective, table, seen
        )
    if isinstance(ty, OpApp):
        if table is None:
            # Without definitions we conservatively check only the argument.
            return _connective_free(ty.arg, connective, table, seen)
        if ty.operator in seen:
            return _connective_free(ty.arg, connective, table, seen)
        seen.add(ty.operator)
        body = table.lookup(ty.operator).body
        return _connective_free(body, connective, table, seen) and _connective_free(
            ty.arg, connective, table, seen
        )
    raise GuideTypeError(f"unknown guide type node: {ty!r}")


def payload_types(ty: GuideType, table: Optional[TypeTable] = None) -> frozenset[BaseType]:
    """Collect the payload (scalar) types mentioned anywhere in a guide type.

    Recursive type operators are unfolded once per operator.
    """
    seen: set = set()

    def go(t: GuideType) -> frozenset[BaseType]:
        if isinstance(t, (End, TyVar)):
            return frozenset()
        if isinstance(t, (SendVal, RecvVal)):
            return frozenset({t.payload}) | go(t.cont)
        if isinstance(t, (Offer, Choose)):
            return go(t.then) | go(t.orelse)
        if isinstance(t, OpApp):
            acc = go(t.arg)
            if table is not None and t.operator not in seen:
                seen.add(t.operator)
                acc |= go(table.lookup(t.operator).body)
            return acc
        raise GuideTypeError(f"unknown guide type node: {t!r}")

    return go(ty)


def guide_type_depth(ty: GuideType) -> int:
    """Syntactic depth of a guide type (used by tests and pretty-printing)."""
    if isinstance(ty, (End, TyVar)):
        return 1
    if isinstance(ty, OpApp):
        return 1 + guide_type_depth(ty.arg)
    if isinstance(ty, (SendVal, RecvVal)):
        return 1 + guide_type_depth(ty.cont)
    if isinstance(ty, (Offer, Choose)):
        return 1 + max(guide_type_depth(ty.then), guide_type_depth(ty.orelse))
    raise GuideTypeError(f"unknown guide type node: {ty!r}")


def dual_description(ty: GuideType) -> str:
    """Human-readable description of how the *consumer* reads a guide type.

    The two ends of a channel share the same guide type but interpret it
    dually: the consumer receives where the provider sends and vice versa.
    This helper renders the consumer's view (used by docs and error messages).
    """
    if isinstance(ty, End):
        return "end"
    if isinstance(ty, TyVar):
        return ty.name
    if isinstance(ty, OpApp):
        return f"{ty.operator}[{dual_description(ty.arg)}]"
    if isinstance(ty, SendVal):
        return f"receive {ty.payload}; {dual_description(ty.cont)}"
    if isinstance(ty, RecvVal):
        return f"send {ty.payload}; {dual_description(ty.cont)}"
    if isinstance(ty, Offer):
        return (
            f"receive selection [{dual_description(ty.then)} | {dual_description(ty.orelse)}]"
        )
    if isinstance(ty, Choose):
        return (
            f"send selection [{dual_description(ty.then)} | {dual_description(ty.orelse)}]"
        )
    raise GuideTypeError(f"unknown guide type node: {ty!r}")


def iter_guide_subtypes(ty: GuideType) -> Iterable[GuideType]:
    """Yield all syntactic subterms of a guide type (pre-order)."""
    yield ty
    if isinstance(ty, OpApp):
        yield from iter_guide_subtypes(ty.arg)
    elif isinstance(ty, (SendVal, RecvVal)):
        yield from iter_guide_subtypes(ty.cont)
    elif isinstance(ty, (Offer, Choose)):
        yield from iter_guide_subtypes(ty.then)
        yield from iter_guide_subtypes(ty.orelse)

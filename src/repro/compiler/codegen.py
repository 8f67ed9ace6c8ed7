"""Code generation: core-calculus procedures → Python generator functions.

Every procedure ``proc f(x) consume a provide b { m }`` becomes::

    def f(x):
        ...                       # statements translated from m
        return <result>

where communication is expressed by ``yield`` of small op tuples::

    value = yield ("recv_sample", "latent", Gamma(2.0, 1.0))
    value = yield ("send_sample", "obs", Normal(mu, 1.0))
    sel   = yield ("send_branch", "latent", v < 2.0)
    sel   = yield ("recv_branch", "latent")
    yield ("fold", "latent")      # procedure-call marker

The generated generators are driven by :mod:`repro.compiler.runtime`, which
resolves each op (sampling, replaying observations, routing messages to the
partner coroutine) and scores it through :func:`repro.minipyro.sample`.

The second half of the module is the compiled batched backend: it schedules
a model/guide pair at compile time and emits one NumPy kernel over whole
particle arrays (:func:`load_kernel`, :class:`CompiledKernel`; see the
section comment there).
"""

from __future__ import annotations

import re
import textwrap
import types
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import ast
from repro.core import types as ty
from repro.dists.base import Param
from repro.dists.families import FAMILIES, Family
from repro.errors import CompilationError

_BINOPS = {
    ast.BinOp.ADD: "+",
    ast.BinOp.SUB: "-",
    ast.BinOp.MUL: "*",
    ast.BinOp.DIV: "/",
    ast.BinOp.LT: "<",
    ast.BinOp.LE: "<=",
    ast.BinOp.GT: ">",
    ast.BinOp.GE: ">=",
    ast.BinOp.EQ: "==",
    ast.BinOp.NE: "!=",
    ast.BinOp.AND: "and",
    ast.BinOp.OR: "or",
}

_MODULE_HEADER = '''"""Code generated by repro.compiler — do not edit by hand."""

import math

from repro.dists import (
    Bernoulli,
    Beta,
    Categorical,
    Gamma,
    Geometric,
    Normal,
    Poisson,
    Uniform01,
)
from repro.minipyro import param
from repro.compiler import runtime

'''


class _NameSupply:
    """Fresh temporary-variable names for the generated code."""

    def __init__(self) -> None:
        self._counter = 0

    def fresh(self, hint: str = "tmp") -> str:
        self._counter += 1
        return f"_{hint}{self._counter}"


def compile_expr(expr: ast.Expr) -> str:
    """Translate a pure expression into a Python expression string."""
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Triv):
        return "None"
    if isinstance(expr, ast.BoolLit):
        return "True" if expr.value else "False"
    if isinstance(expr, ast.RealLit):
        return repr(float(expr.value))
    if isinstance(expr, ast.NatLit):
        return repr(int(expr.value))
    if isinstance(expr, ast.IfExpr):
        return (
            f"(({compile_expr(expr.then)}) if ({compile_expr(expr.cond)}) "
            f"else ({compile_expr(expr.orelse)}))"
        )
    if isinstance(expr, ast.PrimOp):
        return f"(({compile_expr(expr.left)}) {_BINOPS[expr.op]} ({compile_expr(expr.right)}))"
    if isinstance(expr, ast.PrimUnOp):
        operand = compile_expr(expr.operand)
        if expr.op is ast.UnOp.NEG:
            return f"(-({operand}))"
        if expr.op is ast.UnOp.NOT:
            return f"(not ({operand}))"
        if expr.op is ast.UnOp.EXP:
            return f"math.exp({operand})"
        if expr.op is ast.UnOp.LOG:
            return f"math.log({operand})"
        if expr.op is ast.UnOp.SQRT:
            return f"math.sqrt({operand})"
        raise CompilationError(f"cannot compile unary operator {expr.op!r}")
    if isinstance(expr, ast.Lam):
        return f"(lambda {expr.param}: {compile_expr(expr.body)})"
    if isinstance(expr, ast.App):
        return f"({compile_expr(expr.func)})({compile_expr(expr.arg)})"
    if isinstance(expr, ast.Let):
        return f"(lambda {expr.var}: {compile_expr(expr.body)})({compile_expr(expr.bound)})"
    if isinstance(expr, ast.Tuple_):
        inner = ", ".join(compile_expr(e) for e in expr.items)
        if len(expr.items) == 1:
            inner += ","
        return f"({inner})"
    if isinstance(expr, ast.Proj):
        return f"({compile_expr(expr.tuple_expr)})[{expr.index}]"
    if isinstance(expr, ast.DistExpr):
        family = FAMILIES[expr.kind]
        args = ", ".join(compile_expr(a) for a in expr.args)
        if family.params is None:  # variadic: Categorical takes a weight list
            args = f"[{args}]"
        return f"{family.cls.__name__}({args})"
    raise CompilationError(f"cannot compile expression node {expr!r}")


class _ProcedureCompiler:
    """Compiles one procedure body into a list of Python source lines."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.names = _NameSupply()

    def compile_procedure(self, proc: ast.Procedure) -> List[str]:
        params = ", ".join(proc.params)
        lines = [f"def {proc.name}({params}):"]
        doc = f'    """Compiled from procedure {proc.name}'
        channels = []
        if proc.consumes:
            channels.append(f"consume {proc.consumes}")
        if proc.provides:
            channels.append(f"provide {proc.provides}")
        if channels:
            doc += " (" + ", ".join(channels) + ")"
        doc += '."""'
        lines.append(doc)
        result = self.names.fresh("result")
        body = self.compile_command(proc.body, result, indent=1)
        lines.extend(body)
        lines.append(f"    return {result}")
        lines.append("")
        return lines

    def compile_command(self, cmd: ast.Command, target: str, indent: int) -> List[str]:
        pad = "    " * indent

        if isinstance(cmd, ast.Ret):
            return [f"{pad}{target} = {compile_expr(cmd.expr)}"]

        if isinstance(cmd, ast.Bnd):
            binder = cmd.var if not cmd.var.startswith("_ignore") else self.names.fresh("ignore")
            lines = self.compile_command(cmd.first, binder, indent)
            lines.extend(self.compile_command(cmd.second, target, indent))
            return lines

        if isinstance(cmd, ast.SampleRecv):
            dist = compile_expr(cmd.dist)
            return [f'{pad}{target} = yield ("recv_sample", "{cmd.channel}", {dist})']

        if isinstance(cmd, ast.SampleSend):
            dist = compile_expr(cmd.dist)
            return [f'{pad}{target} = yield ("send_sample", "{cmd.channel}", {dist})']

        if isinstance(cmd, ast.CondSend):
            selection = self.names.fresh("sel")
            lines = [
                f'{pad}{selection} = yield ("send_branch", "{cmd.channel}", {compile_expr(cmd.cond)})',
                f"{pad}if {selection}:",
            ]
            lines.extend(self.compile_command(cmd.then, target, indent + 1))
            lines.append(f"{pad}else:")
            lines.extend(self.compile_command(cmd.orelse, target, indent + 1))
            return lines

        if isinstance(cmd, ast.CondRecv):
            selection = self.names.fresh("sel")
            lines = [
                f'{pad}{selection} = yield ("recv_branch", "{cmd.channel}")',
                f"{pad}if {selection}:",
            ]
            lines.extend(self.compile_command(cmd.then, target, indent + 1))
            lines.append(f"{pad}else:")
            lines.extend(self.compile_command(cmd.orelse, target, indent + 1))
            return lines

        if isinstance(cmd, ast.CondPure):
            lines = [f"{pad}if {compile_expr(cmd.cond)}:"]
            lines.extend(self.compile_command(cmd.then, target, indent + 1))
            lines.append(f"{pad}else:")
            lines.extend(self.compile_command(cmd.orelse, target, indent + 1))
            return lines

        if isinstance(cmd, ast.Call):
            try:
                callee = self.program.procedure(cmd.proc)
            except KeyError as exc:
                raise CompilationError(f"call to unknown procedure {cmd.proc!r}") from exc
            lines = []
            for channel in (callee.consumes, callee.provides):
                if channel is not None:
                    lines.append(f'{pad}yield ("fold", "{channel}")')
            lines.append(
                f"{pad}{target} = yield from {cmd.proc}({self._compile_call_args(callee, cmd.arg)})"
            )
            return lines

        if isinstance(cmd, ast.Observe):
            dist = compile_expr(cmd.dist)
            value = compile_expr(cmd.value)
            return [
                f'{pad}yield ("observe", "", {dist}, {value})',
                f"{pad}{target} = None",
            ]

        raise CompilationError(f"cannot compile command node {cmd!r}")

    @staticmethod
    def _compile_call_args(callee: ast.Procedure, arg: ast.Expr) -> str:
        n_params = len(callee.params)
        if n_params == 0:
            return ""
        if n_params == 1:
            return compile_expr(arg)
        if isinstance(arg, ast.Tuple_) and len(arg.items) == n_params:
            return ", ".join(compile_expr(item) for item in arg.items)
        return f"*({compile_expr(arg)})"


# ---------------------------------------------------------------------------
# Whole-module generation
# ---------------------------------------------------------------------------


def compile_program(program: ast.Program) -> str:
    """Compile every procedure of a program into Python generator functions."""
    compiler = _ProcedureCompiler(program)
    pieces: List[str] = []
    for proc in program.procedures:
        pieces.append("\n".join(compiler.compile_procedure(proc)))
    return "\n".join(pieces)


def compile_pair(
    model_program: ast.Program,
    guide_program: ast.Program,
    model_entry: str,
    guide_entry: str,
    guide_param_inits: Optional[Mapping[str, float]] = None,
    latent_channel: str = "latent",
    obs_channel: str = "obs",
) -> str:
    """Compile a model/guide pair into a self-contained Python module.

    The module exposes:

    * one generator function per procedure of both programs;
    * ``MODEL_ENTRY`` / ``GUIDE_ENTRY`` generator factories (the guide factory
      reads its parameters from the mini-Pyro parameter store when
      ``guide_param_inits`` is given, mirroring Pyro guides);
    * ``importance_sampling(obs_values, num_samples, seed)`` and
      ``svi(obs_values, num_steps, ...)`` wrappers that delegate to
      :mod:`repro.compiler.runtime`.
    """
    guide_param_inits = dict(guide_param_inits or {})
    guide_proc = guide_program.procedure(guide_entry)
    if guide_param_inits and set(guide_param_inits) != set(guide_proc.params):
        raise CompilationError(
            "guide_param_inits keys must match the guide entry's parameters: "
            f"expected {sorted(guide_proc.params)}, got {sorted(guide_param_inits)}"
        )

    pieces = [_MODULE_HEADER]
    pieces.append("# ---- model procedures " + "-" * 40 + "\n")
    pieces.append(compile_program(model_program))
    pieces.append("\n# ---- guide procedures " + "-" * 40 + "\n")
    pieces.append(compile_program(guide_program))

    pieces.append(
        textwrap.dedent(
            f'''
LATENT_CHANNEL = "{latent_channel}"
OBS_CHANNEL = "{obs_channel}"
GUIDE_PARAM_INITS = {guide_param_inits!r}


def MODEL_ENTRY():
    """Generator factory for the compiled model entry point."""
    return {model_entry}()
'''
        )
    )

    if guide_param_inits:
        param_reads = "\n    ".join(
            f'{name} = param("{name}", {float(init)!r})'
            for name, init in guide_param_inits.items()
        )
        call_args = ", ".join(guide_proc.params)
        pieces.append(
            textwrap.dedent(
                f'''
def GUIDE_ENTRY():
    """Generator factory for the compiled guide: parameters come from the store."""
    {param_reads}
    return {guide_entry}({call_args})
'''
            )
        )
    else:
        pieces.append(
            textwrap.dedent(
                f'''
def GUIDE_ENTRY():
    """Generator factory for the compiled guide entry point."""
    return {guide_entry}()
'''
            )
        )

    pieces.append(
        textwrap.dedent(
            '''
def importance_sampling(obs_values=None, num_samples=100, seed=0):
    """Importance sampling over the compiled model/guide pair."""
    return runtime.compiled_importance_sampling(
        MODEL_ENTRY, GUIDE_ENTRY, obs_values=obs_values,
        num_samples=num_samples, seed=seed,
        latent_channel=LATENT_CHANNEL, obs_channel=OBS_CHANNEL,
    )


def svi(obs_values=None, num_steps=50, num_particles=2, learning_rate=0.05, seed=0):
    """Stochastic variational inference over the compiled model/guide pair."""
    return runtime.compiled_svi(
        MODEL_ENTRY, GUIDE_ENTRY, obs_values=obs_values,
        num_steps=num_steps, num_particles=num_particles,
        learning_rate=learning_rate, seed=seed,
        param_inits=GUIDE_PARAM_INITS,
        latent_channel=LATENT_CHANNEL, obs_channel=OBS_CHANNEL,
    )
'''
        )
    )
    return "\n".join(pieces)


# ---------------------------------------------------------------------------
# Compiled batched backend: model/guide pair -> one batched NumPy kernel
# ---------------------------------------------------------------------------
#
# The generator-based codegen above targets the mini-Pyro substrate: every
# sample site round-trips through a yielded op tuple that a scheduler
# resolves one at a time.  The kernel compiler below removes that dispatch
# entirely for the vectorized particle engine: it *symbolically executes*
# the model/guide coroutine pair at compile time — mirroring the interpretive
# scheduler (:class:`repro.engine.vectorize._VecScheduler`) operation by
# operation — and emits one Python function over ``(rng, n)`` that calls the
# batched distribution API on whole-array operands, accumulating
# per-particle log-weights in arrays.  Guide→model message routing is
# resolved at compile time from the channel protocol, so the generated code
# contains no generators, queues, or op dispatch.  The path tree is lowered
# into that one function:
#
# * every branch arm becomes a *segment*, and an explicit LIFO worklist of
#   ``(segment, state...)`` tuples schedules them (true arm pushed first,
#   false arm second, so the false arm pops first — the interpretive
#   splitter's order, which is what keeps the RNG stream bitwise-identical);
# * at a branch, ``_rt.uniform_or_none`` decides: a uniform selection stays
#   in the same frame (dispatch is a segment-id assignment), a mixed one
#   computes each arm's particle positions once with ``np.flatnonzero`` and
#   integer-gathers every state array into the arm's worklist entry;
# * the recorded logs — messages, observation scores and fork directions —
#   are tracked *symbolically* during compilation: the compiler knows
#   exactly which payload variables each path records, so the descent
#   threads raw arrays through the live set and each leaf materializes its
#   lists once (no per-fork message gathering);
# * the per-site score ledgers (read only by Rao-Blackwellized SVI) are
#   gated behind a ``ledgers`` flag so IS/SMC runs skip that work entirely;
# * every path carries its operation count, and every mixed dispatch counts
#   a split, so the kernel raises the interpreter's budget errors itself.
#
# Every leaf is stamped with its fork directions, and a second emitted
# function (the rescore pass, compiled on first use) follows that stamp to
# replay the exact path for SVI's group rescoring — recorded values
# consumed at known log positions, branch selections masked exactly as the
# interpretive scheduler masks them.  A replay the straight-line path cannot
# represent (a *pure* branch predicate flipping under perturbed arguments)
# raises ``RescoreDivert`` and the runner delegates that leaf to the
# interpretive ``rescore_group``.
#
# Tail recursion compiles to a *loop kernel*: a fork arm whose schedule
# state repeats an arm on the current compile path becomes a back-edge to
# that arm's segment (see :class:`_KernelCompiler`), so one finite kernel
# covers every unfolding of the guide type's operator.  It is the same
# emission plus back-edges: each fork first flushes the symbolic logs into
# a runtime prefix that rides in the worklist, so every arm starts from its
# own fork's direction alone.  Programs outside the supported fragment —
# non-tail recursion, a loop that touches the observation channel,
# higher-order functions, first-class distributions — are rejected by
# :func:`compiled_unsupported_reason` and fall back to the interpretive
# vectorizer.  The emitted code is bitwise-compatible with the interpretive
# backend: same RNG calls in the same order, same density kernels (masked
# checks dropped only when value provenance proves them to be the
# identity).  See :mod:`repro.compiler.batched_runtime` for the contract.


_MAX_FORK_DEPTH = 16
_MAX_KERNEL_LINES = 50_000

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class _Sym:
    """A symbolic runtime value: a Python expression plus what is known of it.

    ``flags`` is sound ("lane" means *definitely* a ``(n,)`` array, "const"
    a value fixed at compile time); absent flags mean unknown.  ``value``
    carries the constant for plain literals so parameter checks can be
    discharged statically.  ``proven`` is the base type the value's
    provenance proves: the support of the family that drew it, or 𝟚 for a
    Boolean literal (``None``: nothing).
    """

    code: str
    flags: frozenset = frozenset()
    value: object = None
    proven: Optional[ty.BaseType] = None

    @property
    def is_const(self) -> bool:
        return "const" in self.flags

    @property
    def is_lane(self) -> bool:
        return "lane" in self.flags


def _param_proven(sym: _Sym, param: Param) -> bool:
    """Whether ``sym``'s provenance or literal value discharges ``param``'s check."""
    if sym.proven is not None and ty.is_subtype(sym.proven, param.type):
        return True
    value = sym.value
    if not sym.is_const or not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return param.guard.holds(float(value))


@dataclass
class CompiledModule:
    """A compiled pair loaded as a live Python module plus its source text."""

    module: types.ModuleType
    source: str

    @property
    def lines_of_code(self) -> int:
        """Non-blank, non-comment lines of generated code (Table 2's GLOC)."""
        count = 0
        for line in self.source.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
        return count


def load_compiled(source: str, module_name: str = "repro_generated") -> CompiledModule:
    """Execute generated source text and return it as a module object."""
    module = types.ModuleType(module_name)
    module.__dict__["__name__"] = module_name
    try:
        exec(compile(source, f"<{module_name}>", "exec"), module.__dict__)
    except SyntaxError as exc:  # pragma: no cover - indicates a codegen bug
        raise CompilationError(f"generated code does not parse: {exc}") from exc
    return CompiledModule(module=module, source=source)


# ---------------------------------------------------------------------------
# Compiled backend: supported-fragment check
# ---------------------------------------------------------------------------


def _reachable_procedures(program: ast.Program, entry: str) -> List[ast.Procedure]:
    """Procedures reachable from ``entry`` by direct calls (entry first)."""
    seen: Dict[str, ast.Procedure] = {}
    stack = [entry]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        try:
            proc = program.procedure(name)
        except KeyError:
            raise CompilationError(f"call to unknown procedure {name!r}")
        seen[name] = proc
        stack.extend(sorted(ast.calls_in(proc.body)))
    return list(seen.values())


def _has_call_cycle(program: ast.Program, entry: str) -> bool:
    """Detect (mutual) recursion reachable from ``entry``."""
    color: Dict[str, int] = {}  # 0 visiting, 1 done

    def visit(name: str) -> bool:
        state = color.get(name)
        if state == 0:
            return True
        if state == 1:
            return False
        color[name] = 0
        try:
            proc = program.procedure(name)
        except KeyError:
            color[name] = 1
            return False
        for callee in ast.calls_in(proc.body):
            if visit(callee):
                return True
        color[name] = 1
        return False

    return visit(entry)


def _has_loops(
    model_program: ast.Program, guide_program: ast.Program, model_entry: str, guide_entry: str
) -> bool:
    """Whether the pair compiles to a loop kernel (either side recurses)."""
    return _has_call_cycle(model_program, model_entry) or _has_call_cycle(
        guide_program, guide_entry
    )


def _non_tail_calls(cmd: ast.Command, tail: bool = True):
    """Yield the procedures ``cmd`` calls outside tail position."""
    if isinstance(cmd, ast.Call):
        if not tail:
            yield cmd.proc
        return
    if isinstance(cmd, ast.Bnd):
        yield from _non_tail_calls(cmd.first, False)
        yield from _non_tail_calls(cmd.second, tail)
        return
    for child in ast.command_children(cmd):  # conditional arms inherit tail-ness
        yield from _non_tail_calls(child, tail)


def _recursion_reason(
    program: ast.Program, entry: str, side: str, obs_channel: str
) -> Optional[str]:
    """Why ``program``'s recursion cannot close into compiled loops.

    A recursive call in tail position leaves the caller's continuation stack
    as it was on entry, so the joint schedule state repeats and the kernel
    compiler closes it into a back-edge.  A non-tail recursive call grows
    the stack (it needs a runtime return stack), and a loop that touches the
    observation channel advances the observation position on every
    unfolding, so its state never repeats.
    """
    procs = _reachable_procedures(program, entry)
    reach = {p.name: _reachable_procedures(program, p.name) for p in procs}
    names = {name: {q.name for q in reached} for name, reached in reach.items()}
    for proc in procs:
        for callee in _non_tail_calls(proc.body):
            if proc.name in names[callee]:
                return f"non-tail recursive {side} procedures (unbounded call stack)"
    for proc in procs:
        if any(proc.name in names[callee] for callee in ast.calls_in(proc.body)) and any(
            q.provides == obs_channel or obs_channel in ast.channels_used(q.body)
            for q in reach[proc.name]
        ):
            return f"observation traffic inside recursive {side} procedures"
    return None


def _walk_exprs_of(cmd: ast.Command):
    """Yield ``(expr, is_dist_position)`` for every expression in ``cmd``."""
    if isinstance(cmd, ast.Ret):
        yield cmd.expr, False
    elif isinstance(cmd, (ast.SampleRecv, ast.SampleSend)):
        yield cmd.dist, True
    elif isinstance(cmd, ast.CondSend):
        yield cmd.cond, False
    elif isinstance(cmd, ast.CondPure):
        yield cmd.cond, False
    elif isinstance(cmd, ast.Call):
        yield cmd.arg, False
    elif isinstance(cmd, ast.Observe):
        yield cmd.dist, True
        yield cmd.value, False
    for child in ast.command_children(cmd):
        yield from _walk_exprs_of(child)


def _expr_fragment_reason(expr: ast.Expr, is_dist_position: bool) -> Optional[str]:
    if isinstance(expr, ast.Lam):
        return "higher-order functions (lambda)"
    if isinstance(expr, ast.App):
        return "higher-order functions (application)"
    if isinstance(expr, ast.DistExpr) and not is_dist_position:
        return "first-class distribution values"
    # Children (including a distribution's arguments) are ordinary value
    # positions, so the dist-position licence does not propagate.
    children = ast.expr_children(expr)
    return next(filter(None, (_expr_fragment_reason(c, False) for c in children)), None)


def compiled_unsupported_reason(
    model_program: ast.Program,
    guide_program: ast.Program,
    model_entry: str,
    guide_entry: str,
    latent_channel: str = "latent",
    obs_channel: str = "obs",
) -> Optional[str]:
    """Why this pair cannot run on the compiled backend (``None`` = it can).

    The check is conservative: everything it admits compiles to code whose
    results are bitwise-identical to the interpretive vectorizer; everything
    it rejects falls back to :class:`~repro.engine.vectorize.ParticleVectorizer`.
    """
    try:
        model_procs = _reachable_procedures(model_program, model_entry)
        guide_procs = _reachable_procedures(guide_program, guide_entry)
    except CompilationError as exc:
        return str(exc)

    for side, program, entry in (
        ("model", model_program, model_entry),
        ("guide", guide_program, guide_entry),
    ):
        reason = _recursion_reason(program, entry, side, obs_channel)
        if reason is not None:
            return reason

    model_provides_obs = model_program.procedure(model_entry).provides == obs_channel

    for side, procs in (("model", model_procs), ("guide", guide_procs)):
        allowed = {latent_channel} | (
            {obs_channel} if side == "model" and model_provides_obs else set()
        )
        for proc in procs:
            for channel in (proc.consumes, proc.provides):
                if channel is not None and channel not in allowed:
                    return f"{side} procedure {proc.name!r} uses channel {channel!r}"
            used = ast.channels_used(proc.body)
            if not used <= allowed:
                extra = sorted(used - allowed)
                return f"{side} procedure {proc.name!r} communicates on {extra}"
            if side == "model" and obs_channel in used and not model_provides_obs:
                return "model uses the observation channel without providing it"
            for cmd_expr, dist_pos in _walk_exprs_of(proc.body):
                reason = _expr_fragment_reason(cmd_expr, dist_pos)
                if reason is not None:
                    return reason
            reason = _command_fragment_reason(proc.body, side, obs_channel)
            if reason is not None:
                return reason
    return None


def _command_fragment_reason(cmd: ast.Command, side: str, obs_channel: str) -> Optional[str]:
    if isinstance(cmd, ast.SampleRecv) and side == "model" and cmd.channel == obs_channel:
        return "model receives on the observation channel"
    if isinstance(cmd, (ast.CondSend, ast.CondRecv)) and cmd.channel == obs_channel:
        return "branch communication on the observation channel"
    for child in ast.command_children(cmd):
        reason = _command_fragment_reason(child, side, obs_channel)
        if reason is not None:
            return reason
    return None


# ---------------------------------------------------------------------------
# Compiled backend: pure-expression compilation (mirrors eval_expr_vec)
# ---------------------------------------------------------------------------


def _compile_expr_vec(expr: ast.Expr, env: Mapping[str, _Sym]) -> _Sym:
    """Translate a pure expression into Python code over lane arrays.

    The emitted code evaluates, under :mod:`repro.compiler.batched_runtime`'s
    helpers, to exactly the value :func:`repro.engine.vectorize.eval_expr_vec`
    computes (same operator association, same scalar/array dispatch).
    """
    if isinstance(expr, ast.Var):
        if expr.name not in env:
            raise CompilationError(f"unbound variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, ast.Triv):
        return _Sym("None", frozenset({"const"}))
    if isinstance(expr, ast.BoolLit):
        return _Sym(repr(expr.value), frozenset({"const"}), expr.value, ty.BOOL)
    if isinstance(expr, ast.RealLit):
        value = float(expr.value)
        return _Sym(repr(value), frozenset({"const"}), value)
    if isinstance(expr, ast.NatLit):
        value = int(expr.value)
        return _Sym(repr(value), frozenset({"const"}), value)

    if isinstance(expr, ast.IfExpr):
        cond = _compile_expr_vec(expr.cond, env)
        then = _compile_expr_vec(expr.then, env)
        orelse = _compile_expr_vec(expr.orelse, env)
        flags = set()
        if cond.is_lane:
            flags.add("lane")
        if cond.is_const and then.is_const and orelse.is_const:
            flags.add("const")
        return _Sym(
            f"_rt.ifexp({cond.code}, lambda: {then.code}, lambda: {orelse.code})",
            frozenset(flags),
        )

    if isinstance(expr, ast.PrimOp):
        return _compile_primop_vec(expr, env)

    if isinstance(expr, ast.PrimUnOp):
        operand = _compile_expr_vec(expr.operand, env)
        lane = frozenset({"lane"}) & operand.flags
        const = frozenset({"const"}) & operand.flags
        if expr.op is ast.UnOp.NEG:
            return _Sym(f"(-({operand.code}))", lane | const)
        if expr.op is ast.UnOp.NOT:
            return _Sym(f"_rt.not_({operand.code})", lane | const)
        helper = {ast.UnOp.EXP: "exp_", ast.UnOp.LOG: "log_", ast.UnOp.SQRT: "sqrt_"}[expr.op]
        return _Sym(f"_rt.{helper}({operand.code})", lane | const)

    if isinstance(expr, ast.Let):
        bound = _compile_expr_vec(expr.bound, env)
        inner = dict(env)
        inner[expr.var] = _Sym(f"_let_{expr.var}", bound.flags, proven=bound.proven)
        body = _compile_expr_vec(expr.body, inner)
        return _Sym(f"(lambda _let_{expr.var}: {body.code})({bound.code})", frozenset())

    if isinstance(expr, ast.Tuple_):
        items = [_compile_expr_vec(item, env) for item in expr.items]
        inner = ", ".join(item.code for item in items)
        if len(items) == 1:
            inner += ","
        return _Sym(f"({inner})", frozenset())

    if isinstance(expr, ast.Proj):
        value = _compile_expr_vec(expr.tuple_expr, env)
        return _Sym(f"_rt.proj({value.code}, {expr.index})", frozenset())

    raise CompilationError(f"cannot compile expression node {expr!r} for the compiled backend")


def _compile_primop_vec(expr: ast.PrimOp, env: Mapping[str, _Sym]) -> _Sym:
    op = expr.op
    left = _compile_expr_vec(expr.left, env)
    if op in (ast.BinOp.AND, ast.BinOp.OR):
        right = _compile_expr_vec(expr.right, env)
        helper = "and_" if op is ast.BinOp.AND else "or_"
        lane = frozenset({"lane"}) & (left.flags | right.flags)
        return _Sym(f"_rt.{helper}({left.code}, lambda: {right.code})", lane)
    right = _compile_expr_vec(expr.right, env)
    lane = frozenset({"lane"}) & (left.flags | right.flags)
    const = (
        frozenset({"const"})
        if left.is_const and right.is_const
        else frozenset()
    )
    if op in (ast.BinOp.EQ, ast.BinOp.NE):
        helper = "eq" if op is ast.BinOp.EQ else "ne"
        return _Sym(f"_rt.{helper}({left.code}, {right.code})", lane | const)
    if op is ast.BinOp.DIV:
        return _Sym(f"_rt.div({left.code}, {right.code})", lane | const)
    return _Sym(f"(({left.code}) {_BINOPS[op]} ({right.code}))", lane | const)


# ---------------------------------------------------------------------------
# Compiled backend: symbolic scheduling and code emission
# ---------------------------------------------------------------------------


def _tuple_code(codes) -> str:
    """Python source for a tuple of the expressions ``codes``."""
    return "(" + ", ".join(codes) + ("," if len(codes) == 1 else "") + ")"


def _atomic(code: str) -> bool:
    if _IDENT_RE.match(code) or code in ("None", "True", "False"):
        return True
    try:
        float(code)
        return True
    except ValueError:
        return False


class _Forked(Exception):
    """Control signal: the schedule forked; both arms were fully emitted."""


@dataclass
class _SymTask:
    """Compile-time mirror of one coroutine task's execution state."""

    name: str
    program: ast.Program
    cur: Optional[tuple]  # ("cmd", cmd, env) | ("val", sym) | ("folds", chans, body, env)
    kont: List[tuple]     # of ("bnd", var, second_cmd, env)
    finished: bool = False
    value: Optional[_Sym] = None

    def clone(self) -> "_SymTask":
        return _SymTask(
            name=self.name,
            program=self.program,
            cur=self.cur,
            kont=list(self.kont),
            finished=self.finished,
            value=self.value,
        )


@dataclass
class _SymChannel:
    """Compile-time mirror of the latent channel's queues and fold state."""

    provider: str
    to_consumer: List[tuple]
    to_provider: List[tuple]
    fold_waiting: Optional[str] = None
    fold_passes: set = None

    def __post_init__(self):
        if self.fold_passes is None:
            self.fold_passes = set()

    def outgoing(self, sender: str) -> List[tuple]:
        return self.to_consumer if sender == self.provider else self.to_provider

    def incoming(self, receiver: str) -> List[tuple]:
        return self.to_provider if receiver == self.provider else self.to_consumer

    def clone(self) -> "_SymChannel":
        return _SymChannel(
            provider=self.provider,
            to_consumer=list(self.to_consumer),
            to_provider=list(self.to_provider),
            fold_waiting=self.fold_waiting,
            fold_passes=set(self.fold_passes),
        )


@dataclass
class _SchedState:
    tasks: Dict[str, _SymTask]
    chan: _SymChannel
    obs_pos: int
    order: Tuple[str, str]
    #: Compile-time mirror of what the path recorded since the last flush,
    #: so the generated code can defer materializing it to the leaves.
    #: ``{"lat": [...], "obs": [...], "sc": [...], "dir": [...]}`` where log
    #: entries are ``("val", provider_sent, var, lane)`` | ``("dir",
    #: provider_sent, selection)`` | ``("fold",)``, ``sc`` holds obs-score
    #: var names and ``dir`` the fork directions taken.
    rec_sym: Dict[str, list] = field(
        default_factory=lambda: {"lat": [], "obs": [], "sc": [], "dir": []}
    )

    def clone(self) -> "_SchedState":
        return _SchedState(
            tasks={name: task.clone() for name, task in self.tasks.items()},
            chan=self.chan.clone(),
            obs_pos=self.obs_pos,
            order=self.order,
            rec_sym={key: list(entries) for key, entries in self.rec_sym.items()},
        )


class _Emitter:
    """Indentation-aware line sink; all segments share one size budget.

    Each segment is straight-line code at its top level, so a value computed
    there is defined on every later line of the segment.  ``memo`` maps
    such code to the name that holds its value (a statement to ``""``), and
    :meth:`bind` / :meth:`once` reuse or skip a repeat.  Only top-level
    lines are recorded: a name bound inside ``if obs is None:`` is not
    defined on the ``else:`` side.
    """

    def __init__(self, lines: List[str], budget: List[int], indent: int):
        self.lines = lines
        self.budget = budget
        self.indent = indent
        self.top = indent
        self.memo: Dict[str, str] = {}
        #: Scheduler operations this segment performs, counted the way
        #: ``_VecScheduler._handle`` counts them (blocked attempts included);
        #: ``ops_dyn`` adds a pure branch's runtime-dependent op.
        self.ops = 0
        self.ops_dyn = ""

    def ln(self, code: str) -> None:
        self.budget[0] += 1
        if self.budget[0] > _MAX_KERNEL_LINES:
            raise CompilationError(
                "compiled kernel exceeds the generated-code size budget "
                f"({_MAX_KERNEL_LINES} lines); too many divergent branch sites"
            )
        self.lines.append("    " * self.indent + code)

    def bind(self, name: str, code: str) -> str:
        """Emit ``name = code`` unless the segment already computed ``code``;
        return the name that holds its value."""
        first = self.memo.get(code)
        if first is not None:
            return first
        self.ln(f"{name} = {code}")
        if self.indent == self.top:
            self.memo[code] = name
        return name

    def once(self, statement: str) -> None:
        """Emit ``statement`` unless the segment already ran it."""
        if statement not in self.memo:
            self.ln(statement)
            if self.indent == self.top:
                self.memo[statement] = ""


@dataclass
class _DistInfo:
    """How one distribution expression is realised in the compiled kernel.

    ``const``: shared parameters, a scalar distribution ``name`` bound in the
    preamble, whose parameters ``args`` reads; ``fast``: lane parameters
    ``args`` handed to the family's functions; ``generic``: a
    ``BatchedDist`` ``name`` built at run time.  ``family`` is ``None``
    for a distribution value that no family expression names.
    """

    mode: str  # "const" | "fast" | "generic"
    family: Optional[Family]
    name: Optional[str]
    args: List[str]

    def drawn(self, code: str) -> _Sym:
        """The value ``code`` drew from this distribution: a lane array of
        the family's support."""
        proven = None if self.family is None else self.family.support
        return _Sym(code, frozenset({"lane"}), proven=proven)


_KERNEL_HEADER = '''"""Batched kernel generated by repro.compiler.codegen — do not edit."""

import numpy as np

from repro.compiler import batched_runtime as _rt
from repro.core.ast import DistKind

'''


class _KernelCompiler:
    """Compile a model/guide pair into the forward pass of its batched kernel.

    The compiler *is* the scheduler: it steps two symbolic tasks under the
    exact round-robin discipline of the interpretive
    :class:`~repro.engine.vectorize._VecScheduler` and emits code for every
    op it resolves, so the generated kernel performs the same RNG draws and
    the same density evaluations in the same order.  Each branch arm
    becomes a segment of one emitted function, driven by an explicit LIFO
    worklist of ``(segment, idx, lw_m, lw_g, led_m, led_g, pre, ops,
    _live)`` tuples (see the section comment above).  Each path records its
    logs symbolically and every leaf materializes them, prefixed by ``pre``.

    Each segment computes a lane value once (:class:`_Emitter`'s memo): a
    value both sides score under one distribution is scored once, and both
    ledgers hold that array, which no kernel writes in place; a repeated
    conditional, parameter check or lane expression reuses the first name
    or is skipped.  Operations are counted per command, not per line, so
    the budgets do not move.

    A pair with a call cycle compiles to a *loop kernel*: when a fork arm's
    schedule state equals, up to the names of its runtime values, the state
    of an arm on the current compile path, the arm becomes a back-edge to
    that arm's segment instead of another unfolding.  Guide types make the
    state repeat: both coroutines unfold the same type operator in lockstep
    (kept in step by fold messages), and a tail call leaves the continuation
    stack as it was on entry.  For the logs to repeat too, each fork of a
    loop kernel flushes them into the runtime prefix ``pre`` (``None``
    until the first flush), so every arm's symbolic log starts with only
    its own fork's direction.
    """

    #: Segment bodies sit inside ``while _stack: ... while True:`` (depth 4);
    #: the rescore pass overrides both (its chain sits one loop shallower).
    _seg_indent = 4
    _chain_pad = "            "
    #: An empty segment must still exit the dispatch loop.
    _empty_body = "break"
    #: The forward pass fills the per-site score ledgers only when asked.
    _ledger_guard = "if ledgers: "

    def __init__(
        self,
        model_program: ast.Program,
        guide_program: ast.Program,
        model_entry: str,
        guide_entry: str,
        latent_channel: str = "latent",
        obs_channel: str = "obs",
    ):
        self.model_program = model_program
        self.guide_program = guide_program
        self.model_entry = model_entry
        self.guide_entry = guide_entry
        self.latent = latent_channel
        self.obs = obs_channel
        self.names = _NameSupply()
        self.preamble: List[str] = []
        self._const_dists: Dict[Tuple[ast.DistKind, Tuple[str, ...]], str] = {}
        self._family_locals: Dict[ast.DistKind, str] = {}
        model_proc = model_program.procedure(model_entry)
        self.has_obs = model_proc.provides == obs_channel
        self.segments: List[List[str]] = []
        self._budget = [0]
        #: Branch directions taken along the path currently being compiled.
        self._path: List[bool] = []
        #: The compile-time paths: fork directions to each emitted leaf.
        self.path_dirs: List[Tuple[bool, ...]] = []
        #: A call cycle: forks flush the logs and may close into back-edges.
        self.loops = _has_loops(model_program, guide_program, model_entry, guide_entry)
        #: Loops: canonical key → (segment, live names) of every arm on the
        #: current compile path, the targets a back-edge may take.
        self._open: Dict[tuple, Tuple[int, List[str]]] = {}
        #: Loops: canonical states at the call sites of the current segment.
        self._calls: set = set()

    # -- naming and materialisation -------------------------------------------

    def _fresh(self, hint: str) -> str:
        return self.names.fresh(hint)

    def _new_segment(self) -> Tuple[int, _Emitter]:
        seg_id = len(self.segments)
        buf: List[str] = []
        self.segments.append(buf)
        return seg_id, _Emitter(buf, self._budget, self._seg_indent)

    def _materialize(self, em: _Emitter, sym: _Sym, hint: str, bound: bool = False) -> _Sym:
        """Name ``sym``'s value, reusing the name of a repeat in the segment.

        A value ``bound`` to a variable keeps a name of its own in a loop
        kernel: back-edges match schedule states up to value names, and a
        shared name would make two unfoldings differ in which variables
        share a value, so the loop would close an unfolding later.
        """
        if _atomic(sym.code):
            return sym
        name = self._fresh(hint)
        if bound and self.loops:
            em.ln(f"{name} = {sym.code}")
        else:
            name = em.bind(name, sym.code)
        # The name is assigned at *this* emission point (possibly inside a
        # per-path continuation), so the renamed sym must shed its "const"
        # flag: a downstream distribution whose args all look const is
        # hoisted into the module preamble, where the local name does not
        # exist.  (Found by the fuzzer: a branch whose arms return literal
        # expressions binds a const-flagged named result, and a later
        # `Normal(branch_var, 2.0)` hoisted `scalar_dist(..., (_bN, ...))`
        # to the preamble — a NameError at kernel load.)
        return _Sym(name, sym.flags - {"const"}, sym.value, sym.proven)

    def _const_dist(self, family: Family, arg_codes: Tuple[str, ...]) -> str:
        key = (family.kind, arg_codes)
        if key not in self._const_dists:
            name = f"_D{len(self._const_dists)}"
            local = self._family_local(family)
            self.preamble.append(f"{name} = _rt.scalar_dist({local}, {_tuple_code(arg_codes)})")
            self._const_dists[key] = name
        return self._const_dists[key]

    def _family_local(self, family: Family) -> str:
        """The preamble's name for ``family``'s record; ``<name>_draw`` and
        ``<name>_in`` hold its sampler and in-bounds kernel, if it has them."""
        name = self._family_locals.get(family.kind)
        if name is None:
            name = f"_{family.kind.name.lower()}"
            self.preamble.append(f"{name} = _rt.FAMILIES[DistKind.{family.kind.name}]")
            if family.draw is not None:
                self.preamble.append(f"{name}_draw = {name}.draw")
                self.preamble.append(f"{name}_in = {name}.log_prob_inbounds")
            self._family_locals[family.kind] = name
        return name

    # -- distribution-site realisation ----------------------------------------

    def _emit_dist(self, em: _Emitter, dist_expr: ast.Expr, env: Mapping[str, _Sym]) -> _DistInfo:
        if not isinstance(dist_expr, ast.DistExpr):
            sym = _compile_expr_vec(dist_expr, env)
            name = self._fresh("d")
            em.ln(f"{name} = _rt.as_batched({sym.code}, n)")
            return _DistInfo("generic", None, name, [])

        family = FAMILIES[dist_expr.kind]
        arg_syms = [_compile_expr_vec(a, env) for a in dist_expr.args]

        if all(s.is_const for s in arg_syms):
            name = self._const_dist(family, tuple(s.code for s in arg_syms))
            args = [f"{name}.{param.name}" for param in family.params or ()]
            return _DistInfo("const", family, name, args)

        if (
            family.draw is not None
            and len(arg_syms) == len(family.params)
            and any(s.is_lane for s in arg_syms)
        ):
            mat = [self._materialize(em, s, "p") for s in arg_syms]
            local = self._family_local(family)
            # Check only the parameters no provenance proof discharges.
            for index, (sym, param) in enumerate(zip(mat, family.params)):
                if not _param_proven(sym, param):
                    em.once(f"_rt.check_param({local}, {index}, {sym.code}, n)")
            return _DistInfo("fast", family, None, [s.code for s in mat])

        return self._generic_dist(em, family, [s.code for s in arg_syms])

    def _generic_dist(self, em: _Emitter, family: Family, args: List[str]) -> _DistInfo:
        name = self._fresh("d")
        em.ln(f"{name} = _rt.make_batched(DistKind.{family.kind.name}, {_tuple_code(args)}, n)")
        return _DistInfo("generic", family, name, args)

    def _draw_code(self, info: _DistInfo) -> str:
        if info.mode == "generic":
            return f"{info.name}.sample(rng)"
        if info.family.draw is None:
            return f"{info.name}.sample_n(rng, n)"
        local = self._family_local(info.family)
        return f"{local}_draw({', '.join(['rng', 'n', *info.args])})"

    def _score_lane_code(self, info: _DistInfo, value: _Sym) -> str:
        # The in-bounds kernel is licensed by a value proven to lie in the support.
        if (
            info.mode != "generic"
            and info.family.log_prob_inbounds is not None
            and value.proven is not None
            and ty.is_subtype(value.proven, info.family.support)
        ):
            local = self._family_local(info.family)
            return f"{local}_in({', '.join([*info.args, value.code])})"
        if info.mode == "const":
            return f"{info.name}.log_prob_batch({value.code})"
        if info.mode == "fast":
            local = self._family_local(info.family)
            return f"_rt.score_lanes({local}, {_tuple_code(info.args)}, {value.code}, n)"
        return f"_rt.score_dist({info.name}, {value.code}, n)"

    def _score_at_code(self, info: _DistInfo, value: _Sym) -> str:
        if info.mode != "generic" and info.family.log_prob_inbounds is not None:
            local = self._family_local(info.family)
            return f"_rt.score_obs({local}, {_tuple_code(info.args)}, {value.code}, n)"
        if info.mode == "const":
            return f"_rt.score_scalar({info.name}, {value.code}, n)"
        return f"_rt.score_dist({info.name}, {value.code}, n)"

    # -- the compile-time scheduler -------------------------------------------

    def compile(self) -> str:
        _seg0, em = self._new_segment()
        model_env = self._emit_entry_binding(
            em, "model", self.model_program, self.model_entry, "model_args"
        )
        guide_env = self._emit_entry_binding(
            em, "guide", self.guide_program, self.guide_entry, "guide_args"
        )
        model_proc = self.model_program.procedure(self.model_entry)
        guide_proc = self.guide_program.procedure(self.guide_entry)
        state = _SchedState(
            tasks={
                "model": _SymTask("model", self.model_program,
                                  ("cmd", model_proc.body, model_env), []),
                "guide": _SymTask("guide", self.guide_program,
                                  ("cmd", guide_proc.body, guide_env), []),
            },
            chan=_SymChannel(provider="guide", to_consumer=[], to_provider=[]),
            obs_pos=0,
            order=("model", "guide"),
        )
        self._run_schedule(state, em, depth=0)
        return "\n".join(self._assemble())

    def _emit_entry_binding(
        self, em: _Emitter, side: str, program: ast.Program, entry: str, args_var: str
    ) -> Dict[str, _Sym]:
        proc = program.procedure(entry)
        nparams = len(proc.params)
        if nparams == 0:
            em.ln(f'_rt.bind_args("{entry}", 0, {args_var})')
            return {}
        names = [self._fresh(f"{side[0]}a") for _ in proc.params]
        target = ", ".join(names) + ("," if nparams == 1 else "")
        em.ln(f'{target} = _rt.bind_args("{entry}", {nparams}, {args_var})')
        return {param: _Sym(name) for param, name in zip(proc.params, names)}

    def _run_schedule(self, state: _SchedState, em: _Emitter, depth: int) -> None:
        try:
            while not all(t.finished for t in state.tasks.values()):
                progressed = False
                for name in state.order:
                    task = state.tasks[name]
                    if task.finished:
                        continue
                    if self._step(task, state, em, depth):
                        progressed = True
                if not progressed:
                    raise CompilationError(
                        "deadlock in the channel protocol; the model and guide "
                        "do not follow the same guidance protocol"
                    )
            self._emit_leaf(em, state)
        except _Forked:
            return

    def _emit_leaf(self, em: _Emitter, state: _SchedState) -> None:
        self.path_dirs.append(tuple(self._path))
        self._emit_op_budget(em)
        model_value = state.tasks["model"].value.code
        guide_value = state.tasks["guide"].value.code
        obs_channel = f'"{self.obs}"' if self.has_obs else "None"
        em.ln(
            f"leaves.append(_rt.make_leaf(idx, lw_m, lw_g, {self._logs_code(state)}, "
            f"{model_value}, {guide_value}, led_m if ledgers else None, "
            f'led_g if ledgers else None, pre, "{self.latent}", {obs_channel}))'
        )
        em.ln("break")

    def _emit_op_budget(self, em: _Emitter) -> None:
        """Charge the segment's operations to the path, as the interpreter does.

        The kernel runs each path until it exits, so it enforces the
        interpreter's budgets itself: operations per path here, splits per
        run at each mixed dispatch.
        """
        em.ln(f"ops += {em.ops}{em.ops_dyn}")
        em.ln("if ops > _rt.DEFAULT_MAX_OPS: raise _rt.op_budget_error(_rt.DEFAULT_MAX_OPS)")

    def _logs_code(self, state: _SchedState) -> str:
        """``lat, obs, obs_scores, dirs`` built from the symbolic logs."""
        logs = state.rec_sym
        return (
            f'[{self._msgs_code(logs["lat"])}], [{self._msgs_code(logs["obs"])}], '
            f'[{", ".join(logs["sc"])}], {tuple(logs["dir"])!r}'
        )

    @staticmethod
    def _msgs_code(log: List[tuple]) -> str:
        parts = []
        for entry in log:
            if entry[0] == "val":
                parts.append(f"_rt.val_msg({entry[1]}, {entry[2]})")
            elif entry[0] == "dir":
                parts.append(f"_rt.dir_msg({entry[1]}, {entry[2]})")
            else:
                parts.append("_rt.fold_msg()")
        return ", ".join(parts)

    # -- single-task stepping (mirrors _VecScheduler._step) --------------------

    def _step(self, task: _SymTask, state: _SchedState, em: _Emitter, depth: int) -> bool:
        progressed = False
        while not task.finished:
            kind = task.cur[0]
            if kind == "val":
                sym = self._materialize(em, task.cur[1], "b", bound=True)
                if not task.kont:
                    task.finished = True
                    task.value = sym
                    return True
                _tag, var, second, env = task.kont.pop()
                inner = dict(env)
                inner[var] = sym
                task.cur = ("cmd", second, inner)
                progressed = True
                continue
            if kind == "folds":
                if not self._step_folds(task, state, em):
                    return progressed
                progressed = True
                continue
            cmd, env = task.cur[1], task.cur[2]
            advanced = self._step_command(task, state, cmd, env, em, depth)
            if not advanced:
                return progressed
            progressed = True
        return progressed

    def _step_folds(self, task: _SymTask, state: _SchedState, em: _Emitter) -> bool:
        _tag, chans, body, env = task.cur
        while chans:
            em.ops += 1
            if chans[0] == self.obs:
                position = state.obs_pos
                state.obs_pos += 1
                self._emit_obs_fold(em, state, position)
            else:
                chan = state.chan
                if task.name in chan.fold_passes:
                    chan.fold_passes.discard(task.name)
                else:
                    if chan.fold_waiting is None:
                        chan.fold_waiting = task.name
                        return False
                    if chan.fold_waiting == task.name:
                        return False
                    other = chan.fold_waiting
                    chan.fold_waiting = None
                    chan.fold_passes.add(other)
                    self._emit_latent_fold(em, state)
            chans = chans[1:]
            task.cur = ("folds", chans, body, env)
        task.cur = ("cmd", body, env)
        return True

    def _emit_obs_fold(self, em: _Emitter, state: _SchedState, position: int) -> None:
        em.ln("if obs is not None:")
        em.indent += 1
        em.ln(f'_rt.obs_fold(obs, {position}, "call marker on {self.obs}")')
        em.indent -= 1
        state.rec_sym["obs"].append(("fold",))

    def _emit_latent_fold(self, em: _Emitter, state: _SchedState) -> None:
        state.rec_sym["lat"].append(("fold",))

    def _step_command(
        self,
        task: _SymTask,
        state: _SchedState,
        cmd: ast.Command,
        env: Dict[str, _Sym],
        em: _Emitter,
        depth: int,
    ) -> bool:
        if isinstance(cmd, ast.Ret):
            task.cur = ("val", _compile_expr_vec(cmd.expr, env))
            return True

        if isinstance(cmd, ast.Bnd):
            task.kont.append(("bnd", cmd.var, cmd.second, env))
            task.cur = ("cmd", cmd.first, env)
            return True

        if isinstance(
            cmd, (ast.SampleSend, ast.SampleRecv, ast.CondSend, ast.CondRecv, ast.Observe)
        ):
            em.ops += 1  # blocked receive attempts count too

        if isinstance(cmd, ast.SampleSend):
            if cmd.channel == self.obs:
                value = self._emit_obs_send(task, state, cmd, env, em)
            else:
                value = self._emit_latent_send(task, state, cmd, env, em)
            task.cur = ("val", value)
            return True

        if isinstance(cmd, ast.SampleRecv):
            incoming = state.chan.incoming(task.name)
            if not incoming:
                return False  # blocked until the partner sends
            mkind, payload = incoming.pop(0)
            if mkind != "val":
                raise CompilationError(
                    f"receive on {cmd.channel}: expected a sample value, got a {mkind} message"
                )
            info = self._emit_dist(em, cmd.dist, env)
            score = em.bind(self._fresh("s"), self._score_lane_code(info, payload))
            self._emit_accumulate(em, task.name, score, self.latent)
            task.cur = ("val", payload)
            return True

        if isinstance(cmd, ast.CondSend):
            pred = _compile_expr_vec(cmd.cond, env)
            pred_var = self._fresh("pr")
            em.ln(f'{pred_var} = _rt.as_bool({pred.code}, "branch predicate")')
            self._fork(
                state, em, depth, task.name, pred_var, cmd.then, cmd.orelse, env, comm=True
            )
            raise AssertionError("unreachable: fork always raises")

        if isinstance(cmd, ast.CondRecv):
            incoming = state.chan.incoming(task.name)
            if not incoming:
                return False
            mkind, selection = incoming.pop(0)
            if mkind != "dir":
                raise CompilationError(
                    f"receive on {cmd.channel}: expected a branch selection, got a {mkind} message"
                )
            task.cur = ("cmd", cmd.then if selection else cmd.orelse, env)
            return True

        if isinstance(cmd, ast.CondPure):
            pred = _compile_expr_vec(cmd.cond, env)
            if pred.is_const and isinstance(pred.value, bool):
                task.cur = ("cmd", cmd.then if pred.value else cmd.orelse, env)
                return True
            pred_var = self._fresh("pr")
            em.ln(f'{pred_var} = _rt.as_bool({pred.code}, "branch predicate")')
            # The interpreter yields a pure branch as an op only when its
            # predicate spans the particle axis.
            if pred.is_lane:
                em.ops += 1
            elif not pred.is_const:
                em.ops_dyn = f" + (not isinstance({pred_var}, bool))"
            self._fork(
                state, em, depth, task.name, pred_var, cmd.then, cmd.orelse, env, comm=False
            )
            raise AssertionError("unreachable: fork always raises")

        if isinstance(cmd, ast.Call):
            try:
                callee = task.program.procedure(cmd.proc)
            except KeyError as exc:
                raise CompilationError(f"call to unknown procedure {cmd.proc!r}") from exc
            if self.loops:
                # A repeated state with no fork since the segment began is a
                # loop no branch can leave; the interpreter runs it into the
                # operation budget.
                key = self._state_key(state, self._live_items(state))
                if key in self._calls:
                    raise CompilationError(
                        f"unconditional recursion through {cmd.proc!r} (no branch exits it)"
                    )
                self._calls.add(key)
            argument = _compile_expr_vec(cmd.arg, env)
            call_env = self._bind_call(em, callee, argument)
            folds = tuple(
                ch for ch in (callee.consumes, callee.provides) if ch is not None
            )
            task.cur = ("folds", folds, callee.body, call_env)
            return True

        if isinstance(cmd, ast.Observe):
            info = self._emit_dist(em, cmd.dist, env)
            if info.mode == "fast":
                # Observe scores arbitrary values; take the exact generic path.
                info = self._generic_dist(em, info.family, info.args)
            value = _compile_expr_vec(cmd.value, env)
            score = self._fresh("s")
            if info.mode == "const":
                em.ln(f"{score} = _rt.score_scalar({info.name}, {value.code}, n)")
            else:
                em.ln(f"{score} = _rt.score_dist({info.name}, {value.code}, n)")
            lw = "lw_m" if task.name == "model" else "lw_g"
            em.ln(f"{lw} += {score}")
            if task.name == "model":
                self._record_obs_score(em, state, score)
            task.cur = ("val", _Sym("None", frozenset({"const"})))
            return True

        raise CompilationError(f"cannot compile command node {cmd!r} for the compiled backend")

    def _bind_call(self, em: _Emitter, callee: ast.Procedure, argument: _Sym) -> Dict[str, _Sym]:
        params = callee.params
        if len(params) == 0:
            return {}
        if len(params) == 1:
            return {params[0]: self._materialize(em, argument, "ca", bound=True)}
        # As in interpret_command_vec: a tuple argument unpacks positionally.
        names = [self._fresh("ca") for _ in params]
        em.ln(
            f'{", ".join(names)} = _rt.bind_call("{callee.name}", {len(params)}, {argument.code})'
        )
        return {param: _Sym(name) for param, name in zip(params, names)}

    # -- op emission -----------------------------------------------------------

    def _emit_accumulate(self, em: _Emitter, task_name: str, score: str, channel: str) -> None:
        lw = "lw_m" if task_name == "model" else "lw_g"
        led = "led_m" if task_name == "model" else "led_g"
        em.ln(f"{lw} += {score}")
        em.ln(f'{self._ledger_guard}{led}.append(("{channel}", {score}))')

    def _emit_latent_send(
        self, task: _SymTask, state: _SchedState, cmd: ast.SampleSend,
        env: Mapping[str, _Sym], em: _Emitter,
    ) -> _Sym:
        info = self._emit_dist(em, cmd.dist, env)
        value = self._fresh("v")
        em.ln(f"{value} = {self._draw_code(info)}")
        value_sym = info.drawn(value)
        score = em.bind(self._fresh("s"), self._score_lane_code(info, value_sym))
        self._emit_accumulate(em, task.name, score, self.latent)
        provider_sent = task.name == state.chan.provider
        # Recorded symbolically, materialized at the leaf (or a loop's
        # flush): no runtime list traffic along the descent.
        state.rec_sym["lat"].append(("val", provider_sent, value, value_sym.is_lane))
        state.chan.outgoing(task.name).append(("val", value_sym))
        return value_sym

    def _emit_obs_send(
        self, task: _SymTask, state: _SchedState, cmd: ast.SampleSend,
        env: Mapping[str, _Sym], em: _Emitter,
    ) -> _Sym:
        info = self._emit_dist(em, cmd.dist, env)
        position = state.obs_pos
        state.obs_pos += 1
        value = self._fresh("v")
        score = self._fresh("s")
        em.ln("if obs is None:")
        em.indent += 1
        em.ln(f"{value} = {self._draw_code(info)}")
        em.ln(f"{score} = {self._score_lane_code(info, info.drawn(value))}")
        em.indent -= 1
        em.ln("else:")
        em.indent += 1
        em.ln(f'{value} = _rt.obs_value(obs, {position}, "send on {self.obs}")')
        em.ln(f"{score} = {self._score_at_code(info, _Sym(value))}")
        em.indent -= 1
        em.ln(f"lw_m += {score}")
        em.ln(f'if ledgers: led_m.append(("{self.obs}", {score}))')
        # The observed value is only provably a lane array in prior mode, so
        # it gathers through ``_rt.gat``; the score is an array either way.
        self._record_obs_score(em, state, score)
        state.rec_sym["obs"].append(("val", True, value, False))
        return _Sym(value, frozenset())

    def _record_obs_score(self, em: _Emitter, state: _SchedState, score: str) -> None:
        """Record a model-side observation score (materialized at the leaf)."""
        state.rec_sym["sc"].append(score)

    # -- forking at branch sites ----------------------------------------------

    def _live_items(self, state: _SchedState) -> List[Tuple[str, bool]]:
        # Each item is ``(name, lane)``; ``lane`` is sound ("definitely a
        # per-particle array"), which licenses a direct ``name[pos]`` gather.
        seen: Dict[str, bool] = {}

        def add_sym(sym: Optional[_Sym]) -> None:
            if sym is not None and _IDENT_RE.match(sym.code):
                seen.setdefault(sym.code, "lane" in sym.flags)

        def add_env(env: Mapping[str, _Sym]) -> None:
            for sym in env.values():
                add_sym(sym)

        for task in state.tasks.values():
            if task.cur is not None:
                if task.cur[0] == "val":
                    add_sym(task.cur[1])
                elif task.cur[0] == "cmd":
                    add_env(task.cur[2])
                elif task.cur[0] == "folds":
                    add_env(task.cur[3])
            for _tag, _var, _cmd, env in task.kont:
                add_env(env)
            add_sym(task.value)
        for queue in (state.chan.to_consumer, state.chan.to_provider):
            for mkind, payload in queue:
                if mkind == "val":
                    add_sym(payload)
        return list(seen.items())

    @staticmethod
    def _state_key(state: _SchedState, live: List[Tuple[str, bool]]) -> tuple:
        """The schedule state with each live name replaced by its index in ``live``.

        Two states with equal keys differ only in what the emitted code named
        their values, and the i-th live variable of one holds what the i-th
        of the other holds.  Commands count by identity; flags, literals and
        proven types count as written, so two states that differ in what
        they prove never join.
        """
        slot = {name: i for i, (name, _lane) in enumerate(live)}

        def sym(s: Optional[_Sym]):
            return None if s is None else (slot.get(s.code, s.code), s.flags, s.value, s.proven)

        def env(bindings: Mapping[str, _Sym]) -> tuple:
            return tuple((var, sym(s)) for var, s in bindings.items())

        tasks = []
        for task in state.tasks.values():
            cur = task.cur
            if cur is None:
                cur_key = None
            elif cur[0] == "val":
                cur_key = ("val", sym(cur[1]))
            elif cur[0] == "cmd":
                cur_key = ("cmd", id(cur[1]), env(cur[2]))
            else:
                cur_key = ("folds", cur[1], id(cur[2]), env(cur[3]))
            kont = tuple((var, id(second), env(e)) for _tag, var, second, e in task.kont)
            tasks.append((cur_key, kont, task.finished, sym(task.value)))
        queues = tuple(
            tuple((kind, sym(p) if kind == "val" else p) for kind, p in queue)
            for queue in (state.chan.to_consumer, state.chan.to_provider)
        )
        return (
            tuple(tasks), queues, state.chan.fold_waiting,
            tuple(sorted(state.chan.fold_passes)), state.obs_pos, state.order,
        )

    def _arm(
        self, state: _SchedState, live: List[Tuple[str, bool]], task_name: str,
        cmd: ast.Command, env: Dict[str, _Sym], comm: bool, selection: bool,
    ) -> Tuple[_SchedState, Optional[tuple]]:
        """One fork arm's state, plus its loop-closing key in a loop kernel.

        The arm holds exactly the values of ``state``, so ``live`` (the
        fork's live list, which the arm's segment unpacks) numbers them.
        """
        arm = state.clone()
        arm.order = (task_name,) + tuple(t for t in arm.order if t != task_name)
        arm.tasks[task_name].cur = ("cmd", cmd, env)
        arm.rec_sym["dir"].append(selection)
        if comm:
            arm.chan.outgoing(task_name).append(("dir", selection))
            arm.rec_sym["lat"].append(("dir", task_name == arm.chan.provider, selection))
        if not self.loops:
            return arm, None
        # The fork's identity fixes what the arm records first, which a
        # back-edge's target segment assumes.
        return arm, (self._state_key(arm, live), task_name, comm, selection)

    def _compile_arm(
        self, arm: _SchedState, key: Optional[tuple], seg_id: int, seg_em: _Emitter,
        live: List[Tuple[str, bool]], selection: bool, depth: int,
    ) -> None:
        """Schedule one arm into its segment, open to back-edges meanwhile."""
        self._path.append(selection)
        self._calls = set()
        if key is not None:
            self._open[key] = (seg_id, [n for n, _ in live])
        self._run_schedule(arm, seg_em, depth + 1)
        if key is not None:
            del self._open[key]
        self._path.pop()

    def _fork(
        self,
        state: _SchedState,
        em: _Emitter,
        depth: int,
        task_name: str,
        pred_var: str,
        then_cmd: ast.Command,
        orelse_cmd: ast.Command,
        env: Dict[str, _Sym],
        comm: bool,
    ) -> None:
        if depth >= _MAX_FORK_DEPTH:
            raise CompilationError(
                f"compiled kernel exceeds the branch-nesting budget ({_MAX_FORK_DEPTH})"
            )
        if self.loops:
            # Flush the path's symbolic logs into the runtime prefix, so
            # each arm starts from its own fork's direction alone and a
            # repeated schedule state can close into a back-edge.
            em.ln(f"pre = _rt.flush(pre, {self._logs_code(state)})")
            state.rec_sym = {log: [] for log in state.rec_sym}
        live = self._live_items(state)
        # Symbolically recorded payloads must survive to the leaves where
        # the message lists are materialized, so they ride in ``_live`` too.
        seen = {name for name, _lane in live}
        for log_key in ("lat", "obs"):
            for entry in state.rec_sym[log_key]:
                if entry[0] == "val" and entry[2] not in seen:
                    seen.add(entry[2])
                    live.append((entry[2], entry[3]))
        for score in state.rec_sym["sc"]:
            if score not in seen:
                seen.add(score)
                live.append((score, True))
        seg_of: Dict[bool, int] = {}
        for selection in (True, False):
            arm, key = self._arm(
                state, live, task_name, then_cmd if selection else orelse_cmd, env,
                comm, selection,
            )
            if key in self._open:
                # Back-edge: ``_live`` lists this state's values in the
                # order the matching arm's segment unpacks them.
                seg_of[selection] = self._open[key][0]
                continue
            seg_id, seg_em = self._new_segment()
            seg_of[selection] = seg_id
            if live:
                target = ", ".join(n for n, _ in live) + ("," if len(live) == 1 else "")
                seg_em.ln(f"{target} = _live")
            self._compile_arm(arm, key, seg_id, seg_em, live, selection, depth)
        self._emit_dispatch(em, pred_var, seg_of, live)
        raise _Forked()

    def _emit_dispatch(
        self, em: _Emitter, pred_var: str, seg_of: Dict[bool, int],
        live: List[Tuple[str, bool]],
    ) -> None:
        live_tuple = (
            "(" + ", ".join(n for n, _ in live)
            + ("," if len(live) == 1 else "") + ")"
        )
        self._emit_op_budget(em)
        sel = self._fresh("sl")
        em.ln(f"{sel} = _rt.uniform_or_none({pred_var})")
        em.ln(f"if {sel} is None:")
        em.indent += 1
        em.ln("_nsp += 1")
        em.ln(
            "if _nsp > _rt.DEFAULT_MAX_SPLITS: "
            "raise _rt.split_budget_error(_rt.DEFAULT_MAX_SPLITS)"
        )
        pos = self._fresh("ps")
        # Push the true arm first so the false arm pops first: the worklist
        # replays the interpretive splitter's false-first LIFO order, which
        # is what keeps the RNG stream identical to the interpreter's.
        em.ln(f"for _sb, _sg in ((True, {seg_of[True]}), (False, {seg_of[False]})):")
        em.indent += 1
        em.ln(f"{pos} = np.flatnonzero({pred_var}) if _sb else np.flatnonzero(~{pred_var})")
        # Proven-lane live variables gather with a direct fancy index; only
        # shape-unknown ones pay the ``_rt.gat`` dynamic dispatch.  The
        # symbolic logs need no gathering: their payload vars are in the
        # live set.  Only a loop kernel's flushed prefix is gathered.
        gathered_live = (
            "(" + ", ".join(
                f"{n}[{pos}]" if lane else f"_rt.gat({n}, {pos})" for n, lane in live
            )
            + ("," if len(live) == 1 else "") + ")"
        )
        em.ln(
            f"_stack.append((_sg, idx[{pos}], lw_m[{pos}], lw_g[{pos}], "
            f"_rt.gat_led(led_m, {pos}), _rt.gat_led(led_g, {pos}), "
            f"_rt.gat_pre(pre, {pos}), ops, {gathered_live}))"
        )
        em.indent -= 1
        em.ln("break")
        em.indent -= 1
        em.ln("else:")
        em.indent += 1
        # A uniform selection stays in this frame: the live locals are
        # already bound, so dispatch is just a segment-id assignment — no
        # worklist round-trip, no state gathering.
        em.ln(f"_live = {live_tuple}")
        em.ln(f"_seg = {seg_of[True]} if {sel} else {seg_of[False]}")
        em.ln("continue")
        em.indent -= 1

    # -- assembly --------------------------------------------------------------

    def _assemble(self) -> List[str]:
        lines = ["def kernel(rng, n, obs, model_args, guide_args, ledgers=True):"]
        lines.append("    leaves = []")
        for line in self.preamble:
            lines.append("    " + line)
        lines.append("    _nsp = 0")
        lines.append(
            "    _stack = [(0, np.arange(n), np.zeros(n), np.zeros(n), [], [], None, 0, ())]"
        )
        lines.append("    while _stack:")
        lines.append("        _seg, idx, lw_m, lw_g, led_m, led_g, pre, ops, _live = _stack.pop()")
        lines.append("        n = idx.shape[0]")
        lines.append("        while True:")
        lines.extend(self._segment_chain())
        lines.append("    return leaves")
        lines.append("")
        return lines

    def _segment_chain(self) -> List[str]:
        lines: List[str] = []
        body_pad = self._chain_pad + "    "
        for seg_id, body in enumerate(self.segments):
            keyword = "if" if seg_id == 0 else "elif"
            lines.append(f"{self._chain_pad}{keyword} _seg == {seg_id}:")
            lines.extend(body if body else [body_pad + self._empty_body])
        return lines


class _RescoreCompiler(_KernelCompiler):
    """The rescoring pass: replay one recorded path, no worklist.

    Emits ``rescore(_dirs, n, obs, rec_lat, rec_obs, model_args,
    guide_args)``: the same symbolic schedule as the forward pass, but every
    sample value is consumed from the recorded log instead of drawn, and
    every fork follows the next turn of ``_dirs`` (the leaf's stamp).  The
    latent-log position and the fork index advance at runtime (``_lp``,
    ``_dp``); each fork checks its arm in its own dispatch, and a loop
    kernel's back-edge renames the live values to its target's names.
    Communicated branch selections apply the interpretive scheduler's exact
    ``-inf`` mismatch masking; pure branches verify the re-evaluated
    predicate still selects the stamped arm and raise
    :class:`~repro.compiler.batched_runtime.RescoreDivert` otherwise, as a
    stamp that runs out does.  Segments share one function frame, so locals
    simply persist from parent segment to arm segment — no state tuples,
    no worklist.
    """

    _seg_indent = 3
    _chain_pad = "        "
    _empty_body = "pass"
    #: Rescoring always feeds the per-site ledgers (Rao-Blackwellized SVI
    #: is the consumer); there is no ``ledgers`` flag in this pass.
    _ledger_guard = ""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Statically tracked consumption position in the latent log, as
        #: an offset from ``_lp``.
        self._lat_pos = 0
        self.leaf_count = 0

    # -- emission overrides ----------------------------------------------------

    def _lat_at(self) -> str:
        """The current latent-log position, relative to ``_lp``."""
        return f"_lp + {self._lat_pos}" if self._lat_pos else "_lp"

    def _emit_latent_send(self, task, state, cmd, env, em):
        info = self._emit_dist(em, cmd.dist, env)
        value = self._fresh("v")
        em.ln(f'{value} = _rt.rep_val(rec_lat, {self._lat_at()}, "{self.latent}")')
        self._lat_pos += 1
        value_sym = info.drawn(value)
        score = em.bind(self._fresh("s"), self._score_lane_code(info, value_sym))
        self._emit_accumulate(em, task.name, score, self.latent)
        state.chan.outgoing(task.name).append(("val", value_sym))
        return value_sym

    def _emit_obs_send(self, task, state, cmd, env, em):
        info = self._emit_dist(em, cmd.dist, env)
        position = state.obs_pos
        state.obs_pos += 1
        value = self._fresh("v")
        score = self._fresh("s")
        em.ln("if obs is None:")
        em.indent += 1
        em.ln(f'{value} = _rt.rep_val(rec_obs, {position}, "{self.obs}")')
        em.ln(f"{score} = {self._score_lane_code(info, info.drawn(value))}")
        em.indent -= 1
        em.ln("else:")
        em.indent += 1
        em.ln(f'{value} = _rt.obs_value(obs, {position}, "send on {self.obs}")')
        em.ln(f"{score} = {self._score_at_code(info, _Sym(value))}")
        em.indent -= 1
        em.ln(f"lw_m += {score}")
        em.ln(f'led_m.append(("{self.obs}", {score}))')
        self._record_obs_score(em, state, score)
        return _Sym(value, frozenset())

    def _record_obs_score(self, em, state, score) -> None:
        em.ln(f"obs_sc.append({score})")

    def _emit_obs_fold(self, em, state, position) -> None:
        em.ln("if obs is not None:")
        em.indent += 1
        em.ln(f'_rt.obs_fold(obs, {position}, "call marker on {self.obs}")')
        em.indent -= 1
        em.ln("else:")
        em.indent += 1
        em.ln(f'_rt.rep_fold(rec_obs, {position}, "{self.obs}")')
        em.indent -= 1

    def _emit_latent_fold(self, em, state) -> None:
        em.ln(f'_rt.rep_fold(rec_lat, {self._lat_at()}, "{self.latent}")')
        self._lat_pos += 1

    def _emit_leaf(self, em: _Emitter, state: _SchedState) -> None:
        self.leaf_count += 1
        em.ln(f'_rt.rep_end(rec_lat, {self._lat_at()}, "{self.latent}")')
        if self.has_obs:
            em.ln("if obs is None:")
            em.indent += 1
            em.ln(f'_rt.rep_end(rec_obs, {state.obs_pos}, "{self.obs}")')
            em.indent -= 1
        recorded = f'{{"{self.latent}": rec_lat'
        if self.has_obs:
            recorded += f', "{self.obs}": rec_obs'
        recorded += "}"
        model_value = state.tasks["model"].value.code
        guide_value = state.tasks["guide"].value.code
        em.ln(
            f"return _rt.rescore_result(lw_m, lw_g, {model_value}, {guide_value}, "
            f"obs_sc, led_m, led_g, {recorded})"
        )

    # -- forking: follow the stamped path --------------------------------------

    def _emit_turn(
        self, em: _Emitter, pred_var: str, seg_of: Dict[bool, int],
        live: List[Tuple[str, bool]], back: Dict[bool, List[str]],
        comm: bool, task_name: str,
    ) -> None:
        """The dispatch: follow the stamp's next turn at runtime.

        The log and the path advance at runtime, and a back-edge renames this
        state's values to the target's names.  The arm check runs here, not
        in the arm segment: a back-edge enters its target from a later fork,
        and only this fork's ``pred_var`` holds that unfolding's predicate.
        Communicated selections get the interpreter's ``-inf`` mismatch mask.
        """
        if self._lat_pos:
            em.ln(f"_lp += {self._lat_pos}")
        em.ln("_dp += 1")
        names = [n for n, _ in live]
        lw = "lw_m" if task_name == "model" else "lw_g"
        for selection in (True, False):
            em.ln("if _rt.rep_turn(_dirs, _dp - 1):" if selection else "else:")
            em.indent += 1
            if comm:
                em.ln(f'_rt.rep_dir(rec_lat, _lp, "{self.latent}", {selection})')
                mismatch = self._fresh("mm")
                em.ln(f"{mismatch} = np.not_equal({pred_var}, {selection})")
                em.ln(f"if np.any({mismatch}): {lw} = np.where({mismatch}, -np.inf, {lw})")
            else:
                em.ln(f"_rt.rep_pure({pred_var}, {selection})")
            target = back.get(selection, names)
            if target != names:
                em.ln(f"{', '.join(target)} = {', '.join(names)}")
            em.ln(f"_seg = {seg_of[selection]}")
            em.indent -= 1

    def _fork(self, state, em, depth, task_name, pred_var, then_cmd, orelse_cmd,
              env, comm) -> None:
        if depth >= _MAX_FORK_DEPTH:
            raise CompilationError(
                f"compiled kernel exceeds the branch-nesting budget ({_MAX_FORK_DEPTH})"
            )
        live = self._live_items(state)
        seg_of: Dict[bool, int] = {}
        back: Dict[bool, List[str]] = {}
        arms = []
        for selection in (True, False):
            arm, key = self._arm(
                state, live, task_name, then_cmd if selection else orelse_cmd, env,
                comm, selection,
            )
            if key in self._open:
                seg_of[selection], back[selection] = self._open[key]
                continue
            seg_id, seg_em = self._new_segment()
            seg_of[selection] = seg_id
            arms.append((selection, arm, key, seg_id, seg_em))
        self._emit_turn(em, pred_var, seg_of, live, back, comm, task_name)
        for selection, arm, key, seg_id, seg_em in arms:
            # One frame, one path: locals persist into the arm, so there is
            # no live-variable tuple to unpack here.  The arm's log positions
            # count from the ``_lp`` the dispatch advanced, past the
            # selection it checked.
            self._lat_pos = 1 if comm else 0
            self._compile_arm(arm, key, seg_id, seg_em, live, selection, depth)
        raise _Forked()

    # -- assembly --------------------------------------------------------------

    def _assemble(self) -> List[str]:
        lines = ["def rescore(_dirs, n, obs, rec_lat, rec_obs, model_args, guide_args):"]
        for line in self.preamble:
            lines.append("    " + line)
        lines.append("    lw_m = np.zeros(n)")
        lines.append("    lw_g = np.zeros(n)")
        lines.append("    obs_sc = []")
        lines.append("    led_m = []")
        lines.append("    led_g = []")
        lines.append("    _lp = _dp = 0")
        lines.append("    _seg = 0")
        lines.append("    while True:")
        lines.extend(self._segment_chain())
        lines.append("")
        return lines


# ---------------------------------------------------------------------------
# Compiled backend: public API
# ---------------------------------------------------------------------------


def _exec_kernel(source: str, module_name: str) -> types.ModuleType:
    """Execute generated kernel source as a fresh module."""
    module = types.ModuleType(module_name)
    module.__dict__["__name__"] = module_name
    try:
        exec(compile(source, f"<{module_name}>", "exec"), module.__dict__)
    except SyntaxError as exc:  # pragma: no cover - indicates a codegen bug
        raise CompilationError(f"generated kernel does not parse: {exc}") from exc
    return module


@dataclass
class CompiledKernel:
    """A loaded compiled kernel for one model/guide pair.

    ``entry`` is the generated forward pass ``kernel(rng, n, obs,
    model_args, guide_args, ledgers)``; it returns the control-flow-group
    leaves that :class:`repro.engine.vectorize.VectorRunResult` assembles,
    each stamped (``path_id``) with its tuple of fork directions.
    ``path_dirs`` lists the compile-time paths, one per emitted leaf; a loop
    kernel's runtime paths unfold its back-edges and run deeper.  The
    rescoring pass is generated and loaded on the first :meth:`rescore` call
    (``rescore_entry`` stays ``None`` until then): IS, SMC and fixed-guide
    SVI never rescore, so they never pay for it.
    """

    source: str
    entry: object
    path_dirs: Tuple[Tuple[bool, ...], ...]
    model_program: ast.Program
    guide_program: ast.Program
    model_entry: str
    guide_entry: str
    latent_channel: str
    obs_channel: str
    rescore_entry: Optional[object] = None

    def run(self, rng, num_particles, obs_trace, model_args, guide_args, ledgers=True):
        """Execute the forward pass, returning path-stamped leaves."""
        # One errstate context for the whole run: the in-bounds score
        # helpers rely on overflow warnings being suppressed here instead
        # of entering a context per call (hot at fine-grained groups).
        with np.errstate(over="ignore"):
            return self.entry(rng, num_particles, obs_trace, model_args, guide_args, ledgers)

    def rescore(self, leaf, obs_trace, model_args, guide_args):
        """Replay ``leaf``'s recorded path under this kernel's score code.

        Raises :class:`~repro.compiler.batched_runtime.RescoreDivert` when
        the leaf carries no valid path stamp (it was produced by the
        interpreter) — callers fall back to the interpretive
        ``rescore_group`` then.
        """
        from repro.compiler.batched_runtime import RescoreDivert

        dirs = leaf.path_id
        if not isinstance(dirs, tuple):
            raise RescoreDivert("leaf carries no compiled path stamp")
        if self.rescore_entry is None:
            # Racing threads each compile the same function; either may win.
            self.rescore_entry = self._load_rescore()
        rec_lat = leaf.recorded.get(self.latent_channel, [])
        rec_obs = leaf.recorded.get(self.obs_channel, [])
        with np.errstate(over="ignore"):
            return self.rescore_entry(
                dirs, len(leaf.indices), obs_trace,
                rec_lat, rec_obs, model_args, guide_args,
            )

    def _load_rescore(self):
        compiler = _RescoreCompiler(
            self.model_program, self.guide_program, self.model_entry, self.guide_entry,
            latent_channel=self.latent_channel, obs_channel=self.obs_channel,
        )
        source = _KERNEL_HEADER + "\n" + compiler.compile()
        if compiler.leaf_count != len(self.path_dirs):  # pragma: no cover - invariant
            raise CompilationError(
                "internal compiler error: forward and rescore passes enumerated "
                f"different path trees ({len(self.path_dirs)} vs {compiler.leaf_count})"
            )
        return _exec_kernel(source, "repro_rescore").rescore

    @property
    def lines_of_code(self) -> int:
        """Non-blank, non-comment generated lines of the forward pass."""
        count = 0
        for line in self.source.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
        return count


def compile_kernel_pair(
    model_program: ast.Program,
    guide_program: ast.Program,
    model_entry: str,
    guide_entry: str,
    latent_channel: str = "latent",
    obs_channel: str = "obs",
) -> Tuple[str, Tuple[Tuple[bool, ...], ...]]:
    """Compile a pair's forward pass into kernel source plus its path table.

    Raises :class:`CompilationError` when the pair uses features outside the
    compiled fragment (see :func:`compiled_unsupported_reason`); callers
    fall back to the interpretive vectorizer then.
    """
    source, compiler = _compile_forward(
        model_program, guide_program, model_entry, guide_entry, latent_channel, obs_channel
    )
    return source, tuple(compiler.path_dirs)


def _compile_forward(
    model_program: ast.Program, guide_program: ast.Program, model_entry: str,
    guide_entry: str, latent_channel: str, obs_channel: str,
) -> Tuple[str, _KernelCompiler]:
    """The forward-pass source, plus the compiler that emitted it."""
    reason = compiled_unsupported_reason(
        model_program, guide_program, model_entry, guide_entry,
        latent_channel=latent_channel, obs_channel=obs_channel,
    )
    if reason is not None:
        raise CompilationError(f"compiled backend does not support this pair: {reason}")
    compiler = _KernelCompiler(
        model_program, guide_program, model_entry, guide_entry,
        latent_channel=latent_channel, obs_channel=obs_channel,
    )
    return _KERNEL_HEADER + "\n" + compiler.compile(), compiler


def load_kernel(
    model_program: ast.Program,
    guide_program: ast.Program,
    model_entry: str,
    guide_entry: str,
    latent_channel: str = "latent",
    obs_channel: str = "obs",
) -> CompiledKernel:
    """Compile and load a pair's kernel (the rescore pass loads on first use)."""
    source, compiler = _compile_forward(
        model_program, guide_program, model_entry, guide_entry, latent_channel, obs_channel
    )
    return CompiledKernel(
        source=source,
        entry=_exec_kernel(source, "repro_kernel").kernel,
        path_dirs=tuple(compiler.path_dirs),
        model_program=model_program,
        guide_program=guide_program,
        model_entry=model_entry,
        guide_entry=guide_entry,
        latent_channel=latent_channel,
        obs_channel=obs_channel,
    )

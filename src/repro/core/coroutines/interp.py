"""Generator-based interpretation of commands.

:func:`interpret_command` turns a command into a Python generator that

* yields :mod:`channel operations <repro.core.coroutines.ops>` whenever the
  command communicates (sample passing, branch selection, call markers,
  observation scoring), and
* receives the *resolved* value for each operation from the scheduler via
  ``generator.send(value)``.

The generator's return value (``StopIteration.value``) is the command's
result value.  Pure computation (expressions, pure conditionals, let
bindings) happens inline without yielding.
"""

from __future__ import annotations

from typing import Dict, Generator, Sequence

from repro.core import ast
from repro.core.coroutines import ops
from repro.core.semantics.values import _as_bool, eval_expr
from repro.dists.base import Distribution
from repro.errors import EvaluationError

#: The generator type produced by the interpreter.
CommandGenerator = Generator[ops.Op, object, object]


def _eval_dist(env: Dict[str, object], expr: ast.Expr) -> Distribution:
    value = eval_expr(env, expr)
    if not isinstance(value, Distribution):
        raise EvaluationError(f"sample command expects a distribution, got {value!r}")
    return value


def interpret_command(
    program: ast.Program,
    cmd: ast.Command,
    env: Dict[str, object],
) -> CommandGenerator:
    """Interpret ``cmd`` as a coroutine under environment ``env``."""
    if isinstance(cmd, ast.Ret):
        return eval_expr(env, cmd.expr)

    if isinstance(cmd, ast.Bnd):
        first = yield from interpret_command(program, cmd.first, env)
        inner = dict(env)
        inner[cmd.var] = first
        result = yield from interpret_command(program, cmd.second, inner)
        return result

    if isinstance(cmd, ast.SampleRecv):
        dist = _eval_dist(env, cmd.dist)
        value = yield ops.OpRecvSample(cmd.channel, dist)
        return value

    if isinstance(cmd, ast.SampleSend):
        dist = _eval_dist(env, cmd.dist)
        value = yield ops.OpSendSample(cmd.channel, dist)
        return value

    if isinstance(cmd, ast.CondSend):
        predicate = _as_bool(eval_expr(env, cmd.cond), "branch predicate")
        selection = yield ops.OpSendBranch(cmd.channel, predicate)
        branch = cmd.then if _as_bool(selection, "resolved selection") else cmd.orelse
        result = yield from interpret_command(program, branch, env)
        return result

    if isinstance(cmd, ast.CondRecv):
        selection = yield ops.OpRecvBranch(cmd.channel)
        branch = cmd.then if _as_bool(selection, "received selection") else cmd.orelse
        result = yield from interpret_command(program, branch, env)
        return result

    if isinstance(cmd, ast.CondPure):
        predicate = _as_bool(eval_expr(env, cmd.cond), "branch predicate")
        branch = cmd.then if predicate else cmd.orelse
        result = yield from interpret_command(program, branch, env)
        return result

    if isinstance(cmd, ast.Call):
        try:
            callee = program.procedure(cmd.proc)
        except KeyError as exc:
            raise EvaluationError(f"call to unknown procedure {cmd.proc!r}") from exc
        argument = eval_expr(env, cmd.arg)
        call_env = _bind_arguments(callee, argument)
        for channel in (callee.consumes, callee.provides):
            if channel is not None:
                yield ops.OpFold(channel)
        result = yield from interpret_command(program, callee.body, call_env)
        return result

    if isinstance(cmd, ast.Observe):
        dist = _eval_dist(env, cmd.dist)
        value = eval_expr(env, cmd.value)
        yield ops.OpObserve("", dist, value)
        return None

    raise EvaluationError(f"unknown command node {cmd!r}")


def interpret_procedure(
    program: ast.Program,
    entry: str,
    args: Sequence[object] = (),
) -> CommandGenerator:
    """Interpret the body of an entry procedure as a coroutine.

    As in the big-step semantics helpers, the entry procedure's own channels
    do *not* begin with fold markers; only nested calls emit them.
    """
    procedure = program.procedure(entry)
    if len(args) != len(procedure.params):
        raise EvaluationError(
            f"{entry} expects {len(procedure.params)} arguments, got {len(args)}"
        )
    env = dict(zip(procedure.params, args))
    return interpret_command(program, procedure.body, env)


def _bind_arguments(procedure: ast.Procedure, argument: object) -> Dict[str, object]:
    params = procedure.params
    if len(params) == 0:
        return {}
    if len(params) == 1:
        return {params[0]: argument}
    if not isinstance(argument, tuple) or len(argument) != len(params):
        raise EvaluationError(
            f"{procedure.name} expects {len(params)} arguments, got {argument!r}"
        )
    return dict(zip(params, argument))

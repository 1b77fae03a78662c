"""Concrete interpretation: executable SDTL semantics.

Values are Python ints and bools plus object references, curried function
pointers and the unusable void-result marker.  States carry an environment,
a numbered object memory, the current receiver, return/exception slots and
a deterministic I/O model (finite input queue, append-only output log).
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from typing import Union

from . import kernel
from .kernel import VOID, VOID_VAL, EvalError, FrozenMap
from .syntax import Program


@dataclass(frozen=True)
class ObjRef:
    ref: int

    def __repr__(self):
        return f"obj({self.ref})"


@dataclass(frozen=True, eq=False)
class FunPtr(kernel.Record):
    sid: int
    curried: tuple = ()

    def __repr__(self):
        if not self.curried:
            return f"fn({self.sid})"
        return f"fn({self.sid}, {list(self.curried)!r})"


CValue = Union[int, bool, ObjRef, FunPtr]  # or VOID_VAL


@dataclass(frozen=True, eq=False)
class IOState(kernel.Record):
    inputs: tuple = ()
    outputs: tuple = ()


@dataclass(frozen=True, eq=False)
class CState(kernel.Record):
    env: FrozenMap
    obj_mem: FrozenMap  # ref -> FrozenMap of members
    this: int
    ret: object
    ex: object
    io: IOState


def initial_state(inputs=()) -> CState:
    return CState(
        env=FrozenMap(),
        obj_mem=FrozenMap({0: FrozenMap()}),
        this=0,
        ret=VOID,
        ex=VOID,
        io=IOState(tuple(inputs), ()),
    )


def _category(value) -> str:
    if value is VOID_VAL:
        return "void"
    if type(value) is bool:
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, ObjRef):
        return "object"
    if isinstance(value, FunPtr):
        return "function"
    raise AssertionError(f"not a concrete value: {value!r}")


def _check_not_void(value):
    if value is VOID_VAL:
        raise EvalError("used void function result")


class ConcreteInterpretation(kernel.Interpretation):
    """Primitive operations of the executable semantics.

    Run-time errors raise :class:`EvalError`; :func:`run_program` tags them
    with the id of the node whose step raised them.
    """

    obj_ref_class = ObjRef
    fun_ptr_class = FunPtr

    def __init__(self, program, inputs=(), trace=None):
        super().__init__(program, trace)
        self._inputs = tuple(inputs)

    def initial_state(self) -> CState:
        return initial_state(self._inputs)

    def cond(self, value):
        if value is True or value is False:
            return (value,)
        _check_not_void(value)
        raise EvalError(f"condition not boolean (got {_category(value)})")

    def val(self, state, name):
        try:
            return state.env[name]
        except KeyError:
            raise EvalError(f"undefined variable {name!r}") from None

    def conval(self, constant):
        return constant

    def getinput(self, state):
        io = state.io
        if not io.inputs:
            raise EvalError("input exhausted")
        rest = IOState(io.inputs[1:], io.outputs)
        return {(kernel.replace(state, io=rest), io.inputs[0])}

    def dooutput(self, state, value):
        _check_not_void(value)
        if type(value) is bool:
            emitted = int(value)
        elif isinstance(value, int):
            emitted = value
        else:
            raise EvalError(f"unprintable value ({_category(value)})")
        io = state.io
        return {kernel.replace(state, io=IOState(io.inputs, io.outputs + (emitted,)))}

    def bin(self, op, left, right):
        if left is VOID_VAL or right is VOID_VAL:
            raise EvalError("used void function result")
        if op == "==":
            if _category(left) != _category(right):
                raise EvalError(
                    f"cannot compare {_category(left)} and {_category(right)}"
                )
            return left == right
        if type(left) is bool or not isinstance(left, int) or \
                type(right) is bool or not isinstance(right, int):
            raise EvalError(
                f"operator {op!r} needs integers "
                f"(got {_category(left)} and {_category(right)})"
            )
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvalError("division by zero")
            # truncate toward zero
            quotient = abs(left) // abs(right)
            return -quotient if (left < 0) != (right < 0) else quotient
        if op == ">":
            return left > right
        if op == "<":
            return left < right
        raise AssertionError(f"unknown operator {op!r}")

    def apply(self, state, fun_value, args, this_value, eid):
        _check_not_void(fun_value)
        if not isinstance(fun_value, FunPtr):
            raise EvalError(
                f"calling a non-function ({_category(fun_value)})"
            )
        combined = fun_value.curried + tuple(args)
        arity = self.program.arity(fun_value.sid)
        if len(combined) == arity:
            return kernel.call(self, state, fun_value.sid, combined, this_value)
        if len(combined) < arity:
            return {(state, FunPtr(fun_value.sid, combined))}
        raise EvalError(
            f"too many arguments ({len(combined)} for arity {arity})"
        )

    def _members(self, state, ref):
        _check_not_void(ref)
        if not isinstance(ref, ObjRef):
            raise EvalError(f"member access on a non-object ({_category(ref)})")
        return state.obj_mem[ref.ref]

    def get(self, state, ref, member):
        members = self._members(state, ref)
        try:
            return members[member]
        except KeyError:
            raise EvalError(f"undefined member {member!r}") from None

    def set(self, state, ref, member, value):
        members = self._members(state, ref)
        obj_mem = state.obj_mem.set(ref.ref, members.set(member, value))
        return {kernel.replace(state, obj_mem=obj_mem)}

    def newobj(self, state, eid):
        ref = len(state.obj_mem)
        obj_mem = state.obj_mem.set(ref, FrozenMap())
        return {(kernel.replace(state, obj_mem=obj_mem), ObjRef(ref))}


@dataclass(frozen=True)
class RunResult:
    final_states: tuple
    outputs: tuple

    @property
    def final_state(self) -> CState:
        return self.final_states[0]


@contextlib.contextmanager
def recursion_headroom():
    """Interpreted calls, and hashing or comparing values that nest, consume
    host stack; give them room, 10,000 frames, and surface exhaustion as a
    run-time error."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, 10_000))
    try:
        yield
    except RecursionError:
        raise EvalError(
            f"host recursion limit exceeded ({sys.getrecursionlimit():,} frames): "
            "call or value nesting too deep"
        ) from None
    finally:
        sys.setrecursionlimit(previous)


def run_program(program: Program, inputs=(), trace=None) -> RunResult:
    """Run a program on a finite input queue.

    The concrete semantics is deterministic: there is exactly one final
    state, whose output log is returned alongside it.  A run that takes more
    than ``Interpretation.max_loop_iterations`` loop iterations, over all its
    loops, stops with a run-time error that names the budget.
    """
    interp = ConcreteInterpretation(program, inputs, trace)
    with recursion_headroom():
        try:
            outcome = kernel.stm_meaning(program.root)(interp, interp.initial_state())
        except EvalError as err:
            # the step that raised was the last to set the current node
            if err.node_id is None:
                err.node_id = interp.current_node
            raise
    finals = tuple(state for state, _ in outcome)
    assert len(finals) == 1, "internal error: concrete run must be deterministic"
    return RunResult(finals, finals[0].io.outputs)


# --- Rendering ---------------------------------------------------------------


def value_to_json(value):
    if value is VOID_VAL:
        return "void"
    if type(value) is bool or isinstance(value, int):
        return value
    if isinstance(value, ObjRef):
        return {"obj": value.ref}
    if isinstance(value, FunPtr):
        return {"fun": [value.sid, [value_to_json(v) for v in value.curried]]}
    raise AssertionError(f"not a concrete value: {value!r}")


def _slot_to_json(slot):
    return "void" if slot is VOID else value_to_json(slot)


def state_to_json(state: CState) -> dict:
    return {
        "env": {name: value_to_json(v) for name, v in sorted(state.env.items())},
        "objmem": {
            str(ref): {name: value_to_json(v) for name, v in sorted(members.items())}
            for ref, members in sorted(state.obj_mem.items())
        },
        "this": state.this,
        "ret": _slot_to_json(state.ret),
        "ex": _slot_to_json(state.ex),
        "outputs": list(state.io.outputs),
    }


def trace_line(node, state: CState) -> str:
    env = ", ".join(f"{name}: {value!r}" for name, value in sorted(state.env.items()))
    return (
        f"sid={node.sid} env={{{env}}} "
        f"ex={_slot_to_json(state.ex)} ret={_slot_to_json(state.ret)}"
    )

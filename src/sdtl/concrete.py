"""Concrete interpretation: executable SDTL semantics.

Values are Python ints and bools plus object references, curried function
pointers and the unusable void-result marker.  States carry an environment,
a numbered object memory, the current receiver, return/exception slots and
a deterministic I/O model (finite input queue, append-only output log).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import kernel
from .kernel import VOID_VAL, EvalError, FrozenMap, recursion_headroom
from .syntax import Program


@dataclass(frozen=True)
class ObjRef:
    ref: int

    def __repr__(self):
        return f"obj({self.ref})"


@dataclass(frozen=True)
class FunPtr:
    sid: int
    curried: tuple = ()

    def __repr__(self):
        if not self.curried:
            return f"fn({self.sid})"
        return f"fn({self.sid}, {list(self.curried)!r})"


CValue = Union[int, bool, ObjRef, FunPtr]  # or VOID_VAL


@dataclass(frozen=True, eq=False)
class CState(kernel.State):  # obj_mem is keyed by allocation order
    inputs: tuple = ()  # the input queue, read from the front
    outputs: tuple = ()  # the output log


def initial_state(inputs=()) -> CState:
    return CState(inputs=tuple(inputs))


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

    def __init__(self, program, trace=None):
        super().__init__(program, trace)
        self.sites = {0: 0}  # object key -> allocation site, for this run

    def cond(self, value):
        if value is True or value is False:
            return (value,)
        _check_not_void(value)
        raise EvalError(f"condition not boolean (got {_category(value)})")

    def obj_key(self, ref):
        _check_not_void(ref)
        if not isinstance(ref, ObjRef):
            raise EvalError(f"member access on a non-object ({_category(ref)})")
        return ref.ref

    def fun_parts(self, state, fun):
        _check_not_void(fun)
        if not isinstance(fun, FunPtr):
            raise EvalError(f"calling a non-function ({_category(fun)})")
        return fun.sid, fun.curried

    def curry(self, state, fun, args, arity, eid):
        if len(args) > arity:
            raise EvalError(f"too many arguments ({len(args)} for arity {arity})")
        return ((state, FunPtr(fun.sid, args)),)

    def undefined(self, kind, name):
        raise EvalError(f"undefined {kind} {name!r}") from None

    def conval(self, constant):
        return constant

    def getinput(self, state):
        if not state.inputs:
            raise EvalError("input exhausted")
        return kernel.replace(state, inputs=state.inputs[1:]), state.inputs[0]

    def dooutput(self, state, value):
        _check_not_void(value)
        if type(value) is bool:
            emitted = int(value)
        elif isinstance(value, int):
            emitted = value
        else:
            raise EvalError(f"unprintable value ({_category(value)})")
        return kernel.replace(state, outputs=state.outputs + (emitted,))

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

    def newobj(self, state, eid):
        ref = len(state.obj_mem)
        obj_mem = state.obj_mem.set(ref, FrozenMap())
        self.sites[ref] = eid
        return kernel.replace(state, obj_mem=obj_mem), ObjRef(ref)


@dataclass(frozen=True)
class RunResult:
    final_state: CState
    outputs: tuple
    # object key -> allocation site: 0 for the global object, else the eid of
    # the `new` that made it; keys are never reused within a run
    sites: dict


def run_program(program: Program, inputs=(), trace=None) -> RunResult:
    """Run a program on a finite input queue.

    The concrete semantics is deterministic: there is exactly one final
    state, whose output log is returned alongside it, with the allocation
    site of every object the run made (``RunResult.sites``).  A run that
    takes more than ``Interpretation.max_loop_iterations`` loop iterations,
    over all its loops, stops with a run-time error that names the budget.
    """
    interp = ConcreteInterpretation(program, trace)
    with recursion_headroom():
        try:
            outcome = kernel.stm_meaning(program.root)(interp, initial_state(inputs))
        except EvalError as err:
            # the step that raised was the last to set the current node
            if err.node_id is None:
                err.node_id = interp.current_node
            raise
    assert len(outcome) == 1, "internal error: concrete run must be deterministic"
    ((final, _),) = outcome
    return RunResult(final, final.outputs, interp.sites)


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


def state_to_json(state: CState) -> dict:
    return kernel.state_to_json(state, value_to_json, outputs=list(state.outputs))


def trace_line(sid, state: CState) -> str:
    env = ", ".join(f"{name}: {value!r}" for name, value in sorted(state.env.items()))
    ex = kernel.slot_to_json(state.ex, value_to_json)
    ret = kernel.slot_to_json(state.ret, value_to_json)
    return f"sid={sid} env={{{env}}} ex={ex} ret={ret}"

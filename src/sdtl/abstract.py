"""Abstract interpretation: type analysis over finite domains.

Constants are approximated by their types (Num/Bool), objects by their
allocation site, and curried function pointers by the call-site expression
that produced them.  Branches are explored non-deterministically.  Loops
and (possibly recursive, side-effecting) calls are both fixed points of
their own unfolding, found by one top-down engine over a table of summaries
keyed by (node id, entry state); summaries accumulate monotonically over a
finite state space.  Impossible operations never abort the analysis; they
kill the offending branch and log a diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

from . import kernel
from .kernel import VOID, VOID_VAL, DeadBranch, FrozenMap
from .syntax import Program


class _Atom:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


NUM = _Atom("Num")
BOOL = _Atom("Bool")


@dataclass(frozen=True)
class AObjRef:
    site: int  # 0 (global object) or the eid of the `new` expression

    def __repr__(self):
        return f"obj@{self.site}"


@dataclass(frozen=True)
class AFunPtr:
    sid: int
    count: int = 0  # number of curried arguments
    anchor: int = 0  # eid of the partial-application site, 0 if none

    def __repr__(self):
        return f"fn({self.sid},{self.count},{self.anchor})"


AVal = Union[_Atom, AObjRef, AFunPtr]  # or VOID_VAL


@dataclass(frozen=True, eq=False)
class AState(kernel.Record):
    env: FrozenMap
    obj_mem: FrozenMap  # site -> FrozenMap of members
    this: int
    curried: FrozenMap  # (sid, count, anchor) -> frozenset of value tuples
    ret: object
    ex: object


def initial_state() -> AState:
    return AState(
        env=FrozenMap(),
        obj_mem=FrozenMap({0: FrozenMap()}),
        this=0,
        curried=FrozenMap(),
        ret=VOID,
        ex=VOID,
    )


@dataclass(frozen=True, order=True)
class Diagnostic:
    node: int
    message: str


class AnalysisLimitError(Exception):
    """A fixed-point engine exceeded its iteration cap (should be
    unreachable: the abstract state space is finite)."""


def _category(value) -> str:
    if value is VOID_VAL:
        return "void"
    if value is NUM:
        return "number"
    if value is BOOL:
        return "boolean"
    if isinstance(value, AObjRef):
        return "object"
    if isinstance(value, AFunPtr):
        return "function"
    raise AssertionError(f"not an abstract value: {value!r}")


class AbstractInterpretation(kernel.Interpretation):
    """Primitive operations of the type analysis.

    A single analysis run owns its summary tables and is single-threaded;
    distinct runs share nothing.
    """

    obj_ref_class = AObjRef
    fun_ptr_class = AFunPtr
    max_iterations = 100_000  # per solve, before AnalysisLimitError

    def __init__(self, program, trace=None):
        super().__init__(program, trace)
        self.diagnostics = set()
        # (node id, entry state) -> frozenset of (exit state, payload)
        self._summaries = {}
        self._final = set()  # keys whose summaries are complete
        # node id -> (depth, worklist in joining order) of each solve in
        # progress, and per depth the lowest depth whose unfinished
        # summary that solve has read
        self._worklists = {}
        self._low = []
        self.stats = {"max_call_iterations": 0, "max_loop_iterations": 0}
        # abstract-cell reuse history, consumed by the soundness harness
        self.reused_sites = set()
        self.reset_curried_keys = set()

    # diagnostics

    def _diag(self, message):
        self.diagnostics.add(Diagnostic(self.current_node or 0, message))

    def _dead(self, message):
        self._diag(message)
        raise DeadBranch(message)

    # primitives

    def initial_state(self) -> AState:
        return initial_state()

    def cond(self, value):
        if value is not BOOL:
            self._diag(
                f"possible type error: condition is {_category(value)}, not boolean"
            )
        return (True, False)

    def val(self, state, name):
        try:
            return state.env[name]
        except KeyError:
            self._dead(f"possibly undefined variable {name!r}")

    def conval(self, constant):
        return BOOL if type(constant) is bool else NUM

    def getinput(self, state):
        return {(state, NUM)}

    def dooutput(self, state, value):
        return {state}

    def bin(self, op, left, right):
        for value in (left, right):
            if value is VOID_VAL:
                self._dead("possible use of void function result")
        if op == "==":
            if _category(left) != _category(right):
                self._dead(
                    f"possible type error: comparing {_category(left)} "
                    f"with {_category(right)}"
                )
            return BOOL
        if left is not NUM or right is not NUM:
            self._dead(
                f"possible type error: {op!r} on {_category(left)} "
                f"and {_category(right)}"
            )
        return NUM if op in ("+", "-", "*", "/") else BOOL

    def apply(self, state, fun_value, args, this_value, eid):
        if fun_value is VOID_VAL:
            self._dead("possible use of void function result")
        if not isinstance(fun_value, AFunPtr):
            self._dead(
                f"possible type error: calling a {_category(fun_value)}"
            )
        sid, count, anchor = fun_value.sid, fun_value.count, fun_value.anchor
        arity = self.program.arity(sid)
        if count == 0:
            prefixes = ((),)
        else:
            prefixes = state.curried.get((sid, count, anchor), frozenset())
        total = count + len(args)
        if total == arity:
            out = set()
            for prefix in prefixes:
                out |= kernel.call(self, state, sid, prefix + tuple(args), this_value)
            return out
        if total < arity:
            if total == 0:
                # zero arguments were supplied: the pointer is unchanged
                # (uncurried pointers stay unanchored)
                return {(state, fun_value)}
            key, lists = (sid, total, eid), set()
            for prefix in prefixes:
                lists.add(prefix + tuple(args))
            lists = frozenset(lists)
            old = state.curried.get(key)
            if old is not None and old != lists:
                self.reset_curried_keys.add(key)
            new_state = kernel.replace(state, curried=state.curried.set(key, lists))
            return {(new_state, AFunPtr(sid, total, eid))}
        self._dead(
            f"possible type error: too many arguments "
            f"({total} for arity {arity})"
        )

    def _members(self, state, ref):
        if ref is VOID_VAL:
            self._dead("possible use of void function result")
        if not isinstance(ref, AObjRef):
            self._dead(
                f"possible type error: member access on a {_category(ref)}"
            )
        return state.obj_mem.get(ref.site)

    def get(self, state, ref, member):
        members = self._members(state, ref)
        if members is None or member not in members:
            self._dead(f"possibly undefined member {member!r}")
        return members[member]

    def set(self, state, ref, member, value):
        members = self._members(state, ref)
        if members is None:
            self._dead("possible write to an unallocated object")
        obj_mem = state.obj_mem.set(ref.site, members.set(member, value))
        return {kernel.replace(state, obj_mem=obj_mem)}

    def newobj(self, state, eid):
        # allocation-site abstraction: the site's previous abstract object,
        # if any, is reset to empty
        if eid in state.obj_mem:
            self.reused_sites.add(eid)
        obj_mem = state.obj_mem.set(eid, FrozenMap())
        return {(kernel.replace(state, obj_mem=obj_mem), AObjRef(eid))}

    # fixed-point engine

    def fixpoint(self, kind, nid, step, state):
        """Loop and call summaries from one table, solved top-down: the query
        (`nid`, `state`) is answered with its summary.

        Summaries are keyed by (node id, entry state) and only grow.  A key
        whose node is not being solved starts a solve of that node; a key
        whose node is already being solved joins the node's worklist and is
        answered with its current summary.  When a solve ends without having
        read an unfinished summary of another node, its keys are final and
        later queries are answered from the table.
        """
        key = (nid, state)
        if key not in self._final:
            if nid not in self._worklists:
                self._solve(kind, nid, step, state)
            else:
                depth, worklist = self._worklists[nid]
                worklist.setdefault(state)
                self._low[-1] = min(self._low[-1], depth)
        return set(self._summaries.get(key, frozenset()))

    def _solve(self, kind, nid, step, state):
        """Re-evaluate `step` on the node's worklist, newest state first,
        until no summary grows and no state joins."""
        depth, worklist = len(self._low), {state: None}
        self._worklists[nid] = (depth, worklist)
        self._low.append(depth)
        try:
            iterations = 0
            while True:
                iterations += 1
                if iterations > self.max_iterations:
                    raise AnalysisLimitError(
                        f"{kind} summary for node {nid} did not stabilize "
                        f"within {self.max_iterations} iterations"
                    )
                joined = len(worklist)
                changed = False
                for entry in reversed(list(worklist)):
                    key = (nid, entry)
                    previous = self._summaries.get(key, frozenset())
                    out = frozenset(step(self, entry))
                    # summaries never shrink between iterations
                    assert previous <= out, f"{kind} summary shrank"
                    if out != previous:
                        self._summaries[key] = previous | out
                        changed = True
                if not changed and len(worklist) == joined:
                    break
        finally:
            low = self._low.pop()
            del self._worklists[nid]
        stat = f"max_{kind}_iterations"
        self.stats[stat] = max(self.stats[stat], iterations)
        if low >= depth:
            for entry in worklist:
                self._final.add((nid, entry))
        else:
            self._low[-1] = min(self._low[-1], low)


@dataclass(frozen=True)
class AnalysisResult:
    final_states: frozenset
    diagnostics: tuple
    stats: dict = field(compare=False)

    def sorted_states(self) -> list:
        return sorted(self.final_states, key=lambda s: json.dumps(state_to_json(s)))


def analyze_program(program: Program, trace=None) -> AnalysisResult:
    """Analyze a program, returning all final abstract states plus the
    diagnostic log."""
    interp = AbstractInterpretation(program, trace)
    outcome = kernel.stm_meaning(program.root)(interp, interp.initial_state())
    stats = dict(interp.stats)
    stats["reused_allocation_sites"] = frozenset(interp.reused_sites)
    stats["reset_curried_keys"] = frozenset(interp.reset_curried_keys)
    return AnalysisResult(
        final_states=frozenset(dict(outcome)),  # the outcomes' states
        diagnostics=tuple(sorted(interp.diagnostics)),
        stats=stats,
    )


# --- Rendering ---------------------------------------------------------------


def aval_to_json(value):
    if value is VOID_VAL:
        return "void"
    if value is NUM:
        return "Num"
    if value is BOOL:
        return "Bool"
    if isinstance(value, AObjRef):
        return {"obj": value.site}
    if isinstance(value, AFunPtr):
        return {"fun": [value.sid, value.count, value.anchor]}
    raise AssertionError(f"not an abstract value: {value!r}")


def _slot_to_json(slot):
    return "void" if slot is VOID else aval_to_json(slot)


def state_to_json(state: AState) -> dict:
    curried = []
    for (sid, count, anchor), lists in sorted(state.curried.items()):
        rendered = sorted(
            ([aval_to_json(v) for v in values] for values in lists),
            key=json.dumps,
        )
        curried.append({"key": [sid, count, anchor], "lists": rendered})
    return {
        "env": {name: aval_to_json(v) for name, v in sorted(state.env.items())},
        "objmem": {
            str(site): {name: aval_to_json(v) for name, v in sorted(members.items())}
            for site, members in sorted(state.obj_mem.items())
        },
        "this": state.this,
        "curried": curried,
        "ret": _slot_to_json(state.ret),
        "ex": _slot_to_json(state.ex),
    }


def result_to_json(result: AnalysisResult) -> dict:
    return {
        "states": [state_to_json(s) for s in result.sorted_states()],
        "diagnostics": [
            {"node": d.node, "message": d.message} for d in result.diagnostics
        ],
    }

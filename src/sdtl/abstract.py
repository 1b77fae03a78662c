"""Abstract interpretation: type analysis over finite domains.

Constants are approximated by their types (Num/Bool), objects by their
allocation site, and curried function pointers by the call-site expression
that produced them.  Branches are explored non-deterministically.  Loops
and (possibly recursive, side-effecting) calls are both fixed points of
their own unfolding, found by one top-down engine over a table of summaries
keyed by (node id, entry state), which grow monotonically over a finite state
space: a loop runs each state it passes through once, and a call entry runs
again only when a summary it read has grown (Le Charlier & Van Hentenryck
1992).  Impossible operations never abort the analysis; they kill the
offending branch and log a diagnostic.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Union

from . import kernel
from .kernel import VOID_VAL, DeadBranch, FrozenMap, Marker
from .syntax import Program


NUM = Marker("Num")
BOOL = Marker("Bool")


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


AVal = Union[Marker, AObjRef, AFunPtr]  # NUM, BOOL, or VOID_VAL


@dataclass(frozen=True, eq=False)
class AState(kernel.State):  # obj_mem is keyed by allocation site
    # (sid, count, anchor) -> the tuple of values curried at that anchor
    curried: FrozenMap = field(default_factory=FrozenMap)


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


def _a(value) -> str:  # its category after the indefinite article: "an object"
    return ("an " if isinstance(value, AObjRef) else "a ") + _category(value)


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
        # (node id, entry state) -> dict keyed by (exit state, payload)
        self._summaries = {}
        self._final = set()  # keys whose summaries are complete
        # node id -> (depth, worklist, pending, entry under evaluation) of
        # each solve in progress, the worklist mapping its entries in joining
        # order to the entries that read their summaries; and per depth the
        # lowest depth whose unfinished summary that solve has read
        self._worklists = {}
        self._low = []
        # the solver's maxima, and the abstract-cell reuse history that the
        # soundness harness consumes
        self.stats = {
            "max_call_iterations": 0,
            "max_loop_iterations": 0,
            "reused_allocation_sites": set(),
            "reset_curried_keys": set(),
        }

    # diagnostics

    def _diag(self, message):
        self.diagnostics.add(Diagnostic(self.current_node or 0, message))

    def _dead(self, message):
        self._diag(message)
        raise DeadBranch(message)

    # primitives

    def cond(self, value):
        if value is not BOOL:
            self._diag(
                f"possible type error: condition is {_category(value)}, not boolean"
            )
        return (True, False)

    def obj_key(self, ref):
        if ref is VOID_VAL:
            self._dead("possible use of void function result")
        if not isinstance(ref, AObjRef):
            self._dead(f"possible type error: member access on {_a(ref)}")
        # every site a reference names is allocated: site 0 from the start,
        # the others by `newobj`, and no step removes one
        return ref.site

    def fun_parts(self, state, fun):
        if fun is VOID_VAL:
            self._dead("possible use of void function result")
        if not isinstance(fun, AFunPtr):
            self._dead(f"possible type error: calling {_a(fun)}")
        sid, count, anchor = fun.sid, fun.count, fun.anchor
        return sid, state.curried[sid, count, anchor] if count else ()

    def curry(self, state, fun, args, arity, eid):
        if len(args) > arity:
            self._dead(
                f"possible type error: too many arguments ({len(args)} for arity {arity})"
            )
        if not args:
            # zero arguments were supplied: the pointer is unchanged
            # (uncurried pointers stay unanchored)
            return ((state, fun),)
        key = (fun.sid, len(args), eid)
        old = state.curried.get(key)
        if old is not None and old != args:
            self.stats["reset_curried_keys"].add(key)
        new_state = kernel.replace(state, curried=state.curried.set(key, args))
        return ((new_state, AFunPtr(*key)),)

    def undefined(self, kind, name):
        self._dead(f"possibly undefined {kind} {name!r}")

    def conval(self, constant):
        return BOOL if type(constant) is bool else NUM

    def getinput(self, state):
        return state, NUM

    def dooutput(self, state, value):
        if value is VOID_VAL:
            self._dead("possible use of void function result")
        if isinstance(value, (AObjRef, AFunPtr)):
            self._dead(f"possible type error: output of {_a(value)}")
        return state

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

    def newobj(self, state, eid):
        # allocation-site abstraction: the site's previous abstract object,
        # if any, is reset to empty
        if eid in state.obj_mem:
            self.stats["reused_allocation_sites"].add(eid)
        obj_mem = state.obj_mem.set(eid, FrozenMap())
        return kernel.replace(state, obj_mem=obj_mem), AObjRef(eid)

    # fixed-point engine

    def fixpoint(self, kind, nid, step, state):
        """Loop and call summaries from one table, solved top-down: the query
        (`nid`, `state`) is answered with its summary.

        Summaries are keyed by (node id, entry state) and only grow.  A key
        whose node is not being solved starts a solve of that node.  A loop
        re-enters itself in tail position, so a state that joins a loop being
        solved goes on its frontier, with no outcomes of its own; one that
        joins a call being solved is answered with its current summary, a
        read recorded against the entry under evaluation.  When a solve ends
        without having read an unfinished summary of another node, its keys
        are final and later queries are answered from the table.
        """
        key = (nid, state)
        if key not in self._final:
            if nid not in self._worklists:
                self._solve(kind, nid, step, state)
            else:
                depth, worklist, pending, running = self._worklists[nid]
                if state not in worklist:
                    worklist[state] = set()
                    pending.add(state)
                if kind == "loop":
                    return ()
                worklist[state].add(running)
                self._low[-1] = min(self._low[-1], depth)
        return self._summaries.get(key, ())

    def _solve(self, kind, nid, step, state):
        """Evaluate `step` on the node's pending entries, newest first, in
        rounds until none is pending: each state of a loop's frontier once,
        their outcomes together the summary of its entry `state`, and a call
        entry when it joins and when a summary its evaluation read grew."""
        depth, worklist, pending = len(self._low), {state: set()}, {state}
        self._worklists[nid] = (depth, worklist, pending, state)
        self._low.append(depth)
        outcomes = {}  # of a loop's frontier, in first-seen order
        try:
            iterations = 0
            while pending:
                iterations += 1
                if iterations > self.max_iterations:
                    raise AnalysisLimitError(
                        f"{kind} summary for node {nid} did not stabilize "
                        f"within {self.max_iterations} iterations"
                    )
                for entry in reversed(list(worklist)):
                    if entry in pending:
                        pending.remove(entry)
                        self._worklists[nid] = (depth, worklist, pending, entry)
                        out = dict.fromkeys(step(self, entry))
                        if kind == "loop":
                            outcomes |= out
                        elif self._grow(kind, (nid, entry), out):
                            pending |= worklist[entry]
        finally:
            low = self._low.pop()
            del self._worklists[nid]
        stat = f"max_{kind}_iterations"
        self.stats[stat] = max(self.stats[stat], iterations)
        if kind == "loop":
            self._grow(kind, (nid, state), outcomes)
            worklist = (state,)  # the other frontier states have no summary
        if low >= depth:
            for entry in worklist:
                self._final.add((nid, entry))
        else:
            self._low[-1] = min(self._low[-1], low)

    def _grow(self, kind, key, out):
        """Store `out` as the summary of `key`; whether the summary grew."""
        previous = self._summaries.get(key, {})
        assert previous.keys() <= out.keys(), f"{kind} summary shrank"
        self._summaries[key] = previous | out
        return len(out) > len(previous)


@dataclass(frozen=True)
class AnalysisResult:
    final_states: tuple
    diagnostics: tuple
    stats: dict = field(compare=False)


def analyze_program(program: Program, trace=None) -> AnalysisResult:
    """Analyze a program, returning its distinct final abstract states, in
    first-seen order, plus the diagnostic log."""
    interp = AbstractInterpretation(program, trace)
    with kernel.recursion_headroom():
        outcome = kernel.stm_meaning(program.root)(interp, AState())
    return AnalysisResult(
        final_states=tuple(dict.fromkeys(map(operator.itemgetter(0), outcome))),
        diagnostics=tuple(sorted(interp.diagnostics)),
        stats=interp.stats,
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


def state_to_json(state: AState) -> dict:
    curried = [
        {"key": list(key), "lists": [[aval_to_json(v) for v in values]]}
        for key, values in sorted(state.curried.items())
    ]
    return kernel.state_to_json(state, aval_to_json, curried=curried)


def result_to_json(result: AnalysisResult) -> dict:
    states = (state_to_json(s) for s in result.final_states)
    return {
        "states": sorted(states, key=json.dumps),
        "diagnostics": [
            {"node": d.node, "message": d.message} for d in result.diagnostics
        ],
    }

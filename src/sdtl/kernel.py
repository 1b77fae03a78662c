"""Parametric semantics kernel.

The meaning of a program fragment is a *transformer*: a function taking the
run's :class:`Interpretation` and a state, and returning its (successor
state, payload) outcomes.  Payloads are values for expressions, ``UNIT`` for
statements, and ``NULL`` exactly for states that escape (pending return or
exception).  The outcomes are a sequence, a list of successes (Wadler,
FPCA 1985), each once: a transformer that gathers several drops repeats,
keeping first-seen order, and returns one as is, so a concrete run, which
has one outcome per step, hashes no state.  The semantic equations here are
written once against the interpretation contract, as are the primitives
that only touch the fields of the :class:`State` record, variable and
member access among them, and the call with its entry and exit.  The
concrete interpreter and the abstract type analysis plug in their own
state fields, values, value-level primitives and four hooks: two pointer
checks, a partial application and an error policy.

Each node's equation is picked by its class, and its transformer is built
once per parsed node and shared by the analysis, every run and every call:
evaluating a node loops over its parts' outcomes and calls primitives, and
builds no closure; a leaf is one step that calls its primitive.  Each
primitive step first makes its node the interpretation's ``current_node``;
``concrete.run_program`` tags a run-time error with it.  A statement's own
step reports its outcomes to the trace hook (a statement list: its ``Seq``).
Environments and heaps are :class:`FrozenMap`, an immutable ``dict``.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Tuple

from . import syntax

# the outcomes, each once: a list, a tuple, or a dict keyed by outcome
Transformer = Callable[["Interpretation", Any], Collection[Tuple[Any, Any]]]


class Marker:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


UNIT = Marker("Unit")  # payload of statement meanings
NULL = Marker("Null")  # payload paired with escaping successor states
VOID = Marker("Void")  # empty return/exception slot
VOID_VAL = Marker("VoidVal")  # unusable result of a value-less function call


class EvalError(Exception):
    """Run-time error in an interpreted program, tagged with a node id."""

    def __init__(self, message, node_id=None):
        super().__init__(message)
        self.message = message
        self.node_id = node_id

    def __str__(self):
        if self.node_id is None:
            return self.message
        return f"{self.message} (node {self.node_id})"


@contextlib.contextmanager
def recursion_headroom():
    """Interpreted calls, and hashing, comparing, relating or printing values
    that nest, take host stack (statement and argument lists and loops take
    none): give them 10,000 frames, and surface exhaustion as a run-time
    error.  Runs and analyses evaluate under it, and ``differential_test``
    checks, and the CLI prints, their values under it too."""
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


class DeadBranch(Exception):
    """Raised by abstract primitives when a branch cannot proceed.

    The step that called the primitive discards the branch; a diagnostic has
    already been logged by the interpretation.
    """


class FrozenMap(dict):
    """Immutable hashable ``dict``: mutating methods raise, ``set`` copies.
    Its hash slot stays unset until the first hash: building one runs no Python code."""

    __slots__ = ("_hash",)

    def __hash__(self):
        value = getattr(self, "_hash", None)
        if value is None:
            value = self._hash = hash(frozenset(self.items()))
        return value

    def _immutable(self, *args, **kwargs):
        raise TypeError("FrozenMap is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def set(self, key, value) -> "FrozenMap":
        copy = FrozenMap(self)
        dict.__setitem__(copy, key, value)
        return copy


# --- State records -----------------------------------------------------------
# States are records (frozen dataclasses); operations written against a few
# named fields are reusable when the state grows new dimensions.


class Record:
    """Base of state records declared ``@dataclass(frozen=True, eq=False)``:
    equal when their fields are, hashed as their field tuple (the value a
    frozen dataclass would generate) once, in a slot that stays unset until
    the first hash: :func:`replace` does not copy it and runs no constructor."""

    __slots__ = ("_hash", "__dict__")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        value = getattr(self, "_hash", None)
        if value is None:
            value = hash(tuple(self.__dict__.values()))
            object.__setattr__(self, "_hash", value)
        return value


def replace(record, **changes):
    """Copy of the frozen record with `changes` applied; unlike
    ``dataclasses.replace`` it neither re-reads the fields nor runs __init__."""
    copy = object.__new__(record.__class__)
    fields = copy.__dict__
    fields.update(record.__dict__)
    fields.update(changes)
    return copy


@dataclass(frozen=True, eq=False)
class State(Record):
    """The fields every domain's state has, at their start values, which
    the record-state primitives read: ``env``, ``obj_mem``, ``this``,
    ``ret`` and ``ex``.  A domain's state subclasses it and adds its own
    fields."""

    env: FrozenMap = field(default_factory=FrozenMap)
    # key -> FrozenMap of members; key 0 is the global object
    obj_mem: FrozenMap = field(default_factory=lambda: FrozenMap({0: FrozenMap()}))
    this: int = 0  # key of the receiver object
    ret: object = VOID
    ex: object = VOID


def slot_to_json(slot, value_to_json):
    """JSON of a return or exception slot: "void" when it is empty."""
    return "void" if slot is VOID else value_to_json(slot)


def state_to_json(state: State, value_to_json, **fields) -> dict:
    """JSON of `state`'s shared fields, values rendered by `value_to_json`,
    with the domain's own `fields`, already rendered, before the slots."""
    return {
        "env": {name: value_to_json(v) for name, v in sorted(state.env.items())},
        "objmem": {
            str(key): {name: value_to_json(v) for name, v in sorted(members.items())}
            for key, members in sorted(state.obj_mem.items())
        },
        "this": state.this,
        **fields,
        "ret": slot_to_json(state.ret, value_to_json),
        "ex": slot_to_json(state.ex, value_to_json),
    }


# --- Transformer combinators -------------------------------------------------


def pure(value) -> Transformer:
    """Identity state transformer yielding `value` (the monadic return)."""

    def run(interp, s):
        return ((s, value),)

    return run


_SKIP = pure(UNIT)  # the meaning of ``nil``, shared by every equation that skips


def _block(sid, stms) -> Transformer:
    """The statement list `stms` of the outer ``Seq`` `sid` (see
    :func:`syntax.statements`) as one block: its statements run in turn,
    each once from every distinct state the one before left, in first-seen
    order, and escaping outcomes pass straight through.

    The block reports its outcomes to the trace hook once, as `sid`'s; inner
    ``Seq`` nodes are not reported.
    """
    *parts, last = map(stm_meaning, stms)

    # its own loop: it joins the states and does not grow the host stack
    def run(interp, s):
        out, states = [], (s,)
        for t in parts:
            after = []
            for s0 in states:
                for s1, a in t(interp, s0):
                    if a is NULL:
                        out.append((s1, a))
                    else:
                        after.append(s1)
            states = dict.fromkeys(after) if len(after) > 1 else after
            if not states:
                break
        for s0 in states:
            out += last(interp, s0)
        out = dict.fromkeys(out) if len(out) > 1 else out
        if interp.trace is not None:
            interp.trace(sid, out)
        return out

    return run


def _bind(nid, t: Transformer, body, report=False) -> Transformer:
    """Primitive step of node `nid` after `t` (the monadic bind).

    Each escaping outcome of `t`, payload ``NULL``, passes through unchanged.
    For every other (state, payload) the step makes `nid` the
    interpretation's current node and adds ``body(interp, state, payload)``,
    any iterable of outcomes, or nothing if the body raises
    :class:`DeadBranch`.  Only a primitive raises it, and only inside a step
    that catches it, so no transformer does.  The step returns each outcome
    once, in first-seen order, reported to the trace hook if `report`.
    """

    def run(interp, s):
        out = []
        for s1, a in t(interp, s):
            if a is NULL:
                out.append((s1, a))
                continue
            interp.current_node = nid
            try:
                out += body(interp, s1, a)
            except DeadBranch:
                pass
        out = dict.fromkeys(out) if len(out) > 1 else out
        if report and interp.trace is not None:
            interp.trace(nid, out)
        return out

    return run


def _branch(nid, guard_t, then_t, else_t, report=False) -> Transformer:
    """Selection of node `nid`: each non-escaping outcome of `guard_t` runs
    `then_t` and/or `else_t`, then-branch first, as ``cond`` of its value
    allows, from this loop's own frame; it returns and reports as `_bind`."""

    def run(interp, s):
        out = []
        for s1, v in guard_t(interp, s):
            if v is NULL:
                out.append((s1, v))
                continue
            interp.current_node = nid
            for taken in interp.cond(v):
                out += (then_t if taken else else_t)(interp, s1)
        out = dict.fromkeys(out) if len(out) > 1 else out
        if report and interp.trace is not None:
            interp.trace(nid, out)
        return out

    return run


def _collect(first: Transformer, exps) -> Transformer:
    """`first`, then the expressions `exps` left to right, each run from
    every non-escaping successor of the one before; the payload is the tuple
    of their payloads.  One loop pops (payloads so far, state) pairs and pushes
    a list of each part's outcomes last first: depth first, with no host stack."""
    parts = (first, *map(exp_meaning, exps))

    def run(interp, s):
        out, todo = [], [((), s)]
        while todo:
            values, s = todo.pop()
            if values is NULL or len(values) == len(parts):
                out.append((s, values))
                continue
            for s1, v in reversed(list(parts[len(values)](interp, s))):
                todo.append((v if v is NULL else values + (v,), s1))
        return dict.fromkeys(out) if len(out) > 1 else out

    return run


# --- The interpretation contract ----------------------------------------------


class Interpretation:
    """Parameter set of the semantics, one per run: state and value carriers
    plus the primitive operations the equations below defer to, the program
    and the run's trace hook.

    States are :class:`State` records.  The record-state primitives, ``val``,
    ``get`` and ``set`` among them, and the call, ``apply``, are written here
    once against its fields, and any field a domain adds is carried through
    calls untouched.  A domain declares its object-pointer class (built from
    the heap key, 0 for the global object) and its function-pointer class
    (built from a sid), writes the value-level primitives, and four hooks:
    ``obj_key`` and ``fun_parts``, its pointer checks, ``curry``, its
    partial application, and ``undefined``, its error policy.

    Every primitive returns one result: a value, the successor state, or one
    (state, value) pair (``getinput``, ``newobj``).  Only three can branch:
    the domain's ``cond`` and ``fixpoint``, and the kernel's ``apply``.
    ``cond`` takes a guard value and returns the branches that may run,
    ``(True,)``, ``(False,)`` or both; ``fixpoint`` and ``apply`` return
    (state, payload) outcomes, and ``fixpoint`` alone takes a transformer,
    one unfolding.  State equality must be decidable.

    Outcomes, a transformer's too, are a list, a tuple or a dict keyed by
    outcome: consumers only iterate them or take their ``len`` (``dict`` of
    a dict of pairs is its keys), and never mutate outcomes they did not
    build.  ``apply`` may repeat one, as a call's exits that differ only in
    the callee's locals meet under it; a transformer or ``fixpoint`` that
    gathers several outcomes drops repeats with ``dict.fromkeys``, in
    first-seen order.

    An outcome's payload is ``NULL`` exactly when its state has a pending
    return or exception; the equations read escapes off the payload alone,
    and ``apply`` keeps that rule for a call's exits.

    The function space, sid -> meaning of the function's body, is the least
    fixed point of its equations, realized lazily: each body's meaning is
    the one kept on its node, built on the function's first call, and a
    call runs it through the fixed-point hook, so recursion in the
    interpreted program becomes recursion in the host (or, abstractly, a
    query against the summary engine).  The optional trace hook
    ``trace(sid, outcome)`` is invoked per statement evaluation, by the
    statement's own step.
    """

    obj_ref_class = None
    fun_ptr_class = None

    # id of the node whose primitive step runs, set by the step (one thread)
    current_node = None

    def __init__(self, program: syntax.Program, trace=None):
        self.program = program
        self.trace = trace

    # a domain's hooks: its pointer checks, partial application, error policy

    def obj_key(self, ref):  # -> heap key of the object `ref` names
        raise NotImplementedError

    def fun_parts(self, state, fun):  # -> (sid, arguments `fun` has curried)
        raise NotImplementedError

    def curry(self, state, fun, args, arity, eid):  # -> outcomes, or raises
        # `fun` at node `eid` with all its `args`, too few or too many for `arity`
        raise NotImplementedError

    def undefined(self, kind, name):  # raises: no `kind` called `name`
        raise NotImplementedError

    # value-level primitives: written by each domain

    def cond(self, value):  # -> tuple of branches (True: then, False: else)
        raise NotImplementedError

    def conval(self, constant):  # -> Value
        raise NotImplementedError

    def getinput(self, state):  # -> (State, Value)
        raise NotImplementedError

    def dooutput(self, state, value):  # -> State
        raise NotImplementedError

    def bin(self, op, left, right):  # -> Value
        raise NotImplementedError

    def newobj(self, state, eid):  # -> (State, Value)
        raise NotImplementedError

    # record-state primitives: shared by every domain

    def val(self, state, name):  # -> Value
        try:
            return state.env[name]
        except KeyError:
            self.undefined("variable", name)

    def get(self, state, ref, member):  # -> Value
        members = state.obj_mem[self.obj_key(ref)]
        try:
            return members[member]
        except KeyError:
            self.undefined("member", member)

    def set(self, state, ref, member, value):  # -> State
        key = self.obj_key(ref)
        members = state.obj_mem[key].set(member, value)
        return replace(state, obj_mem=state.obj_mem.set(key, members))

    def asg(self, state, name, value):  # -> State
        return replace(state, env=state.env.set(name, value))

    def ret(self, state, value):  # -> State
        return replace(state, ret=value)

    def throw(self, state, value):  # -> State
        return replace(state, ex=value)

    def exs(self, state, exc_name):  # -> State
        return replace(state, env=state.env.set(exc_name, state.ex), ex=VOID)

    def fundecl(self, state, name, sid):  # -> State
        return replace(state, env=state.env.set(name, self.fun_ptr_class(sid)))

    def getglobal(self, state):  # -> Value
        return self.obj_ref_class(0)

    def getthis(self, state):  # -> Value
        return self.obj_ref_class(state.this)

    def apply(self, state, call):  # -> outcomes
        """The call step's body: `call` is the (receiver's heap key, function)
        pair, then the arguments, which follow the function's curried ones.
        Any count but the arity is the domain's ``curry`` at the current
        node.  At the arity, the body's meaning runs through the fixed-point
        hook from the entry state: parameters bound, the receiver's key as
        ``this``, empty slots, every other field the caller's.  Each exit
        gives the caller's ``env`` and ``this`` with the exit's other fields,
        and the payload ``NULL`` on a pending exception, else the returned
        value, or ``VOID_VAL`` for a Void return slot.  The call equations
        bind this method when they are built, so a domain must not override it."""
        this, fun = call[0]
        sid, curried = self.fun_parts(state, fun)
        args = curried + call[1:]
        decl = self.program.fun_table[sid]
        if len(args) != len(decl.params):
            return self.curry(state, fun, args, len(decl.params), self.current_node)
        entry = replace(state, env=FrozenMap(zip(decl.params, args)), this=this,
                        ret=VOID, ex=VOID)
        out = []
        for s, _ in self.fixpoint("call", sid, stm_meaning(decl.body), entry):
            payload = NULL if s.ex is not VOID else VOID_VAL if s.ret is VOID else s.ret
            out.append((replace(s, env=state.env, this=state.this, ret=VOID), payload))
        return out

    # fixed-point hook with its default realization

    # the default's innermost activation, (node id, frontier of states to
    # run), and the loop iterations of the run against their budget
    _active = None
    loop_iterations = 0
    max_loop_iterations = 1_000_000

    def fixpoint(self, kind, nid, step: Transformer, state):  # -> outcomes
        """Outcomes from `state` of loop `nid` (kind ``"loop"``) or of the
        body of function `nid` (kind ``"call"``): the fixed point of `step`,
        its one unfolding, which re-enters the definition through this hook.

        Default: an activation runs `step` from each state of its frontier
        until the frontier is empty.  A loop re-enters itself in tail
        position, so a query for the loop of the innermost activation adds
        its state to the frontier, counted against the run's loop iteration
        budget, and has no outcomes of its own.  Any other query starts an
        activation; a call's stands between a loop and a recursive call that
        reaches it again, so only interpreted calls recurse in the host.  The
        abstract interpretation answers the query from its terminating
        summary-table engine instead.
        """
        active = self._active
        if kind == "loop" and active is not None and active[0] == nid:
            self.loop_iterations += 1
            if self.loop_iterations > self.max_loop_iterations:
                raise EvalError(
                    "loop iteration budget exceeded "
                    f"({self.max_loop_iterations:,} iterations)", nid
                )
            active[1].append(state)
            return ()
        frontier = [state]
        self._active = (nid, frontier)
        out = []
        try:
            while frontier:
                out += step(self, frontier.pop())
        finally:
            self._active = active
        return dict.fromkeys(out) if len(out) > 1 else out


# --- Semantic equations ---------------------------------------------------------


def stm_meaning(node: syntax.Stm) -> Transformer:
    """Meaning of a statement (payloads are UNIT, or NULL once escaped): its
    class's equation, built once and kept on the node (it does not capture
    the node, so no cycle), whose own step reports to the trace hook."""
    try:
        memo = node.__dict__
        if "_run" in memo:
            return memo["_run"]
        sid = node.sid
    except AttributeError:
        raise TypeError(f"not a statement node: {node!r}") from None
    match type(node):
        case syntax.Nil:
            run = _bind(sid, _SKIP, lambda i, s, _: ((s, UNIT),), True)
        case syntax.Seq:
            run = _block(sid, syntax.statements(node))
        case syntax.ExpStm:
            run = _bind(sid, exp_meaning(node.exp), lambda i, s, _: ((s, UNIT),), True)
        case syntax.Output:
            run = _bind(sid, exp_meaning(node.exp),
                        lambda i, s, v: ((i.dooutput(s, v), UNIT),), True)
        case syntax.Assign if type(node.target) is syntax.Var:
            name, value_t = node.target.name, exp_meaning(node.value)
            run = _bind(sid, value_t, lambda i, s, v: ((i.asg(s, name, v), UNIT),), True)
        case syntax.Assign:
            member = node.target.member
            run = _bind(sid, _collect(exp_meaning(node.target.obj), (node.value,)),
                        lambda i, s, rv: ((i.set(s, rv[0], member, rv[1]), UNIT),), True)
        case syntax.If | syntax.IfElse:
            then_t = stm_meaning(node.then_body)
            else_t = _SKIP if type(node) is syntax.If else stm_meaning(node.else_body)
            run = _branch(sid, exp_meaning(node.guard), then_t, else_t, report=True)
        case syntax.While:
            # `unfold` runs the loop once and `again` re-enters it through the
            # fixed-point hook; only the loop's entry, `run`, reports
            def again(i, s, _):
                return i.fixpoint("loop", sid, unfold, s)

            def run(interp, s):
                out = interp.fixpoint("loop", sid, unfold, s)
                if interp.trace is not None:
                    interp.trace(sid, out)
                return out

            loop_t = _bind(sid, stm_meaning(node.body), again)
            unfold = _branch(sid, exp_meaning(node.guard), loop_t, _SKIP)
        case syntax.FunDecl:
            name = node.name
            run = _bind(sid, _SKIP, lambda i, s, _: ((i.fundecl(s, name, sid), UNIT),), True)
        case syntax.Return:
            run = _bind(sid, exp_meaning(node.exp),
                        lambda i, s, v: ((i.ret(s, v), NULL),), True)
        case syntax.TryCatch:
            # its own loop: it consumes escapes by exception, not passes them on
            body_t, handler_t = stm_meaning(node.body), stm_meaning(node.handler)
            exc_name = node.exc_name

            def run(interp, s):
                out = []
                for s1, a in body_t(interp, s):
                    if s1.ex is VOID:
                        out.append((s1, a))
                    else:
                        interp.current_node = sid
                        out += handler_t(interp, interp.exs(s1, exc_name))
                out = dict.fromkeys(out) if len(out) > 1 else out
                if interp.trace is not None:
                    interp.trace(sid, out)
                return out

        case syntax.Throw:
            run = _bind(sid, exp_meaning(node.exp),
                        lambda i, s, v: ((i.throw(s, v), NULL),), True)
        case _:
            raise TypeError(f"not a statement node: {node!r}")
    memo["_run"] = run
    return run


def exp_meaning(node: syntax.Exp | syntax.Lexp) -> Transformer:
    """Meaning of an expression or left-expression (payloads are values): its
    class's equation.  A leaf, ``Var``, ``Input``, ``This`` or ``Global``, is
    one step that calls its primitive."""
    try:
        eid = node.eid
    except AttributeError:
        raise TypeError(f"not an expression node: {node!r}") from None
    match type(node):
        case syntax.Con:
            value = node.value

            def run(interp, s):
                return ((s, interp.conval(value)),)

        case syntax.LexpRef | syntax.Paren:
            run = exp_meaning(node.lexp if type(node) is syntax.LexpRef else node.inner)
        case syntax.Var:
            name = node.name

            def run(interp, s):
                interp.current_node = eid
                try:
                    return ((s, interp.val(s, name)),)
                except DeadBranch:
                    return ()

        case syntax.Member:
            name = node.member
            run = _bind(eid, exp_meaning(node.obj), lambda i, s, v: ((s, i.get(s, v, name)),))
        case syntax.Input:
            def run(interp, s):
                interp.current_node = eid
                try:
                    return (interp.getinput(s),)
                except DeadBranch:
                    return ()

        case syntax.Call:
            # `callee_t` yields (receiver's key, function): the caller's `this`,
            # which its arguments keep, as every call restores it
            callee_t = _bind(eid, exp_meaning(node.callee),
                             lambda i, s, f: ((s, (s.this, f)),))
            run = _bind(eid, _collect(callee_t, node.args), Interpretation.apply)
        case syntax.MethodCall:
            # `method_t` yields (receiver's key, method), read before the arguments run
            member, obj_t = node.member, exp_meaning(node.receiver)
            method_t = _bind(eid, obj_t,
                             lambda i, s, r: ((s, (i.obj_key(r), i.get(s, r, member))),))
            run = _bind(eid, _collect(method_t, node.args), Interpretation.apply)
        case syntax.BinOp:
            op, left_t, right_t = node.op, exp_meaning(node.left), exp_meaning(node.right)

            # its own loop: two operands, and no tuple built to pair them
            def run(interp, s):
                out = []
                for s1, c1 in left_t(interp, s):
                    if c1 is NULL:
                        out.append((s1, c1))
                        continue
                    for s2, c2 in right_t(interp, s1):
                        if c2 is NULL:
                            out.append((s2, c2))
                            continue
                        interp.current_node = eid
                        try:
                            out.append((s2, interp.bin(op, c1, c2)))
                        except DeadBranch:
                            pass
                return dict.fromkeys(out) if len(out) > 1 else out

        case syntax.Global:
            def run(interp, s):
                interp.current_node = eid
                return ((s, interp.getglobal(s)),)

        case syntax.This:
            def run(interp, s):
                interp.current_node = eid
                return ((s, interp.getthis(s)),)

        case syntax.New:
            # a fresh object, on which the constructor runs, is the value
            def construct(i, s, p):
                s1, obj = i.newobj(s, eid)
                outcomes = Interpretation.apply(i, s1, ((i.obj_key(obj), p[0]),) + p[1:])
                return [(s2, a if a is NULL else obj) for s2, a in outcomes]

            run = _bind(eid, _collect(exp_meaning(node.callee), node.args), construct)
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    return run

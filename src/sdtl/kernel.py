"""Parametric semantics kernel.

The meaning of a program fragment is a *transformer*: a function taking the
run's :class:`Interpretation` and a state, and returning a set of (successor
state, payload) pairs.  Payloads are values for expressions, ``UNIT`` for
statements, and ``NULL`` for states that escape (pending return or
exception).  The semantic equations here are written once against the
interpretation contract, as are the primitives that only touch the state
record's ``env``, ``ret``, ``ex`` and ``this`` fields.  The concrete
interpreter and the abstract type analysis plug in their own state/value
carriers and value-level primitives without touching either.

Every transformer is built once, with the program's meaning: evaluating a
node loops over its parts' outcomes and calls primitives, and builds no
closure.  Each primitive step first makes its node the interpretation's
``current_node``; ``concrete.run_program`` tags a run-time error with it.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Set, Tuple

from . import syntax

Transformer = Callable[["Interpretation", Any], Set[Tuple[Any, Any]]]


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


UNIT = _Marker("Unit")  # payload of statement meanings
NULL = _Marker("Null")  # payload paired with escaping successor states
VOID = _Marker("Void")  # empty return/exception slot
VOID_VAL = _Marker("VoidVal")  # unusable result of a value-less function call


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


class DeadBranch(Exception):
    """Raised by abstract primitives when a branch cannot proceed.

    The step that called the primitive discards the branch; a diagnostic has
    already been logged by the interpretation.
    """


class FrozenMap(Mapping):
    """Immutable hashable mapping; ``set`` returns an updated copy."""

    __slots__ = ("_data", "_hash")

    def __init__(self, data=()):
        self._data = dict(data)
        self._hash = None

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._data.items()))
        return self._hash

    def __eq__(self, other):
        if isinstance(other, FrozenMap):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def set(self, key, value) -> "FrozenMap":
        data = dict(self._data)
        data[key] = value
        return FrozenMap(data)

    def __repr__(self):
        items = sorted(self._data.items(), key=lambda kv: repr(kv[0]))
        return "{" + ", ".join(f"{k!r}: {v!r}" for k, v in items) + "}"


# --- State records -----------------------------------------------------------
# States are records (frozen dataclasses); operations written against a few
# named fields are reusable when the state grows new dimensions.


class Record:
    """Base of state records declared ``@dataclass(frozen=True, eq=False)``:
    equal when their fields are, hashed as their field tuple (the value a
    frozen dataclass would generate) once, in a slot that :func:`replace`
    does not copy."""

    __slots__ = ("_hash", "__dict__")

    def __new__(cls, *args, **kwargs):
        record = object.__new__(cls)
        object.__setattr__(record, "_hash", None)
        return record

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(tuple(self.__dict__.values()))
            object.__setattr__(self, "_hash", value)
        return value


def replace(record, **changes):
    """Copy of the frozen record with `changes` applied; unlike
    ``dataclasses.replace`` it neither re-reads the fields nor runs __init__."""
    cls = record.__class__
    copy = cls.__new__(cls)
    fields = copy.__dict__
    fields.update(record.__dict__)
    fields.update(changes)
    return copy


# --- Transformer combinators -------------------------------------------------


def pure(value) -> Transformer:
    """Identity state transformer yielding `value` (the monadic return)."""

    def run(interp, s):
        return {(s, value)}

    return run


_SKIP = pure(UNIT)  # the meaning of ``nil``, shared by every equation that skips


def _seq(t: Transformer, u: Transformer) -> Transformer:
    """`t` then `u`: each escaping successor of `t` is emitted as
    (state, NULL), and every other one flows into `u`."""

    def run(interp, s):
        esc = interp.esc
        out = set()
        for s1, _ in t(interp, s):
            if esc(s1):
                out.add((s1, NULL))
            else:
                out |= u(interp, s1)
        return out

    return run


def _block(node) -> Transformer:
    """The chain of ``Seq`` nodes on the right spine of `node` as one block:
    its statements run in turn, each once from every distinct state the one
    before left, and escaping states pass through as (state, NULL).

    Each inner ``Seq`` node that a state reached is reported to the trace
    hook once per run of the block, innermost first, with the outcomes of
    the rest of the chain: the final outcomes plus the escapes from its
    position onward.  The outer node is reported by its own equation.
    """
    seqs, parts = [], []
    while type(node) is syntax.Seq:
        seqs.append(node)
        parts.append(stm_meaning(node.first))
        node = node.second
    last = stm_meaning(node)

    def run(interp, s):
        esc = interp.esc
        states, escaped = (s,), []  # escaped: (position, outcome)
        for position, t in enumerate(parts):
            after = []
            for s0 in states:
                for s1, _ in t(interp, s0):
                    if esc(s1):
                        escaped.append((position, (s1, NULL)))
                    else:
                        after.append(s1)
            states = set(after) if len(after) > 1 else after
            if not states:
                break
        out = set()
        for s0 in states:
            out |= last(interp, s0)
        if interp.trace is not None:
            reached = position  # the last statement that ran
            for inner in range(reached, 0, -1):
                while escaped and escaped[-1][0] >= inner:
                    out.add(escaped.pop()[1])
                interp.trace(seqs[inner], set(out))
        for _, outcome in escaped:
            out.add(outcome)
        return out

    return run


def _step(nid, t: Transformer, body) -> Transformer:
    """Primitive step of node `nid` after `t` (the monadic bind).

    Each escaping successor of `t` is emitted as (state, NULL).  For every
    other (state, payload) the step makes `nid` the interpretation's current
    node and adds ``body(interp, state, payload)``, an outcome set, or
    nothing if the body raises :class:`DeadBranch`.  Only a primitive raises
    it, and only inside a step that catches it, so no transformer does.
    """

    def run(interp, s):
        out = set()
        for s1, a in t(interp, s):
            if interp.esc(s1):
                out.add((s1, NULL))
                continue
            interp.current_node = nid
            try:
                out |= body(interp, s1, a)
            except DeadBranch:
                pass
        return out

    return run


def _branch(nid, guard_t, then_t, else_t) -> Transformer:
    """Selection of node `nid`: each non-escaping outcome of `guard_t` runs
    `then_t` and/or `else_t`, as ``cond`` of its value allows."""

    def run(interp, s):
        out = set()
        for s1, v in guard_t(interp, s):
            if interp.esc(s1):
                out.add((s1, NULL))
                continue
            interp.current_node = nid
            for taken in interp.cond(v):
                out |= (then_t if taken else else_t)(interp, s1)
        return out

    return run


def _collect(first: Transformer, exps) -> Transformer:
    """`first`, then the expressions `exps` left to right, each run from
    every non-escaping successor of the one before; the payload is the tuple
    of their payloads."""
    rest = _collect(exp_meaning(exps[0]), exps[1:]) if exps else pure(())

    def run(interp, s):
        out = set()
        for s1, a in first(interp, s):
            if interp.esc(s1):
                out.add((s1, NULL))
            else:
                out |= {(s2, v if v is NULL else (a,) + v) for s2, v in rest(interp, s1)}
        return out

    return run


def _units(states):
    """Outcomes of a statement step: each successor state with ``UNIT``."""
    return {(s, UNIT) for s in states}


# --- The interpretation contract ----------------------------------------------


class Interpretation:
    """Parameter set of the semantics, one per run: state and value carriers
    plus the primitive operations the equations below defer to, the program
    and the run's trace hook.

    States are records (frozen dataclasses, usually :class:`Record`s) with
    fields ``env``, ``ret``, ``ex`` and ``this``, the key of the receiver
    object.  The record-state primitives are written here once against those
    fields, and any further field (heap, I/O, ...) is carried through calls
    untouched.  A domain declares its object-pointer class (one field: the
    heap key, 0 for the global object) and its function-pointer class (built
    from a sid), and writes the value-level primitives.

    Every primitive takes the state and returns its result: a value, a state,
    a set of successor states, or a set of (state, payload) outcomes;
    ``cond`` takes only a guard value and returns the branches that may run,
    ``(True,)``, ``(False,)`` or both.  No primitive takes or returns a
    transformer except ``fixpoint``, which takes one unfolding.  State
    equality must be decidable.

    The function space, sid -> meaning of the function's body, is the least
    fixed point of its equations, realized lazily: each body's meaning is
    built on its first call in the run, and a call runs it through the
    fixed-point hook, so recursion in the interpreted program becomes
    recursion in the host (or, abstractly, a query against the summary
    engine).  The optional trace hook ``trace(node, outcome)`` is invoked
    per statement evaluation.
    """

    obj_ref_class = None
    fun_ptr_class = None

    # id of the node whose primitive step runs, set by the step (one thread)
    current_node = None

    def __init__(self, program: syntax.Program, trace=None):
        self.program = program
        self.trace = trace
        self._fun_bodies = {}

    def fun_body(self, sid) -> Transformer:
        """Meaning of the body of function `sid`, built once per run."""
        if sid not in self._fun_bodies:
            self._fun_bodies[sid] = stm_meaning(self.program.stm(sid))
        return self._fun_bodies[sid]

    # value-level primitives: written by each domain

    def initial_state(self):
        raise NotImplementedError

    def cond(self, value):  # -> tuple of branches (True: then, False: else)
        raise NotImplementedError

    def val(self, state, name):  # -> Value
        raise NotImplementedError

    def conval(self, constant):  # -> Value
        raise NotImplementedError

    def getinput(self, state):  # -> set of (State, Value)
        raise NotImplementedError

    def dooutput(self, state, value):  # -> set of States
        raise NotImplementedError

    def bin(self, op, left, right):  # -> Value
        raise NotImplementedError

    def apply(self, state, fun_value, args, this_value, eid):  # -> outcomes
        raise NotImplementedError

    def get(self, state, ref, member):  # -> Value
        raise NotImplementedError

    def set(self, state, ref, member, value):  # -> set of States
        raise NotImplementedError

    def newobj(self, state, eid):  # -> set of (State, Value)
        raise NotImplementedError

    # record-state primitives: shared by every domain

    def esc(self, state) -> bool:
        return state.ret is not VOID or state.ex is not VOID

    def asg(self, state, name, value):  # -> set of States
        return {replace(state, env=state.env.set(name, value))}

    def ret(self, state, value):  # -> set of States
        return {replace(state, ret=value)}

    def throw(self, state, value):  # -> set of States
        return {replace(state, ex=value)}

    def exs(self, state, exc_name):  # -> State
        return replace(state, env=state.env.set(exc_name, state.ex), ex=VOID)

    def fundecl(self, state, name, sid):  # -> set of States
        return {replace(state, env=state.env.set(name, self.fun_ptr_class(sid)))}

    def getglobal(self, state):  # -> Value
        return self.obj_ref_class(0)

    def getthis(self, state):  # -> Value
        return self.obj_ref_class(state.this)

    def enter(self, caller, sid, args, this_value, params):  # -> State
        """Callee entry state: parameters bound, receiver from `this_value`,
        empty slots, and every other field carried in from the caller."""
        assert isinstance(this_value, self.obj_ref_class), this_value
        (key,) = vars(this_value).values()
        env = FrozenMap(dict(zip(params, args)))
        return replace(caller, env=env, ret=VOID, ex=VOID, this=key)

    def leave(self, caller, callee):  # -> (State, return slot)
        """Caller state after the call: the caller's env and receiver, the
        callee's pending exception and every other field of the callee."""
        after = replace(callee, env=caller.env, ret=VOID, this=caller.this)
        return after, callee.ret

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
            return set()
        frontier = [state]
        self._active = (nid, frontier)
        out = set()
        try:
            while frontier:
                out |= step(self, frontier.pop())
        finally:
            self._active = active
        return out


# --- Auxiliary call machinery --------------------------------------------------


def call(interp, s, sid, args, this_value):  # -> outcomes
    """Run function `sid` on `args` with receiver `this_value` from state `s`.

    Builds the callee entry state, runs the body through the
    interpretation's fixed-point hook, and maps every exit state back
    through ``leave``.  A Void return slot becomes the unusable ``VOID_VAL``
    payload.
    """
    entry = interp.enter(s, sid, args, this_value, interp.program.param(sid))
    out = set()
    for exit_state, _ in interp.fixpoint("call", sid, interp.fun_body(sid), entry):
        after, ret = interp.leave(s, exit_state)
        out.add((after, VOID_VAL if ret is VOID else ret))
    return out


# --- Semantic equations ---------------------------------------------------------


def _traced(node, run) -> Transformer:
    """Report each outcome of statement `node` to the run's trace hook."""

    def traced(interp, s):
        out = run(interp, s)
        if interp.trace is not None:
            interp.trace(node, out)
        return out

    return traced


def stm_meaning(node: syntax.Stm) -> Transformer:
    """Meaning of a statement (payloads are UNIT, or NULL once escaped)."""
    sid = node.sid
    match node:
        case syntax.Nil():
            run = _SKIP
        case syntax.Seq():
            run = _block(node)
        case syntax.ExpStm(exp=exp):
            run = _seq(exp_meaning(exp), _SKIP)
        case syntax.Output(exp=exp):
            run = _step(sid, exp_meaning(exp), lambda i, s, v: _units(i.dooutput(s, v)))
        case syntax.Assign(target=syntax.Var(name=name), value=value):
            value_t = exp_meaning(value)

            def run(interp, s):
                out = set()
                for s1, v in value_t(interp, s):
                    if interp.esc(s1):
                        out.add((s1, NULL))
                        continue
                    interp.current_node = sid
                    for s2 in interp.asg(s1, name, v):
                        out.add((s2, UNIT))
                return out

        case syntax.Assign(target=syntax.Member(obj=obj, member=member), value=value):
            run = _step(
                sid, _collect(exp_meaning(obj), (value,)),
                lambda i, s, rv: _units(i.set(s, rv[0], member, rv[1])),
            )
        case syntax.If() | syntax.IfElse():
            then_t = stm_meaning(node.then_body)
            else_t = _SKIP if type(node) is syntax.If else stm_meaning(node.else_body)
            run = _branch(sid, exp_meaning(node.guard), then_t, else_t)
        case syntax.While(guard=guard, body=body):
            # one self-referential transformer: `unfold` runs the loop once
            # and re-enters it through the fixed-point hook
            def run(interp, s):
                return interp.fixpoint("loop", sid, unfold, s)

            loop_t = _seq(stm_meaning(body), run)
            unfold = _branch(sid, exp_meaning(guard), loop_t, _SKIP)
        case syntax.FunDecl(name=name):
            run = _step(sid, _SKIP, lambda i, s, _: _units(i.fundecl(s, name, sid)))
        case syntax.Return(exp=exp):
            run = _step(sid, exp_meaning(exp), lambda i, s, v: _units(i.ret(s, v)))
        case syntax.TryCatch(body=body, exc_name=exc_name, handler=handler):
            # every outcome of the body with a pending exception runs the
            # handler; any other, escaping by return or not, passes through
            body_t, handler_t = stm_meaning(body), stm_meaning(handler)

            def run(interp, s):
                out = set()
                for s1, _ in body_t(interp, s):
                    if s1.ex is VOID:
                        out.add((s1, UNIT))
                    else:
                        interp.current_node = sid
                        out |= handler_t(interp, interp.exs(s1, exc_name))
                return out

        case syntax.Throw(exp=exp):
            run = _step(sid, exp_meaning(exp), lambda i, s, v: _units(i.throw(s, v)))
        case _:
            raise TypeError(f"not a statement node: {node!r}")
    return _traced(node, run)


def exp_meaning(node: syntax.Exp) -> Transformer:
    """Meaning of an expression (payloads are values)."""
    eid = node.eid
    match node:
        case syntax.Con(value=value):
            def run(interp, s):
                return {(s, interp.conval(value))}

        case syntax.LexpRef(lexp=lexp):
            run = lexp_meaning(lexp)
        case syntax.Input():
            run = _step(eid, _SKIP, lambda i, s, _: i.getinput(s))
        case syntax.Call(callee=callee, args=args):
            run = _step(
                eid, _collect(lexp_meaning(callee), args),
                lambda i, s, p: i.apply(s, p[0], p[1:], i.getthis(s), eid),
            )
        case syntax.MethodCall(receiver=obj, member=member, args=args):
            # `method_t` yields (receiver, method), read before the arguments run
            method_t = _step(
                eid, exp_meaning(obj), lambda i, s, r: {(s, (r, i.get(s, r, member)))}
            )
            run = _step(
                eid, _collect(method_t, args),
                lambda i, s, p: i.apply(s, p[0][1], p[1:], p[0][0], eid),
            )
        case syntax.BinOp(op=op, left=left, right=right):
            left_t, right_t = exp_meaning(left), exp_meaning(right)

            def run(interp, s):
                out = set()
                for s1, c1 in left_t(interp, s):
                    if interp.esc(s1):
                        out.add((s1, NULL))
                        continue
                    for s2, c2 in right_t(interp, s1):
                        if interp.esc(s2):
                            out.add((s2, NULL))
                            continue
                        interp.current_node = eid
                        try:
                            out.add((s2, interp.bin(op, c1, c2)))
                        except DeadBranch:
                            pass
                return out

        case syntax.Paren(inner=inner):
            run = exp_meaning(inner)
        case syntax.Global():
            run = _step(eid, _SKIP, lambda i, s, _: {(s, i.getglobal(s))})
        case syntax.This():
            run = _step(eid, _SKIP, lambda i, s, _: {(s, i.getthis(s))})
        case syntax.New(callee=callee, args=args):
            # a fresh object, on which the constructor runs, is the value
            def construct(i, s, p):
                out = set()
                for s1, obj in i.newobj(s, eid):
                    for s2, _ in i.apply(s1, p[0], p[1:], obj, eid):
                        out.add((s2, NULL if i.esc(s2) else obj))
                return out

            run = _step(eid, _collect(lexp_meaning(callee), args), construct)
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    return run


def lexp_meaning(node: syntax.Lexp) -> Transformer:
    """Meaning of a left-expression (payloads are values)."""
    eid = node.eid
    match node:
        case syntax.Var(name=name):
            def run(interp, s):
                interp.current_node = eid
                try:
                    return {(s, interp.val(s, name))}
                except DeadBranch:
                    return set()

        case syntax.Member(obj=obj, member=name):
            run = _step(eid, exp_meaning(obj), lambda i, s, v: {(s, i.get(s, v, name))})
        case _:
            raise TypeError(f"not a left-expression node: {node!r}")
    return run

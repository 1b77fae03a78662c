import dataclasses
import gc
import inspect
import math
import os
import random
import types
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GENERATED, PROGRAMS, call_chain, calls_by_file, find_call_eid, find_fundecl,
    iter_nodes, load, load_program, max_depth, wide_call,
)
from perfbench import programs
from sdtl import abstract, concrete, kernel, soundness, syntax
from sdtl.kernel import NULL, UNIT, VOID, FrozenMap, pure
from sdtl.syntax import parse


# --- Record focus utilities (three-field contact record) ---------------------


@dataclass(frozen=True)
class Contact:
    name: str
    address: str
    age: int


BOB = Contact("bob", "17 st", 30)


def test_replace_copies_with_changed_fields():
    older = kernel.replace(BOB, age=31, address="18 st")
    assert older == Contact("bob", "18 st", 31) and BOB.age == 30
    assert hash(older) == hash(Contact("bob", "18 st", 31))


def test_record_hash_is_the_field_tuple_hash_and_not_copied():
    state = concrete.initial_state((4,))
    fields = (state.env, state.obj_mem, state.this, state.ret, state.ex,
              state.inputs, state.outputs)
    assert hash(state) == hash(fields)
    moved = kernel.replace(state, this=3)
    assert hash(moved) == hash(fields[:2] + (3,) + fields[3:]) != hash(state)
    assert moved != state and kernel.replace(moved, this=0) == state
    astate = abstract.AState()
    afields = (astate.env, astate.obj_mem, astate.this, astate.ret, astate.ex)
    assert hash(astate) == hash(afields + (astate.curried,))


RECORD_STATE_PRIMITIVES = (
    "val", "get", "set", "asg", "ret", "throw", "exs", "fundecl",
    "getglobal", "getthis", "enter", "leave",
)


def test_domains_write_no_record_state_primitive():
    """The primitives that only read or write the state record's fields, and
    the call, `apply`, are written once, in the kernel; a domain supplies its
    pointer checks, `obj_key` and `fun_parts`, its partial application,
    `curry`, and its error policy, `undefined`, instead."""
    shared = {*RECORD_STATE_PRIMITIVES, "apply"}
    assert shared <= vars(kernel.Interpretation).keys()
    assert not hasattr(kernel, "call")
    for domain in (concrete.ConcreteInterpretation, abstract.AbstractInterpretation):
        assert not shared & vars(domain).keys(), domain
        assert {"obj_key", "fun_parts", "curry", "undefined"} <= vars(domain).keys()


def _run_env(program):
    """The final env of a run, or its error as (message, node)."""
    try:
        return concrete.run_program(program).final_state.env
    except kernel.EvalError as err:
        return err.message, err.node_id


def _analysis_env(program):
    """The one final abstract env, or the one diagnostic as (message, node)."""
    result = abstract.analyze_program(program)
    if not result.final_states:
        ((node, message),) = map(dataclasses.astuple, result.diagnostics)
        return message, node
    (state,) = result.final_states
    return state.env


CALL_DOMAINS = {
    "concrete": (_run_env, 123, ""),
    "abstract": (_analysis_env, abstract.NUM, "possible type error: "),
}


@pytest.mark.parametrize("domain", CALL_DOMAINS)
def test_kernel_apply_curries_saturates_and_rejects_extra_arguments(domain):
    """`apply` is the kernel's, over each domain's `fun_parts` and `curry`:
    an arity-3 function gives one result however its arguments are split
    over applications, an uncurried pointer applied to no argument is
    itself, and over-applying a curried pointer fails at that call."""
    outcome, value, prefix = CALL_DOMAINS[domain]
    add3 = "function add3(a,b,c){ return a*100 + b*10 + c; } "
    for calls in (
        "r = add3(1, 2, 3);",
        "p = add3(1); r = p(2, 3);",
        "p = add3(1, 2); r = p(3);",
        "p = add3(1); q = p(2); r = q(3);",
        "p = add3(); q = p(1, 2); r = q(3);",
        "p = add3(); q = p(); r = q(1, 2, 3);",
    ):
        assert outcome(parse(add3 + calls))["r"] == value, calls
    env = outcome(parse(add3 + "q = add3();"))
    assert env["q"] == env["add3"]
    program = parse("function add(x,y){return x+y;} p = add(1); q = p(2, 3);")
    message = prefix + "too many arguments (3 for arity 2)"
    assert outcome(program) == (message, find_call_eid(program, "p"))


# `m`'s plain calls of `mark` take an argument that is a method call on
# another object and one that is a `new`
RECEIVERS = """function getid() { return this.id; }
function mark(x) { this.mark = x; return this.id; }
function m(other, mark, Box) {
  a = mark(other.getid());
  b = mark(new Box(3, other.getid, this.m));
  return a * 10 + b;
}
function Box(v, getid, m) { this.id = v; this.getid = getid; this.m = m; }
p = new Box(1, getid, m);
q = new Box(2, getid, m);
output p.m(q, mark, Box);
output p.mark.id;
output q.getid();
"""


def test_each_call_form_runs_on_its_receiver():
    """A method call runs on its object, a `new` on the fresh one and a
    plain call on its caller's receiver, whatever calls its arguments make:
    both `mark` calls in `p.m` mark `p`, in the run and in the analysis,
    and the method call and the constructor in their arguments leave `q`
    and the new object unmarked."""
    program = parse(RECEIVERS)
    mark_sid = syntax.statements(find_fundecl(program, "mark").body)[0].sid
    receivers = {"run": [], "analysis": []}

    def recorder(domain):
        def trace(sid, outcome):
            if sid == mark_sid:
                receivers[domain] += [state.this for state, _ in outcome]
        return trace

    result = concrete.run_program(program, trace=recorder("run"))
    assert result.outputs == (11, 3, 2)
    (state,) = abstract.analyze_program(program, trace=recorder("analysis")).final_states
    # the sites in pre-order: the `new` in `m`, then those of `p` and `q`
    inner, p, q = (n.eid for n in iter_nodes(program.root) if type(n) is syntax.New)
    box = {
        "getid": {"fun": [find_fundecl(program, "getid").sid, 0, 0]},
        "id": "Num",
        "m": {"fun": [find_fundecl(program, "m").sid, 0, 0]},
    }
    rendered = abstract.state_to_json(state)
    assert rendered["this"] == 0 and rendered["objmem"] == {
        "0": {}, str(inner): box, str(p): {**box, "mark": {"obj": inner}}, str(q): box,
    }
    assert receivers == {"run": [1, 1], "analysis": [p, p]}


def test_frozen_map_behaves_like_mapping():
    base = FrozenMap({"a": 1})
    updated = base.set("b", 2)
    assert base == {"a": 1} and updated == {"a": 1, "b": 2}
    assert hash(updated) == hash(FrozenMap({"b": 2, "a": 1}))
    assert updated != base and "b" not in base
    mutations = (
        lambda m: m.__setitem__("a", 2), lambda m: m.__delitem__("a"),
        lambda m: m.__ior__({"c": 3}), lambda m: m.clear(), lambda m: m.pop("a"),
        lambda m: m.popitem(), lambda m: m.setdefault("c", 3),
        lambda m: m.update(c=3),
    )
    for mutate in mutations:
        before = hash(updated)
        with pytest.raises(TypeError):
            mutate(updated)
        assert updated == {"a": 1, "b": 2} and hash(updated) == before


# --- Bind laws on a three-state toy domain -----------------------------------
# states are 0, 1, 2 and payloads 0, 1, 2 or NULL, the payload of an escaping
# outcome.  A primitive step `_bind(nid, t, body)` is the monadic bind of `t`
# with the continuation `body`; `_collect` sequences without a primitive.
# A step returns a sequence and the toy's tables are sets, so the laws compare
# the sets of outcomes; both sides of associativity list them in one order.

STATES = (0, 1, 2)
VALUES = (0, 1, 2)
PAYLOADS = VALUES + (NULL,)

TOY = kernel.Interpretation(None)


def from_table(mapping):
    """Transformer from a dict: state -> set of (state, payload) pairs."""

    def run(interp, s):
        return set(mapping.get(s, ()))

    return run


def cont_from_table(mapping):
    """Step body from a dict: payload -> (state -> pairs)."""

    def body(interp, s, payload):
        return from_table(mapping.get(payload, {}))(interp, s)

    return body


def step(t, body):
    return kernel._bind(7, t, body)


pairs_st = st.frozensets(
    st.tuples(st.sampled_from(STATES), st.sampled_from(PAYLOADS)), max_size=4
)
transformer_st = st.fixed_dictionaries({s: pairs_st for s in STATES})
continuation_st = st.fixed_dictionaries({v: transformer_st for v in VALUES})


@settings(max_examples=300)
@given(transformer_st, pairs_st, st.sampled_from(STATES), continuation_st)
def test_bind_preserves_monotonicity(table, extra, start, kont):
    bigger = {s: table[s] | (extra if s == start else frozenset()) for s in STATES}
    t, t_big, k = from_table(table), from_table(bigger), cont_from_table(kont)
    for s in STATES:
        assert set(step(t, k)(TOY, s)) <= set(step(t_big, k)(TOY, s))


@settings(max_examples=300)
@given(transformer_st, continuation_st, transformer_st, st.sampled_from(STATES))
def test_escape_short_circuit(table, kont, then_table, start):
    """Escaping outcomes pass through a step, a sequence and `_collect`."""
    escaping_only = {s: {(s1, NULL) for s1, _ in table[s]} for s in STATES}
    t, k = from_table(escaping_only), cont_from_table(kont)
    then_t = from_table(then_table)
    expected = escaping_only[start]
    assert set(step(t, k)(TOY, start)) == expected
    assert set(step(t, lambda i, s, _: then_t(i, s))(TOY, start)) == expected
    assert set(kernel._collect(t, ())(TOY, start)) == expected


@settings(max_examples=300)
@given(st.sampled_from(VALUES), continuation_st, st.sampled_from(STATES))
def test_bind_left_identity(value, kont, start):
    k = cont_from_table(kont)
    assert set(step(pure(value), k)(TOY, start)) == set(k(TOY, start, value))


@settings(max_examples=300)
@given(transformer_st, st.sampled_from(STATES))
def test_bind_right_identity_on_non_escaping_flows(table, start):
    """Right identity holds on non-escaping flows, and since escapes pass
    through unchanged, on every flow; `_collect` of one part wraps each
    value in a tuple."""
    t = from_table(table)
    assert set(step(t, lambda i, s, a: ((s, a),))(TOY, start)) == set(t(TOY, start))
    assert set(kernel._collect(t, ())(TOY, start)) == {
        (s1, p if p is NULL else (p,)) for s1, p in t(TOY, start)
    }


@settings(max_examples=300)
@given(transformer_st, continuation_st, continuation_st, st.sampled_from(STATES))
def test_bind_associativity(table, kont1, kont2, start):
    t, k, h = from_table(table), cont_from_table(kont1), cont_from_table(kont2)
    left = step(step(t, k), h)(TOY, start)
    right = step(t, lambda i, s, a: step(lambda i1, s1: k(i1, s1, a), h)(i, s))
    assert list(left) == list(right(TOY, start))


def test_bind_maps_both_branches():
    t = from_table({0: {(0, 1), (1, 2), (2, NULL)}})
    seen = []

    def body(interp, s, v):
        seen.append(interp.current_node)
        return {(s, v + 1)}

    assert set(step(t, body)(TOY, 0)) == {(0, 2), (1, 3), (2, NULL)}
    assert seen == [7, 7]  # the step makes its node current before the body


# --- Equation fidelity: one micro-program per semantic equation ---------------


def outcome_of(source, inputs=()):
    program = parse(source)
    interp = concrete.ConcreteInterpretation(program)
    return program, interp, kernel.stm_meaning(program.root)(
        interp, concrete.initial_state(inputs)
    )


def final_env(outcome):
    ((state, _),) = outcome
    return dict(state.env)


def test_nil_yields_unit_without_state_change():
    _, _, outcome = outcome_of("nil;")
    ((state, payload),) = outcome
    assert payload is UNIT and state == concrete.initial_state()


def test_seq_is_bind_of_parts():
    program, interp, outcome = outcome_of("x = 1; y = 2;")
    first_t = kernel.stm_meaning(program.root.first)
    second_t = kernel.stm_meaning(program.root.second)
    manual = kernel._bind(program.root.sid, first_t, lambda i, s, _: second_t(i, s))
    assert outcome == manual(interp, concrete.initial_state())


def test_expression_statement_discards_value():
    _, _, outcome = outcome_of("5;")
    ((state, payload),) = outcome
    assert payload is UNIT and state.ret is VOID


def test_return_sets_return_slot():
    _, _, outcome = outcome_of("return 7;")
    ((state, payload),) = outcome
    assert state.ret == 7 and payload is NULL


def test_if_dispatches_on_guard():
    assert final_env(outcome_of("if(true){x=1;}")[2]) == {"x": 1}
    assert final_env(outcome_of("if(false){x=1;}")[2]) == {}
    assert final_env(outcome_of("if(false){x=1;} else {x=2;}")[2]) == {"x": 2}


def test_assignment_binds_and_overwrites():
    assert final_env(outcome_of("x = 30;")[2]) == {"x": 30}
    assert final_env(outcome_of("x = 1; x = 2;")[2]) == {"x": 2}


def test_while_false_guard_is_pure_unit():
    _, _, outcome = outcome_of("while(false){x=1;}")
    ((state, payload),) = outcome
    assert payload is UNIT and dict(state.env) == {}


def test_while_unfolds_until_guard_fails():
    env = final_env(outcome_of("n = 3; s = 0; while(n>0){s = s + n; n = n - 1;}")[2])
    assert env == {"n": 0, "s": 6}  # 3 + 2 + 1


def test_output_appends_to_log():
    _, _, outcome = outcome_of("output 3; output 4;")
    ((state, _),) = outcome
    assert state.outputs == (3, 4)


def test_fundecl_binds_pointer_without_running_body():
    program, _, outcome = outcome_of("function f(){output 9;}")
    ((state, _),) = outcome
    decl = program.root
    assert state.env["f"] == concrete.FunPtr(decl.sid, ())
    assert state.outputs == ()


def test_con_input_and_binop():
    _, _, outcome = outcome_of("x = input + 2;", inputs=(5,))
    assert final_env(outcome) == {"x": 7}


def test_paren_is_transparent():
    assert final_env(outcome_of("x = (1 + 2) * 3;")[2]) == {"x": 9}


def test_eval_params_empty_and_constants():
    program = parse("x = 1;")
    interp = concrete.ConcreteInterpretation(program)
    state = concrete.initial_state()
    assert set(kernel._collect(pure(3), ())(interp, state)) == {(state, (3,))}
    exps = (syntax.Con(0, 5), syntax.Con(0, 7))
    assert set(kernel._collect(pure(3), exps)(interp, state)) == {(state, (3, 5, 7))}


def test_eval_params_threads_input_stream():
    program = parse("x = 1;")
    interp = concrete.ConcreteInterpretation(program)
    state = concrete.initial_state((1, 2))
    first_input = kernel.exp_meaning(syntax.Input(0))
    collect = kernel._collect(first_input, (syntax.Input(0),))
    ((after, values),) = collect(interp, state)
    assert values == (1, 2)
    assert after.inputs == ()


def test_eval_params_short_circuits_on_escape():
    source = "function boom(){ throw 5; } x = boom() * input;"
    program = parse(source)
    interp = concrete.ConcreteInterpretation(program)
    outcome = kernel.stm_meaning(program.root)(interp, concrete.initial_state((9,)))
    ((state, payload),) = outcome
    assert payload is kernel.NULL and state.ex == 5
    assert state.inputs == (9,)  # the escape preempted the input read


def test_call_runs_body_and_restores_caller():
    _, _, outcome = outcome_of("function one(){ return 1; } x = one();")
    ((state, _),) = outcome
    assert state.env["x"] == 1 and state.ret is VOID


def test_mutual_recursion_resolves():
    source = """
    function isodd(odd, even, n) { if(n == 0) { return false; } return even(odd, even, n - 1); }
    function iseven(odd, even, n) { if(n == 0) { return true; } return odd(odd, even, n - 1); }
    output iseven(isodd, iseven, input);
    """
    result = concrete.run_program(parse(source), (4,))
    assert result.outputs == (1,)  # 4 is even; booleans print as 1/0


def test_errors_carry_node_id():
    program = parse("x = 1 / 0;")
    with pytest.raises(kernel.EvalError) as exc:
        concrete.run_program(program)
    div = next(
        n for n in iter_nodes(program.root)
        if isinstance(n, syntax.BinOp) and n.op == "/"
    )
    assert exc.value.node_id == div.eid


def test_trace_hook_reports_statements():
    """The hook is called with each statement's sid and outcomes."""
    program = parse("x = 1; y = 2;")
    seen = []
    concrete.run_program(program, trace=lambda sid, out: seen.append(sid))
    stm_sids = {
        n.sid for n in iter_nodes(program.root) if isinstance(n, syntax.Stm)
    }
    assert set(seen) == stm_sids


def test_outcome_payload_is_null_exactly_when_its_state_escapes(monkeypatch):
    """Every outcome that either interpretation reports to the trace hook
    has payload NULL exactly when its state has a pending return or
    exception, so no statement's outcomes hold a state twice.  The samples
    run on inputs 3,4,100 and each recorded program of ``helpers.GENERATED``
    on its first input vector; a budget of 1,000 loop iterations ends the
    sample that does not terminate."""
    monkeypatch.setattr(kernel.Interpretation, "max_loop_iterations", 1000)
    cases = [(path.read_text(), (3, 4, 100)) for path in sorted(PROGRAMS.glob("*.sdtl"))]
    cases += [(source, vectors[0]) for source, vectors in GENERATED]
    wrong = []

    def trace(sid, outcome):
        for state, payload in outcome:
            if (payload is NULL) != (state.ret is not VOID or state.ex is not VOID):
                wrong.append((sid, state, payload))
        if len(outcome) != len({state for state, _ in outcome}):
            wrong.append((sid, outcome))

    for source, inputs in cases:
        program = parse(source)
        abstract.analyze_program(program, trace=trace)
        try:
            concrete.run_program(program, inputs, trace=trace)
        except kernel.EvalError:
            pass  # the outcomes traced before the error were checked
        assert not wrong, (source, wrong[:3])


@pytest.mark.parametrize("source, reached", [
    ("x = 1; y = 2; z = 3;", 3),
    ("x = 1; throw x; y = 2; z = 3;", 2),  # nothing after the throw runs
], ids=["straight", "throw"])
def test_trace_reports_a_block_once_after_its_statements(source, reached):
    """A statement list is one block: the hook sees the statements that ran,
    in order, then the outer ``Seq`` once, with the block's outcome, and no
    inner ``Seq``."""
    program = parse(source)
    statements = syntax.statements(program.root)
    seen = []
    concrete.run_program(program, trace=lambda sid, out: seen.append((sid, out)))
    expected = statements[:reached] + [program.root]
    assert [sid for sid, _ in seen] == [node.sid for node in expected]
    # the block ends where its last statement that ran does
    assert seen[-1][1] == seen[reached - 1][1] and len(seen[-1][1]) == 1


def count_exp_meanings(monkeypatch) -> list:
    """The nodes of every later `exp_meaning` call, in call order."""
    builds = []
    original = kernel.exp_meaning

    def counting(node):
        builds.append(node)
        return original(node)

    monkeypatch.setattr(kernel, "exp_meaning", counting)
    return builds


def test_argument_meanings_are_built_once(monkeypatch):
    """Meanings are built with the program's meaning, not per evaluation:
    the number of `exp_meaning` calls does not depend on how often the
    recursive call's arguments are evaluated, and a second run of the same
    parsed program builds none."""
    builds = count_exp_meanings(monkeypatch)
    counts = []
    for n in (5, 20):
        program = load_program("fact.sdtl")
        builds.clear()
        assert concrete.run_program(program, (n,)).outputs == (math.factorial(n),)
        counts.append(len(builds))
    assert counts[0] == counts[1] > 0
    builds.clear()
    assert concrete.run_program(program, (5,)).outputs == (120,)
    assert builds == []


def test_analysis_and_runs_share_one_meaning(monkeypatch):
    """`differential_test` parses once, and its analysis, its four runs
    and their per-statement staging share the meanings the analysis built:
    as many `exp_meaning` calls as the analysis alone makes."""
    source = load("fact.sdtl")
    builds = count_exp_meanings(monkeypatch)
    abstract.analyze_program(parse(source))
    alone = len(builds)
    builds.clear()
    report = soundness.differential_test(
        source, [(0,), (1,), (3,), (6,)], per_statement=True
    )
    assert report["checked"] == 4 and not report["violations"]
    assert len(builds) == alone > 0


@pytest.mark.parametrize("name", ["showcase.sdtl", "while_types.sdtl"])
def test_a_parsed_program_is_freed_without_the_cyclic_collector(name):
    """The transformer kept on a node does not refer back to it, so a
    parsed program and its meanings are freed by reference counting after
    a run, an analysis and a traced run."""
    def traced_run(program):
        concrete.run_program(program, (4, 4, 4), trace=lambda sid, out: None)

    def run(program):
        concrete.run_program(program, (4, 4, 4))

    collecting = gc.isenabled()
    gc.disable()
    try:
        for use in (run, abstract.analyze_program, traced_run):
            program = load_program(name)
            root = weakref.ref(program.root)
            use(program)
            del program
            assert root() is None, use
    finally:
        if collecting:
            gc.enable()


def test_a_traced_run_after_an_untraced_one_reports_every_statement():
    """The shared meaning reads the run's trace hook at run time: a traced
    run of a program already run untraced prints the lines a traced run of
    a fresh parse does."""
    def trace_lines(program):
        lines = []

        def trace(sid, outcome):
            lines.extend(concrete.trace_line(sid, state) for state, _ in outcome)

        concrete.run_program(program, (4, 4, 4), trace=trace)
        return lines

    program = load_program("showcase.sdtl")
    concrete.run_program(program, (4, 4, 4))
    lines = trace_lines(program)
    assert lines and lines == trace_lines(load_program("showcase.sdtl"))


def test_a_statement_meaning_is_the_transformer_kept_on_its_node():
    """A statement's own step reports to the trace hook, so a request for
    its meaning wraps nothing: two requests return one object."""
    program = load_program("showcase.sdtl")
    for node in iter_nodes(program.root):
        if isinstance(node, syntax.Stm):
            assert kernel.stm_meaning(node) is kernel.stm_meaning(node)


def test_every_node_class_has_an_equation():
    """Each statement class that `syntax` declares has an equation in
    `stm_meaning`, and each expression and left-expression class one in
    `exp_meaning`; anything else is a `TypeError`."""
    leaves = {"Stm": syntax.Nil(0), "Exp": syntax.Con(0, 1), "Lexp": syntax.Var(0, "x")}
    for cls in syntax._LAYOUT:
        fields = dataclasses.fields(cls)[1:]
        node = cls(0, *(leaves.get(f.type, () if f.type.startswith("tuple") else "x")
                        for f in fields))
        meaning = kernel.stm_meaning if issubclass(cls, syntax.Stm) else kernel.exp_meaning
        assert callable(meaning(node)), cls
    with pytest.raises(TypeError, match="not a statement node"):
        kernel.stm_meaning(types.SimpleNamespace(sid=1))
    with pytest.raises(TypeError, match="not an expression node"):
        kernel.exp_meaning(types.SimpleNamespace(eid=1))


def _package_and_dataclasses_calls(run) -> tuple:
    calls = calls_by_file(run)
    package = os.path.dirname(kernel.__file__) + os.sep
    in_package = sum(n for name, n in calls.items() if name.startswith(package))
    return in_package, calls[dataclasses.__file__]


def test_concrete_loop_work_per_iteration():
    """One iteration of a counter loop costs a bounded number of calls into
    the package (38.45 since a variable read is one step; 48.5 since
    building a state record or a map runs no Python constructor, 52.6 since
    a statement's own step reports to the trace hook, 56.7 while a wrapper
    built per request reported it, 57.7 since outcomes are sequences, which
    hash no state, and a variable read is a step; 66.8 when outcomes were
    sets and a statement list was reported once, by its outer `Seq`, 71.8
    when every inner `Seq` was reported, 80.8 when every outcome loop asked
    the interpretation whether its state escaped, 82.8 when state primitives
    returned a set of states; about 138 when every evaluation built its
    continuations, and about 183 when every node also saved and restored the
    current node and copied states with `dataclasses.replace`), and none
    into `dataclasses`."""
    case = programs.counter_loop(random.Random(1), 200)
    program = parse(case.source)
    in_package, in_dataclasses = _package_and_dataclasses_calls(
        lambda: concrete.run_program(program, case.inputs)
    )
    assert in_dataclasses == 0 and in_package <= 39 * 200


def test_concrete_run_hashes_no_state():
    """Outcomes are sequences, and no step of a concrete run gathers two
    outcomes or two states, so a counter-loop run calls neither `Record.__hash__`
    nor `FrozenMap.__hash__` (3,832 calls for 200 iterations when every
    outcome was a set)."""
    case = programs.counter_loop(random.Random(1), 200)
    program = parse(case.source)
    calls = calls_by_file(
        lambda: concrete.run_program(program, case.inputs), key=lambda code: code
    )
    assert calls[kernel.Record.__hash__.__code__] == 0
    assert calls[FrozenMap.__hash__.__code__] == 0


def test_no_transformer_is_built_per_loop_iteration():
    """Every kernel function that returns a transformer runs while the
    meanings are built, as often for 200 iterations of a counter loop as for
    100 (the meanings that bound a closure per `bind` built 4 `bind`, 4
    `_prim_v` and 3 `_step` transformers per iteration)."""
    constructors = {
        name for name, value in vars(kernel).items()
        if inspect.isfunction(value) and value.__module__ == kernel.__name__
        and value.__annotations__.get("return") == "Transformer"
    }
    counts = []
    for iterations in (100, 200):
        case = programs.counter_loop(random.Random(1), iterations)
        program = parse(case.source)
        calls = calls_by_file(
            lambda: concrete.run_program(program, case.inputs),
            key=lambda code: (code.co_filename, code.co_name),
        )
        counts.append({name: calls[kernel.__file__, name] for name in constructors})
    assert {"stm_meaning", "exp_meaning", "_bind", "_block"} <= constructors
    assert counts[0] == counts[1] and counts[0]["stm_meaning"] > 0


def test_host_stack_budget_of_loops_and_calls():
    """Concrete calls recurse in the host under `recursion_headroom`'s
    10,000 frames: at 6 frames a call level, `fact(fact, 1600)` fits (the
    limit is about 1,665), and one more host frame per call lowers the limit
    below 1,600.  Loops take no host stack per iteration, so the
    1,800-iteration counter loop fits with room to spare."""
    for case in (
        programs.counter_loop(random.Random(1), 1800),
        programs.self_passing_fact(random.Random(1), 1600),
    ):
        result = concrete.run_program(parse(case.source), case.inputs)
        assert result.outputs == case.outputs


def test_a_call_level_takes_six_host_frames():
    """Each interpreted call level adds the same host frames: 200 levels go
    600 frames deeper than 100 in a run of the self-passing factorial (the
    call step's `_bind` run, `apply`, `fixpoint`, the `if`'s `_branch` run,
    the `return`'s `_bind` run and the `*`'s run), 400 in a run of a chain
    of calls through `global` and 500 in its analysis."""
    facts = [programs.self_passing_fact(random.Random(1), n) for n in (100, 200)]
    depths = [
        (max_depth(lambda: concrete.run_program(parse(fact.source), fact.inputs)),
         max_depth(lambda: concrete.run_program(chain)),
         max_depth(lambda: abstract.analyze_program(chain)))
        for fact, chain in zip(facts, [parse(call_chain(n)) for n in (100, 200)])
    ]
    assert [deep - shallow for shallow, deep in zip(*depths)] == [600, 400, 500]


def test_host_depth_of_a_run_does_not_grow_with_statements_or_iterations():
    """A statement sequence runs as one block, a loop from its frontier and
    a call's arguments from one loop's stack, so the deepest host call of a
    run, and of an analysis, is the same for 100 and 800 statements, for 100
    and 5,000 iterations and for a call of 10 and of 1,000 arguments (it
    grew by 2 frames per statement, 4 per iteration and 2 per argument when
    each recursed in the host)."""
    for cases in (
        [programs.straight_line(random.Random(1), size) for size in (100, 800)],
        [programs.counter_loop(random.Random(1), size) for size in (100, 5_000)],
        [programs.Case(wide_call(count)) for count in (10, 1_000)],
    ):
        depths = []
        for case in cases:
            program = parse(case.source)
            depths.append((
                max_depth(lambda: concrete.run_program(program, case.inputs)),
                max_depth(lambda: abstract.analyze_program(program)),
            ))
        assert depths[0] == depths[1], (cases[0].source[:40], depths)


def test_analysis_runs_a_statement_once_per_distinct_state():
    """Each branch of the if/else leaves its own state and the assignment
    after it joins them, so analysing twelve such pairs makes 62 trace-hook
    calls, in every process (as when a block's states were a set; 85 when
    every inner `Seq` was reported); when every successor
    state ran the rest of the sequence, the count doubled with each pair
    (36,856)."""
    source = "if (input > 0) { x = 1; } else { x = true; } x = 1;\n" * 12 + "output x;\n"
    calls = []
    result = abstract.analyze_program(
        parse(source), trace=lambda sid, outcome: calls.append(sid)
    )
    assert len(calls) <= 200
    assert len(result.final_states) == 1 and result.diagnostics == ()


def _counting(monkeypatch, name):
    """Count the calls of the analysis's primitive `name`."""
    calls, primitive = [], getattr(abstract.AbstractInterpretation, name)

    def counted(self, *args):
        calls.append(args)
        return primitive(self, *args)

    monkeypatch.setattr(abstract.AbstractInterpretation, name, counted)
    return calls


def test_analysis_of_calls_in_one_expression_grows_linearly(monkeypatch):
    """`f`'s two exits differ only in its locals and meet under `leave`; the
    call's step returns the outcome once, so each of the 19 `+` runs `bin`
    once, and `f`, which reads no summary, runs its body and `input > 0` once
    (2,097,150 `bin` calls when the outcomes of a step could repeat one, and
    21 when every call entry was run again to confirm its summary)."""
    source = (
        "function f() { if (input > 0) { a = 1; } else { b = 2; } return 1; }\n"
        "x = " + " + ".join(["f()"] * 20) + ";\n"
    )
    calls = _counting(monkeypatch, "bin")
    result = abstract.analyze_program(parse(source))
    assert len(calls) == 20 and len(result.final_states) == 1


def test_analysis_of_comparisons_in_one_call_grows_linearly(monkeypatch):
    """`f(a, b) == f(a, b)` compares four pairs of functions and gives the
    same outcome each time; the comparison returns it once, so ten such
    arguments take 3 applications each and `g` one, each checking its
    function pointer once (2,097,151 applications when the outcomes of a
    step could repeat one)."""
    params = ", ".join(f"p{i}" for i in range(10))
    source = (
        "function a() { return 1; }\nfunction b() { return 2; }\n"
        "function f(a, b) { if (input > 0) { return a; } return b; }\n"
        f"function g({params}) {{ return 1; }}\n"
        "x = g(" + ", ".join(["f(a, b) == f(a, b)"] * 10) + ");\n"
    )
    calls = _counting(monkeypatch, "fun_parts")
    result = abstract.analyze_program(parse(source))
    assert len(calls) == 31 and len(result.final_states) == 1


def test_analysis_builds_no_closure_per_evaluation():
    """Analysing a depth-5 loop nest runs no function nested in abstract.py,
    only its module-level functions and methods (when `cond` and `fixpoint`
    returned transformers, their inner `run` closures and two generator
    expressions ran 165 to 217 times, depending on set order)."""
    defined = {
        member.__code__
        for value in vars(abstract).values()
        if getattr(value, "__module__", None) == abstract.__name__
        for member in (vars(value).values() if inspect.isclass(value) else (value,))
        if inspect.isfunction(member)
    }
    program = parse(programs.loop_nest(random.Random(1), 5).source)
    calls = calls_by_file(lambda: abstract.analyze_program(program), key=lambda code: code)
    ran = {code for code in calls if code.co_filename == abstract.__file__}
    assert abstract.AbstractInterpretation.fixpoint.__code__ in ran
    assert {code.co_name for code in ran - defined} == set()


def test_analysis_work_on_straight_line():
    """Analysing 300 straight-line statements makes at most 5,000 calls into
    the package (4,931 since each equation is picked by node class and a
    variable read is one step, 6,020 since building a state record or a map
    runs no Python constructor, 6,563 since a statement's own step reports
    to the trace hook, 7,165 while a wrapper built per request reported it,
    and about 24,000 before)."""
    program = parse(programs.straight_line(random.Random(1), 300).source)
    with concrete.recursion_headroom():
        in_package, in_dataclasses = _package_and_dataclasses_calls(
            lambda: abstract.analyze_program(program)
        )
    assert in_dataclasses == 0 and in_package <= 5_000

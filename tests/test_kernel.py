import dataclasses
import inspect
import math
import os
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import calls_by_file, load_program, max_depth
from perfbench import programs
from sdtl import abstract, concrete, kernel, syntax
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
    fields = (state.env, state.obj_mem, state.this, state.ret, state.ex, state.io)
    assert hash(state) == hash(fields)
    moved = kernel.replace(state, this=3)
    assert hash(moved) == hash(fields[:2] + (3,) + fields[3:]) != hash(state)
    assert moved != state and kernel.replace(moved, this=0) == state
    assert hash(state.io) == hash((state.io.inputs, state.io.outputs))


def test_frozen_map_behaves_like_mapping():
    base = FrozenMap({"a": 1})
    updated = base.set("b", 2)
    assert base == {"a": 1} and updated == {"a": 1, "b": 2}
    assert hash(updated) == hash(FrozenMap({"b": 2, "a": 1}))
    assert updated != base and "b" not in base


# --- Bind laws on a three-state toy domain -----------------------------------
# states are 0, 1, 2; state 2 escapes.  A primitive step `_step(nid, t, body)`
# is the monadic bind of `t` with the continuation `body`; `_seq` and
# `_collect` sequence without a primitive.

STATES = (0, 1, 2)
PAYLOADS = (0, 1, 2, 3)


class ToyInterp(kernel.Interpretation):
    def esc(self, state):
        return state == 2


TOY = ToyInterp(None)


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
    return kernel._step(7, t, body)


pairs_st = st.frozensets(
    st.tuples(st.sampled_from(STATES), st.sampled_from(PAYLOADS)), max_size=4
)
transformer_st = st.fixed_dictionaries({s: pairs_st for s in STATES})
continuation_st = st.fixed_dictionaries({p: transformer_st for p in PAYLOADS})


@settings(max_examples=300)
@given(transformer_st, pairs_st, st.sampled_from(STATES), continuation_st)
def test_bind_preserves_monotonicity(table, extra, start, kont):
    bigger = {s: table[s] | (extra if s == start else frozenset()) for s in STATES}
    t, t_big, k = from_table(table), from_table(bigger), cont_from_table(kont)
    for s in STATES:
        assert step(t, k)(TOY, s) <= step(t_big, k)(TOY, s)


@settings(max_examples=300)
@given(transformer_st, continuation_st, transformer_st, st.sampled_from(STATES))
def test_escape_short_circuit(table, kont, then_table, start):
    escaping_only = {s: {(2, p) for _, p in table[s]} for s in STATES}
    t, k = from_table(escaping_only), cont_from_table(kont)
    expected = {(2, NULL)} if escaping_only[start] else set()
    assert step(t, k)(TOY, start) == expected
    assert kernel._seq(t, from_table(then_table))(TOY, start) == expected
    assert kernel._collect(t, ())(TOY, start) == expected


@settings(max_examples=300)
@given(st.sampled_from(PAYLOADS), continuation_st, st.sampled_from((0, 1)))
def test_bind_left_identity(value, kont, start):
    k = cont_from_table(kont)
    assert step(pure(value), k)(TOY, start) == k(TOY, start, value)


@settings(max_examples=300)
@given(transformer_st, st.sampled_from(STATES))
def test_bind_right_identity_on_non_escaping_flows(table, start):
    non_escaping = {s: {(s1, p) for s1, p in table[s] if s1 != 2} for s in STATES}
    t = from_table(non_escaping)
    assert step(t, lambda i, s, a: {(s, a)})(TOY, start) == t(TOY, start)
    assert kernel._collect(t, ())(TOY, start) == {(s1, (p,)) for s1, p in t(TOY, start)}


@settings(max_examples=300)
@given(transformer_st, continuation_st, continuation_st, st.sampled_from(STATES))
def test_bind_associativity(table, kont1, kont2, start):
    t, k, h = from_table(table), cont_from_table(kont1), cont_from_table(kont2)
    left = step(step(t, k), h)(TOY, start)
    right = step(t, lambda i, s, a: step(lambda i1, s1: k(i1, s1, a), h)(i, s))
    assert left == right(TOY, start)


def test_bind_maps_both_branches():
    t = from_table({0: {(0, 1), (1, 2)}})
    seen = []

    def body(interp, s, v):
        seen.append(interp.current_node)
        return {(s, v + 1)}

    assert step(t, body)(TOY, 0) == {(0, 2), (1, 3)}
    assert seen == [7, 7]  # the step makes its node current before the body


# --- Equation fidelity: one micro-program per semantic equation ---------------


def outcome_of(source, inputs=()):
    program = parse(source)
    interp = concrete.ConcreteInterpretation(program, inputs)
    return program, interp, kernel.stm_meaning(program.root)(
        interp, interp.initial_state()
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
    manual = kernel._seq(first_t, second_t)
    assert outcome == manual(interp, interp.initial_state())


def test_expression_statement_discards_value():
    _, _, outcome = outcome_of("5;")
    ((state, payload),) = outcome
    assert payload is UNIT and state.ret is VOID


def test_return_sets_return_slot():
    _, _, outcome = outcome_of("return 7;")
    ((state, payload),) = outcome
    assert state.ret == 7 and payload is UNIT


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
    assert state.io.outputs == (3, 4)


def test_fundecl_binds_pointer_without_running_body():
    program, _, outcome = outcome_of("function f(){output 9;}")
    ((state, _),) = outcome
    decl = program.root
    assert state.env["f"] == concrete.FunPtr(decl.sid, ())
    assert state.io.outputs == ()


def test_con_input_and_binop():
    _, _, outcome = outcome_of("x = input + 2;", inputs=(5,))
    assert final_env(outcome) == {"x": 7}


def test_paren_is_transparent():
    assert final_env(outcome_of("x = (1 + 2) * 3;")[2]) == {"x": 9}


def test_eval_params_empty_and_constants():
    program = parse("x = 1;")
    interp = concrete.ConcreteInterpretation(program)
    state = interp.initial_state()
    assert kernel._collect(pure(3), ())(interp, state) == {(state, (3,))}
    exps = (syntax.Con(0, 5), syntax.Con(0, 7))
    assert kernel._collect(pure(3), exps)(interp, state) == {(state, (3, 5, 7))}


def test_eval_params_threads_input_stream():
    program = parse("x = 1;")
    interp = concrete.ConcreteInterpretation(program, (1, 2))
    state = interp.initial_state()
    first_input = kernel.exp_meaning(syntax.Input(0))
    ((after, values),) = kernel._collect(first_input, (syntax.Input(0),))(interp, state)
    assert values == (1, 2)
    assert after.io.inputs == ()


def test_eval_params_short_circuits_on_escape():
    source = "function boom(){ throw 5; } x = boom() * input;"
    program = parse(source)
    interp = concrete.ConcreteInterpretation(program, (9,))
    outcome = kernel.stm_meaning(program.root)(interp, interp.initial_state())
    ((state, payload),) = outcome
    assert payload is kernel.NULL and state.ex == 5
    assert state.io.inputs == (9,)  # the escape preempted the input read


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
        n for n in syntax.iter_nodes(program.root)
        if isinstance(n, syntax.BinOp) and n.op == "/"
    )
    assert exc.value.node_id == div.eid


def test_trace_hook_reports_statements():
    program = parse("x = 1; y = 2;")
    seen = []
    concrete.run_program(program, trace=lambda node, out: seen.append(node.sid))
    stm_sids = {
        n.sid for n in syntax.iter_nodes(program.root) if isinstance(n, syntax.Stm)
    }
    assert set(seen) == stm_sids


@pytest.mark.parametrize("source, reached", [
    ("x = 1; y = 2; z = 3;", 3),
    ("x = 1; throw x; y = 2; z = 3;", 2),  # nothing after the throw runs
])
def test_trace_reports_sequences_innermost_first_after_their_statements(source, reached):
    """Each sequence a state reached is reported after its statements,
    inner ones first, with the outcomes of the rest of the chain."""
    program = parse(source)
    seqs, node = [], program.root
    while isinstance(node, syntax.Seq):
        seqs.append(node)
        node = node.second
    statements = [seq.first for seq in seqs] + [node]
    seen = []
    concrete.run_program(program, trace=lambda node, out: seen.append((node, out)))
    expected = statements[:reached] + seqs[:reached][::-1]
    assert [node.sid for node, _ in seen] == [node.sid for node in expected]
    outcomes = [out for _, out in seen[reached:]]
    assert all(out == outcomes[-1] for out in outcomes) and len(outcomes[-1]) == 1


def test_argument_meanings_are_built_once(monkeypatch):
    """Meanings are built with the program's meaning, not per evaluation:
    the number of `exp_meaning` calls does not depend on how often the
    recursive call's arguments are evaluated."""
    program = load_program("fact.sdtl")
    builds = []
    original = kernel.exp_meaning

    def counting(node):
        builds.append(node)
        return original(node)

    monkeypatch.setattr(kernel, "exp_meaning", counting)
    counts = []
    for n in (5, 20):
        builds.clear()
        assert concrete.run_program(program, (n,)).outputs == (math.factorial(n),)
        counts.append(len(builds))
    assert counts[0] == counts[1]


def _package_and_dataclasses_calls(run) -> tuple:
    calls = calls_by_file(run)
    package = os.path.dirname(kernel.__file__) + os.sep
    in_package = sum(n for name, n in calls.items() if name.startswith(package))
    return in_package, calls[dataclasses.__file__]


def test_concrete_loop_work_per_iteration():
    """One iteration of a counter loop costs a bounded number of calls into
    the package (about 84 since transformers are built with the meaning;
    about 138 when every evaluation built its continuations, and about 183
    when every node also saved and restored the current node and copied
    states with `dataclasses.replace`), and none into `dataclasses`."""
    case = programs.counter_loop(random.Random(1), 200)
    program = parse(case.source)
    in_package, in_dataclasses = _package_and_dataclasses_calls(
        lambda: concrete.run_program(program, case.inputs)
    )
    assert in_dataclasses == 0 and in_package <= 92 * 200


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
    assert {"stm_meaning", "exp_meaning", "_step", "_seq"} <= constructors
    assert counts[0] == counts[1] and counts[0]["stm_meaning"] > 0


def test_host_stack_budget_of_loops_and_calls():
    """Concrete calls recurse in the host under `recursion_headroom`'s
    10,000 frames: `fact(fact, 690)` fits (the limit is about 998, and was
    713 when every evaluation built its continuations).  One more host frame
    per call, as when a step's body called the branch that `cond` selected,
    lowers the limit.  Loops take no host stack per iteration (they took
    four frames each, for a limit of about 2,494 iterations), so the
    1,800-iteration counter loop fits with room to spare."""
    for case in (
        programs.counter_loop(random.Random(1), 1800),
        programs.self_passing_fact(random.Random(1), 690),
    ):
        result = concrete.run_program(parse(case.source), case.inputs)
        assert result.outputs == case.outputs


def test_host_depth_of_a_run_does_not_grow_with_statements_or_iterations():
    """A statement sequence runs as one block and a loop from its frontier,
    so the deepest host call of a run is the same for 100 and 800
    statements and for 100 and 5,000 iterations (it grew by 2 frames per
    statement and 4 per iteration when both recursed in the host)."""
    for make, sizes in (
        (programs.straight_line, (100, 800)),
        (programs.counter_loop, (100, 5_000)),
    ):
        depths = []
        for size in sizes:
            case = make(random.Random(1), size)
            program = parse(case.source)
            depths.append(max_depth(lambda: concrete.run_program(program, case.inputs)))
        assert depths[0] == depths[1], (make.__name__, depths)


def test_analysis_runs_a_statement_once_per_distinct_state():
    """Each branch of the if/else leaves its own state and the assignment
    after it joins them, so analysing twelve such pairs makes 85 trace-hook
    calls; when every successor state ran the rest of the sequence, the
    count doubled with each pair (36,856)."""
    source = "if (input > 0) { x = 1; } else { x = true; } x = 1;\n" * 12 + "output x;\n"
    calls = []
    result = abstract.analyze_program(
        parse(source), trace=lambda node, outcome: calls.append(node)
    )
    assert len(calls) <= 200
    assert len(result.final_states) == 1 and result.diagnostics == ()


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
    """Analysing 300 straight-line statements makes at most 20,000 calls
    into the package (about 24,000 before)."""
    program = parse(programs.straight_line(random.Random(1), 300).source)
    with concrete.recursion_headroom():
        in_package, in_dataclasses = _package_and_dataclasses_calls(
            lambda: abstract.analyze_program(program)
        )
    assert in_dataclasses == 0 and in_package <= 20_000

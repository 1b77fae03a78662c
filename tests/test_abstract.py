import json
import sys

import pytest

from helpers import (
    GOLDEN, find_call_eid, find_fundecl, find_new_eid, load, load_program,
)
from sdtl import abstract, kernel
from sdtl.abstract import (
    BOOL, NUM, AFunPtr, AObjRef, AbstractInterpretation, analyze_program,
    aval_to_json, state_to_json,
)
from sdtl.kernel import VOID, VOID_VAL
from sdtl.syntax import While, iter_nodes, parse

INTERP = AbstractInterpretation(None)


def analyze(source):
    return analyze_program(parse(source))


def envs_of(result):
    """Final environments as a set of sorted (name, rendered value) tuples."""
    return {
        tuple(sorted((k, json.dumps(aval_to_json(v))) for k, v in s.env.items()))
        for s in result.final_states
    }


def env(**bindings):
    return tuple(sorted((k, json.dumps(v)) for k, v in bindings.items()))


# --- primitives ------------------------------------------------------------------


def test_conval_approximates_by_type():
    assert INTERP.conval(42) is NUM
    assert INTERP.conval(True) is BOOL
    assert INTERP.conval(False) is BOOL


def test_getinput_yields_num_without_state_change():
    state = abstract.initial_state()
    assert INTERP.getinput(state) == {(state, NUM)}


def test_bin_by_operator_class():
    assert INTERP.bin("+", NUM, NUM) is NUM
    assert INTERP.bin("/", NUM, NUM) is NUM
    assert INTERP.bin("<", NUM, NUM) is BOOL
    assert INTERP.bin("==", BOOL, BOOL) is BOOL


def test_bin_type_mismatch_kills_branch():
    interp = AbstractInterpretation(None)
    with pytest.raises(kernel.DeadBranch):
        interp.bin("+", NUM, BOOL)
    assert any("type error" in d.message for d in interp.diagnostics)


def test_fundecl_binds_uncurried_pointer():
    program = parse("function fact(f,n){ return 1; }")
    result = analyze_program(program)
    sid = find_fundecl(program, "fact").sid
    assert envs_of(result) == {env(fact={"fun": [sid, 0, 0]})}


def test_exs_moves_exception_into_environment():
    state = abstract.initial_state()
    thrown = kernel.replace(state, ex=NUM)
    after = INTERP.exs(thrown, "e")
    assert after.env["e"] is NUM and after.ex is VOID


def test_cond_joins_both_branches():
    result = analyze("if(input > 0){ x = 1; } else { x = true; }")
    assert envs_of(result) == {env(x="Num"), env(x="Bool")}
    # identical branches collapse by set semantics
    result = analyze("if(input > 0){ x = 1; } else { x = 2; }")
    assert envs_of(result) == {env(x="Num")}


def test_cond_on_non_boolean_logs_diagnostic_but_joins():
    result = analyze("if(1){ x = 1; }")
    assert envs_of(result) == {env(x="Num"), env()}
    assert any("condition" in d.message for d in result.diagnostics)


def test_pass_through_branch_kept():
    result = analyze("if(input > 0){ x = 1; }")
    assert envs_of(result) == {env(x="Num"), env()}


# --- diagnostics instead of aborts --------------------------------------------------


def test_undefined_variable_is_diagnostic():
    result = analyze("output q;")
    assert result.final_states == frozenset()
    assert any("undefined variable 'q'" in d.message for d in result.diagnostics)


def test_calling_a_number_is_diagnostic():
    result = analyze("x = 5; x(1);")
    assert result.final_states == frozenset()
    assert any("calling a" in d.message for d in result.diagnostics)


def test_missing_member_is_diagnostic():
    result = analyze(
        "function F(v){ this.value = v; } o = new F(1); output o.nope;"
    )
    assert result.final_states == frozenset()
    assert any("possibly undefined member" in d.message for d in result.diagnostics)


def test_member_write_on_non_object_is_diagnostic():
    result = analyze("x = 5; x.m = 1;")
    assert result.final_states == frozenset()
    assert any("member access on a number" in d.message for d in result.diagnostics)


def test_diagnostics_carry_node_ids():
    program = parse("output q;")
    result = analyze_program(program)
    (diag,) = [d for d in result.diagnostics if "undefined" in d.message]
    assert diag.node > 0


# --- apply and the curried table ------------------------------------------------------


def test_partial_application_anchored_to_call_site():
    source = "function add(x,y){ return x+y; } a = add(5); output a(1);"
    program = parse(source)
    result = analyze_program(program)
    sid = find_fundecl(program, "add").sid
    anchor = find_call_eid(program, "add")
    (state,) = result.final_states
    assert state.env["a"] == AFunPtr(sid, 1, anchor)
    assert state.curried[(sid, 1, anchor)] == frozenset({(NUM,)})


def test_three_stage_currying_chains_anchors():
    source = (
        "function add3(a,b,c){ return a+b+c; } "
        "p1 = add3(1); p2 = p1(2); output p2(3);"
    )
    program = parse(source)
    result = analyze_program(program)
    sid = find_fundecl(program, "add3").sid
    (state,) = result.final_states
    one = state.env["p1"]
    two = state.env["p2"]
    assert (one.sid, one.count) == (sid, 1)
    assert (two.sid, two.count) == (sid, 2)
    assert state.curried[(sid, 1, one.anchor)] == frozenset({(NUM,)})
    assert state.curried[(sid, 2, two.anchor)] == frozenset({(NUM, NUM)})


def test_mutually_recursive_summaries_terminate():
    source = """
    function isodd(odd, even, n) { if(n == 0) { return false; } return even(odd, even, n - 1); }
    function iseven(odd, even, n) { if(n == 0) { return true; } return odd(odd, even, n - 1); }
    output iseven(isodd, iseven, input);
    """
    result = analyze(source)
    assert len(result.final_states) == 1
    assert result.stats["max_call_iterations"] <= 4


def test_zero_argument_partial_application_is_identity():
    source = "function add(x,y){ return x+y; } a = add(); output a(1,2);"
    program = parse(source)
    result = analyze_program(program)
    sid = find_fundecl(program, "add").sid
    (state,) = result.final_states
    assert state.env["a"] == AFunPtr(sid, 0, 0)
    assert dict(state.curried) == {}


def test_too_many_arguments_is_diagnostic():
    result = analyze("function g(a){ return a; } g(1,2);")
    assert result.final_states == frozenset()
    assert any("too many arguments" in d.message for d in result.diagnostics)


def test_currying_loop_terminates_with_three_rows():
    program = load_program("currying_loop.sdtl")
    result = analyze_program(program)
    sid = find_fundecl(program, "foo").sid
    anchor = find_call_eid(program, "foo")
    pointer = AFunPtr(sid, 1, anchor)
    key = (sid, 1, anchor)

    rows = {
        (json.dumps(aval_to_json(s.env["x"])), tuple(sorted(s.curried)),
         frozenset(s.curried.get(key, frozenset())))
        for s in result.final_states
    }
    assert rows == {
        ('"Num"', (), frozenset()),
        (json.dumps(aval_to_json(pointer)), (key,), frozenset({(NUM,)})),
        (json.dumps(aval_to_json(pointer)), (key,), frozenset({(pointer,)})),
    }


# --- objects ------------------------------------------------------------------------


def test_newobj_uses_allocation_site():
    source = "function F(v){ this.value = v; } a = new F(1); b = new F(2);"
    program = parse(source)
    result = analyze_program(program)
    (state,) = result.final_states
    assert state.env["a"] != state.env["b"]
    assert isinstance(state.env["a"], AObjRef)


def test_same_site_in_loop_reuses_abstract_object():
    source = """
    function F(v){ this.value = v; }
    c = 2;
    while(c > 0) { x = new F(1); c = c - 1; }
    """
    program = parse(source)
    result = analyze_program(program)
    site = find_new_eid(program, "F")
    xs = {s.env["x"] for s in result.final_states if "x" in s.env}
    assert xs == {AObjRef(site)}
    assert site in result.stats["reused_allocation_sites"]


def test_objects_example_single_final_state():
    program = load_program("objects.sdtl")
    result = analyze_program(program)
    (state,) = result.final_states

    fruit = find_fundecl(program, "Fruit")
    juicible = find_fundecl(program, "juicible")
    juiceme = find_fundecl(program, "juiceMe")
    site = find_new_eid(program, "Fruit")
    anchor = find_call_eid(program, "juiceMe")

    assert dict(state.env) == {
        "Fruit": AFunPtr(fruit.sid, 0, 0),
        "juicible": AFunPtr(juicible.sid, 0, 0),
        "apple": AObjRef(site),
    }
    assert dict(state.obj_mem[site]) == {
        "value": NUM,
        "juice": AFunPtr(juiceme.sid, 1, anchor),
    }
    assert dict(state.curried) == {(juiceme.sid, 1, anchor): frozenset({(NUM,)})}
    assert state.ret is VOID and state.ex is VOID and state.this == 0


# --- call summaries --------------------------------------------------------------------


def test_factorial_summary_reaches_fixed_point():
    result = analyze(load("fact.sdtl"))
    assert envs_of(result) == {
        env(fact={"fun": [2, 0, 0]}, z="Num"),
    }
    # first pass computes the summary, second confirms it
    assert result.stats["max_call_iterations"] == 2


def test_side_effecting_factorial_objmem_variants():
    result = analyze(load("sideeffect_fact.sdtl"))
    objmems = {
        tuple(sorted((site, tuple(sorted(m.items()))) for site, m in s.obj_mem.items()))
        for s in result.final_states
    }
    assert objmems == {
        ((0, ()),),
        ((0, (("x", NUM),)),),
    }
    assert {json.dumps(aval_to_json(s.env["z"])) for s in result.final_states} == {'"Num"'}


def test_non_recursive_call_single_pass():
    result = analyze("function one(){ return 1; } x = one();")
    assert envs_of(result) == {env(one={"fun": [2, 0, 0]}, x="Num")}


# --- loop engine -------------------------------------------------------------------------


def test_while_example_type_split():
    result = analyze(load("while_types.sdtl"))
    assert envs_of(result) == {
        env(sum="Num", z="Num", x="Num"),
        env(sum="Num", z="Num", x="Bool"),
    }


def test_guard_only_loop_single_exit():
    result = analyze("while(input > 0){ nil; }")
    assert len(result.final_states) == 1


def test_loop_body_throw_escapes():
    result = analyze("while(input > 0){ throw 1; }")
    assert {s.ex for s in result.final_states} == {VOID, NUM}


def test_nested_loops_stabilize():
    source = """
    a = 1;
    while(input > 0) {
        a = 1;
        while(input > 0) { a = true; }
    }
    """
    result = analyze(source)
    # exits: never entered (Num), or inner loop last wrote true (Bool) or not (Num)
    assert envs_of(result) == {env(a="Num"), env(a="Bool")}


# --- engine properties ----------------------------------------------------------------


@pytest.mark.parametrize("name", GOLDEN)
def test_idempotent_and_terminating(name):
    first = analyze_program(load_program(name))
    second = analyze_program(load_program(name))
    assert first.final_states == second.final_states
    assert first.diagnostics == second.diagnostics
    assert first.stats["max_call_iterations"] <= 10
    assert first.stats["max_loop_iterations"] <= 10


def test_iteration_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(AbstractInterpretation, "max_iterations", 1)
    program = load_program("while_types.sdtl")
    (loop,) = [n for n in iter_nodes(program.root) if isinstance(n, While)]
    message = f"loop summary for node {loop.sid} did not stabilize within 1 "
    with pytest.raises(abstract.AnalysisLimitError, match=message):
        analyze_program(program)


def test_nested_loops_are_solved_once_per_entry_state():
    lines = []
    for level in range(6):
        c = f"c{level}"
        lines += [f"{c} = 2;", f"while ({c} > 0) {{", f"{c} = {c} - 1;"]
    source = "\n".join(lines + ["a = c0;"] + ["}"] * 6)
    evaluations = []
    result = analyze_program(
        parse(source), trace=lambda node, outcome: evaluations.append(node)
    )
    assert any("a" in s.env and "c5" in s.env for s in result.final_states)
    # an engine that re-solves inner loops on every outer iteration needs
    # hundreds of thousands of statement evaluations here
    assert len(evaluations) < 1000


def test_loop_states_join_the_worklist_without_host_recursion():
    # The loop passes through k + 1 abstract states, shifting Bool along
    # x0..xk.  One body evaluation takes about 4k host frames; starting a
    # nested solve for each new state would add about 7 frames per state
    # and overrun the lowered limit.
    k = 20
    source = (
        "x0 = true;\n"
        + "".join(f"x{i} = 1;\n" for i in range(1, k + 1))
        + "while (input > 0) {\n"
        + "".join(f"x{i} = x{i - 1};\n" for i in range(k, 0, -1))
        + "}\n"
    )
    program = parse(source)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 170)
    try:
        result = analyze_program(program)
    finally:
        sys.setrecursionlimit(limit)
    assert {s.env[f"x{k}"] for s in result.final_states} == {NUM, BOOL}
    assert len(result.final_states) == k + 1


# --- serialization ------------------------------------------------------------------------


def test_aval_json_encodings():
    assert aval_to_json(NUM) == "Num"
    assert aval_to_json(BOOL) == "Bool"
    assert aval_to_json(AObjRef(3)) == {"obj": 3}
    assert aval_to_json(AFunPtr(1, 2, 7)) == {"fun": [1, 2, 7]}
    assert aval_to_json(VOID_VAL) == "void"


def test_state_json_schema():
    result = analyze(load("objects.sdtl"))
    (state,) = result.final_states
    rendered = state_to_json(state)
    assert set(rendered) == {"env", "objmem", "this", "curried", "ret", "ex"}
    assert rendered["ret"] == "void" and rendered["ex"] == "void"
    ((entry),) = rendered["curried"]
    assert set(entry) == {"key", "lists"} and entry["lists"] == [["Num"]]
    assert json.dumps(rendered)  # serializable


def test_result_json_is_stable():
    first = abstract.result_to_json(analyze(load("while_types.sdtl")))
    second = abstract.result_to_json(analyze(load("while_types.sdtl")))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

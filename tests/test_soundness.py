import itertools

import pytest

from helpers import GOLDEN_RUNNABLE, iter_nodes, load, load_program
from sdtl import abstract, concrete, soundness, syntax
from sdtl.abstract import BOOL, NUM, AFunPtr, AObjRef, analyze_program
from sdtl.concrete import FunPtr, ObjRef, run_program
from sdtl.kernel import VOID, VOID_VAL, FrozenMap
from sdtl.soundness import (
    abstracts_outcome, abstracts_state, abstracts_value, check_generated_corpus,
    classify_caveat, differential_test, generate_programs, shrink_program,
    split_top_level, state_mismatch,
)
from sdtl.syntax import parse

ASTATE0 = abstract.AState()
CSTATE0 = concrete.initial_state()


# --- value-level relation -------------------------------------------------------


def test_atoms():
    assert abstracts_value(ASTATE0, CSTATE0, NUM, 42)
    assert abstracts_value(ASTATE0, CSTATE0, NUM, -7)
    assert abstracts_value(ASTATE0, CSTATE0, BOOL, True)
    assert not abstracts_value(ASTATE0, CSTATE0, BOOL, 42)
    assert not abstracts_value(ASTATE0, CSTATE0, NUM, True)
    assert abstracts_value(ASTATE0, CSTATE0, VOID_VAL, VOID_VAL)
    assert not abstracts_value(ASTATE0, CSTATE0, NUM, VOID_VAL)


def test_function_pointers():
    astate = abstract.AState()
    astate = astate.__class__(
        env=astate.env, obj_mem=astate.obj_mem, this=0,
        curried=FrozenMap({(1, 1, 7): frozenset({(NUM,)})}),
        ret=VOID, ex=VOID,
    )
    assert abstracts_value(astate, CSTATE0, AFunPtr(1, 1, 7), FunPtr(1, (5,)))
    assert not abstracts_value(astate, CSTATE0, AFunPtr(1, 1, 7), FunPtr(2, (5,)))
    assert not abstracts_value(astate, CSTATE0, AFunPtr(1, 1, 7), FunPtr(1, (5, 6)))
    assert not abstracts_value(astate, CSTATE0, AFunPtr(1, 1, 7), FunPtr(1, (True,)))
    # an uncurried pointer needs no table entry
    assert abstracts_value(ASTATE0, CSTATE0, AFunPtr(3, 0, 0), FunPtr(3, ()))


def test_objects_compare_through_member_maps():
    cstate = concrete.initial_state()
    cstate = cstate.__class__(
        env=cstate.env,
        obj_mem=cstate.obj_mem.set(1, FrozenMap({"value": 15})),
        this=0, ret=VOID, ex=VOID, io=cstate.io,
    )
    astate = abstract.AState()
    astate = astate.__class__(
        env=astate.env,
        obj_mem=astate.obj_mem.set(9, FrozenMap({"value": NUM})),
        this=0, curried=FrozenMap(), ret=VOID, ex=VOID,
    )
    assert abstracts_value(astate, cstate, AObjRef(9), ObjRef(1))
    assert not abstracts_value(astate, cstate, AObjRef(0), ObjRef(1))


def test_cyclic_heaps_terminate():
    source = "function F(v){ this.value = v; } a = new F(1); a.self = a;"
    program = parse(source)
    concrete_final = run_program(program).final_state
    analysis = analyze_program(program)
    judgment = abstracts_outcome(analysis.final_states, {concrete_final})
    assert judgment.holds


# --- state-level relation ---------------------------------------------------------


def test_initial_states_relate():
    assert abstracts_state(ASTATE0, CSTATE0)


def test_factorial_finals_relate():
    program = load_program("fact.sdtl")
    analysis = analyze_program(program)
    concrete_final = run_program(program, (2,)).final_state
    assert any(abstracts_state(a, concrete_final) for a in analysis.final_states)


def test_missing_binding_fails_with_explanation():
    cstate = concrete.initial_state()
    cstate = cstate.__class__(
        env=FrozenMap({"z": 2}), obj_mem=cstate.obj_mem,
        this=0, ret=VOID, ex=VOID, io=cstate.io,
    )
    mismatch = state_mismatch(ASTATE0, cstate)
    assert mismatch == "env['z'] is unbound in the abstract state"


def test_extra_abstract_bindings_are_fine():
    astate = abstract.AState()
    astate = astate.__class__(
        env=FrozenMap({"ghost": NUM}), obj_mem=astate.obj_mem,
        this=0, curried=FrozenMap(), ret=VOID, ex=VOID,
    )
    assert abstracts_state(astate, CSTATE0)


def type_erase(cstate):
    """Canonical abstraction of a concrete state; holds by construction."""
    anchors = itertools.count(10_000)
    curried = {}

    def erase(value):
        if value is VOID_VAL:
            return VOID_VAL
        if type(value) is bool:
            return BOOL
        if isinstance(value, int):
            return NUM
        if isinstance(value, ObjRef):
            return AObjRef(value.ref)
        assert isinstance(value, FunPtr)
        if not value.curried:
            return AFunPtr(value.sid, 0, 0)
        anchor = next(anchors)
        key = (value.sid, len(value.curried), anchor)
        curried[key] = frozenset({tuple(erase(v) for v in value.curried)})
        return AFunPtr(*key)

    def erase_slot(slot):
        return VOID if slot is VOID else erase(slot)

    return abstract.AState(
        env=FrozenMap({k: erase(v) for k, v in cstate.env.items()}),
        obj_mem=FrozenMap({
            ref: FrozenMap({k: erase(v) for k, v in members.items()})
            for ref, members in cstate.obj_mem.items()
        }),
        this=cstate.this,
        curried=FrozenMap(curried),
        ret=erase_slot(cstate.ret),
        ex=erase_slot(cstate.ex),
    )


@pytest.mark.parametrize("name,inputs", [
    ("showcase.sdtl", (3, 4, 100)),
    ("objects.sdtl", ()),
    ("tryorerror.sdtl", ()),
    ("exceptions_basic.sdtl", (-5,)),
])
def test_type_erasure_always_relates(name, inputs):
    final = run_program(load_program(name), inputs).final_state
    assert abstracts_state(type_erase(final), final)


# --- outcome-level relation ---------------------------------------------------------


def test_singleton_match():
    judgment = abstracts_outcome({ASTATE0}, {CSTATE0})
    assert judgment.holds and judgment.witnesses == ()


def test_empty_concrete_holds_vacuously():
    assert abstracts_outcome(set(), set()).holds
    assert abstracts_outcome({ASTATE0}, set()).holds


def test_no_abstract_candidates_fails():
    judgment = abstracts_outcome(set(), {CSTATE0})
    assert not judgment.holds
    ((_, explanations),) = judgment.witnesses
    assert explanations == ("no abstract final states at all",)


def test_while_example_outcome():
    program = load_program("while_types.sdtl")
    analysis = analyze_program(program)
    concrete_final = run_program(program, (0,)).final_state
    assert abstracts_outcome(analysis.final_states, {concrete_final}).holds


def test_enlarging_abstract_side_is_monotone():
    program = load_program("fact.sdtl")
    analysis = analyze_program(program)
    concrete_final = run_program(program, (2,)).final_state
    extra = analysis.final_states | {ASTATE0}
    assert abstracts_outcome(analysis.final_states, {concrete_final}).holds
    assert abstracts_outcome(extra, {concrete_final}).holds


def test_witnesses_explain_every_candidate():
    program = load_program("while_types.sdtl")
    analysis = analyze_program(program)
    bogus = CSTATE0.__class__(
        env=FrozenMap({"sum": ObjRef(0)}), obj_mem=CSTATE0.obj_mem,
        this=0, ret=VOID, ex=VOID, io=CSTATE0.io,
    )
    judgment = abstracts_outcome(analysis.final_states, {bogus})
    assert not judgment.holds
    ((_, explanations),) = judgment.witnesses
    assert len(explanations) == len(analysis.final_states)


# --- the differential harness ----------------------------------------------------------


def test_factorial_differential():
    report = differential_test(load("fact.sdtl"), [(0,), (1,), (2,), (5,)])
    assert report["checked"] == 4
    assert report["violations"] == [] and report["errors"] == []


@pytest.mark.parametrize("per_statement", [False, True])
def test_differential_test_relates_integers_of_any_length(per_statement):
    """10 squared 13 times has 8,193 digits, more than the host converts to
    text by default (4,300, from Python 3.10.7 on): the harness relates the
    states without rendering them."""
    source = "x = 10; i = 0; while (i < 13) { x = x * x; i = i + 1; } output x;"
    report = differential_test(source, [()], per_statement=per_statement)
    assert report["checked"] == 1 and report["violations"] == []


def test_showcase_differential_with_morphism():
    report = differential_test(
        load("showcase.sdtl"), [(3, 4, 100), (3, 4, 10)], per_statement=True
    )
    assert report["checked"] == 2 and report["violations"] == []


@pytest.mark.parametrize("name", GOLDEN_RUNNABLE)
def test_golden_corpus_differential(name):
    vectors = [(), (0,), (1,), (5, 2, 100, 7), (-3, -1, 4, 2)]
    report = differential_test(load(name), vectors, label=name)
    assert report["violations"] == []
    assert report["checked"] + len(report["errors"]) == len(vectors)


def test_currying_loop_excluded_from_concrete():
    # concrete execution would never terminate; the analysis must
    report = differential_test(load("currying_loop.sdtl"), [])
    assert report["checked"] == 0 and report["violations"] == []


def test_currying_chain_and_throwing_constructor_relate():
    chain = (
        "function add3(a,b,c){ return a+b+c; } "
        "p1 = add3(1); p2 = p1(2); output p2(3);"
    )
    assert differential_test(chain, [()])["violations"] == []
    ctor = (
        "function F(v){ this.m = v; throw 8; } "
        "try { x = new F(1); } catch(e) { output e; }"
    )
    assert differential_test(ctor, [()], per_statement=True)["violations"] == []


def test_mutual_recursion_relates():
    source = """
    function isodd(odd, even, n) { if(n == 0) { return false; } return even(odd, even, n - 1); }
    function iseven(odd, even, n) { if(n == 0) { return true; } return odd(odd, even, n - 1); }
    output iseven(isodd, iseven, input);
    """
    report = differential_test(source, [(0,), (1,), (4,), (7,)])
    assert report["checked"] == 4 and report["violations"] == []


def test_errors_reported_separately():
    report = differential_test("x = 1 / input;", [(0,), (2,)])
    assert report["checked"] == 1
    assert [e["inputs"] for e in report["errors"]] == [[0]]


def test_morphism_catches_midpoint_disagreement():
    # the relation holds at every top-level step of the exception example
    report = differential_test(
        load("exceptions_basic.sdtl"), [(-5,), (7,)], per_statement=True
    )
    assert report["violations"] == []


# --- documented caveat -------------------------------------------------------------------

SITE_RESET = """function F(v) {
	this.m = v;
}
c = 2;
x = 5;
a = 0;
b = 0;
while(c > 0) {
	o = new F(x);
	if(c > 1) { a = o; } else { b = o; }
	x = true;
	c = c - 1;
}
"""


def test_allocation_site_reset_is_reported_and_classified():
    report = differential_test(SITE_RESET, [()], label="site-reset")
    assert report["violations"], "the documented under-approximation must surface"
    assert classify_caveat(report) == "allocation-site-reset"
    explanations = report["violations"][0]["explanations"]
    assert any("does not abstract" in e for e in explanations)


def test_clean_reports_have_no_caveat():
    report = differential_test(load("fact.sdtl"), [(2,)])
    assert classify_caveat(report) is None


# --- generator and shrinking -----------------------------------------------------------------


def test_generation_is_deterministic():
    assert generate_programs(5, 10) == generate_programs(5, 10)
    assert generate_programs(5, 10) != generate_programs(6, 10)


def test_generated_programs_parse():
    for source in generate_programs(11, 200):
        parse(source)


def test_size_bound_defaults_to_6_and_may_be_1():
    assert generate_programs(5, 12) == generate_programs(5, 12, size_bound=6)
    smallest = generate_programs(5, 12, size_bound=1)
    assert smallest != generate_programs(5, 12)
    for source in smallest:
        parse(source)


def test_generated_kind_coverage_per_hundred():
    kinds_needed = {
        "Nil", "Seq", "ExpStm", "Output", "Assign", "If", "IfElse",
        "While", "FunDecl", "Return", "TryCatch", "Throw",
    }
    programs = generate_programs(2, 200)
    for start in (0, 100):
        seen = set()
        for source in programs[start:start + 100]:
            seen |= {
                type(n).__name__
                for n in iter_nodes(parse(source).root)
                if isinstance(n, syntax.Stm)
            }
        assert kinds_needed <= seen


def test_generated_runs_terminate():
    for index, source in enumerate(generate_programs(3, 30)):
        for vector in soundness.default_input_vectors(3, index)[:2]:
            try:
                run_program(parse(source), vector)
            except soundness.EvalError:
                pass  # run-time errors are fine; non-termination is not


def test_split_top_level_round_trips():
    for source in generate_programs(4, 20):
        chunks = split_top_level(source)
        assert "\n".join(chunks) + "\n" == source
        assert len(chunks) >= 2


def test_shrinking_minimizes_site_reset():
    vectors = [()]

    def still_failing(candidate):
        try:
            trial = differential_test(candidate, vectors)
        except syntax.ParseError:
            return False
        return bool(trial["violations"])

    minimized = shrink_program(SITE_RESET, still_failing)
    assert still_failing(minimized)
    assert len(split_top_level(minimized)) <= len(split_top_level(SITE_RESET))
    # the loop and constructor are essential to the counterexample
    assert "while" in minimized and "function F" in minimized


def test_generated_corpus_is_clean_or_classified():
    reports = check_generated_corpus(seed=42, count=60)
    assert len(reports) == 60
    assert sum(r["checked"] for r in reports) > 100
    for report in reports:
        if report["violations"]:
            assert report["caveat"] is not None


def test_generated_corpus_honours_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(abstract.AbstractInterpretation, "max_iterations", 1)
    with pytest.raises(abstract.AnalysisLimitError):
        check_generated_corpus(2026, 12)

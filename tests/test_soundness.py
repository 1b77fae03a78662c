import collections
import functools
import itertools
import json
import re

import pytest

from helpers import (
    GENERATED, GOLDEN_RUNNABLE, MULTI_CANDIDATE, PROGRAMS, generated_reports, iter_nodes,
    load, load_program, seq_and_last_sids,
)
from sdtl import abstract, concrete, kernel, soundness, syntax
from sdtl.abstract import BOOL, NUM, AFunPtr, AObjRef, analyze_program
from sdtl.concrete import FunPtr, ObjRef, run_program
from sdtl.kernel import VOID, VOID_VAL, FrozenMap
from sdtl.soundness import (
    CORPUS_PRELUDE, abstracts_outcome, abstracts_value, check_generated_corpus,
    classify_caveat, differential_test, enumerate_programs, state_mismatch,
)
from sdtl.syntax import parse

ASTATE0 = abstract.AState()
CSTATE0 = concrete.initial_state()
SITES0 = {0: 0}  # the allocation-site map of a run that made no object


# --- value-level relation -------------------------------------------------------


def test_atoms():
    assert abstracts_value(ASTATE0, SITES0, NUM, 42)
    assert abstracts_value(ASTATE0, SITES0, NUM, -7)
    assert abstracts_value(ASTATE0, SITES0, BOOL, True)
    assert not abstracts_value(ASTATE0, SITES0, BOOL, 42)
    assert not abstracts_value(ASTATE0, SITES0, NUM, True)
    assert abstracts_value(ASTATE0, SITES0, VOID_VAL, VOID_VAL)
    assert not abstracts_value(ASTATE0, SITES0, NUM, VOID_VAL)


def test_function_pointers():
    astate = abstract.AState()
    astate = astate.__class__(
        env=astate.env, obj_mem=astate.obj_mem, this=0,
        curried=FrozenMap({(1, 1, 7): (NUM,)}),
        ret=VOID, ex=VOID,
    )
    assert abstracts_value(astate, SITES0, AFunPtr(1, 1, 7), FunPtr(1, (5,)))
    assert not abstracts_value(astate, SITES0, AFunPtr(1, 1, 7), FunPtr(2, (5,)))
    assert not abstracts_value(astate, SITES0, AFunPtr(1, 1, 7), FunPtr(1, (5, 6)))
    assert not abstracts_value(astate, SITES0, AFunPtr(1, 1, 7), FunPtr(1, (True,)))
    # a curried pointer whose anchor has no entry abstracts nothing
    assert not abstracts_value(ASTATE0, SITES0, AFunPtr(1, 1, 7), FunPtr(1, (5,)))
    # an uncurried pointer needs no table entry
    assert abstracts_value(ASTATE0, SITES0, AFunPtr(3, 0, 0), FunPtr(3, ()))


def test_objects_relate_by_allocation_site():
    """Object 1 was allocated at site 5: only a reference to site 5
    abstracts it, even where site 9's object has the same members."""
    sites = {0: 0, 1: 5}
    cstate = concrete.initial_state()
    cstate = cstate.__class__(
        env=FrozenMap({"o": ObjRef(1)}),
        obj_mem=cstate.obj_mem.set(1, FrozenMap({"value": 15})),
        this=0, ret=VOID, ex=VOID, inputs=cstate.inputs, outputs=cstate.outputs,
    )
    members = FrozenMap({"value": NUM})

    def astate(env_site, *sites_present):
        base = abstract.AState()
        obj_mem = base.obj_mem
        for site in sites_present:
            obj_mem = obj_mem.set(site, members)
        return base.__class__(
            env=FrozenMap({"o": AObjRef(env_site)}), obj_mem=obj_mem,
            this=0, curried=FrozenMap(), ret=VOID, ex=VOID,
        )

    assert not abstracts_value(astate(9, 5, 9), sites, AObjRef(9), ObjRef(1))
    assert abstracts_value(astate(9, 5, 9), sites, AObjRef(5), ObjRef(1))
    assert state_mismatch(astate(9, 5, 9), cstate, sites) == (
        "env['o']: obj@9 does not abstract obj(1)"
    )
    assert state_mismatch(astate(5, 9), cstate, sites) == (
        "object 1 (site 5): the site has no abstract object"
    )
    assert state_mismatch(astate(5, 5), cstate, sites) is None
    bare = kernel.replace(astate(5), obj_mem=astate(5).obj_mem.set(5, FrozenMap()))
    assert state_mismatch(bare, cstate, sites) == (
        "object 1 (site 5): member 'value' is unbound"
    )


def test_cyclic_heaps_terminate():
    source = "function F(v){ this.value = v; } a = new F(1); a.self = a;"
    program = parse(source)
    result = run_program(program)
    analysis = analyze_program(program)
    assert abstracts_outcome(analysis.final_states, result.final_state, result.sites) is None


# --- state-level relation ---------------------------------------------------------


def test_initial_states_relate():
    assert state_mismatch(ASTATE0, CSTATE0, SITES0) is None


def test_factorial_finals_relate():
    program = load_program("fact.sdtl")
    analysis = analyze_program(program)
    result = run_program(program, (2,))
    assert any(
        state_mismatch(a, result.final_state, result.sites) is None
        for a in analysis.final_states
    )


def test_missing_binding_fails_with_explanation():
    cstate = concrete.initial_state()
    cstate = cstate.__class__(
        env=FrozenMap({"z": 2}), obj_mem=cstate.obj_mem,
        this=0, ret=VOID, ex=VOID, inputs=cstate.inputs, outputs=cstate.outputs,
    )
    mismatch = state_mismatch(ASTATE0, cstate, SITES0)
    assert mismatch == "env['z'] is unbound in the abstract state"


def test_extra_abstract_bindings_are_fine():
    astate = abstract.AState()
    astate = astate.__class__(
        env=FrozenMap({"ghost": NUM}), obj_mem=astate.obj_mem,
        this=0, curried=FrozenMap(), ret=VOID, ex=VOID,
    )
    assert state_mismatch(astate, CSTATE0, SITES0) is None


def type_erase(cstate, sites):
    """Canonical abstraction of a concrete state through its run's
    allocation-site map; holds by construction where the objects of each
    site agree on their members' types."""
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
            return AObjRef(sites[value.ref])
        assert isinstance(value, FunPtr)
        if not value.curried:
            return AFunPtr(value.sid, 0, 0)
        anchor = next(anchors)
        key = (value.sid, len(value.curried), anchor)
        curried[key] = tuple(erase(v) for v in value.curried)
        return AFunPtr(*key)

    def erase_slot(slot):
        return VOID if slot is VOID else erase(slot)

    obj_mem = {}
    for ref, members in cstate.obj_mem.items():
        obj_mem.setdefault(sites[ref], {}).update(
            (k, erase(v)) for k, v in members.items()
        )
    return abstract.AState(
        env=FrozenMap({k: erase(v) for k, v in cstate.env.items()}),
        obj_mem=FrozenMap({site: FrozenMap(m) for site, m in obj_mem.items()}),
        this=sites[cstate.this],
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
    result = run_program(load_program(name), inputs)
    final = result.final_state
    assert state_mismatch(type_erase(final, result.sites), final, result.sites) is None


# --- outcome-level relation ---------------------------------------------------------


def test_singleton_match():
    assert abstracts_outcome((ASTATE0,), CSTATE0, SITES0) is None


def test_no_abstract_candidates_fails():
    assert abstracts_outcome((), CSTATE0, SITES0) == ()


def test_no_abstract_candidates_are_explained_at_their_stage():
    """The site-reset caveat leaves the analysis no state at `x=a.m+1`,
    node 32, while the run goes on: the explanation names that node, and
    only the final check speaks of final states.  The reset shows first in
    the second call, at `F`'s `this.m=v` (node 3) and `mk`'s return (node
    10), then at `b=mk(F,true)` (node 24)."""
    source = (
        "function F(v){this.m=v;} function mk(c,v){return new c(v);} "
        "a=mk(F,1); b=mk(F,true); x=a.m+1; output x;"
    )
    report = differential_test(source, [(0,)], per_statement=True)
    reset = "object 1 (site 11): member 'm': Bool does not abstract 1"
    in_call = ["env['v']: Num does not abstract True", reset]
    assert {v.get("atNode"): v["explanations"] for v in report["violations"]} == {
        None: ["no abstract final states at all"],
        3: in_call,
        10: in_call,
        24: [reset],
        32: ["no abstract states at node 32 at all"],
    }
    assert len(report["violations"]) == 5


def test_while_example_outcome():
    program = load_program("while_types.sdtl")
    analysis = analyze_program(program)
    result = run_program(program, (0,))
    assert abstracts_outcome(analysis.final_states, result.final_state, result.sites) is None


def test_enlarging_abstract_side_is_monotone():
    program = load_program("fact.sdtl")
    analysis = analyze_program(program)
    result = run_program(program, (2,))
    extra = analysis.final_states + (ASTATE0,)
    final, sites = result.final_state, result.sites
    assert abstracts_outcome(analysis.final_states, final, sites) is None
    assert abstracts_outcome(extra, final, sites) is None


def test_witnesses_explain_every_candidate():
    program = load_program("while_types.sdtl")
    analysis = analyze_program(program)
    bogus = CSTATE0.__class__(
        env=FrozenMap({"sum": ObjRef(0)}), obj_mem=CSTATE0.obj_mem,
        this=0, ret=VOID, ex=VOID, inputs=CSTATE0.inputs, outputs=CSTATE0.outputs,
    )
    explanations = abstracts_outcome(analysis.final_states, bogus, SITES0)
    assert len(explanations) == len(analysis.final_states) > 0
    assert explanations == tuple(
        state_mismatch(a, bogus, SITES0) for a in analysis.final_states
    )


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


@pytest.mark.parametrize("name,inputs", [
    ("objects.sdtl", ()),
    ("showcase.sdtl", (3, 4, 100)),
])
def test_wrong_site_mutant_is_caught(monkeypatch, name, inputs):
    """An analysis that hands out the global object for every `new` keeps a
    cover for each concrete object's members, but not for its site."""
    monkeypatch.setattr(
        abstract.AbstractInterpretation, "newobj",
        lambda self, state, eid: (state, AObjRef(0)),
    )
    report = differential_test(load(name), [inputs], per_statement=True)
    assert report["checked"] == 1 and report["violations"]


def test_harness_hashes_no_concrete_state(monkeypatch):
    """A per-node check relates each concrete state as it is: neither a
    run's steps nor the harness, which keeps a run's states per node in
    plain lists, hashes one."""

    def unhashable(state):
        raise AssertionError("a concrete state was hashed")

    monkeypatch.setattr(concrete.CState, "__hash__", unhashable)
    samples = GOLDEN_RUNNABLE + ["caveat_site_reset.sdtl", "caveat_curried_reset.sdtl"]
    cases = [(load(name), [(), (0,), (1,), (5, 2, 100, 7)]) for name in samples]
    cases += GENERATED[:40]
    for source, vectors in cases:
        report = differential_test(source, vectors, per_statement=True)
        assert report["checked"] + len(report["errors"]) == len(vectors)


def test_explanations_follow_the_analysis_order():
    """A violation's explanations name its candidates in the analysis's
    order: the order in which it first reported them at the node, and
    `final_states`' for the final check.  At `b=mk(F,true)` the
    then-branch's state, `z` a number, comes first, though its repr sorts
    after the boolean one's.  A run's states are checked node by node in
    sid order, skipping each ``Seq`` and the last top-level statement."""
    program = parse(MULTI_CANDIDATE)
    b_sid = syntax.statements(program.root)[4].sid
    unchecked = seq_and_last_sids(program)
    candidates = collections.defaultdict(list)

    def record(sid, outcome):
        for state, _ in outcome:
            if state not in candidates[sid]:
                candidates[sid].append(state)

    analysis = analyze_program(program, trace=record)
    assert [s.env["z"] for s in candidates[b_sid]] == [NUM, BOOL]
    report = differential_test(MULTI_CANDIDATE, [(0,), (1,)], per_statement=True)
    for vector in [(0,), (1,)]:
        reported = collections.defaultdict(list)
        result = run_program(
            program, vector, trace=lambda sid, out: reported[sid].extend(s for s, _ in out)
        )
        checks = [(None, analysis.final_states, result.final_state)]
        checks += [
            (sid, candidates[sid], cstate)
            for sid in sorted(reported) if sid not in unchecked
            for cstate in reported[sid]
        ]
        expected = []
        for node, astates, cstate in checks:
            mismatches = [state_mismatch(a, cstate, result.sites) for a in astates]
            if None not in mismatches:
                expected.append((node, mismatches or [
                    f"no abstract states at node {node} at all"
                    if node is not None else "no abstract final states at all"
                ]))
        assert len(dict(expected)[b_sid]) == 2
        assert [
            (v.get("atNode"), v["explanations"])
            for v in report["violations"] if v["inputs"] == list(vector)
        ] == expected


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


# --- the enumerated corpus --------------------------------------------------------


def statement_lines(source):
    return source.removeprefix(CORPUS_PRELUDE).splitlines()


def test_generated_programs_parse():
    programs = enumerate_programs()
    for source in programs:
        parse(source)
    counts = collections.Counter(len(statement_lines(p)) for p in programs)
    assert counts == {1: 13, 2: 194, 3: 3101}


def test_generated_programs_come_fewest_statements_first():
    """Programs come in non-decreasing statement count, so the first one
    that fails is a smallest one."""
    counts = [len(statement_lines(p)) for p in enumerate_programs()]
    assert counts == sorted(counts)


def test_generated_programs_cover_every_node_class_and_operator():
    classes, operators = set(), set()
    for source in enumerate_programs():
        for node in iter_nodes(parse(source).root):
            classes.add(type(node))
            if isinstance(node, syntax.BinOp):
                operators.add(node.op)
    assert classes == set(syntax._LAYOUT)
    assert operators == set(syntax._Parser._PRECEDENCE)


def test_generated_runs_terminate():
    """Every run of every program ends, and every discarded run in a type
    error: well-scoped programs never read an undefined variable or member,
    and none reads more inputs than a vector holds."""
    errors = collections.Counter()
    for report in generated_reports():
        assert report["checked"] + len(report["errors"]) == 2
        for error in report["errors"]:
            assert not any(
                text in error["error"]
                for text in ("undefined variable", "undefined member", "input exhausted")
            ), error
            errors[error["error"].split(" (")[0]] += 1
    assert errors == {
        "condition not boolean": 271,
        "operator '+' needs integers": 260,
        "operator '-' needs integers": 260,
    }


# run-time errors that a type analysis cannot foresee
UNSEEN_ERRORS = ("division by zero", "input exhausted")


def test_every_run_time_error_has_a_diagnostic_at_its_node():
    """Error-site coverage: every run-time error that a type analysis can
    foresee has a diagnostic at the node the error names.  The errors are
    those of the programs in tests/golden/errors.json and of the discarded
    runs of the enumerated corpus; a division by zero and an exhausted
    input are left out."""
    errors = []  # (source, error text)
    golden = (PROGRAMS.parent / "golden" / "errors.json").read_text(encoding="utf-8")
    for case in json.loads(golden).values():
        inputs = [int(text) for text in case["input"].split(",") if text]
        with pytest.raises(soundness.EvalError) as caught:
            run_program(parse(case["source"]), inputs)
        errors.append((case["source"], str(caught.value)))
    programs = enumerate_programs()
    for report in generated_reports():
        source = programs[int(report["program"].removeprefix("enumerated:"))]
        errors += ((source, error["error"]) for error in report["errors"])
    checked = [(s, e) for s, e in errors if not e.startswith(UNSEEN_ERRORS)]
    assert len(errors) - len(checked) == 3 and len(checked) == 18 + 791

    @functools.cache  # a program's runs share its analysis
    def diagnostic_nodes(source):
        return {d.node for d in analyze_program(parse(source)).diagnostics}

    missed = [
        (source, error) for source, error in checked
        if int(re.search(r"\(node (\d+)\)$", error)[1]) not in diagnostic_nodes(source)
    ]
    assert missed == []


def test_first_violating_generated_programs_are_the_caveats_smallest():
    """No shrinking is needed: the first violating program of each caveat is
    two statements that allocate, or partially apply, at one site twice."""
    first = {}
    for report in generated_reports():
        if report["violations"]:
            first.setdefault(report["caveat"], statement_lines(report["source"]))
    assert first == {
        "allocation-site-reset": ["a=mk(F,1);", "b=mk(F,true);"],
        "curried-anchor-reset": ["p=part(add,1);", "q=part(add,true);"],
    }


def test_generated_corpus_is_clean_or_classified():
    reports = generated_reports()
    assert len(reports) == len(enumerate_programs())
    caveats = collections.Counter(
        report["caveat"] for report in reports if report["violations"]
    )
    assert caveats == {"allocation-site-reset": 152, "curried-anchor-reset": 80}


def test_generated_violations_are_each_reported_once():
    """A ``Seq`` block's states are its statements', and the last top-level
    statement's are the final ones: no violation names either kind of
    node, and no entry of a report appears twice."""
    entries = 0
    for report in generated_reports():
        if not report["violations"]:
            continue
        skipped = seq_and_last_sids(parse(report["source"]))
        assert not skipped & {v.get("atNode") for v in report["violations"]}
        texts = [json.dumps(v, sort_keys=True) for v in report["violations"]]
        assert len(set(texts)) == len(texts)
        entries += len(texts)
    assert entries == 1434


def test_generated_corpus_honours_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(abstract.AbstractInterpretation, "max_iterations", 1)
    with pytest.raises(abstract.AnalysisLimitError):
        check_generated_corpus()

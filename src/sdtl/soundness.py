"""Soundness harness: the abstraction relation and a differential tester.

A type analysis result is sound for a run when the run's one final state
is abstracted by some abstract final state, and, checked per node, when
each state the run reports at a node, in any context, is abstracted by
some abstract state reported there.  The relation reads the run's
allocation-site map, so each concrete object is checked once, against the
abstract object of its own site, and cyclic object graphs need no special
case.  This module makes the relation executable and checks it over
concrete runs: of one program, or of every well-scoped program of up to
three statements over a fixed alphabet, enumerated smallest first so that
the first failure is a smallest one (Runciman, Naylor & Lindblad,
"SmallCheck and Lazy SmallCheck", 2008).  Failures carry a nearest-miss
explanation per abstract candidate state, in the analysis's first-seen
order.
"""

from __future__ import annotations

import collections
import itertools

from . import abstract, concrete, kernel, syntax
from .kernel import VOID, VOID_VAL, EvalError


# --- The abstraction relation --------------------------------------------------


def abstracts_value(astate, sites, aval, cval) -> bool:
    """Does abstract value `aval` safely describe concrete value `cval`?

    A reference is abstracted exactly by the reference to its allocation
    site, `sites[ref]`; objects are checked by :func:`state_mismatch`.  The
    markers ``VOID`` (an empty slot) and ``VOID_VAL`` match only themselves."""
    if aval is VOID or cval is VOID or aval is VOID_VAL or cval is VOID_VAL:
        return aval is cval
    if type(cval) is bool:
        return aval is abstract.BOOL
    if isinstance(cval, int):
        return aval is abstract.NUM
    if isinstance(cval, concrete.ObjRef):
        return aval == abstract.AObjRef(sites[cval.ref])
    if isinstance(cval, concrete.FunPtr):
        if not isinstance(aval, abstract.AFunPtr):
            return False
        if aval.sid != cval.sid or aval.count != len(cval.curried):
            return False
        if aval.count == 0:
            return True
        values = astate.curried.get((aval.sid, aval.count, aval.anchor))
        return values is not None and all(
            abstracts_value(astate, sites, a, c)
            for a, c in zip(values, cval.curried)
        )
    raise AssertionError(f"not a concrete value: {cval!r}")


def state_mismatch(astate, cstate, sites):
    """None if `astate` abstracts `cstate`, else a short explanation of the
    first component of the relation that fails.

    Each concrete object is checked once, against the abstract object at its
    own allocation site `sites[ref]`."""
    for name, cval in sorted(cstate.env.items()):
        aval = astate.env.get(name)
        if aval is None:
            return f"env[{name!r}] is unbound in the abstract state"
        if not abstracts_value(astate, sites, aval, cval):
            return f"env[{name!r}]: {aval!r} does not abstract {cval!r}"
    for ref, cmembers in sorted(cstate.obj_mem.items()):
        site = sites[ref]
        amembers = astate.obj_mem.get(site)
        if amembers is None:
            return f"object {ref} (site {site}): the site has no abstract object"
        for name, cval in sorted(cmembers.items()):
            aval = amembers.get(name)
            if aval is None:
                return f"object {ref} (site {site}): member {name!r} is unbound"
            if not abstracts_value(astate, sites, aval, cval):
                return (
                    f"object {ref} (site {site}): member {name!r}: "
                    f"{aval!r} does not abstract {cval!r}"
                )
    if astate.this != sites[cstate.this]:
        return f"this: site {astate.this} does not abstract object {cstate.this}"
    if not abstracts_value(astate, sites, astate.ret, cstate.ret):
        return f"ret: {astate.ret!r} does not abstract {cstate.ret!r}"
    if not abstracts_value(astate, sites, astate.ex, cstate.ex):
        return f"ex: {astate.ex!r} does not abstract {cstate.ex!r}"
    return None


def abstracts_outcome(astates, cstate, sites):
    """None if a candidate of `astates` abstracts the concrete state `cstate`
    (a run's one final state, or a state it reported at a node), else the
    tuple of each candidate's explanation, ``()`` if there is none.
    Candidates are tried, and explained, in the order given: the analysis's
    own.  `sites` is the run's allocation-site map
    (:attr:`concrete.RunResult.sites`)."""
    explanations = []
    for astate in astates:
        mismatch = state_mismatch(astate, cstate, sites)
        if mismatch is None:
            return None
        explanations.append(mismatch)
    return tuple(explanations)


# --- Differential testing --------------------------------------------------------


def _node_recorder():
    """A trace hook that appends each reported outcome's states to a list
    per sid, and the dict of those lists."""
    reported = collections.defaultdict(list)
    return lambda sid, outcome: reported[sid].extend(s for s, _ in outcome), reported


def _unchecked_nodes(program) -> set:
    """The sids that add no check of their own: each ``Seq`` block's states
    are its statements', and the last top-level statement's are the final
    states."""
    sids, todo = {syntax.statements(program.root)[-1].sid}, [program.root]
    while todo:
        node = todo.pop()
        if type(node) is syntax.Seq:
            sids.add(node.sid)
        todo += syntax.child_nodes(node)
    return sids


def differential_test(
    source, input_vectors, label="<program>", per_statement=False
) -> dict:
    """Check a program's analysis against its concrete runs.

    The program is analyzed once and run concretely per input vector;
    vectors that hit run-time errors are skipped and reported separately.
    With `per_statement`, each state that a run reports at a node, in any
    context, is also related to the states that the analysis reported
    there, repeats dropped in first-seen order, at all but the
    :func:`_unchecked_nodes`.
    """
    program = syntax.parse(source)
    record = _node_recorder if per_statement else lambda: (None, {})
    with kernel.recursion_headroom():  # checks recurse into values as deep as runs nest
        trace, reported = record()
        analysis = abstract.analyze_program(program, trace=trace)
        candidates = {sid: tuple(dict.fromkeys(s)) for sid, s in reported.items()}
        unchecked = _unchecked_nodes(program) if per_statement else ()
        violations, errors = [], []
        checked = 0
        for vector in input_vectors:
            vector = tuple(vector)
            trace, reported = record()
            try:
                result = concrete.run_program(program, vector, trace=trace)
            except EvalError as err:
                errors.append({"inputs": list(vector), "error": str(err)})
                continue
            checked += 1
            # (node, abstract candidates, a state of the run there): the end first
            checks = [(None, analysis.final_states, result.final_state)]
            checks += [
                (sid, candidates.get(sid, ()), cstate)
                for sid, cstates in sorted(reported.items()) if sid not in unchecked
                for cstate in cstates
            ]
            for node, astates, cstate in checks:
                explanations = abstracts_outcome(astates, cstate, result.sites)
                if explanations is None:
                    continue
                at = "final states" if node is None else f"states at node {node}"
                entry = {
                    "inputs": list(vector),
                    "concreteState": concrete.state_to_json(cstate),
                    "explanations": list(explanations) or [f"no abstract {at} at all"],
                }
                violations.append(entry if node is None else {**entry, "atNode": node})
    return {
        "program": label,
        "checked": checked,
        "violations": violations,
        "errors": errors,
        "analysisStats": {
            "reusedAllocationSites": sorted(analysis.stats["reused_allocation_sites"]),
            "resetCurriedKeys": sorted(analysis.stats["reset_curried_keys"]),
        },
    }


def classify_caveat(report) -> str | None:
    """Name the documented abstraction caveat a violating report matches.

    Allocation-site object abstraction resets a site's abstract object on
    re-allocation, and a re-curried anchor likewise replaces its argument
    tuple; both can under-approximate two live concrete cells sharing one
    abstract cell.  Violations on programs exercising either pattern are
    reported against that caveat instead of a harness failure.
    """
    if not report["violations"]:
        return None
    stats = report["analysisStats"]
    if stats["reusedAllocationSites"]:
        return "allocation-site-reset"
    if stats["resetCurriedKeys"]:
        return "curried-anchor-reset"
    return None


# --- Small programs, enumerated ---------------------------------------------------

CORPUS_PRELUDE = (
    "function F(v){this.m=v;}\n"
    "function mk(c,v){return new c(v);}\n"
    "function add(x,y){return x+y;}\n"
    "function part(f,v){return f(v);}\n"
)

# (statement, the names it reads, the names it binds), each name one letter;
# no statement reads more than one input, and every loop ends
CORPUS_ALPHABET = (
    ("x=1;", "", "x"),
    ("x=true;", "", "x"),
    ("x=input;", "", "x"),
    ("x=input<1;", "", "x"),
    ("x=(x-1)*2/3>0==true;", "x", "x"),
    ("output x+1;", "x", ""),
    ("if(input<1){x=1;}else{x=true;}", "", "x"),
    ("if(x){x=1;}", "x", ""),
    ("a=mk(F,1);", "", "a"),
    ("b=mk(F,true);", "", "b"),
    ("a.m=true;", "a", ""),
    ("x=a.m;", "a", "x"),
    ("p=part(add,1);", "", "p"),
    ("q=part(add,true);", "", "q"),
    ("x=p(2);", "p", "x"),
    ("global.f=p;x=global.f(2);", "p", "x"),
    ("i=0;y=1;while(i<2){i=i+1;x=y;y=true;}", "", "ixy"),
    ("try{throw input;}catch(e){x=e;}", "", "xe"),
    ("mk(F,input);", "", ""),
    ("nil;", "", ""),
)
CORPUS_STATEMENTS = 3  # the most alphabet statements in one program
CORPUS_INPUTS = ((0, 0, 0), (1, 1, 1))


def enumerate_programs() -> list:
    """Every well-scoped program of 1 to `CORPUS_STATEMENTS` alphabet
    statements, one a line after the prelude, fewest statements first.

    A program is well-scoped when each statement reads only names bound
    before it, so no run ends at an undefined variable or member."""
    programs = []
    for count in range(1, CORPUS_STATEMENTS + 1):
        for statements in itertools.product(CORPUS_ALPHABET, repeat=count):
            bound = set()
            for _, reads, binds in statements:
                if not bound.issuperset(reads):
                    break
                bound.update(binds)
            else:
                lines = (text + "\n" for text, _, _ in statements)
                programs.append(CORPUS_PRELUDE + "".join(lines))
    return programs


def check_generated_corpus() -> list:
    """Differential-test every enumerated program, per statement, on
    `CORPUS_INPUTS`.  Programs come smallest first, so the first violating
    one is a smallest; a violating report carries its source and is
    classified against the documented abstraction caveats."""
    reports = []
    for index, source in enumerate(enumerate_programs()):
        report = differential_test(
            source, CORPUS_INPUTS, label=f"enumerated:{index}", per_statement=True
        )
        if report["violations"]:
            report["source"] = source
            report["caveat"] = classify_caveat(report)
        reports.append(report)
    return reports

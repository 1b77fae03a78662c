"""Mutation tests for the soundness harness (DeMillo, Lipton & Sayward,
"Hints on test data selection", 1978).

Each case seeds one bug into the analysis and walks the enumerated corpus
in order, up to the first program that the unmutated analysis passes and
the mutant fails.  Programs come fewest statements first, so that program
is a smallest one that kills the mutant, and the case pins it.
"""

import functools

import pytest

from sdtl.abstract import BOOL, NUM, AbstractInterpretation, AObjRef
from sdtl.soundness import (
    CORPUS_INPUTS, CORPUS_PRELUDE, differential_test, enumerate_programs,
)

PROGRAMS = enumerate_programs()
ORIGINAL = {
    name: getattr(AbstractInterpretation, name)
    for name in ("bin", "curry", "fixpoint")
}


def passes(source):
    report = differential_test(source, CORPUS_INPUTS, per_statement=True)
    return not report["violations"]


@functools.cache
def passes_unmutated(index):
    return passes(PROGRAMS[index])


def bin_gives(operators, value):
    def bin(self, op, left, right):
        result = ORIGINAL["bin"](self, op, left, right)
        return value if op in operators else result

    return bin


def loop_reentry_dropped(self, kind, nid, step, state):
    """A state that re-enters the loop being solved joins no frontier."""
    if kind == "loop" and nid in self._worklists:
        return ()
    return ORIGINAL["fixpoint"](self, kind, nid, step, state)


def partial_application_stores_num(self, state, fun, args, arity, eid):
    """A partial application stores Num per curried argument."""
    return ORIGINAL["curry"](self, state, fun, (NUM,) * len(args), arity, eid)


def set_checks_only(self, state, ref, member, value):
    self.obj_key(ref)
    return state


MUTANTS = {
    "cond-then-only": ("cond", lambda self, value: (True,), [
        "if(input<1){x=1;}else{x=true;}",
    ]),
    "cond-else-only": ("cond", lambda self, value: (False,), [
        "if(input<1){x=1;}else{x=true;}",
    ]),
    "division-gives-bool": ("bin", bin_gives("/", BOOL), [
        "x=1;",
        "x=(x-1)*2/3>0==true;",
    ]),
    "set-writes-nothing": ("set", set_checks_only, [
        "a=mk(F,1);",
    ]),
    "input-is-bool": ("getinput", lambda self, state: (state, BOOL), [
        "x=input;",
    ]),
    "constants-are-num": ("conval", lambda self, constant: NUM, [
        "x=true;",
    ]),
    "loop-runs-one-unfolding": ("fixpoint", loop_reentry_dropped, [
        "i=0;y=1;while(i<2){i=i+1;x=y;y=true;}",
    ]),
    "comparison-gives-num": ("bin", bin_gives("<>", NUM), [
        "x=input<1;",
    ]),
    "new-allocates-nothing": (
        "newobj", lambda self, state, eid: (state, AObjRef(0)), ["a=mk(F,1);"],
    ),
    "partial-application-stores-num": ("curry", partial_application_stores_num, [
        "q=part(add,true);",
    ]),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed_by_a_smallest_program(monkeypatch, name):
    attribute, mutant, statements = MUTANTS[name]
    for index, source in enumerate(PROGRAMS):
        if not passes_unmutated(index):
            continue
        with monkeypatch.context() as patch:
            patch.setattr(AbstractInterpretation, attribute, mutant)
            killed = not passes(source)
        if killed:
            break
    else:
        pytest.fail(f"no enumerated program kills {name}")
    assert source == CORPUS_PRELUDE + "".join(line + "\n" for line in statements)

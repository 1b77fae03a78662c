"""Acceptance suite: one test per shipped criterion.

Every check is exact (output logs) or set-equality (abstract state sets);
there are no numeric tolerances anywhere.  Each test prints a single
CRITERION nn PASS/FAIL line (visible with `pytest -s` or in captured output).
"""

import json
import math
import random
from contextlib import contextmanager

from helpers import (
    GOLDEN, GOLDEN_RUNNABLE, find_call_eid, find_fundecl, find_new_eid, load,
    load_program,
)
from sdtl import kernel
from sdtl.abstract import NUM, AFunPtr, AObjRef, analyze_program, aval_to_json
from sdtl.concrete import run_program
from sdtl.kernel import NULL, VOID, pure
from sdtl.soundness import check_generated_corpus, differential_test
from sdtl.syntax import iter_nodes, node_id, parse


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:02d} FAIL: {title}")
        raise
    print(f"CRITERION {number:02d} PASS: {title}")


def final_envs(result):
    return {
        tuple(sorted((k, json.dumps(aval_to_json(v))) for k, v in s.env.items()))
        for s in result.final_states
    }


def env(**bindings):
    return tuple(sorted((k, json.dumps(v)) for k, v in bindings.items()))


def test_criterion_01_concrete_factorial():
    with criterion(1, "concrete factorial outputs [2] and [120]"):
        source = load("fact.sdtl")
        assert run_program(parse(source), (2,)).outputs == (2,)
        assert run_program(parse(source), (5,)).outputs == (math.factorial(5),)


def test_criterion_02_showcase_output_log():
    with criterion(2, "whole-language program outputs [6, 24, 45, 90, 42, 42]"):
        outputs = run_program(parse(load("showcase.sdtl")), (3, 4, 100)).outputs
        assert outputs == (6, 24, 45, 90, 42, 42)


def test_criterion_03_currying_example_and_equivalence():
    with criterion(3, "currying example outputs [15]; application chains agree"):
        assert run_program(parse(load("currying_add.sdtl")), (1, 2)).outputs == (
            5 + 1 + 7 + 2,
        )
        uncurried = run_program(
            parse("function add(x,y){return x+y;} r = add(5,9); output r;")
        )
        curried = run_program(
            parse("function add(x,y){return x+y;} t = add(5); r = t(9); output r;")
        )
        assert uncurried.outputs == curried.outputs
        assert uncurried.final_state.env["r"] == curried.final_state.env["r"]
        trimmed = {
            k: v for k, v in curried.final_state.env.items() if k != "t"
        }
        assert trimmed == dict(uncurried.final_state.env)


def test_criterion_04_abstract_while_table():
    with criterion(4, "loop analysis yields exactly the Num and Bool variants"):
        result = analyze_program(load_program("while_types.sdtl"))
        assert final_envs(result) == {
            env(sum="Num", z="Num", x="Num"),
            env(sum="Num", z="Num", x="Bool"),
        }


def test_criterion_05_abstract_currying_loop():
    with criterion(5, "currying-loop analysis terminates with the 3-row table"):
        program = load_program("currying_loop.sdtl")
        result = analyze_program(program)
        sid = find_fundecl(program, "foo").sid
        anchor = find_call_eid(program, "foo")
        pointer = AFunPtr(sid, 1, anchor)
        key = (sid, 1, anchor)
        rows = {
            (s.env["x"], tuple(sorted(s.curried)),
             frozenset(s.curried.get(key, frozenset())))
            for s in result.final_states
        }
        assert rows == {
            (NUM, (), frozenset()),
            (pointer, (key,), frozenset({(NUM,)})),
            (pointer, (key,), frozenset({(pointer,)})),
        }


def test_criterion_06_abstract_objects_row():
    with criterion(6, "object analysis pins juice pointer and curried entry"):
        program = load_program("objects.sdtl")
        result = analyze_program(program)
        (state,) = result.final_states
        site = find_new_eid(program, "Fruit")
        juiceme = find_fundecl(program, "juiceMe").sid
        anchor = find_call_eid(program, "juiceMe")
        assert state.env["apple"] == AObjRef(site)
        assert dict(state.obj_mem[site]) == {
            "value": NUM,
            "juice": AFunPtr(juiceme, 1, anchor),
        }
        assert dict(state.curried) == {(juiceme, 1, anchor): frozenset({(NUM,)})}


def test_criterion_07_abstract_exception_states():
    with criterion(7, "exception analysis yields the two caught/uncaught envs"):
        result = analyze_program(load_program("exceptions_basic.sdtl"))
        assert final_envs(result) == {
            env(x="Num", j="Num"),
            env(x="Num", e="Num"),
        }
        assert all(s.ex is VOID for s in result.final_states)


def test_criterion_08_exception_control_flow():
    with criterion(8, "return/throw interplay outputs [50, -1, 0]"):
        assert run_program(parse(load("tryorerror.sdtl"))).outputs == (50, -1, 0)


class _ToyInterp(kernel.Interpretation):
    def esc(self, state):
        return state == 2


def _toy_transformer(rng):
    return {
        s: frozenset(
            (rng.randrange(3), rng.randrange(4))
            for _ in range(rng.randrange(4))
        )
        for s in range(3)
    }


def test_criterion_09_property_suite():
    with criterion(9, "kernel laws over 1000 random cases; engine properties"):
        toy = _ToyInterp(None)
        rng = random.Random(20260809)

        def from_map(mapping):
            return lambda interp, s: set(mapping.get(s, ()))

        def kont(mapping):
            # a step body: the transformer `mapping` gives for the payload
            return lambda i, s, payload: from_map(mapping.get(payload, {}))(i, s)

        def unit(interp, s, payload):
            return {(s, payload)}

        def bind(t, body):
            return kernel._step(1, t, body)

        for _ in range(1000):
            t_map = _toy_transformer(rng)
            extra = _toy_transformer(rng)
            bigger = {s: t_map[s] | extra[s] for s in range(3)}
            k_map = {p: _toy_transformer(rng) for p in range(4)}
            t, t_big, k = from_map(t_map), from_map(bigger), kont(k_map)
            for start in range(3):
                # monotonicity of the step in its first argument
                assert bind(t, k)(toy, start) <= bind(t_big, k)(toy, start)
            # escape short-circuit law
            escaping = {s: {(2, p) for _, p in t_map[s]} for s in range(3)}
            esc_t = from_map(escaping)
            for start in range(3):
                expected = {(2, NULL)} if escaping[start] else set()
                assert bind(esc_t, k)(toy, start) == expected
                assert kernel._seq(esc_t, t)(toy, start) == expected
            # identity and associativity on non-escaping flows
            tame = {s: {(s1, p) for s1, p in t_map[s] if s1 != 2} for s in range(3)}
            tame_t = from_map(tame)
            for start in range(2):
                assert bind(pure(1), k)(toy, start) == k(toy, start, 1)
                assert bind(tame_t, unit)(toy, start) == tame_t(toy, start)
                h = kont({p: _toy_transformer(rng) for p in range(4)})
                left = bind(bind(t, k), h)(toy, start)
                right = bind(
                    t, lambda i, s, a: bind(lambda i1, s1: k(i1, s1, a), h)(i, s)
                )(toy, start)
                assert left == right

        # abstract engines: idempotence (monotone accumulation is asserted
        # inside each engine step and would raise here if violated)
        for name in GOLDEN:
            first = analyze_program(load_program(name))
            second = analyze_program(load_program(name))
            assert first.final_states == second.final_states

        # parser id-uniqueness across the corpus
        for name in GOLDEN:
            ids = [node_id(n) for n in iter_nodes(load_program(name).root)]
            assert len(ids) == len(set(ids))


def test_criterion_10_soundness_suite():
    with criterion(10, "differential suite: golden corpus + 200 generated"):
        vectors = [(), (0,), (2,), (5, 2, 100, 7), (-3, -1, 4, 2)]
        for name in GOLDEN_RUNNABLE:
            report = differential_test(load(name), vectors, label=name)
            assert report["violations"] == [], name
        # the currying loop cannot run concretely; its analysis must terminate
        assert analyze_program(load_program("currying_loop.sdtl")).final_states

        reports = check_generated_corpus(seed=2026, count=200)
        assert len(reports) == 200
        assert sum(r["checked"] for r in reports) >= 400
        unclassified = [
            r["program"] for r in reports
            if r["violations"] and r.get("caveat") is None
        ]
        assert unclassified == []
        # violations, if any, must point at the documented abstraction caveat
        for report in reports:
            if report["violations"]:
                assert report["caveat"] in (
                    "allocation-site-reset", "curried-anchor-reset",
                )

import dataclasses
import math
from dataclasses import dataclass

import pytest

from helpers import find_fundecl, load, load_program
from sdtl import abstract, concrete, kernel
from sdtl.concrete import FunPtr, IOState, ObjRef, run_program
from sdtl.kernel import VOID, VOID_VAL, EvalError, FrozenMap
from sdtl.syntax import parse


def run(source, inputs=()):
    return run_program(parse(source), inputs)


def final(source, inputs=()):
    return run(source, inputs).final_state


INTERP = concrete.ConcreteInterpretation(None)


# --- esc / state predicates ---------------------------------------------------


def test_esc_cases():
    assert not INTERP.esc(concrete.initial_state())
    assert INTERP.esc(final("throw 0;"))  # pending exception
    assert INTERP.esc(final("return 50;"))  # pending return


def test_top_level_escape_skips_rest():
    state = final("throw 0; output 1;")
    assert state.ex == 0 and state.io.outputs == ()
    state = final("return 5; output 1;")
    assert state.ret == 5 and state.io.outputs == ()


# --- primitive operations -------------------------------------------------------


def test_cond_requires_boolean():
    with pytest.raises(EvalError, match="condition not boolean"):
        run("if(7){ output 1; }")


def test_assignment_and_lookup():
    assert dict(final("x = 30;").env) == {"x": 30}
    with pytest.raises(EvalError, match="undefined variable 'q'"):
        run("output q;")


def test_getinput_pops_queue():
    state = final("x = input;", inputs=(5, 9))
    assert state.env["x"] == 5 and state.io == IOState((9,), ())
    with pytest.raises(EvalError, match="input exhausted"):
        run("x = input;")


def test_output_formats():
    assert run("output true; output false; output 0 - 4;").outputs == (1, 0, -4)
    with pytest.raises(EvalError, match="unprintable"):
        run("function f(){} output f;")


def test_bin_arithmetic_and_comparison():
    assert INTERP.bin("*", 2, 1) == 2
    assert INTERP.bin("==", True, True) is True
    assert INTERP.bin("<", 2, 3) is True
    # division truncates toward zero (oracle: math.trunc)
    for left, right in ((7, 2), (-7, 2), (7, -2), (-9, 4)):
        assert INTERP.bin("/", left, right) == math.trunc(left / right)


def test_bin_errors():
    with pytest.raises(EvalError, match="division by zero"):
        INTERP.bin("/", 1, 0)
    with pytest.raises(EvalError, match="needs integers"):
        INTERP.bin("+", True, 1)
    with pytest.raises(EvalError, match="cannot compare"):
        INTERP.bin("==", 1, True)


def test_bin_structural_equality_on_pointers():
    assert INTERP.bin("==", FunPtr(1, (5,)), FunPtr(1, (5,))) is True
    assert INTERP.bin("==", FunPtr(1, (5,)), FunPtr(1, (7,))) is False
    assert INTERP.bin("==", ObjRef(1), ObjRef(2)) is False


# --- currying -------------------------------------------------------------------


def test_partial_application_builds_pointer():
    program = load_program("currying_add.sdtl")
    result = run_program(program, (1, 2))
    sid = find_fundecl(program, "add").sid
    assert result.final_state.env["add5"] == FunPtr(sid, (5,))
    assert result.final_state.env["add7"] == FunPtr(sid, (7,))
    assert result.outputs == (5 + 1 + 7 + 2,)


def test_saturation_invokes_call():
    # call-of-call is not grammatical; saturate through a variable
    out = run("function add(x,y){return x+y;} t = add(5); output t(9);").outputs
    assert out == (14,)


def test_apply_argument_count_errors():
    with pytest.raises(EvalError, match="calling a non-function"):
        run("x = 7; x(1);")
    with pytest.raises(EvalError, match="too many arguments"):
        run("function g(a){return a;} g(1,2);")


def test_three_stage_currying_chain():
    out = run(
        "function add3(a,b,c){ return a+b+c; } "
        "p1 = add3(1); p2 = p1(2); output p2(3);"
    ).outputs
    assert out == (6,)


def test_throwing_constructor_escapes_new():
    state = final(
        "function F(v){ this.m = v; throw 8; } "
        "try { x = new F(1); } catch(e) { output e; }"
    )
    # the exception preempts binding x, but the allocation happened
    assert "x" not in state.env and state.env["e"] == 8
    assert state.io.outputs == (8,)
    assert dict(state.obj_mem[1]) == {"m": 1}


def test_currying_chain_equivalence():
    uncurried = run("function add(x,y){return x+y;} r = add(5,9); output r;")
    curried = run("function add(x,y){return x+y;} t = add(5); r = t(9); output r;")
    assert uncurried.outputs == curried.outputs == (14,)
    assert uncurried.final_state.env["r"] == curried.final_state.env["r"] == 14
    # the two final states agree apart from the intermediate pointer
    trimmed = {k: v for k, v in curried.final_state.env.items() if k != "t"}
    assert trimmed == dict(uncurried.final_state.env)


# --- objects ---------------------------------------------------------------------


def test_new_allocates_sequentially():
    state = final("function Fruit(v){ this.value = v; } apple = new Fruit(15);")
    assert state.env["apple"] == ObjRef(1)
    assert dict(state.obj_mem[1]) == {"value": 15}
    state = final("function F(v){this.value=v;} a = new F(1); b = new F(2);")
    assert state.env["a"] == ObjRef(1) and state.env["b"] == ObjRef(2)


def test_member_read_your_write():
    state = final("function F(v){this.value=v;} a = new F(1); a.x = 9; y = a.x;")
    assert state.env["y"] == 9


def test_undefined_member_and_non_object():
    with pytest.raises(EvalError, match="undefined member 'nope'"):
        run("function F(v){this.value=v;} a = new F(1); output a.nope;")
    with pytest.raises(EvalError, match="non-object"):
        run("x = 5; x.m = 1;")


def test_objects_example_juice():
    result = run_program(load_program("objects.sdtl"))
    assert result.outputs == (15 + 20 + 10,)
    state = result.final_state
    sid = find_fundecl(load_program("objects.sdtl"), "juiceMe").sid
    apple = state.env["apple"]
    assert state.obj_mem[apple.ref]["juice"] == FunPtr(sid, (20,))


def test_global_is_object_zero():
    state = final("global.answer = 42; x = global.answer;")
    assert state.obj_mem[0]["answer"] == 42 and state.env["x"] == 42


def test_top_level_this_is_global():
    state = final("this.m = 7; x = global.m;")
    assert state.env["x"] == 7


# --- calls: enter / leave ----------------------------------------------------------


@dataclass(frozen=True)
class LoggedState:
    """A toy state record with a field neither built-in domain has."""

    env: FrozenMap
    this: int
    ret: object
    ex: object
    log: tuple


class LoggedInterpretation(kernel.Interpretation):
    obj_ref_class = ObjRef
    fun_ptr_class = FunPtr


HEAP = FrozenMap({0: FrozenMap(), 1: FrozenMap()})
ABSTRACT_CURRIED = FrozenMap({(7, 1, 9): frozenset({(abstract.NUM,)})})

# per domain: interpretation, caller state, receiver pointer, and a callee
# value for each field the call must carry in and back out
CALL_DOMAINS = (
    (
        INTERP,
        dataclasses.replace(concrete.initial_state((9,)), obj_mem=HEAP),
        ObjRef(1),
        {"obj_mem": FrozenMap({0: FrozenMap({"seen": 41})}), "io": IOState((), (3,))},
    ),
    (
        abstract.AbstractInterpretation(None),
        dataclasses.replace(
            abstract.initial_state(), obj_mem=HEAP, curried=ABSTRACT_CURRIED
        ),
        abstract.AObjRef(1),
        {
            "obj_mem": FrozenMap({0: FrozenMap({"seen": abstract.NUM})}),
            "curried": FrozenMap(),
        },
    ),
    (
        LoggedInterpretation(None),
        LoggedState(FrozenMap({"a": 1}), 0, VOID, VOID, ("caller",)),
        ObjRef(1),
        {"log": ("caller", "callee")},
    ),
)


def test_enter_builds_callee_state():
    for interp, caller, receiver, carried in CALL_DOMAINS:
        fptr = interp.fun_ptr_class(7)
        entry = interp.enter(caller, 7, (fptr, receiver), receiver, ("f", "n"))
        assert dict(entry.env) == {"f": fptr, "n": receiver}
        assert interp.getthis(entry) == receiver
        assert entry.ret is VOID and entry.ex is VOID
        for name in carried:
            assert getattr(entry, name) == getattr(caller, name)


def test_leave_restores_caller_env_and_keeps_effects():
    state = final(
        "function f(a){ global.seen = a; return a + 1; } a = 1; x = f(41);"
    )
    assert state.env["x"] == 42 and state.env["a"] == 1
    assert state.obj_mem[0]["seen"] == 41
    assert state.ret is VOID
    for interp, caller, receiver, carried in CALL_DOMAINS:
        entry = interp.enter(caller, 7, (receiver,), receiver, ("p",))
        callee = dataclasses.replace(entry, ret=receiver, ex=receiver, **carried)
        after, slot = interp.leave(caller, callee)
        assert after.env == caller.env
        assert interp.getthis(after) == interp.getthis(caller)
        assert after.ret is VOID and after.ex == receiver and slot == receiver
        for name, value in carried.items():
            assert getattr(after, name) == value


def test_callee_exception_propagates_to_caller():
    state = final("function boom(){ throw 9; } boom(); output 1;")
    assert state.ex == 9 and state.io.outputs == ()


def test_void_result_is_poisonous_but_storable():
    state = final("function v(){ output 1; } x = v();")
    assert state.env["x"] is VOID_VAL
    with pytest.raises(EvalError, match="void function result"):
        run("function v(){ output 1; } x = v(); y = x + 1;")
    with pytest.raises(EvalError, match="void function result"):
        run("function v(){ nil; } output v();")


# --- exceptions ----------------------------------------------------------------------


def test_throw_catch_binds_exception_variable():
    state = final("try { throw 1; } catch(e) { output e; }")
    assert state.io.outputs == (1,)
    assert state.env["e"] == 1 and state.ex is VOID


def test_handler_skipped_without_throw():
    state = final("try { x = 1; } catch(e) { output 9; }")
    assert "e" not in state.env and state.io.outputs == ()


def test_exception_example_flows():
    source = load("exceptions_basic.sdtl")
    assert run(source, (-5,)).outputs == (-5, 0)
    negative = final(source, (-5,))
    assert negative.env["e"] == 0 and "j" not in negative.env
    assert run(source, (7,)).outputs == (7,)
    assert final(source, (7,)).env["j"] == 3


def test_return_and_exceptions_interact():
    assert run(load("tryorerror.sdtl")).outputs == (50, -1, 0)


# --- whole-program runs -----------------------------------------------------------------


def test_factorial_run():
    source = load("fact.sdtl")
    assert run(source, (2,)).outputs == (2,)
    state = final(source, (2,))
    assert state.env["z"] == 2
    for n in (0, 1, 3, 5):
        expected = math.factorial(n) if n > 1 else 1
        assert run(source, (n,)).outputs == (expected,)


def test_showcase_run():
    source = load("showcase.sdtl")
    # oracle: fact by hand, juice sums from the source comments, thrown 42
    assert run(source, (3, 4, 100)).outputs == (
        math.factorial(3), math.factorial(4), 15 + 20 + 10, 30 + 50 + 10, 42, 42,
    )
    assert run(source, (3, 4, 10)).outputs == (6, 24, 45, 90, 42)


def test_runs_are_deterministic():
    source = load("showcase.sdtl")
    first = run(source, (3, 4, 100))
    second = run(source, (3, 4, 100))
    assert first == second
    assert len(first.final_states) == 1


def test_every_step_is_deterministic():
    sizes = []
    run_program(
        load_program("showcase.sdtl"), (3, 4, 100),
        trace=lambda node, out: sizes.append(len(out)),
    )
    assert sizes and all(size <= 1 for size in sizes)


@pytest.mark.parametrize("name,inputs", [
    ("showcase.sdtl", (3, 4, 100)),
    ("objects.sdtl", ()),
    ("tryorerror.sdtl", ()),
])
def test_heap_closure(name, inputs):
    state = run_program(load_program(name), inputs).final_state

    def refs_in(value):
        if isinstance(value, ObjRef):
            yield value.ref
        elif isinstance(value, FunPtr):
            for item in value.curried:
                yield from refs_in(item)

    reachable = [r for v in state.env.values() for r in refs_in(v)]
    for members in state.obj_mem.values():
        for value in members.values():
            reachable.extend(refs_in(value))
    assert set(reachable) <= set(state.obj_mem)
    assert state.this in state.obj_mem and 0 in state.obj_mem


def test_run_result_shape():
    result = run("output 1;")
    assert isinstance(result, concrete.RunResult)
    assert result.final_states == (result.final_state,)


def test_nonterminating_loop_raises(monkeypatch):
    """An endless loop stops at the run's loop iteration budget, and the
    error names the budget; a loop of exactly that many iterations ends."""
    assert kernel.Interpretation.max_loop_iterations == 1_000_000
    monkeypatch.setattr(kernel.Interpretation, "max_loop_iterations", 1_000)
    with pytest.raises(EvalError) as exc:
        run("while(true){ nil; }")
    assert exc.value.message == "loop iteration budget exceeded (1,000 iterations)"
    assert run("n = input; while (n > 0) { n = n - 1; } output n;", (1_000,)).outputs == (0,)


def test_host_recursion_limit_is_named_not_called_non_termination():
    """Loops take no host stack per iteration, so a 20,000-iteration loop
    ends; interpreted calls still recurse in the host, and exhausting it is
    reported as the host's limit, with no claim about termination."""
    source = "n = input; while (n > 0) { n = n - 1; } output n;"
    assert run(source, (20_000,)).outputs == (0,)
    fact = "function fact(f, n) { if (n > 1) { return f(f, n - 1) * n; } return 1; }"
    with pytest.raises(EvalError) as exc:
        run(fact + " output fact(fact, input);", (5_000,))
    assert str(exc.value) == (
        "host recursion limit exceeded (10,000 frames): call or value nesting too deep"
    )


def test_recursive_call_reaching_a_running_loop_starts_it_afresh():
    """A call inside a loop's body that reaches the same loop runs it to its
    own end: f(n) = n * f(n - 1) + 1, so f(3) is 16."""
    source = """
    function f(g, n) { i = 0; s = 0; while (i < n) { i = i + 1; s = s + g(g, n - 1); } return s + 1; }
    output f(f, input);
    """
    assert run(source, (3,)).outputs == (16,)

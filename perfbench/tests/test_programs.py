"""The generators are deterministic and their references are right."""

import json
import random
import re

import pytest

from perfbench import programs, workloads
from sdtl import analyze_program, parse, run_program
from sdtl.abstract import aval_to_json, result_to_json


def _constants(pattern, source):
    return [int(text) for text in re.search(pattern, source).groups()]


def _sources(directory):
    return {path.name: path.read_text() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_build_is_deterministic_per_seed(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a")
    again = workloads.build(workload, 7, tmp_path / "b")
    other = workloads.build(workload, 8, tmp_path / "c")
    assert [op.name for op in first] == [op.name for op in again]
    assert _sources(tmp_path / "a") == _sources(tmp_path / "b")
    assert _sources(tmp_path / "a") != _sources(tmp_path / "c")


def test_truncating_division_by_hand():
    assert programs.truncating_div(7, 2) == 3
    assert programs.truncating_div(-7, 2) == -3
    assert programs.truncating_div(7, -2) == -3
    assert programs.truncating_div(-7, -2) == 3


def test_counter_loop_by_hand():
    case = programs.counter_loop(random.Random(1), 4)
    start, step = _constants(r"s = (\d+);\n.*i \* (\d+);", case.source.replace("\n\t", " "))
    assert case.inputs == (4,)
    assert case.outputs == (start + step * (1 + 2 + 3 + 4),)


def test_fact_and_parens_by_hand():
    case = programs.self_passing_fact(random.Random(2), 5)
    (offset,) = _constants(r"output z \+ (\d+);", case.source)
    assert case.outputs == (120 + offset,)
    case = programs.nested_parens(random.Random(3), 3)
    (offset,) = _constants(r"\(\(\(x \+ (\d+)\)\)\)", case.source)
    assert case.outputs == (case.inputs[0] + offset,)


def test_loop_nest_reference_by_hand():
    case = programs.loop_nest(random.Random(4), 3, "p")
    assert case.states == 3
    assert case.required == {"pa": "Num", "pb": "Num", "pc0": "Num"}
    assert case.optional == {"pc1": "Num", "pc2": "Num"}
    assert case.source.count("while") == 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_straight_line_reference_matches_interpreter(seed):
    case = programs.straight_line(random.Random(seed), 60)
    assert len(case.source.splitlines()) == 60
    assert run_program(parse(case.source), case.inputs).outputs == case.outputs


@pytest.mark.parametrize(
    "make", [lambda rng: programs.loop_nest(rng, 3, "q"), lambda rng: programs.call_summary(rng, 2)]
)
def test_analysis_references_match_the_analysis(make):
    case = make(random.Random(5))
    result = analyze_program(parse(case.source))
    assert len(result.final_states) == case.states
    assert result.diagnostics == ()
    for state in result.final_states:
        env = {name: aval_to_json(value) for name, value in state.env.items()}
        assert {name: env.get(name) for name in case.required} == case.required
        assert set(env) <= set(case.required) | set(case.optional)


def test_corpus_mixes_every_block_kind_equally():
    kinds = len(programs.CORPUS_BLOCKS)
    sources = [programs.corpus_program(random.Random(i), i).source for i in range(kinds)]
    counts = [sum(marker in source for source in sources)
              for marker in ("rec(rec,", "= loopf(", "new F(k", "thrower(x1",
                             ".m = meth(", "global.h = meth(", "/ x2;", "if (x1 >")]
    assert counts == [programs.CORPUS_BLOCKS_PER_PROGRAM] * kinds


def test_branches_reference_matches_the_analysis():
    rng = random.Random(6)
    case = programs.branches([programs.loop_nest(rng, 2, "u"), programs.loop_nest(rng, 3, "v")])
    assert case.states == 5
    assert case.source.startswith("sel = input;\nif (sel > 0) {\n")
    report = json.dumps(result_to_json(analyze_program(parse(case.source))))
    assert workloads.check_types(case)(report) is None

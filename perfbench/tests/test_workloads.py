"""Op checks, outcome classification, and the metric list."""

import json
from pathlib import Path

import pytest

from perfbench import programs, run, workloads

ROOT = Path(__file__).resolve().parents[2]


def _op(check, codes=(0,), probe=False):
    return workloads.Op("probe_x.run", ("run", "x"), check, codes=codes, probe=probe)


RUN_CHECK = workloads.check_outputs((3, 4))


@pytest.mark.parametrize(
    "code, stdout, stderr, error, status, detail",
    [
        (None, "", "", "RecursionError: maximum recursion depth exceeded",
         "failed", "uncaught RecursionError: maximum recursion depth exceeded"),
        (1, "", "run-time error: recursion limit exceeded (non-terminating program?)\n", None,
         "failed", "exit 1: run-time error: recursion limit exceeded (non-terminating program?)"),
        (1, "", "", None, "failed", "exit 1: (no stderr)"),
        (0, '{"outputs": [3, 5]}', "", None, "wrong", "outputs[1]: expected 4, got 5"),
        (0, '{"outputs": [3]}', "", None, "wrong", "1 outputs, expected 2"),
        (0, "3\n4\n", "", None, "wrong", "output is not JSON (Extra data)"),
        (0, '{"outputs": [3, 4]}', "", None, "ok", ""),
    ],
)
def test_probe_outcomes_are_classified(code, stdout, stderr, error, status, detail):
    outcome = workloads.classify(_op(RUN_CHECK, probe=True), code, stdout, stderr, error)
    assert (outcome.status, outcome.detail) == (status, detail)


def test_soundness_exit_code_three_is_expected():
    check = workloads.check_accounting(4)
    op = _op(check, codes=(0, 3))
    report = json.dumps({"checked": 3, "errors": [{"inputs": [0], "error": "x"}], "violations": []})
    assert workloads.classify(op, 3, report, "", None).status == "ok"
    assert workloads.classify(op, 1, report, "", None).status == "failed"
    short = json.dumps({"checked": 2, "errors": []})
    assert workloads.classify(op, 0, short, "", None).detail == "2 runs accounted for, expected 4"


def test_type_check_reports_the_first_difference():
    case = programs.Case(source="", required={"a": "Num"}, optional={"c": "Num"}, states=2)
    check = workloads.check_types(case)

    def analysis(*envs, diagnostics=()):
        return json.dumps({"states": [{"env": env} for env in envs],
                           "diagnostics": list(diagnostics)})

    assert check(analysis({"a": "Num"}, {"a": "Num", "c": "Num"})) is None
    assert check(analysis({"a": "Num"})) == "1 final states, expected 2"
    assert check(analysis({"a": "Num"}, {"a": "Bool"})) == "state 2 a: expected Num, got Bool"
    assert check(analysis({"a": "Num"}, {})) == "state 2 a: expected Num, got None"
    assert check(analysis({"a": "Num"}, {"a": "Num", "z": "Num"})) == (
        "state 2 binds unexpected variable 'z'")
    assert check(analysis({"a": "Num"}, {"a": "Num", "c": "Bool"})) == (
        "state 2 c: expected Num, got Bool")
    assert check(analysis({"a": "Num"}, {"a": "Num"},
                          diagnostics=[{"node": 4, "message": "m"}])) == (
        "1 diagnostics, first: node 4: m")


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_probe_rows_name_the_probe_ops(tmp_path):
    ops = workloads.build("scale", 1, tmp_path)
    assert sorted(op.name for op in ops if op.probe) == sorted(run.PROBE_ROWS)


def test_type_check_matches_each_state_against_one_alternative():
    case = programs.Case(source="", required={"s": "Num"}, states=2, alternatives=(
        ({"ua": "Num"}, {"uc": "Num"}), ({"va": "Num"}, {})))
    check = workloads.check_types(case)

    def analysis(*envs):
        return json.dumps({"states": [{"env": env} for env in envs], "diagnostics": []})

    assert check(analysis({"s": "Num", "ua": "Num"}, {"s": "Num", "va": "Num"})) is None
    assert check(analysis({"s": "Num", "ua": "Num", "uc": "Num"},
                          {"s": "Num", "va": "Num"})) is None
    # a state may not mix two alternatives' variables
    assert check(analysis({"s": "Num", "ua": "Num"}, {"s": "Num", "va": "Num", "uc": "Num"})) == (
        "state 2 binds unexpected variable 'uc'")
    assert check(analysis({"s": "Num", "ua": "Num"}, {"s": "Num", "va": "Bool"})) == (
        "state 2 va: expected Num, got Bool")


def test_latency_is_the_median_of_normalized_attempts():
    ops = [workloads.Op("a", (), None), workloads.Op("b", (), None, timed=False)]
    reference = run.CALIBRATION_REFERENCE_S
    passes = [
        [run.Record(0, 0.010, None, reference), run.Record(1, 9.0, None, reference)],
        [run.Record(0, 0.030, None, 2 * reference)],  # half speed: 0.015 s
        [run.Record(0, 0.040, None, reference)],
    ]
    assert run.latencies(ops, passes) == [pytest.approx(0.015)]

"""Self-time arithmetic and the layer wrappers."""

import itertools

import pytest

from perfbench import tracing
from sdtl import abstract, cli, concrete, kernel, soundness, syntax

MODULES = {
    "syntax": syntax,
    "kernel": kernel,
    "concrete": concrete,
    "abstract": abstract,
    "soundness": soundness,
    "cli": cli,
}


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, op=0)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("b.child", 5.0, 6.0, 2),
        _span("other root", 11.0, 12.5, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 5.0, 0),
        _span("b", 3.0, 7.0, 0),
        _span("late", 9.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_ops():
    tracer = tracing.Tracer(clock=itertools.count().__next__)
    outer = tracer.begin("outer")
    tracer.op = 3
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    second = tracer.begin("second")
    tracer.end(second)
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", None, 0), ("inner", 0, 3), ("second", None, 3)
    ]
    assert [(s.start, s.end) for s in tracer.spans] == [(0, 3), (1, 2), (4, 5)]


def _traced(run):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, MODULES)
    try:
        run()
    finally:
        restore()
    return tracer


def test_install_traces_a_cli_command_and_restores(tmp_path, capsys):
    originals = {(m, a): getattr(MODULES[m], a) for m, a in
                 [("syntax", "parse"), ("kernel", "stm_meaning"), ("cli", "main")]}
    path = tmp_path / "p.sdtl"
    path.write_text("function f(x) { return x + 1; }\ny = f(input);\noutput y;\n")
    tracer = _traced(lambda: cli.main(["check-soundness", str(path), "--input-sets", "1;2"]))
    capsys.readouterr()
    names = [span.name for span in tracer.spans]
    assert names[0] == "cli.main"
    assert names.count("concrete.run_program") == 2
    assert names.count("soundness.abstracts_outcome") == 2
    assert {"syntax.tokenize", "syntax.parse", "abstract.analyze_program",
            "soundness.differential_test", "kernel.stm_meaning"} <= set(names)
    counts = tracer.counts[0]
    assert counts["concrete.runs"] == 2 and counts["abstract.analyses"] == 1
    assert counts["concrete.stm_evals"] > 0 and counts["abstract.stm_evals"] > 0
    assert counts["soundness.checked_runs"] == 2
    # the root and, lazily, the function body, for the analysis and each run
    assert counts["kernel.meaning_builds"] == 2 * 3
    assert all(getattr(MODULES[m], a) is f for (m, a), f in originals.items())


def test_hook_is_injected_only_when_the_caller_passed_none():
    program = syntax.parse("x = 1; output x;")
    seen = []
    tracer = _traced(lambda: concrete.run_program(program, trace=lambda n, o: seen.append(n)))
    assert len(seen) == 3
    assert tracer.counts[0]["concrete.stm_evals"] == 0


def test_eval_errors_are_counted():
    program = syntax.parse("x = 1 / 0;")

    def run():
        with pytest.raises(kernel.EvalError):
            concrete.run_program(program)

    assert _traced(run).counts[0]["concrete.eval_errors"] == 1

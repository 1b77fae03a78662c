import collections
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sdtl
from helpers import (
    GENERATED, GOLDEN, MULTI_CANDIDATE, PROGRAMS, call_chain, generated_reports, load,
    seq_and_last_sids, straight_line, wide_call,
)
from perfbench import programs
from sdtl import abstract, cli, concrete, kernel, soundness, syntax

GOLDEN_OUTPUT = PROGRAMS.parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name):
    return str(PROGRAMS / name)


def test_run_factorial(capsys):
    code, out, err = run_cli(capsys, "run", path("fact.sdtl"), "--input", "2")
    assert code == 0 and out == "2\n" and err == ""


def test_run_showcase(capsys):
    code, out, _ = run_cli(capsys, "run", path("showcase.sdtl"), "--input", "3,4,100")
    assert code == 0
    assert out.splitlines() == ["6", "24", "45", "90", "42", "42"]


def test_run_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", path("fact.sdtl"), "--input", "5", "--format", "json"
    )
    assert code == 0 and json.loads(out) == {"outputs": [120]}


def test_run_trace_lines(capsys):
    code, _, err = run_cli(capsys, "run", path("fact.sdtl"), "--input", "2", "--trace")
    assert code == 0
    assert err.splitlines()
    assert all(line.startswith("sid=") and " env={" in line for line in err.splitlines())


@pytest.mark.parametrize("command, expected", [
    ("run", "1\n"),
    ("analyze", 'state 1:\n  env: {"x": "Num"}\n'),
], ids=["run", "analyze"])
def test_a_file_may_start_with_a_byte_order_mark(tmp_path, capsys, command, expected):
    prog = tmp_path / "bom.sdtl"
    prog.write_bytes(b"\xef\xbb\xbfx = 1; output x;")
    code, out, err = run_cli(capsys, command, str(prog))
    assert code == 0 and out.startswith(expected) and err == ""


def test_run_division_by_zero(tmp_path, capsys):
    bad = tmp_path / "div0.sdtl"
    bad.write_text("x = 1 / 0;")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert "division by zero" in err and "node" in err


def test_run_uncaught_exception(tmp_path, capsys):
    bad = tmp_path / "boom.sdtl"
    bad.write_text("output 1; throw 3;")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 1 and out == "1\n" and "uncaught exception: 3" in err


@pytest.mark.parametrize("source, shown", [
    ("throw true;", "true"),
    ("function F(){ this.a = 1; } o = new F(); throw o;", '{"obj": 1}'),
], ids=["boolean", "object"])
def test_run_uncaught_exception_is_printed_as_json(tmp_path, capsys, source, shown):
    bad = tmp_path / "boom.sdtl"
    bad.write_text(source)
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 1 and out == "" and err == f"uncaught exception: {shown}\n"


def test_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.sdtl"
    bad.write_text("x = ;")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 1 and "parse error: 1:5" in err


@pytest.mark.parametrize("source, code, out, err", [
    ("x = 1; # c\noutput x;", 0, "1\n", ""),
    ("x = 1;\n y = @;", 1, "", "parse error: 2:6: unexpected character '@'\n"),
], ids=["comment", "error"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_endings_read_the_same_in_the_cli_and_the_library(
        tmp_path, capsys, source, code, out, err, newline):
    """The CLI reads a file with universal newlines, and the library takes
    CR LF, CR and LF each as one line break too: a comment ends at any of
    them, and an error is placed on the same line."""
    text = source.replace("\n", newline)
    prog = tmp_path / "p.sdtl"
    prog.write_bytes(text.encode())
    assert run_cli(capsys, "run", str(prog)) == (code, out, err)
    try:
        outputs = sdtl.run_program(sdtl.parse(text)).outputs
    except sdtl.ParseError as error:
        assert f"parse error: {error}\n" == err
    else:
        assert code == 0 and "".join(f"{value}\n" for value in outputs) == out


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-file.sdtl")
    assert code == 1 and "cannot read" in err


@pytest.mark.parametrize("command", ["run", "analyze", "dump-ast", "check-soundness"])
def test_non_utf8_file_exits_1_without_traceback(tmp_path, capsys, command):
    prog = tmp_path / "utf16.sdtl"
    prog.write_bytes(b"\xff\xfex\x00 \x00=\x00 \x001\x00;\x00")
    code, out, err = run_cli(capsys, command, str(prog))
    assert code == 1 and out == ""
    assert err.startswith(f"cannot read {prog}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("command", ["run", "analyze", "dump-ast"])
@pytest.mark.parametrize("source", [
    "output " + "(" * 300 + "1" + ")" * 300 + ";",
    "".join(f"x{i} = {i};\n" for i in range(3000)),
], ids=["parens300", "statements3000"])
def test_deep_nesting_exits_1_without_traceback(tmp_path, capsys, command, source):
    prog = tmp_path / "deep.sdtl"
    prog.write_text(source)
    code, _, err = run_cli(capsys, command, str(prog))
    assert code == 1
    assert err == "input nests too deeply: recursion limit exceeded\n"


def test_the_analysis_gets_the_run_s_host_stack_headroom(tmp_path, capsys):
    """Analysing a chain of 300 non-recursive calls needs more host stack
    than the default 1,000 frames; the analysis evaluates under the kernel's
    headroom, as a run does (at 141 levels both `analyze` and
    `check-soundness` ended "input nests too deeply" while it did not)."""
    prog = tmp_path / "chain.sdtl"
    prog.write_text(call_chain(300))
    assert run_cli(capsys, "run", str(prog)) == (0, "7\n", "")
    code, out, err = run_cli(capsys, "analyze", str(prog))
    assert code == 0 and out.startswith("state 1:\n") and "diagnostic:" not in out
    assert err == ""
    code, out, err = run_cli(capsys, "check-soundness", str(prog))
    report = json.loads(out)
    assert code == 0 and report["checked"] == 1 and report["violations"] == []
    assert err == ""


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_host_stack_exhaustion_is_a_run_time_error_in_both_commands(command):
    """A chain of 3,000 non-recursive calls exhausts the 10,000 frames of
    headroom in the run and in the analysis alike, which say so in the same
    words (a run reaches about 2,496 calls and an analysis 1,997, at 4 and
    5 frames a call).  The parser needs headroom of its own for the chain's
    6,003 statements."""
    with kernel.recursion_headroom():
        program = syntax.parse(call_chain(3_000))
    evaluate = {"run": lambda: concrete.run_program(program, ()),
                "analyze": lambda: abstract.analyze_program(program)}[command]
    with pytest.raises(kernel.EvalError) as caught:
        evaluate()
    assert str(caught.value) == (
        "host recursion limit exceeded (10,000 frames): call or value nesting too deep"
    )


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_a_call_of_10_000_arguments_runs_and_analyses(tmp_path, capsys, command):
    """A call's arguments are collected by one loop and take no host stack
    (9,000 arguments exhausted the 10,000 frames of headroom while each
    argument took two frames)."""
    prog = tmp_path / "wide.sdtl"
    prog.write_text(wide_call(10_000))
    code, out, err = run_cli(capsys, command, str(prog))
    assert (code, err) == (0, "")
    if command == "run":
        assert out == "1\n"
    else:
        assert out.startswith("state 1:\n") and "diagnostic:" not in out


# each iteration wraps `x` in one more curried function pointer, so the
# run's final value nests as deep as its input
WRAPPING = """function wrap(f, g) { return f; }
x = 0; n = input; i = 0;
while (i < n) { x = wrap(x); i = i + 1; }
{last}
"""


def test_check_soundness_relates_values_as_deep_as_a_run_nests_them(tmp_path, capsys):
    """The relation and the report recurse into a value once per level, under
    the run's own headroom: from 330 levels they ended "input nests too
    deeply" under the host's default 1,000 frames.  The violation is the
    documented curried-anchor caveat."""
    prog = tmp_path / "wrapping.sdtl"
    prog.write_text(WRAPPING.replace("{last}", "output i;"))
    code, out, err = run_cli(capsys, "check-soundness", str(prog), "--input-sets", "2000")
    assert (code, err) == (3, "")
    with kernel.recursion_headroom():
        report = json.loads(out)
    assert report["checked"] == 1 and len(report["violations"]) == 1
    assert report["analysisStats"]["resetCurriedKeys"] == [[2, 1, 28]]


def test_an_uncaught_exception_is_printed_however_deep_its_value(tmp_path, capsys):
    """Rendering a thrown value recurses once per level, under the run's own
    headroom: 600 levels ended "input nests too deeply" under the host's
    default 1,000 frames."""
    prog = tmp_path / "wrapping.sdtl"
    prog.write_text(WRAPPING.replace("{last}", "throw x;"))
    code, out, err = run_cli(capsys, "run", str(prog), "--input", "2000")
    assert (code, out) == (1, "")
    assert err.startswith('uncaught exception: {"fun": [2, [{"fun": [2, [')
    assert err.count('{"fun"') == 2_000


THROWS_OUT_OF_EXPRESSIONS = """
function boom(v) { throw v; }
function F(a) { this.a = a; }
function id(a) { return a; }
o = new F(0);
o.m = id;
try { if (boom(1)) { output 0; } } catch (e) { output e; }
try { while (boom(2)) { output 0; } } catch (e) { output e; }
try { x = boom(3) + 1; } catch (e) { output e; }
try { x = 1 + boom(4); } catch (e) { output e; }
try { x = id(boom(5)); } catch (e) { output e; }
try { x = new F(boom(6)); } catch (e) { output e; }
try { x = o.m(boom(7)); } catch (e) { output e; }
z = boom(8) + boom(9);
"""


def test_exceptions_thrown_out_of_expressions(tmp_path, capsys):
    """An exception thrown out of an `if` or `while` guard, either operand
    of an operator, or an argument of a call, a `new` or a method call
    escapes the expression: each is caught and printed in turn, and the
    left operand's exception ends the run before the right operand runs.
    The analysis has one final state, with a pending `Num`, and no
    diagnostic, and it abstracts the run after every statement."""
    prog = tmp_path / "throws.sdtl"
    prog.write_text(THROWS_OUT_OF_EXPRESSIONS)
    assert run_cli(capsys, "run", str(prog)) == (
        1, "".join(f"{i}\n" for i in range(1, 8)), "uncaught exception: 8\n"
    )
    code, out, err = run_cli(capsys, "analyze", str(prog), "--format", "json")
    result = json.loads(out)
    assert code == 0 and err == "" and result["diagnostics"] == []
    assert [state["ex"] for state in result["states"]] == ["Num"]
    code, out, err = run_cli(capsys, "check-soundness", str(prog), "--per-statement")
    report = json.loads(out)
    assert code == 0 and report["checked"] == 1 and report["violations"] == []


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_parser_is_built_once_and_still_reports_usage_errors(capsys):
    cli.build_parser.cache_clear()
    code, out, _ = run_cli(capsys, "run", path("fact.sdtl"), "--input", "3")
    assert code == 0 and out == "6\n"
    err = usage_error(capsys, "run", path("fact.sdtl"), "--frobnicate")
    assert err.startswith("usage: sdtl ")
    assert "error: unrecognized arguments: --frobnicate" in err
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ("run", path("fact.sdtl"), "--input", "abc"),
    ("run", path("fact.sdtl"), "--input", "1,,2"),
    ("check-soundness", path("fact.sdtl"), "--input-sets", "1;x"),
])
def test_malformed_input_vector_is_usage_error(capsys, argv):
    err = usage_error(capsys, *argv)
    assert f"argument {argv[2]}: not a comma-separated list of integers" in err


@pytest.mark.parametrize("spelling", [["--input", "-3,9,1"], ["--input=-3,9,1"]])
def test_run_input_may_start_with_a_negative_number(capsys, spelling):
    code, out, _ = run_cli(capsys, "run", path("showcase.sdtl"), *spelling)
    assert code == 0 and out.splitlines()[:2] == ["1", "362880"]


def test_loop_budget_ends_an_endless_run_with_one_error_line(capsys, monkeypatch):
    """`x = foo(x)` nests a curried function value one level per iteration;
    the run still stops at the loop budget, not at the host's 10,000 frames."""
    monkeypatch.setattr(kernel.Interpretation, "max_loop_iterations", 20_000)
    code, out, err = run_cli(capsys, "run", path("currying_loop.sdtl"))
    assert code == 1 and out == ""
    assert err.startswith("run-time error: loop iteration budget exceeded (20,000 iterations)")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("extra", [
    [path("fact.sdtl"), "--per-statement", "--input-sets=5"],
    [path("fact.sdtl")],
    ["--per-statement"],
    ["--input-sets", ""],
])
def test_generate_with_a_file_or_its_options_is_usage_error(capsys, extra):
    """A generated corpus brings its own programs and input vectors, so a
    file, ``--per-statement`` or ``--input-sets`` next to ``--generate``
    would be ignored; the command refuses them instead."""
    err = usage_error(capsys, "check-soundness", "--generate", *extra)
    assert err.startswith("usage: sdtl check-soundness ")
    assert err.endswith(
        "error: argument --generate: not allowed with a file, --per-statement "
        "or --input-sets\n"
    )


@pytest.mark.parametrize("extra", [
    ["--count", "5", "--seed", "3", "--size", "2"],
    ["--seed", "0"],
    ["--count", "200"],
    ["--size", "2"],
])
def test_corpus_options_with_a_file_are_usage_errors(capsys, extra):
    """The enumerated corpus has no seed, count or size: ``--seed``,
    ``--count`` and ``--size`` are unknown options, with a file and with
    ``--generate`` alike."""
    for argv in ([path("fact.sdtl"), *extra], ["--generate", *extra]):
        err = usage_error(capsys, "check-soundness", *argv)
        assert f"error: unrecognized arguments: {extra[0]}" in err


@pytest.mark.parametrize("argv, unknown", [
    (("run", path("fact.sdtl"), "--frobnicate"), "--frobnicate"),
    (("analyze", "--trace", path("fact.sdtl"), "extra"), "extra"),
    (("check-soundness", "--seed", "1"), "--seed"),  # `1` is taken as the file
    (("dump-ast", path("fact.sdtl"), "--input", "3"), "--input 3"),
])
def test_unknown_arguments_are_reported_under_the_subcommand_usage(capsys, argv, unknown):
    """Arguments no option or positional takes are a usage error of the
    subcommand, under its own usage line, like its other usage errors."""
    err = usage_error(capsys, *argv)
    assert err.startswith(f"usage: sdtl {argv[0]} ")
    assert err.endswith(f"sdtl {argv[0]}: error: unrecognized arguments: {unknown}\n")


def test_check_soundness_without_a_file_is_a_usage_error(capsys):
    """Neither a file nor ``--generate`` is a usage error, reported with the
    usage line of ``check-soundness`` and exit status 2 like the other
    ``check-soundness`` ones."""
    err = usage_error(capsys, "check-soundness")
    assert err.startswith("usage: sdtl check-soundness ")
    assert err.endswith("error: check-soundness needs a file or --generate\n")


def test_check_soundness_says_when_no_run_was_checked(capsys):
    """Every run of the factorial reads an input, so with no input vector
    given each run ends at "input exhausted" and nothing is checked; stdout
    and the exit code stay those of a passing report, and stderr says so."""
    code, out, err = run_cli(capsys, "check-soundness", path("fact.sdtl"))
    report = json.loads(out)
    assert code == 0 and report["checked"] == 0 and len(report["errors"]) == 1
    assert err == "no run was checked: every input vector ended in a run-time error\n"
    code, out, err = run_cli(capsys, "check-soundness", path("fact.sdtl"), "--input-sets", "3")
    assert code == 0 and json.loads(out)["checked"] == 1 and err == ""


def test_analyze_while_example(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", path("while_types.sdtl"), "--format", "json"
    )
    assert code == 0
    result = json.loads(out)
    envs = [state["env"] for state in result["states"]]
    assert {"sum": "Num", "x": "Bool", "z": "Num"} in envs
    assert {"sum": "Num", "x": "Num", "z": "Num"} in envs
    assert len(envs) == 2 and result["diagnostics"] == []


def test_analyze_text_mode(capsys):
    code, out, _ = run_cli(capsys, "analyze", path("while_types.sdtl"))
    assert code == 0 and out.count("state ") == 2


ANALYZE_TEXT_GOLDEN = json.loads(
    (GOLDEN_OUTPUT / "analyze_text.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(ANALYZE_TEXT_GOLDEN))
def test_analyze_text_matches_golden_output(capsys, name):
    r"""tests/golden/analyze_text.json holds the text-mode `analyze` output
    of every sample program, recorded before each state was rendered once,
    from the repository root, with

        PYTHONPATH=src python -c 'import contextlib, io, json, os
        from sdtl import cli
        golden = {}
        for name in sorted(os.listdir("tests/programs")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["analyze", f"tests/programs/{name}"])
            golden[name] = out.getvalue()
        print(json.dumps(golden, indent=2, sort_keys=True))' \
            > tests/golden/analyze_text.json
    """
    code, out, _ = run_cli(capsys, "analyze", path(name))
    assert code == 0 and out == ANALYZE_TEXT_GOLDEN[name]


def test_analyze_trace_reports_state_counts(capsys):
    code, _, err = run_cli(capsys, "analyze", path("while_types.sdtl"), "--trace")
    assert code == 0
    assert all(line.startswith("sid=") and " states=" in line
               for line in err.splitlines())
    assert any(line.endswith("states=2") for line in err.splitlines())


def test_analyze_trace_counts_distinct_outcomes(capsys, tmp_path):
    """`f`'s two exits collapse under `apply` into one outcome, which the
    call's step returns once."""
    prog = tmp_path / "two_exits.sdtl"
    prog.write_text(
        "function f() { if (input > 0) { a = 1; } else { b = 2; } return 1; }\n"
        "x = f();\n"
    )
    code, _, err = run_cli(capsys, "analyze", str(prog), "--trace")
    assert code == 0 and err.splitlines()[-2:] == ["sid=16 states=1", "sid=1 states=1"]


ANALYZE_TRACE_GOLDEN = json.loads(
    (GOLDEN_OUTPUT / "analyze_trace.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(ANALYZE_TRACE_GOLDEN))
def test_analyze_trace_matches_golden_output(capsys, tmp_path, name):
    r"""tests/golden/analyze_trace.json holds the `analyze --trace` stderr of
    every sample program and of `loop_nest(Random(1), 4)`.  Steps drop
    repeated outcomes in first-seen order, so it is the same in every
    process.  It was recorded,
    from the repository root, with

        PYTHONPATH=src:. python -c 'import contextlib, io, json, os, random
        from perfbench import programs
        from sdtl import cli
        def trace(path):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                cli.main(["analyze", path, "--trace"])
            return err.getvalue()
        golden = {name: trace(f"tests/programs/{name}")
                  for name in sorted(os.listdir("tests/programs"))}
        with open("nest.sdtl", "w") as f:
            f.write(programs.loop_nest(random.Random(1), 4).source)
        golden["loop_nest_d4"] = trace("nest.sdtl")
        os.remove("nest.sdtl")
        print(json.dumps(golden, indent=2, sort_keys=True))' \
            > tests/golden/analyze_trace.json
    """
    if name == "loop_nest_d4":
        prog = tmp_path / "nest.sdtl"
        prog.write_text(programs.loop_nest(random.Random(1), 4).source)
    else:
        prog = path(name)
    code, _, err = run_cli(capsys, "analyze", str(prog), "--trace")
    assert code == 0 and err == ANALYZE_TRACE_GOLDEN[name]


@pytest.mark.parametrize("name", GOLDEN)
def test_analyze_matches_golden_output(capsys, name):
    r"""The fixtures under tests/golden were recorded, from the repository
    root, with

        for f in tests/programs/*.sdtl; do
            PYTHONPATH=src python -m sdtl.cli analyze $f --format json \
                > tests/golden/$(basename $f .sdtl).json
        done
    """
    code, out, _ = run_cli(capsys, "analyze", path(name), "--format", "json")
    expected = (GOLDEN_OUTPUT / name).with_suffix(".json").read_text(encoding="utf-8")
    assert code == 0 and out == expected


GENERATED_GOLDEN_DIGEST = (
    "b4eafd38fc9e40c4afc5ff6630ba124086eb39ae98ac941d921cf4383f98253c"
)


def test_analyze_generated_matches_golden_digest(tmp_path, capsys):
    """sha256 over the exit code and `analyze --format json` output of each
    of the first 60 recorded programs of ``helpers.GENERATED``, recorded
    before the call and loop engines were merged into one."""
    digest = hashlib.sha256()
    for index, (source, _) in enumerate(GENERATED[:60]):
        prog = tmp_path / f"p{index}.sdtl"
        prog.write_text(source)
        code, out, _ = run_cli(capsys, "analyze", str(prog), "--format", "json")
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GENERATED_GOLDEN_DIGEST


CHECK_DEFAULT_DIGEST = (
    "1d6607c7ca842b7e18205f072280f80eeb838165bd5cfd14b2dbe0d474a786c2"
)


def test_check_soundness_default_mode_matches_golden_digest(
    tmp_path, capsys, monkeypatch
):
    """sha256 over the exit code and output of `check-soundness` without
    ``--per-statement``: on each program under tests/programs with the
    vectors "0;1;5,2,100,7", then on each recorded program of
    ``helpers.GENERATED`` with its own four vectors.  The default mode
    checks final states only, so the per-node check leaves it alone.  The
    loop budget is 20,000 iterations, so currying_loop.sdtl's endless runs
    end in a fraction of a second, not ten seconds each."""
    monkeypatch.setattr(kernel.Interpretation, "max_loop_iterations", 20_000)
    monkeypatch.chdir(tmp_path)  # a report names its file: name it the same each run
    cases = [(name, load(name), "0;1;5,2,100,7") for name in sorted(os.listdir(PROGRAMS))]
    cases += [
        (f"p{index}.sdtl", source, ";".join(",".join(map(str, v)) for v in vectors))
        for index, (source, vectors) in enumerate(GENERATED)
    ]
    digest = hashlib.sha256()
    for file, source, sets in cases:
        Path(file).write_text(source)
        code, out, _ = run_cli(capsys, "check-soundness", file, "--input-sets", sets)
        digest.update(f"{code}\n{out}".encode())
    assert len(cases) == 211 and digest.hexdigest() == CHECK_DEFAULT_DIGEST


ERROR_GOLDEN = json.loads((GOLDEN_OUTPUT / "errors.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(ERROR_GOLDEN))
def test_error_node_ids_match_golden(tmp_path, capsys, name):
    """One program per run-time error site.  tests/golden/errors.json holds
    each program's source and input vector with the exit code, stdout and
    stderr of ``sdtl run --input <input>`` (stderr names the node the error
    is tagged with) and the stdout of ``sdtl analyze --format json`` (which
    names the node of each diagnostic), recorded through ``cli.main`` on
    the program written to a file with a trailing newline."""
    case = ERROR_GOLDEN[name]
    prog = tmp_path / f"{name}.sdtl"
    prog.write_text(case["source"] + "\n")
    code, out, err = run_cli(capsys, "run", str(prog), "--input", case["input"])
    assert (code, out, err) == (case["run_exit"], case["run_stdout"], case["run_stderr"])
    code, out, err = run_cli(capsys, "analyze", str(prog), "--format", "json")
    assert (code, out, err) == (0, case["analyze"], "")


def test_analyze_output_is_stable(capsys):
    _, first, _ = run_cli(capsys, "analyze", path("showcase.sdtl"), "--format", "json")
    _, second, _ = run_cli(capsys, "analyze", path("showcase.sdtl"), "--format", "json")
    assert first == second


def test_check_soundness_file(capsys):
    code, out, _ = run_cli(
        capsys, "check-soundness", path("fact.sdtl"), "--input-sets", "0;1;2,0;5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["checked"] == 4 and report["violations"] == []


def test_check_soundness_violation_exit_code(tmp_path, capsys):
    prog = tmp_path / "reset.sdtl"
    prog.write_text(
        "function F(v) {\n\tthis.m = v;\n}\n"
        "c = 2;\nx = 5;\na = 0;\nb = 0;\n"
        "while(c > 0) {\n\to = new F(x);\n"
        "\tif(c > 1) { a = o; } else { b = o; }\n"
        "\tx = true;\n\tc = c - 1;\n}\n"
    )
    code, out, _ = run_cli(capsys, "check-soundness", str(prog), "--input-sets", "")
    assert code == 3
    assert json.loads(out)["violations"]


def test_analyze_iteration_cap(capsys, monkeypatch):
    monkeypatch.setattr(abstract.AbstractInterpretation, "max_iterations", 1)
    code, _, err = run_cli(capsys, "analyze", path("while_types.sdtl"))
    assert code == 1 and "analysis failure" in err


def test_check_soundness_generated_iteration_cap(capsys, monkeypatch):
    monkeypatch.setattr(abstract.AbstractInterpretation, "max_iterations", 1)
    code, _, err = run_cli(capsys, "check-soundness", "--generate")
    assert code == 1 and "analysis failure" in err


def test_check_soundness_per_statement(capsys):
    code, out, _ = run_cli(
        capsys, "check-soundness", path("exceptions_basic.sdtl"),
        "--input-sets", "-5;7", "--per-statement",
    )
    report = json.loads(out)
    assert code == 0 and report["checked"] == 2 and report["violations"] == []


CTOR_IN_LOOP = """function F(v) { this.value = v; }
k = 2;
while (k > 0) {
  o = new F(k);
  o.extra = k;
  k = k - 1;
}
output o.value;
"""


def test_per_statement_checks_inside_a_function_body(tmp_path, capsys):
    """On the loop's second iteration `new` resets the site's abstract
    object, while the first iteration's object keeps `extra`: the relation
    fails in `F`'s `this.value = v` (node 3) and at `o = new F(k)` (node
    19).  By the end of the loop both objects have both members again, so
    the final check, all that the default mode makes, passes."""
    prog = tmp_path / "ctor_in_loop.sdtl"
    prog.write_text(CTOR_IN_LOOP)
    code, out, _ = run_cli(capsys, "check-soundness", str(prog), "--input-sets", "0")
    assert code == 0 and json.loads(out)["violations"] == []
    code, out, _ = run_cli(
        capsys, "check-soundness", str(prog), "--per-statement", "--input-sets", "0"
    )
    report = json.loads(out)
    assert code == 3 and soundness.classify_caveat(report) == "allocation-site-reset"
    assert [v["atNode"] for v in report["violations"]] == [3, 19]
    unchecked = seq_and_last_sids(syntax.parse(CTOR_IN_LOOP))
    assert unchecked == {1, 8, 12, 18, 25, 38}  # the Seq blocks and `output o.value;`
    assert not unchecked & {v["atNode"] for v in report["violations"]}


@pytest.mark.parametrize("name", ["caveat_site_reset", "caveat_curried_reset"])
def test_per_statement_report_matches_golden(capsys, monkeypatch, name):
    r"""The two documented caveat programs violate the relation at nodes
    inside the functions and at the fourth statement, so their reports pin
    the states there and the explanations.  The site reset shows in `F`'s
    `this.m = v` (node 3) and `mk`'s return (node 10) on the second call;
    the curried reset leaves the analysis no state in `add`'s return (node
    3).  The fifth statement is the last, so its violation is reported
    once, as the final one.  The fixtures under tests/golden_per_statement
    were recorded, from the repository root, with

        sdtl check-soundness tests/programs/$name.sdtl --per-statement \
            --input-sets "0;1" > tests/golden_per_statement/$name.json
    """
    monkeypatch.chdir(PROGRAMS.parent.parent)
    code, out, _ = run_cli(
        capsys, "check-soundness", f"tests/programs/{name}.sdtl",
        "--per-statement", "--input-sets", "0;1",
    )
    expected = PROGRAMS.parent / "golden_per_statement" / f"{name}.json"
    assert code == 3 and out == expected.read_text(encoding="utf-8")
    nodes = {"caveat_site_reset": {3, 10, 24}, "caveat_curried_reset": {3, 25}}[name]
    assert {v.get("atNode") for v in json.loads(out)["violations"]} == {None} | nodes


def test_multi_candidate_report_is_the_same_in_every_process(tmp_path):
    r"""A violation with two candidate abstract states explains both, in the
    analysis's order, so the report is the same under every hash seed.  The
    fixture was recorded by writing `helpers.MULTI_CANDIDATE` to
    multi_candidate.sdtl in an empty directory and running there

        sdtl check-soundness multi_candidate.sdtl --per-statement \
            --input-sets "0;1" > multi_candidate.json

    and moving the report to tests/golden_per_statement."""
    (tmp_path / "multi_candidate.sdtl").write_text(MULTI_CANDIDATE)
    pythonpath = str(Path(sdtl.__file__).parents[1])
    reports = []
    for seed in ("0", "1"):
        completed = subprocess.run(
            [sys.executable, "-m", "sdtl", "check-soundness", "multi_candidate.sdtl",
             "--per-statement", "--input-sets", "0;1"],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath),
        )
        assert completed.returncode == 3, completed.stderr
        reports.append(completed.stdout)
    expected = PROGRAMS.parent / "golden_per_statement" / "multi_candidate.json"
    assert reports[0] == reports[1] == expected.read_text(encoding="utf-8")


def test_check_soundness_generated(capsys, monkeypatch):
    """The enumerated corpus finds both documented caveats and classifies
    every violating program; the runs of clean programs are counted too,
    and a sha256 pins the whole report, 1,434 violations at their nodes.
    The corpus is checked once per test run, shared with test_soundness."""
    monkeypatch.setattr(soundness, "check_generated_corpus", generated_reports)
    code, out, _ = run_cli(capsys, "check-soundness", "--generate")
    summary = json.loads(out)
    assert code == 3
    assert (summary["checked"], summary["checkedRuns"], summary["discardedRuns"]) == (
        3308, 5825, 791,
    )
    assert summary["violationPrograms"] == len(summary["reports"]) == 232
    assert collections.Counter(r["caveat"] for r in summary["reports"]) == {
        "allocation-site-reset": 152, "curried-anchor-reset": 80,
    }
    assert sum(len(r["violations"]) for r in summary["reports"]) == 1434
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "41e6ff1055cec931e00cc086ff03f61a435a19ca3445ba65bfb77e5bc0368ead"
    )


def test_dump_ast(capsys):
    code, out, _ = run_cli(capsys, "dump-ast", path("objects.sdtl"))
    assert code == 0
    nodes = json.loads(out)
    assert nodes[0]["id"] == 1 and nodes[0]["kind"] == "Seq"
    assert [node["id"] for node in nodes] == list(range(1, len(nodes) + 1))
    assert out.count("\n") == len(nodes) + 2  # "[", a line per node, "]"


def test_python_dash_m_sdtl_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(sdtl.__file__).parent.parent))
    completed = subprocess.run(
        [sys.executable, "-m", "sdtl", "dump-ast", path("fact.sdtl")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    expected = (GOLDEN_OUTPUT / "ast" / "fact.json").read_text(encoding="utf-8")
    assert completed.returncode == 0 and completed.stdout == expected


@pytest.mark.parametrize("module", ["sdtl", "sdtl.cli"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, module):
    """A reader that closes the pipe after one line, as `| head -n 1` does:
    the nodes of 800 statements, one a line, make about 470 KB, far more
    than a pipe's buffer."""
    prog = tmp_path / "long.sdtl"
    prog.write_text(straight_line(800))
    env = dict(os.environ, PYTHONPATH=str(Path(sdtl.__file__).parent.parent))
    with subprocess.Popen(
        [sys.executable, "-m", module, "dump-ast", str(prog)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        assert proc.stdout.readline() == "[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (1, "")


# SDTL integers are unbounded; 10 squared 13 times has 8,193 digits, more than
# the host converts to text by default (4,300, from Python 3.10.7 on)
SQUARING = "x = 10; i = 0; while (i < 13) {{ x = x * x; i = i + 1; }} {last}\n"
BIG = "1" + "0" * 8192


def _squaring(tmp_path, last="output x;"):
    prog = tmp_path / "squaring.sdtl"
    prog.write_text(SQUARING.format(last=last))
    return str(prog)


def test_run_prints_integers_of_any_length(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", _squaring(tmp_path))
    assert (code, out, err) == (0, BIG + "\n", "")
    code, out, err = run_cli(capsys, "run", _squaring(tmp_path), "--format", "json")
    assert (code, out, err) == (0, '{"outputs": [' + BIG + "]}\n", "")


def test_run_trace_prints_integers_of_any_length(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", _squaring(tmp_path), "--trace")
    assert code == 0 and out == BIG + "\n"
    assert f"i: 13, x: {BIG}}}" in err


def test_uncaught_exception_prints_integers_of_any_length(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", _squaring(tmp_path, "throw x;"))
    assert (code, out, err) == (1, "", f"uncaught exception: {BIG}\n")


def test_check_soundness_reports_on_integers_of_any_length(tmp_path, capsys):
    code, out, err = run_cli(capsys, "check-soundness", _squaring(tmp_path))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["checked"] == 1 and report["violations"] == report["errors"] == []


def test_long_integer_literal_runs_and_dumps(tmp_path, capsys):
    digits = "1" * 5000
    prog = tmp_path / "long.sdtl"
    prog.write_text(f"x = {digits}; output x;\n")
    code, out, err = run_cli(capsys, "run", str(prog))
    assert (code, out, err) == (0, digits + "\n", "")
    code, out, err = run_cli(capsys, "dump-ast", str(prog))
    assert code == 0 and f'"value": {digits}' in out and err == ""


def test_main_restores_the_int_digit_limit(tmp_path, capsys):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no limit on the digits of int conversions")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run_cli(capsys, "run", _squaring(tmp_path))[0] == 0
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(previous)

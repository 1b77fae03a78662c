import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdtl
from helpers import GOLDEN, PROGRAMS, straight_line
from sdtl import abstract, cli, kernel, soundness

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


@pytest.mark.parametrize("option, value, expected", [
    ("--size", "0", "positive"),
    ("--size", "-2", "positive"),
    ("--count", "-1", "non-negative"),
])
def test_generator_bounds_out_of_range_are_usage_errors(capsys, option, value, expected):
    err = usage_error(capsys, "check-soundness", "--generate", option, value)
    assert f"argument {option}: not a {expected} integer: '{value}'" in err


@pytest.mark.parametrize("option, value, checked", [
    ("--size", "1", 12),
    ("--count", "0", 0),
])
def test_generator_bounds_at_their_minimum(capsys, option, value, checked):
    argv = ["check-soundness", "--generate", "--count", "12", option, value]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["checked"] == checked


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
    err = usage_error(capsys, "check-soundness", "--generate", "--count", "1", *extra)
    assert err.endswith(
        "error: argument --generate: not allowed with a file, --per-statement "
        "or --input-sets\n"
    )


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


def test_analyze_trace_reports_state_counts(capsys):
    code, _, err = run_cli(capsys, "analyze", path("while_types.sdtl"), "--trace")
    assert code == 0
    assert all(line.startswith("sid=") and " states=" in line
               for line in err.splitlines())
    assert any(line.endswith("states=2") for line in err.splitlines())


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
    of ``generate_programs(2026, 60)``, recorded before the call and loop
    engines were merged into one."""
    digest = hashlib.sha256()
    for index, source in enumerate(soundness.generate_programs(2026, 60)):
        prog = tmp_path / f"p{index}.sdtl"
        prog.write_text(source)
        code, out, _ = run_cli(capsys, "analyze", str(prog), "--format", "json")
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GENERATED_GOLDEN_DIGEST


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
    code, _, err = run_cli(capsys, "check-soundness", "--generate", "--count", "12")
    assert code == 1 and "analysis failure" in err


def test_check_soundness_per_statement(capsys):
    code, out, _ = run_cli(
        capsys, "check-soundness", path("exceptions_basic.sdtl"),
        "--input-sets", "-5;7", "--per-statement",
    )
    report = json.loads(out)
    assert code == 0 and report["checked"] == 2 and report["violations"] == []


@pytest.mark.parametrize("name", ["caveat_site_reset", "caveat_curried_reset"])
def test_per_statement_report_matches_golden(capsys, monkeypatch, name):
    r"""The two documented caveat programs violate after statements 3 and 4,
    so their reports pin the staged states and the explanations.  The
    fixtures under tests/golden_per_statement were recorded, from the
    repository root, with

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
    stages = {v.get("afterStatement") for v in json.loads(out)["violations"]}
    assert stages == {None, 3, 4}


def test_check_soundness_generated(capsys):
    code, out, _ = run_cli(
        capsys, "check-soundness", "--generate", "--seed", "9", "--count", "10"
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["checked"] == 10 and summary["violationPrograms"] == 0


def test_dump_ast(capsys):
    code, out, _ = run_cli(capsys, "dump-ast", path("objects.sdtl"))
    assert code == 0
    tree = json.loads(out)
    assert tree["id"] == 1 and tree["kind"] == "Seq"

    def ids(obj):
        yield obj["id"]
        for child in obj["children"]:
            yield from ids(child)

    collected = list(ids(tree))
    assert len(collected) == len(set(collected))


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
    the tree of 300 statements is far larger than a pipe's buffer."""
    prog = tmp_path / "long.sdtl"
    prog.write_text(straight_line(300))
    env = dict(os.environ, PYTHONPATH=str(Path(sdtl.__file__).parent.parent))
    with subprocess.Popen(
        [sys.executable, "-m", module, "dump-ast", str(prog)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        assert proc.stdout.readline() == "{\n"
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

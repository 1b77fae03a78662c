"""Command-line entry point: run, analyze, check-soundness, dump-ast.

Exit codes: 0 success, 1 run-time or program error, 2 usage error,
3 soundness violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from . import abstract, concrete, soundness, syntax
from .kernel import VOID, EvalError, recursion_headroom


class CliError(Exception):
    """Program-level failure, reported on stderr with exit code 1."""


def _vector(text) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _vectors(text) -> list:
    return [_vector(part) for part in text.split(";")]


def _attach_vectors(argv) -> list:
    """Spell ``--input -3,9`` as ``--input=-3,9``: argparse takes a separate
    value that starts with '-' and is not a single number for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--input", "--input-sets") and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _load(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as err:
        raise CliError(f"cannot read {path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise CliError(f"cannot read {path}: {err}")


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdtl", description="SDTL interpreter, type analyzer and soundness checker"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a program concretely")
    run.add_argument("file")
    run.add_argument(
        "--input", type=_vector, default="", help="comma-separated input integers"
    )
    run.add_argument("--trace", action="store_true")
    run.add_argument("--format", choices=("text", "json"), default="text")

    analyze = sub.add_parser("analyze", help="run the type analysis")
    analyze.add_argument("file")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--trace", action="store_true")

    check = sub.add_parser(
        "check-soundness", help="differential-test the analysis against concrete runs"
    )
    check.add_argument("file", nargs="?")
    check.add_argument(
        "--input-sets",
        type=_vectors,
        help="semicolon-separated input vectors, e.g. '0;1;2,3'",
    )
    check.add_argument("--per-statement", action="store_true")
    check.add_argument("--generate", action="store_true")

    dump = sub.add_parser("dump-ast", help="dump the id-annotated AST as JSON")
    dump.add_argument("file")
    handlers = {run: _cmd_run, analyze: _cmd_analyze, check: _cmd_check, dump: _cmd_dump}
    for command, handler in handlers.items():  # errors under its usage line, not the top's
        command.set_defaults(handler=handler, usage_error=command.error)

    return parser


def _cmd_run(args) -> int:
    program = syntax.parse(_load(args.file))
    trace = None
    if args.trace:
        def trace(sid, outcome):
            for state, _ in outcome:  # one outcome: a concrete run is deterministic
                print(concrete.trace_line(sid, state), file=sys.stderr)

    result = concrete.run_program(program, args.input, trace=trace)
    if args.format == "json":
        print(json.dumps({"outputs": list(result.outputs)}))
    else:
        for value in result.outputs:
            print(value)
    final = result.final_state
    if final.ex is not VOID:
        with recursion_headroom():  # rendering recurses into the value
            thrown = json.dumps(concrete.value_to_json(final.ex))
        print(f"uncaught exception: {thrown}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    program = syntax.parse(_load(args.file))
    trace = None
    if args.trace:
        def trace(sid, outcome):
            print(f"sid={sid} states={len(outcome)}", file=sys.stderr)

    result = abstract.analyze_program(program, trace=trace)
    rendered = abstract.result_to_json(result)
    if args.format == "json":
        print(json.dumps(rendered, indent=2, sort_keys=True))
        return 0
    for index, state in enumerate(rendered["states"], 1):
        print(f"state {index}:")
        for key, value in state.items():
            print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    for diagnostic in result.diagnostics:
        print(f"diagnostic: node {diagnostic.node}: {diagnostic.message}")
    return 0


def _cmd_check(args) -> int:
    if args.generate:
        # the enumerated corpus brings its own programs and input vectors
        if args.file or args.per_statement or args.input_sets is not None:
            args.usage_error("argument --generate: not allowed with "
                             "a file, --per-statement or --input-sets")
        reports = soundness.check_generated_corpus()
        violating = [r for r in reports if r["violations"]]
        summary = {
            "checked": len(reports),
            "checkedRuns": sum(r["checked"] for r in reports),
            "discardedRuns": sum(len(r["errors"]) for r in reports),
            "violationPrograms": len(violating),
            "reports": violating,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 3 if violating else 0
    if not args.file:
        args.usage_error("check-soundness needs a file or --generate")
    report = soundness.differential_test(
        _load(args.file),
        args.input_sets or [()],  # by default, one run on no input
        label=args.file,
        per_statement=args.per_statement,
    )
    with recursion_headroom():  # its states hold values as deep as runs nest them
        print(json.dumps(report, indent=2, sort_keys=True))
    if not report["checked"]:
        print("no run was checked: every input vector ended in a run-time error",
              file=sys.stderr)
    return 3 if report["violations"] else 0


def _cmd_dump(args) -> int:
    print(syntax.dump_ast(syntax.parse(_load(args.file))))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # SDTL integers are unbounded: lift the host's limit on the digits of an
    # int converted to or from text (Python 3.10.7 and later) for the
    # command, and restore it, since `main` also runs in-process
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args, unknown = build_parser().parse_known_args(_attach_vectors(argv))
        if unknown:
            args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here
        return code
    except BrokenPipeError:
        # the reader closed stdout; Python flushes it again at exit, so
        # point it at devnull, as the docs' note on SIGPIPE advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except syntax.ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except EvalError as err:
        print(f"run-time error: {err}", file=sys.stderr)
        return 1
    except abstract.AnalysisLimitError as err:
        print(f"analysis failure: {err}", file=sys.stderr)
        return 1
    except CliError as err:
        print(str(err), file=sys.stderr)
        return 1
    except RecursionError:
        print("input nests too deeply: recursion limit exceeded", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

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
from .kernel import VOID, EvalError


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


def _at_least(low, what):
    def convert(text) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"not a {what} integer: {text!r}")
        return int(text)

    return convert


_positive, _non_negative = _at_least(1, "positive"), _at_least(0, "non-negative")


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
        return Path(path).read_text(encoding="utf-8")
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
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--count", type=_non_negative, default=200)
    check.add_argument("--size", type=_positive, default=None)

    dump = sub.add_parser("dump-ast", help="dump the id-annotated AST as JSON")
    dump.add_argument("file")

    return parser


def _cmd_run(args) -> int:
    program = syntax.parse(_load(args.file))
    trace = None
    if args.trace:
        def trace(node, outcome):
            for state, _ in sorted(outcome, key=repr):
                print(concrete.trace_line(node, state), file=sys.stderr)

    result = concrete.run_program(program, args.input, trace=trace)
    if args.format == "json":
        print(json.dumps({"outputs": list(result.outputs)}))
    else:
        for value in result.outputs:
            print(value)
    final = result.final_state
    if final.ex is not VOID:
        thrown = json.dumps(concrete.value_to_json(final.ex))
        print(f"uncaught exception: {thrown}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    program = syntax.parse(_load(args.file))
    trace = None
    if args.trace:
        def trace(node, outcome):
            print(f"sid={node.sid} states={len(outcome)}", file=sys.stderr)

    result = abstract.analyze_program(program, trace=trace)
    if args.format == "json":
        print(json.dumps(abstract.result_to_json(result), indent=2, sort_keys=True))
        return 0
    for index, state in enumerate(result.sorted_states(), 1):
        rendered = abstract.state_to_json(state)
        print(f"state {index}:")
        for key in ("env", "objmem", "this", "curried", "ret", "ex"):
            print(f"  {key}: {json.dumps(rendered[key], sort_keys=True)}")
    for diagnostic in result.diagnostics:
        print(f"diagnostic: node {diagnostic.node}: {diagnostic.message}")
    return 0


def _cmd_check(args) -> int:
    if args.generate:
        # a generated corpus brings its own programs and input vectors
        if args.file or args.per_statement or args.input_sets is not None:
            build_parser().error("argument --generate: not allowed with "
                                 "a file, --per-statement or --input-sets")
        reports = soundness.check_generated_corpus(
            args.seed, args.count, size_bound=args.size
        )
        violating = [r for r in reports if r["violations"]]
        summary = {
            "checked": len(reports),
            "violationPrograms": len(violating),
            "reports": violating,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 3 if violating else 0
    if not args.file:
        raise CliError("check-soundness needs a file or --generate")
    report = soundness.differential_test(
        _load(args.file),
        args.input_sets or [()],  # by default, one run on no input
        label=args.file,
        per_statement=args.per_statement,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 3 if report["violations"] else 0


def _cmd_dump(args) -> int:
    print(syntax.dump_ast(syntax.parse(_load(args.file))))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "check-soundness": _cmd_check,
    "dump-ast": _cmd_dump,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # SDTL integers are unbounded: lift the host's limit on the digits of an
    # int converted to or from text (Python 3.10.7 and later) for the
    # command, and restore it, since `main` also runs in-process
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(_attach_vectors(argv))
        code = _COMMANDS[args.command](args)
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

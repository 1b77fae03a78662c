"""The benchmark's workloads: named lists of CLI operations and their checks.

An operation ("op") is one ``sdtl`` command line.  Each op carries the exit
codes it may end with and a check that compares its standard output with the
reference its generator computed.  Limit probes are ops on inputs beyond what
the package handles today; they are checked and counted like any other op
but stay out of the throughput and latency figures, so that fixing one can
never read as a slowdown.  Other untimed ops are left out of those figures
too, because their cost varies too much between processes to bound.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import programs

WORKLOADS = ("nest", "scale", "corpus")

# The analysis of one loop nest iterates over sets of abstract states whose
# order follows object addresses and string hashes, so its cost varies
# between processes in steps (3.2k, 4.5k, 5.9k, 6.3k or 8k statement
# evaluations at depth 4).  Nests that differ only in their variable names
# are ordered independently.  So each depth-4 op analyzes NEST_BRANCHES
# nests at once, as the arms of an if-else chain, and the latency of an op
# is the sum of several such draws rather than one of a few steps; the
# depth-4 ops are the majority of the timed ops, so the median latency
# falls among them.  Depth 5 would need a dozen nests of 0.8 s each; its one
# nest is untimed.
NEST_SINGLE_DEPTHS = (1, 2, 3)
NEST_BRANCH_OPS = 18
NEST_BRANCHES = 4
CALL_SUMMARY_DEPTHS = (1, 2, 3)
CORPUS_SIZE = 200


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``tag`` groups ops for per-layer rows
    (``n100``, ``d3``, ...) and ``nests`` is the number of loop nests the
    op's program holds; ``probe`` marks a limit probe, and ``timed`` whether
    the op counts in throughput and latency."""

    name: str
    argv: tuple
    check: object  # callable(stdout: str) -> None when right, else a diff line
    codes: tuple = (0,)
    tag: str = ""
    nests: int = 1
    probe: bool = False
    timed: bool = True


@dataclass(frozen=True)
class Outcome:
    """How an op ended: ``status`` is ``ok``, ``failed`` (exception or
    unexpected exit code) or ``wrong`` (expected exit code, wrong result)."""

    status: str
    detail: str = ""


def classify(op: Op, code, stdout: str, stderr: str, error: str | None) -> Outcome:
    """Judge one op from its exit code, its output and any exception it
    raised (as ``"Type: message"``)."""
    if error is not None:
        return Outcome("failed", f"uncaught {error}")
    if code not in op.codes:
        lines = stderr.strip().splitlines()
        return Outcome("failed", f"exit {code}: {lines[0] if lines else '(no stderr)'}")
    diff = op.check(stdout)
    if diff is not None:
        return Outcome("wrong", diff)
    return Outcome("ok")


# --- Checks --------------------------------------------------------------------


def _load_json(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as err:
        return None, f"output is not JSON ({err.msg})"


def check_outputs(expected: tuple):
    """``run --format json`` must print exactly the expected output log."""

    def check(stdout):
        data, problem = _load_json(stdout)
        if problem:
            return problem
        got = data.get("outputs") if isinstance(data, dict) else None
        if got is None:
            return "no 'outputs' key"
        if len(got) != len(expected):
            return f"{len(got)} outputs, expected {len(expected)}"
        for index, (want, have) in enumerate(zip(expected, got)):
            if want != have:
                return f"outputs[{index}]: expected {want}, got {have}"
        return None

    return check


def _type_difference(env: dict, required: dict, optional: dict):
    """How `env` departs from the required and optional types, or None."""
    for name, kind in required.items():
        if env.get(name) != kind:
            return f"{name}: expected {kind}, got {env.get(name)}"
    allowed = {**optional, **required}
    for name, kind in env.items():
        if name not in allowed:
            return f"binds unexpected variable {name!r}"
        if kind != allowed[name]:
            return f"{name}: expected {allowed[name]}, got {kind}"
    return None


def check_types(case: programs.Case):
    """``analyze --format json`` must bind every required variable with its
    type in every final state, bind nothing outside required and optional,
    report no diagnostics and, where predicted, the expected state count.
    With alternatives, each state must match one of them as well."""
    alternatives = case.alternatives or (({}, {}),)
    options = [
        ({**case.required, **required}, {**case.optional, **optional})
        for required, optional in alternatives
    ]

    def check(stdout):
        data, problem = _load_json(stdout)
        if problem:
            return problem
        states, diagnostics = data.get("states", []), data.get("diagnostics", [])
        if diagnostics:
            first = diagnostics[0]
            return f"{len(diagnostics)} diagnostics, first: node {first['node']}: {first['message']}"
        if case.states is not None and len(states) != case.states:
            return f"{len(states)} final states, expected {case.states}"
        if not states:
            return "no final states"
        for number, state in enumerate(states, 1):
            env = state["env"]
            differences = [_type_difference(env, *option) for option in options]
            if all(differences):
                # report against the alternative that shares most names
                shared = [len(env.keys() & required.keys()) for required, _ in options]
                return f"state {number} {differences[shared.index(max(shared))]}"
        return None

    return check


def check_accounting(vectors: int):
    """``check-soundness`` must account for every input vector: each run is
    either checked or reported as an error."""

    def check(stdout):
        data, problem = _load_json(stdout)
        if problem:
            return problem
        total = data.get("checked", 0) + len(data.get("errors", []))
        if total != vectors:
            return f"{total} runs accounted for, expected {vectors}"
        return None

    return check


# --- Workload construction -------------------------------------------------------


def _rng(seed, workload, part):
    return random.Random(f"perfbench-{workload}-{seed}-{part}")


def _inputs(case):
    return ",".join(str(value) for value in case.inputs)


class _Builder:
    def __init__(self, directory: Path):
        self.directory = directory
        self.ops = []

    def write(self, stem, case) -> str:
        path = self.directory / f"{stem}.sdtl"
        path.write_text(case.source, encoding="utf-8")
        return str(path)

    def run(self, name, case, tag="", probe=False):
        path = self.write(name, case)
        argv = ("run", path, "--input", _inputs(case), "--format", "json")
        check = check_outputs(case.outputs)
        self.ops.append(Op(f"{name}.run", argv, check, tag=tag, probe=probe, timed=not probe))

    def analyze(self, name, case, tag="", nests=1, probe=False, timed=True):
        path = self.write(name, case)
        argv = ("analyze", path, "--format", "json")
        check = check_types(case)
        timed = timed and not probe
        self.ops.append(Op(f"{name}.analyze", argv, check, tag=tag, nests=nests,
                           probe=probe, timed=timed))

    def check_soundness(self, name, case):
        path = self.write(name, case)
        input_sets = ";".join(",".join(map(str, vector)) for vector in case.vectors)
        # one token, since a vector may start with a minus sign
        argv = ("check-soundness", path, f"--input-sets={input_sets}")
        # exit code 3 reports a soundness violation, a legitimate finding
        self.ops.append(
            Op(name, argv, check_accounting(len(case.vectors)), codes=(0, 3))
        )


def build(workload: str, seed: int, directory: Path) -> list:
    """Generate the workload's programs into `directory` and return its ops."""
    directory.mkdir(parents=True, exist_ok=True)
    b = _Builder(directory)
    if workload == "nest":
        for depth in NEST_SINGLE_DEPTHS:
            name = f"nest_d{depth}"
            b.analyze(name, programs.loop_nest(_rng(seed, workload, name), depth), tag=f"d{depth}")
        for index in range(NEST_BRANCH_OPS):
            name = f"nest_d4_x{NEST_BRANCHES}_{index:02d}"
            arms = [
                programs.loop_nest(_rng(seed, workload, f"{name}_{arm}"), 4, f"r{index}b{arm}")
                for arm in range(NEST_BRANCHES)
            ]
            b.analyze(name, programs.branches(arms), tag="d4", nests=NEST_BRANCHES)
        case = programs.loop_nest(_rng(seed, workload, "nest_d5"), 5)
        b.analyze("nest_d5", case, tag="d5", timed=False)
        for depth in CALL_SUMMARY_DEPTHS:
            case = programs.call_summary(_rng(seed, workload, f"call{depth}"), depth)
            b.analyze(f"calls_k{depth}", case)
    elif workload == "scale":
        for count in (100, 300):
            case = programs.straight_line(_rng(seed, workload, f"n{count}"), count)
            b.run(f"straight_n{count}", case, tag=f"n{count}")
            b.analyze(f"straight_n{count}", case, tag=f"n{count}")
        case = programs.straight_line(_rng(seed, workload, "n800"), 800)
        b.run("straight_n800", case, tag="n800")
        for iterations in (800, 1500):
            case = programs.counter_loop(_rng(seed, workload, f"loop{iterations}"), iterations)
            b.run(f"loop_{iterations}", case)
        b.run("fact_400", programs.self_passing_fact(_rng(seed, workload, "fact400"), 400))
        # limit probes: all fail at the seed (RecursionError or the
        # interpreter's "recursion limit exceeded" run-time error)
        case = programs.straight_line(_rng(seed, workload, "n3000"), 3000)
        b.run("probe_straight_n3000", case, probe=True)
        b.analyze("probe_straight_n3000", case, probe=True)
        case = programs.straight_line(_rng(seed, workload, "n1000"), 1000)
        b.analyze("probe_straight_n1000", case, probe=True)
        case = programs.counter_loop(_rng(seed, workload, "loop3000"), 3000)
        b.run("probe_loop_3000", case, probe=True)
        case = programs.self_passing_fact(_rng(seed, workload, "fact1000"), 1000)
        b.run("probe_fact_1000", case, probe=True)
        case = programs.nested_parens(_rng(seed, workload, "parens300"), 300)
        b.run("probe_parens_300", case, probe=True)
    elif workload == "corpus":
        for index in range(CORPUS_SIZE):
            case = programs.corpus_program(_rng(seed, workload, index), index)
            b.check_soundness(f"corpus_{index:03d}", case)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.ops

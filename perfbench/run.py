"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload nest --seed 1 --seconds 15 --trace 0

Every op goes in-process through ``sdtl.cli.main(argv)`` with standard
output and error captured, and its result is checked against the reference
the generator computed.  The run repeats passes over the workload's ops for
``--seconds``.  Each time is normalized to a reference processor speed by
the calibration loops run around the op (see ``calibrate``), and each op is
timed by its median normalized time over the passes; the report lines give
the median factor applied.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` half the time is spent in
untraced passes and half in traced ones, and the object holds the per-layer
metrics.  The lines before it report the run, including every failed or
wrong op.  ``perfbench/DESIGN.md`` describes the workloads and metrics.

The run needs the package sources in ``src/`` next to this directory and
exits with code 2 without a result when they are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import typing
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 25
FULL_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

PROBE_ROWS = (
    "probe_straight_n3000.run",
    "probe_straight_n3000.analyze",
    "probe_straight_n1000.analyze",
    "probe_loop_3000.run",
    "probe_fact_1000.run",
    "probe_parens_300.run",
)

PER_LAYER = (
    ("syntax.tokenize_s", "s"),
    ("syntax.parse_s", "s"),
    ("syntax.tokens", "count"),
    ("syntax.nodes", "count"),
    ("syntax.nodes_per_s", "1/s"),
    ("syntax.parse_s.n100", "s"),
    ("syntax.parse_s.n300", "s"),
    ("syntax.parse_s.n800", "s"),
    ("syntax.parse_growth", "ratio"),
    ("kernel.meaning_s", "s"),
    ("kernel.meaning_builds", "count"),
    ("concrete.run_s", "s"),
    ("concrete.runs", "count"),
    ("concrete.stm_evals", "count"),
    ("concrete.evals_per_s", "1/s"),
    ("concrete.eval_errors", "count"),
    ("abstract.analyze_s", "s"),
    ("abstract.analyses", "count"),
    ("abstract.stm_evals", "count"),
    ("abstract.max_loop_iterations", "count"),
    ("abstract.max_call_iterations", "count"),
    ("abstract.final_states", "count"),
    ("abstract.diagnostics", "count"),
    *((f"abstract.analyze_s.d{depth}", "s") for depth in range(1, 6)),
    *((f"abstract.stm_evals.d{depth}", "count") for depth in range(1, 6)),
    ("abstract.nest_growth", "ratio"),
    ("soundness.check_s", "s"),
    ("soundness.relation_s", "s"),
    ("soundness.checked_runs", "count"),
    ("soundness.discarded_runs", "count"),
    ("soundness.checked_ratio", "ratio"),
    ("soundness.violations", "count"),
    ("cli.self_s", "s"),
    ("cli.ops", "count"),
    ("trace.overhead", "ratio"),
    *((f"probe.{name.removeprefix('probe_')}_s", "s") for name in PROBE_ROWS),
    ("probe.failed", "count"),
)


# the calibration loop's time at the reference speed (a quiet 2.1 GHz Xeon
# vCPU, Python 3.11), and the longest a pass runs ops without timing it anew
CALIBRATION_REFERENCE_S = 0.005
CALIBRATION_INTERVAL_S = 0.2


@dataclass(frozen=True)
class _State:
    bound: frozenset
    steps: int


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    On a shared virtual machine the processor's speed drifts by 20-30 % over
    minutes, and slow phases of a few seconds come and go within a run.
    This loop does the kind of work the interpreters do (frozen records,
    frozensets, sets of states, closures, small dicts) and nothing from
    ``sdtl``.  The passes run it at least every ``CALIBRATION_INTERVAL_S``
    between their ops, and each op's time is scaled by the reference time
    over the loop's time around it, which follows the drift and keeps
    every change to the package.  The loop hashes only numbers, so its
    speed does not depend on the process's string-hash seed.
    """
    start = time.perf_counter()
    states = {_State(frozenset(), 0)}
    for step in range(400):
        successors = set()
        for state in states:
            def extend(value, state=state):
                item = (step % 7, value)
                return replace(state, bound=state.bound | {item}, steps=state.steps + 1)

            successors.add(extend(step % 5))
        states = {min(successors, key=lambda state: state.steps)}
        frozenset({index: (index, -index) for index in range(40)}.items())
    return time.perf_counter() - start


def setup(workloads, workload, seed, directory):
    """Import ``sdtl`` afresh, generate the programs, write their files and
    compute their references; return (seconds, cli module, ops)."""
    for name in [n for n in sys.modules if n == "sdtl" or n.startswith("sdtl.")]:
        del sys.modules[name]
    # typing's caches hold the classes, and so the modules, of every import
    # before; a fresh process starts with them empty
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.unfreeze()  # so that the modules imported before can be collected
    gc.collect()
    start = time.perf_counter()
    cli = importlib.import_module("sdtl.cli")
    ops = workloads.build(workload, seed, directory)
    return time.perf_counter() - start, cli, ops


def execute(workloads, cli, op):
    """Run one op in-process; return (seconds, Outcome)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op failed; record it and go on
        message = str(exc).splitlines()
        error = f"{type(exc).__name__}: {message[0] if message else ''}"
    elapsed = time.perf_counter() - start
    return elapsed, workloads.classify(op, code, out.getvalue(), err.getvalue(), error)


@dataclass(frozen=True)
class Record:
    """One attempt of op `index`: its time, its Outcome and the mean time of
    the calibration loops run last before it and first after it."""

    index: int
    seconds: float
    outcome: object
    calibration: float

    @property
    def normalized(self) -> float:
        """The op's time at the reference speed."""
        return self.seconds * CALIBRATION_REFERENCE_S / self.calibration


def run_pass(workloads, cli, ops, include, tracer=None, pass_index=0) -> list:
    """One pass over the ops that `include` selects; a list of Records.

    Every op starts from the same collector state: what the run holds is
    frozen out of the collector's reach and the young generations are
    empty, so the collections an op triggers are its own.  The calibration
    loop runs (twice, keeping the faster) before the first op, whenever
    ``CALIBRATION_INTERVAL_S`` have passed, and after the last op.
    """

    def calibration():
        gc.collect()
        return min(calibrate(), calibrate()), time.perf_counter()

    gc.collect()
    gc.freeze()
    attempts, calibrations = [], [calibration()]
    for index, op in enumerate(ops):
        if not include(op):
            continue
        if time.perf_counter() - calibrations[-1][1] >= CALIBRATION_INTERVAL_S:
            calibrations.append(calibration())
        if tracer is not None:
            tracer.op = pass_index * len(ops) + index
        gc.collect()
        attempts.append((index, *execute(workloads, cli, op), len(calibrations) - 1))
    calibrations.append(calibration())
    return [
        Record(index, elapsed, outcome, (calibrations[k][0] + calibrations[k + 1][0]) / 2)
        for index, elapsed, outcome, k in attempts
    ]


def _every_op(op):
    return True


def _timed_op(op):
    return op.timed


def _traced_op(op):
    return not op.probe


def latencies(ops, passes) -> list:
    """Each timed op's median normalized latency over the passes."""
    samples = {}
    for one in passes:
        for record in one:
            if ops[record.index].timed:
                samples.setdefault(record.index, []).append(record.normalized)
    return [statistics.median(times) for times in samples.values()]


def speed_factor(records) -> float:
    """Reference time over the calibration loop's median time."""
    return CALIBRATION_REFERENCE_S / statistics.median(r.calibration for r in records)


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0




def _normalized(value, unit, speed):
    """A figure measured at some speed, brought to the reference speed."""
    if unit in ("s", "ms"):
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def always_ok(passes) -> set:
    """Indices of the ops whose every attempt succeeded."""
    records = [record for one in passes for record in one]
    failed = {r.index for r in records if r.outcome.status != "ok"}
    return {r.index for r in records} - failed


def end_to_end(ops, passes, setup_times):
    times = latencies(ops, passes)
    ok = always_ok(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sum(ops[i].timed for i in ok) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        # interpolated between the two nearest ranks, as numpy does
        "op_p95_ms": statistics.quantiles(times, n=20, method="inclusive")[18] * 1000,
        "ok_ratio": len(ok) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass_metrics(ops, tracer, selfs, span_range, pass_index):
    """Per-layer metrics of one traced pass, at the speed it ran."""
    first_op, end_op = pass_index * len(ops), (pass_index + 1) * len(ops)
    self_by_name, spans_by_name = Counter(), Counter()
    parse_by_tag, analyze_by_tag = {}, {}
    for position in range(*span_range):
        span = tracer.spans[position]
        self_by_name[span.name] += selfs[position]
        spans_by_name[span.name] += 1
        op = ops[span.op % len(ops)]
        if span.name == "syntax.parse" and op.tag:
            parse_by_tag.setdefault(op.tag, []).append(span.end - span.start)
        if span.name == "abstract.analyze_program" and op.tag:
            analyze_by_tag.setdefault(op.tag, []).append(selfs[position] / op.nests)
    counts, peaks, evals_by_tag = Counter(), Counter(), {}
    for op in range(first_op, end_op):
        counts.update(tracer.counts.get(op, {}))
        for name, value in tracer.peaks.get(op, {}).items():
            peaks[name] = max(peaks[name], value)
        tag, nests = ops[op % len(ops)].tag, ops[op % len(ops)].nests
        if tag:
            evals = tracer.counts.get(op, {}).get("abstract.stm_evals", 0)
            evals_by_tag.setdefault(tag, []).append(evals / nests)

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    parse_total = self_by_name["syntax.parse"] + self_by_name["syntax.tokenize"]
    m = {
        "syntax.tokenize_s": self_by_name["syntax.tokenize"],
        "syntax.parse_s": self_by_name["syntax.parse"],
        "syntax.tokens": counts["syntax.tokens"],
        "syntax.nodes": counts["syntax.nodes"],
        "syntax.nodes_per_s": ratio(counts["syntax.nodes"], parse_total),
        "kernel.meaning_s": self_by_name["kernel.stm_meaning"],
        "kernel.meaning_builds": counts["kernel.meaning_builds"],
        "concrete.run_s": self_by_name["concrete.run_program"],
        "concrete.runs": counts["concrete.runs"],
        "concrete.stm_evals": counts["concrete.stm_evals"],
        "concrete.evals_per_s": ratio(
            counts["concrete.stm_evals"], self_by_name["concrete.run_program"]
        ),
        "concrete.eval_errors": counts["concrete.eval_errors"],
        "abstract.analyze_s": self_by_name["abstract.analyze_program"],
        "abstract.analyses": counts["abstract.analyses"],
        "abstract.stm_evals": counts["abstract.stm_evals"],
        "abstract.max_loop_iterations": peaks["abstract.max_loop_iterations"],
        "abstract.max_call_iterations": peaks["abstract.max_call_iterations"],
        "abstract.final_states": counts["abstract.final_states"],
        "abstract.diagnostics": counts["abstract.diagnostics"],
        "soundness.check_s": self_by_name["soundness.differential_test"],
        "soundness.relation_s": self_by_name["soundness.abstracts_outcome"],
        "soundness.checked_runs": counts["soundness.checked_runs"],
        "soundness.discarded_runs": counts["soundness.discarded_runs"],
        "soundness.checked_ratio": ratio(
            counts["soundness.checked_runs"],
            counts["soundness.checked_runs"] + counts["soundness.discarded_runs"],
        ),
        "soundness.violations": counts["soundness.violations"],
        "cli.self_s": self_by_name["cli.main"],
        "cli.ops": spans_by_name["cli.main"],
    }
    for size in ("n100", "n300", "n800"):
        m[f"syntax.parse_s.{size}"] = _median(parse_by_tag.get(size, []))
    m["syntax.parse_growth"] = ratio(m["syntax.parse_s.n800"], m["syntax.parse_s.n100"])
    for depth in range(1, 6):
        m[f"abstract.analyze_s.d{depth}"] = _mean(analyze_by_tag.get(f"d{depth}", []))
        m[f"abstract.stm_evals.d{depth}"] = _mean(evals_by_tag.get(f"d{depth}", []))
    m["abstract.nest_growth"] = ratio(m["abstract.stm_evals.d5"], m["abstract.stm_evals.d4"])
    return m


def probe_metrics(ops, passes):
    m = {}
    for name in PROBE_ROWS:
        times = [r.normalized for one in passes for r in one if ops[r.index].name == name]
        m[f"probe.{name.removeprefix('probe_')}_s"] = _median(times)
    ok = always_ok(passes)
    m["probe.failed"] = sum(op.probe and i not in ok for i, op in enumerate(ops))
    return m


def report(workload, seed, ops, passes):
    """Human-readable lines: the sample count and every failed or wrong op."""
    timed = sum(op.timed for op in ops)
    probes = sum(op.probe for op in ops)
    print(f"workload {workload} seed {seed}: {len(passes)} passes of {len(ops)} ops: "
          f"{timed} timed (the latency samples), {probes} limit probes")
    records = [record for one in passes for record in one]
    print(f"times scaled to the reference speed by {speed_factor(records):.4f} (median)")
    seen = Counter()
    for r in records:
        if r.outcome.status != "ok":
            op = ops[r.index]
            seen[(op.name, op.probe, r.outcome.status, r.outcome.detail)] += 1
    for (name, probe, status, detail), times in sorted(seen.items()):
        kind = "probe" if probe else "op"
        print(f"{kind} {name}: {status} x{times}: {detail[:300]}")


def measure(args, workloads, tracing):
    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []

    def timed_setup():
        before = min(calibrate(), calibrate())
        seconds, cli, ops = setup(workloads, args.workload, args.seed, directory)
        gc.collect()
        after = min(calibrate(), calibrate())
        setup_times.append(seconds * CALIBRATION_REFERENCE_S * 2 / (before + after))
        return cli, ops

    try:
        cli, ops = timed_setup()
        # The host's speed drifts over tens of seconds, so the set-ups are
        # spread over the untraced passes rather than done back to back.
        # Untimed ops run in the first passes only: they need no more
        # samples, and the timed ops get more.  A pass starts only if one as
        # long as the last still ends within the budget.
        budget = args.seconds / 2 if args.trace else args.seconds
        passes, start, last = [], time.perf_counter(), 0.0
        while len(passes) < FULL_PASSES or time.perf_counter() - start + last <= budget:
            include = _every_op if len(passes) < FULL_PASSES else _timed_op
            began = time.perf_counter()
            passes.append(run_pass(workloads, cli, ops, include))
            last = time.perf_counter() - began
            while (len(setup_times) < SETUP_REPEATS and time.perf_counter() - start
                   >= len(setup_times) * budget / SETUP_REPEATS):
                cli, ops = timed_setup()
        while len(setup_times) < SETUP_REPEATS:
            cli, ops = timed_setup()
        traced = []
        if args.trace:
            modules = {name: sys.modules[f"sdtl.{name}"] for name in
                       ("syntax", "kernel", "concrete", "abstract", "soundness", "cli")}
            tracer = tracing.Tracer()
            restore = tracing.install(tracer, modules)
            ranges = []
            try:
                start, last = time.perf_counter(), 0.0
                while (len(traced) < MIN_TRACED_PASSES
                       or time.perf_counter() - start + last <= budget):
                    first, began = len(tracer.spans), time.perf_counter()
                    traced.append(
                        run_pass(workloads, cli, ops, _traced_op, tracer, len(traced))
                    )
                    ranges.append((first, len(tracer.spans)))
                    last = time.perf_counter() - began
            finally:
                restore()
            WORK.mkdir(parents=True, exist_ok=True)
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    report(args.workload, args.seed, ops, passes + traced)
    everything = [r for one in passes + traced for r in one]
    in_range = [r.outcome for r in everything if not ops[r.index].probe]
    result = {
        "correct": all(r.outcome.status != "wrong" for r in everything),
        "attempted": len(in_range),
        "failed": sum(o.status != "ok" for o in in_range),
    }
    if not args.trace:
        metrics = end_to_end(ops, passes, setup_times)
        units = dict(END_TO_END)
    else:
        units = dict(PER_LAYER)
        selfs = tracing.self_times(tracer.spans)
        per_pass = []
        for index, span_range in enumerate(ranges):
            m = traced_pass_metrics(ops, tracer, selfs, span_range, index)
            speed = speed_factor(traced[index])
            per_pass.append({name: _normalized(m[name], units[name], speed) for name in m})
        metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
        metrics["trace.overhead"] = sum(latencies(ops, traced)) / sum(latencies(ops, passes))
        metrics.update(probe_metrics(ops, passes))
    result["metrics"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    return result


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import tracing, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sdtl" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    result = measure(args, workloads, tracing)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

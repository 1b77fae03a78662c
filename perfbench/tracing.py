"""Spans and counters around the public functions of each ``sdtl`` module.

The traced run swaps module attributes for wrappers, so every call that goes
through the module (including a module's calls to its own public functions)
is recorded; nothing under ``src/`` changes.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

# bench-side work inside a traced call (inspecting results), kept out of the
# self time of the span around it
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Span recorder and per-op counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []
        self.op = 0
        self.counts = defaultdict(Counter)  # op -> counter name -> sum
        self.peaks = defaultdict(Counter)  # op -> counter name -> maximum

    def begin(self, name) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        self.spans[index].end = self.clock()
        self._open.pop()

    def add(self, name, amount=1):
        self.counts[self.op][name] += amount

    def peak(self, name, value):
        peaks = self.peaks[self.op]
        peaks[name] = max(peaks[name], value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _count_nodes(syntax, root) -> int:
    """Number of AST nodes: ids run 1..N in pre-order, and the last node in
    pre-order is reached by always descending into the last child."""
    node = root
    while True:
        children = list(syntax.child_nodes(node))
        if not children:
            return syntax.node_id(node)
        node = children[-1]


def install(tracer: Tracer, modules: dict):
    """Wrap the public functions of `modules` (``{"syntax": module, ...}``)
    and return a function that puts the originals back."""
    syntax, kernel = modules["syntax"], modules["kernel"]
    patches = []

    def patch(module_name, attr, make):
        module = modules[module_name]
        original = getattr(module, attr)
        patches.append((module, attr, original))
        setattr(module, attr, make(original, f"{module_name}.{attr}"))

    def spanned(original, name, after=None):
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                index = tracer.begin(BOOKKEEPING)
                try:
                    after(result)
                finally:
                    tracer.end(index)
            return result

        return wrapper

    def outermost(original, name):
        # stm_meaning recurses through the module attribute; only the
        # outermost call of a construction is a span and a build
        depth = [0]

        def wrapper(node):
            if depth[0]:
                return original(node)
            depth[0] += 1
            tracer.add("kernel.meaning_builds")
            index = tracer.begin(name)
            try:
                return original(node)
            finally:
                tracer.end(index)
                depth[0] -= 1

        return wrapper

    def counting_hook(original, name, layer, after):
        """Wrap an evaluation entry point, injecting a statement-counting
        ``trace=`` hook when the caller passed none."""
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            evals = [0]
            if bound.arguments.get("trace") is None:
                def hook(node, outcome):
                    evals[0] += 1

                bound.arguments["trace"] = hook
            index = tracer.begin(name)
            try:
                result = original(*bound.args, **bound.kwargs)
            except kernel.EvalError:
                tracer.add(f"{layer}.eval_errors")
                raise
            finally:
                tracer.end(index)
                tracer.add(f"{layer}.stm_evals", evals[0])
            after(result)
            return result

        return wrapper

    def after_parse(program):
        tracer.add("syntax.nodes", _count_nodes(syntax, program.root))

    def after_run(result):
        tracer.add("concrete.runs")

    def after_analyze(result):
        tracer.add("abstract.analyses")
        tracer.add("abstract.final_states", len(result.final_states))
        tracer.add("abstract.diagnostics", len(result.diagnostics))
        tracer.peak("abstract.max_loop_iterations", result.stats["max_loop_iterations"])
        tracer.peak("abstract.max_call_iterations", result.stats["max_call_iterations"])

    def after_check(report):
        tracer.add("soundness.checked_runs", report["checked"])
        tracer.add("soundness.discarded_runs", len(report["errors"]))
        tracer.add("soundness.violations", len(report["violations"]))

    patch("syntax", "tokenize", lambda o, n: spanned(
        o, n, lambda tokens: tracer.add("syntax.tokens", len(tokens))))
    patch("syntax", "parse", lambda o, n: spanned(o, n, after_parse))
    patch("kernel", "stm_meaning", outermost)
    patch("concrete", "run_program", lambda o, n: counting_hook(o, n, "concrete", after_run))
    patch("abstract", "analyze_program", lambda o, n: counting_hook(o, n, "abstract", after_analyze))
    patch("soundness", "differential_test", lambda o, n: spanned(o, n, after_check))
    patch("soundness", "abstracts_outcome", spanned)
    patch("cli", "main", spanned)

    def restore():
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)

    return restore

"""Soundness harness: the abstraction relation and a differential tester.

A type analysis result is sound for a run when every concrete final state
is abstracted by some abstract final state.  The relation reads the run's
allocation-site map, so each concrete object is checked once, against the
abstract object of its own site, and cyclic object graphs need no special
case.  This module makes the relation executable, checks it over concrete
runs, and generates random terminating programs to probe it at scale.
Failures carry a nearest-miss explanation per abstract candidate state,
in the analysis's first-seen order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import abstract, concrete, kernel, syntax
from .kernel import VOID, VOID_VAL, EvalError


# --- The abstraction relation --------------------------------------------------


def abstracts_value(astate, sites, aval, cval) -> bool:
    """Does abstract value `aval` safely describe concrete value `cval`?

    A reference is abstracted exactly by the reference to its allocation
    site, `sites[ref]`; objects are checked by :func:`state_mismatch`."""
    if aval is VOID_VAL or cval is VOID_VAL:
        return aval is VOID_VAL and cval is VOID_VAL
    if type(cval) is bool:
        return aval is abstract.BOOL
    if isinstance(cval, int):
        return aval is abstract.NUM
    if isinstance(cval, concrete.ObjRef):
        return aval == abstract.AObjRef(sites[cval.ref])
    if isinstance(cval, concrete.FunPtr):
        if not isinstance(aval, abstract.AFunPtr):
            return False
        if aval.sid != cval.sid or aval.count != len(cval.curried):
            return False
        if aval.count == 0:
            return True
        values = astate.curried.get((aval.sid, aval.count, aval.anchor))
        return values is not None and all(
            abstracts_value(astate, sites, a, c)
            for a, c in zip(values, cval.curried)
        )
    raise AssertionError(f"not a concrete value: {cval!r}")


def _slot_abstracts(astate, sites, aslot, cslot) -> bool:
    if cslot is VOID or aslot is VOID:
        return cslot is VOID and aslot is VOID
    return abstracts_value(astate, sites, aslot, cslot)


def state_mismatch(astate, cstate, sites):
    """None if `astate` abstracts `cstate`, else a short explanation of the
    first component of the relation that fails.

    Each concrete object is checked once, against the abstract object at its
    own allocation site `sites[ref]`."""
    for name, cval in sorted(cstate.env.items()):
        aval = astate.env.get(name)
        if aval is None:
            return f"env[{name!r}] is unbound in the abstract state"
        if not abstracts_value(astate, sites, aval, cval):
            return f"env[{name!r}]: {aval!r} does not abstract {cval!r}"
    for ref, cmembers in sorted(cstate.obj_mem.items()):
        site = sites[ref]
        amembers = astate.obj_mem.get(site)
        if amembers is None:
            return f"object {ref} (site {site}): the site has no abstract object"
        for name, cval in sorted(cmembers.items()):
            aval = amembers.get(name)
            if aval is None:
                return f"object {ref} (site {site}): member {name!r} is unbound"
            if not abstracts_value(astate, sites, aval, cval):
                return (
                    f"object {ref} (site {site}): member {name!r}: "
                    f"{aval!r} does not abstract {cval!r}"
                )
    if astate.this != sites[cstate.this]:
        return f"this: site {astate.this} does not abstract object {cstate.this}"
    if not _slot_abstracts(astate, sites, astate.ret, cstate.ret):
        return f"ret: {astate.ret!r} does not abstract {cstate.ret!r}"
    if not _slot_abstracts(astate, sites, astate.ex, cstate.ex):
        return f"ex: {astate.ex!r} does not abstract {cstate.ex!r}"
    return None


@dataclass(frozen=True)
class Judgment:
    holds: bool
    # per unmatched concrete state: (state, tuple of per-candidate explanations)
    witnesses: tuple = ()


def abstracts_outcome(astates, cstates, sites) -> Judgment:
    """Powerset abstraction: every concrete state needs an abstract cover.

    Candidates are tried, and explained, in the order given: the analysis's
    own.  A run has one final state, and each stage one.  `sites` is the
    run's allocation-site map (:attr:`concrete.RunResult.sites`)."""
    witnesses = []
    for cstate in cstates:
        explanations = []
        for astate in astates:
            mismatch = state_mismatch(astate, cstate, sites)
            if mismatch is None:
                break
            explanations.append(mismatch)
        else:
            if not astates:
                explanations.append("no abstract final states at all")
            witnesses.append((cstate, tuple(explanations)))
    return Judgment(holds=not witnesses, witnesses=tuple(witnesses))


# --- Differential testing --------------------------------------------------------


def _stage_recorder(program):
    """A trace hook that collects the outcomes of each top-level statement
    but the last (its stage would be the final states) by sid, and a
    generator of the state sequences after each in order: escaped states
    (payload ``NULL``) so far first, then the statement's others, repeats
    dropped only where several meet, so a concrete stage hashes none."""
    sids = [stm.sid for stm in syntax.statements(program.root)][:-1]
    outcomes = {sid: [] for sid in sids}

    def trace(node, outcome):
        if node.sid in outcomes:
            outcomes[node.sid] += outcome

    def stages():
        escaped = []
        for sid in sids:
            escaped += (s for s, a in outcomes[sid] if a is kernel.NULL)
            states = escaped + [s for s, a in outcomes[sid] if a is not kernel.NULL]
            yield dict.fromkeys(states) if len(states) > 1 else states

    return trace, stages


def differential_test(
    source, input_vectors, label="<program>", per_statement=False
) -> dict:
    """Check a program's analysis against its concrete runs.

    The program is analyzed once and run concretely per input vector;
    vectors that hit run-time errors are skipped and reported separately.
    With `per_statement`, the relation is also required after every
    top-level statement but the last, whose states are the final ones: a
    trace hook on the analysis and on each run collects them.
    """
    program = syntax.parse(source)
    trace, stages = _stage_recorder(program) if per_statement else (None, None)
    analysis = abstract.analyze_program(program, trace=trace)
    abstract_stages = list(stages()) if per_statement else None
    violations, errors = [], []
    checked = 0
    for vector in input_vectors:
        vector = tuple(vector)
        trace, stages = _stage_recorder(program) if per_statement else (None, None)
        try:
            result = concrete.run_program(program, vector, trace=trace)
        except EvalError as err:
            errors.append({"inputs": list(vector), "error": str(err)})
            continue
        checked += 1
        judgment = abstracts_outcome(
            analysis.final_states, result.final_states, result.sites
        )
        _collect_violations(violations, vector, judgment, stage=None)
        if per_statement:
            for index, (astage, cstage) in enumerate(zip(abstract_stages, stages())):
                judgment = abstracts_outcome(astage, cstage, result.sites)
                _collect_violations(violations, vector, judgment, stage=index)
    return {
        "program": label,
        "checked": checked,
        "violations": violations,
        "errors": errors,
        "analysisStats": {
            "reusedAllocationSites": sorted(
                analysis.stats["reused_allocation_sites"]
            ),
            "resetCurriedKeys": sorted(analysis.stats["reset_curried_keys"]),
        },
    }


def _collect_violations(violations, vector, judgment, stage):
    for cstate, explanations in judgment.witnesses:
        entry = {
            "inputs": list(vector),
            "concreteState": concrete.state_to_json(cstate),
            "explanations": list(explanations),
        }
        if stage is not None:
            entry["afterStatement"] = stage
        violations.append(entry)


def classify_caveat(report) -> str | None:
    """Name the documented abstraction caveat a violating report matches.

    Allocation-site object abstraction resets a site's abstract object on
    re-allocation, and a re-curried anchor likewise replaces its argument
    tuple; both can under-approximate two live concrete cells sharing one
    abstract cell.  Violations on programs exercising either pattern are
    reported against that caveat instead of a harness failure.
    """
    if not report["violations"]:
        return None
    stats = report["analysisStats"]
    if stats["reusedAllocationSites"]:
        return "allocation-site-reset"
    if stats["resetCurriedKeys"]:
        return "curried-anchor-reset"
    return None


# --- Random program generation ----------------------------------------------------

_KINDS = (
    "assign", "output", "if", "ifelse", "while", "fundecl",
    "call", "trycatch", "throw", "new", "member", "nil",
)


class _ProgramBuilder:
    """One random, well-formed, concretely terminating program.

    Loops count a fresh variable down from a small constant, and functions
    only call previously declared functions, so every concrete run finishes.
    """

    def __init__(self, rng, size):
        self.rng = rng
        self.size = size
        self.names = 0
        self.functions = []  # (name, arity) declared so far, in order
        self.constructors = []  # functions known to set this.value
        self.partials = []  # (variable, missing argument count)
        self.variables = []
        self.objects = ["global"]
        self.members = []  # (object name, member name) known assigned
        self.methods = []  # (object name, member name, missing count)
        self.inputs_used = 0

    def fresh(self, prefix):
        self.names += 1
        return f"{prefix}{self.names}"

    def pick(self, items):
        return items[self.rng.randrange(len(items))]

    def literal(self):
        if self.rng.random() < 0.2:
            return self.pick(["true", "false"])
        return str(self.rng.randint(0, 9))

    def number(self):
        if self.inputs_used < 4 and self.rng.random() < 0.25:
            self.inputs_used += 1
            return "input"
        return str(self.rng.randint(0, 9))

    def atom(self, numeric=False):
        if self.variables and self.rng.random() < 0.55:
            return self.pick(self.variables)
        return self.number() if numeric else self.literal()

    def expression(self, depth=0):
        roll = self.rng.random()
        if depth < 2 and roll < 0.35:
            op = self.pick(["+", "-", "*"])
            return f"{self.expression(depth + 1)} {op} {self.expression(depth + 1)}"
        if depth < 2 and roll < 0.45:
            divisor = self.rng.randint(1, 4)
            return f"{self.expression(depth + 1)} / {divisor}"
        if depth < 2 and roll < 0.55 and self.functions:
            return self.call_expression()
        if depth < 2 and roll < 0.6 and self.partials:
            name, missing = self.pick(self.partials)
            args = ", ".join(self.atom(numeric=True) for _ in range(missing))
            return f"{name}({args})"
        if depth < 2 and roll < 0.64 and self.methods:
            obj, member, missing = self.pick(self.methods)
            args = ", ".join(self.atom(numeric=True) for _ in range(missing))
            return f"{obj}.{member}({args})"
        if depth < 2 and roll < 0.7 and self.members:
            obj, member = self.pick(self.members)
            return f"{obj}.{member}"
        return self.atom(numeric=True)

    def comparison(self):
        op = self.pick([">", "<"])
        return f"{self.atom(numeric=True)} {op} {self.atom(numeric=True)}"

    def call_expression(self):
        name, arity = self.pick(self.functions)
        args = ", ".join(self.atom(numeric=True) for _ in range(arity))
        return f"{name}({args})"

    def statement(self, kind, indent, depth):
        pad = "\t" * indent
        rng = self.rng
        if kind == "assign":
            if depth > 0 or (self.variables and rng.random() < 0.5):
                name = self.pick(self.variables)
                return [f"{pad}{name} = {self.expression()};"]
            rhs = self.expression()
            name = self.fresh("x")
            self.variables.append(name)
            return [f"{pad}{name} = {rhs};"]
        if kind == "output":
            return [f"{pad}output {self.expression()};"]
        if kind == "if":
            return [
                f"{pad}if({self.comparison()}) {{",
                *self.block(indent + 1, depth),
                f"{pad}}}",
            ]
        if kind == "ifelse":
            return [
                f"{pad}if({self.comparison()}) {{",
                *self.block(indent + 1, depth),
                f"{pad}}} else {{",
                *self.block(indent + 1, depth),
                f"{pad}}}",
            ]
        if kind == "while":
            # the counter stays out of the variable pool so no generated
            # statement can clobber it: every loop terminates
            counter = self.fresh("w")
            return [
                f"{pad}{counter} = {rng.randint(1, 3)};",
                f"{pad}while({counter} > 0) {{",
                f"{pad}\t{counter} = {counter} - 1;",
                *self.block(indent + 1, depth),
                f"{pad}}}",
            ]
        if kind == "fundecl":
            return self.fundecl(indent)
        if kind == "call":
            if not self.functions:
                return self.fundecl(indent)
            curryable = [(n, a) for n, a in self.functions if a >= 1]
            if curryable and rng.random() < 0.3:
                fun, arity = self.pick(curryable)
                count = rng.randrange(arity)
                args = ", ".join(self.atom(numeric=True) for _ in range(count))
                name = self.fresh("p")
                self.partials.append((name, arity - count))
                return [f"{pad}{name} = {fun}({args});"]
            if rng.random() < 0.4:
                source = self.call_expression()
                name = self.fresh("x")
                self.variables.append(name)
                return [f"{pad}{name} = {source};"]
            return [f"{pad}{self.call_expression()};"]
        if kind == "trycatch":
            exc = self.fresh("e")
            body = self.block(indent + 1, depth)
            thrown = rng.random() < 0.7
            if thrown:
                body.append(
                    "\t" * (indent + 1) + f"throw {self.atom(numeric=True)};"
                )
            handler_var = self.fresh("x")
            lines = [
                f"{pad}try {{",
                *body,
                f"{pad}}} catch({exc}) {{",
                f"{pad}\t{handler_var} = {exc};",
                f"{pad}}}",
            ]
            if thrown:
                # the handler certainly ran, so these are bound afterwards
                self.variables.append(handler_var)
                self.variables.append(exc)
            return lines
        if kind == "throw":
            exc = self.fresh("e")
            return [
                f"{pad}try {{",
                f"{pad}\tthrow {self.atom(numeric=True)};",
                f"{pad}}} catch({exc}) {{",
                f"{pad}\toutput {exc};",
                f"{pad}}}",
            ]
        if kind == "new":
            if not self.constructors:
                return self.fundecl(indent, constructor=True)
            name, arity = self.pick(self.constructors)
            obj = self.fresh("o")
            self.objects.append(obj)
            self.members.append((obj, "value"))
            args = ", ".join(self.atom(numeric=True) for _ in range(arity))
            return [f"{pad}{obj} = new {name}({args});"]
        if kind == "member":
            obj = self.pick(self.objects)
            curryable = [(n, a) for n, a in self.functions if a >= 1]
            if depth == 0 and curryable and rng.random() < 0.35:
                # attach a method: a mixin-style partial application
                fun, arity = self.pick(curryable)
                count = rng.randrange(arity)
                args = ", ".join(self.atom(numeric=True) for _ in range(count))
                member = self.fresh("m")
                self.methods.append((obj, member, arity - count))
                return [f"{pad}{obj}.{member} = {fun}({args});"]
            member = self.pick(["value", "extra"])
            rhs = self.expression()
            self.members.append((obj, member))
            return [f"{pad}{obj}.{member} = {rhs};"]
        if kind == "nil":
            return [f"{pad}nil;"]
        raise AssertionError(kind)

    def block(self, indent, depth):
        if depth >= 2:
            return ["\t" * indent + "nil;"]
        kinds = ["assign", "output", "assign", "member"]
        lines = []
        for _ in range(self.rng.randint(1, 2)):
            lines.extend(self.statement(self.pick(kinds), indent, depth + 1))
        return lines

    def fundecl(self, indent, constructor=False):
        pad = "\t" * indent
        name = self.fresh("F" if constructor else "f")
        arity = self.rng.randint(1, 2) if constructor else self.rng.randint(0, 2)
        params = [self.fresh("a") for _ in range(arity)]
        header = f"{pad}function {name}({', '.join(params)}) {{"
        body = []
        if constructor or (params and self.rng.random() < 0.3):
            body.append(f"{pad}\tthis.value = {params[0] if params else 1};")
        if self.rng.random() < 0.3:
            body.append(f"{pad}\toutput {self.rng.randint(0, 9)};")
        if params and self.rng.random() < 0.8:
            body.append(f"{pad}\treturn {params[0]} + {self.rng.randint(0, 5)};")
        else:
            body.append(f"{pad}\treturn {self.rng.randint(0, 9)};")
        self.functions.append((name, arity))
        if constructor:
            self.constructors.append((name, arity))
        return [header, *body, f"{pad}}}"]

    def build(self, forced_kind):
        lines = []
        if self.rng.random() < 0.8:
            lines.extend(self.fundecl(0))
        for _ in range(self.rng.randint(1, 2)):
            name = self.fresh("x")
            self.variables.append(name)
            lines.append(f"{name} = {self.literal()};")
        count = self.rng.randint(min(2, self.size), self.size)
        kinds = [forced_kind] + [self.pick(_KINDS) for _ in range(count)]
        self.rng.shuffle(kinds)
        for kind in kinds:
            lines.extend(self.statement(kind, 0, 0))
        lines.append(f"output {self.atom(numeric=True)};")
        return "\n".join(lines) + "\n"


def generate_programs(seed, count, size_bound=None) -> list:
    """Deterministically generate `count` well-formed SDTL programs.

    Program `i` force-includes statement kind ``i mod 12`` so the corpus
    covers the whole grammar, next to at most `size_bound` (default 6)
    random top-level statement kinds; every loop is counter-bounded so
    concrete runs terminate.
    """
    size = 6 if size_bound is None else size_bound
    programs = []
    for index in range(count):
        rng = random.Random(f"sdtl-{seed}-{index}")
        builder = _ProgramBuilder(rng, size)
        programs.append(builder.build(_KINDS[index % len(_KINDS)]))
    return programs


def split_top_level(source) -> list:
    """Split generated source back into top-level statement chunks.

    Generated programs put every top-level statement at column zero with
    continuation lines indented or starting with '}'."""
    chunks = []
    for line in source.splitlines():
        starts_chunk = line and not line[0] in " \t}"
        if starts_chunk or not chunks:
            chunks.append([line])
        else:
            chunks[-1].append(line)
    return ["\n".join(chunk) for chunk in chunks]


def shrink_program(source, still_failing) -> str:
    """Greedy 1-minimal statement deletion: drop any top-level chunk whose
    removal keeps `still_failing` true."""
    chunks = split_top_level(source)
    changed = True
    while changed:
        changed = False
        for index in range(len(chunks)):
            candidate = chunks[:index] + chunks[index + 1:]
            if not candidate:
                continue
            candidate_source = "\n".join(candidate) + "\n"
            if still_failing(candidate_source):
                chunks = candidate
                changed = True
                break
    return "\n".join(chunks) + "\n"


def default_input_vectors(seed, index) -> list:
    """The four input vectors of generated program `index`."""
    rng = random.Random(f"sdtl-inputs-{seed}-{index}")
    return [tuple(rng.randint(-3, 9) for _ in range(8)) for _ in range(4)]


def check_generated_corpus(seed, count, size_bound=None) -> list:
    """Differential-test a generated corpus; violating programs are
    minimized and classified against the documented abstraction caveats."""
    reports = []
    for index, source in enumerate(generate_programs(seed, count, size_bound)):
        input_vectors = default_input_vectors(seed, index)
        label = f"generated:{seed}:{index}"

        def check(candidate):
            return differential_test(candidate, input_vectors, label=label)

        report = check(source)
        if report["violations"]:

            def still_failing(candidate):
                try:
                    trial = check(candidate)
                except (syntax.ParseError, abstract.AnalysisLimitError):
                    return False
                return bool(trial["violations"])

            minimized = shrink_program(source, still_failing)
            report = check(minimized)
            report["source"] = minimized
            report["caveat"] = classify_caveat(report)
        reports.append(report)
    return reports

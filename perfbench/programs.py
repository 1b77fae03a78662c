"""Seeded SDTL program families, each with an independently derived reference.

Nothing here imports ``sdtl``.  Every family works out what the program must
produce from its own construction: closed-form sums, a small evaluator for
the few statement forms the straight-line generator emits, and the types the
generator gave each variable.  A later change to the package can therefore
never move the reference along with the result.

All randomness comes from the ``random.Random`` the caller passes in, so one
seed always yields the same programs.  The shapes that decide the cost of an
operation (statement counts, loop depths, iteration counts, variable names)
are fixed; the seed varies constants, operators and operand choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

NUM = "Num"


@dataclass(frozen=True)
class Case:
    """One generated program and what it must produce.

    ``outputs`` is the expected output log of ``run`` on ``inputs``.
    ``required`` maps variables to the JSON type ``analyze`` must give them in
    every final state, ``optional`` those that may be unbound in some final
    state, and ``states`` is the expected number of final states (None: not
    predicted).  ``alternatives``, when given, holds (required, optional)
    pairs of which every final state must match one on top of ``required``
    and ``optional``.  ``vectors`` are the input vectors for
    ``check-soundness``.
    """

    source: str
    inputs: tuple = ()
    outputs: tuple = ()
    required: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)
    states: int | None = None
    alternatives: tuple = ()
    vectors: tuple = ()


def truncating_div(left: int, right: int) -> int:
    """SDTL division: the quotient truncated toward zero."""
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


_STRAIGHT_NAMES = tuple(f"x{k}" for k in range(8))


def straight_line(rng, count: int) -> Case:
    """`count` top-level statements over eight variables, no control flow.

    Every tenth statement prints a variable; the rest assign ``x = y op z``
    with ``z`` a variable or a constant.  Operators are chosen from the
    running values so that numbers stay small.
    """
    first = rng.randint(1, 9)
    values = {"x0": first}
    lines = ["x0 = input;"]
    outputs = []
    for index in range(1, count - 1):
        if index % 10 == 0:
            name = rng.choice(sorted(values))
            lines.append(f"output {name};")
            outputs.append(values[name])
            continue
        target = _STRAIGHT_NAMES[index % len(_STRAIGHT_NAMES)]
        left = rng.choice(sorted(values))
        value = values[left]
        if abs(value) > 1000:
            constant = rng.randint(2, 9)
            lines.append(f"{target} = {left} / {constant};")
            values[target] = truncating_div(value, constant)
            continue
        op = rng.choice(("+", "-", "*"))
        if op == "*":
            constant = rng.randint(2, 3)
            lines.append(f"{target} = {left} * {constant};")
            values[target] = value * constant
            continue
        if rng.random() < 0.5:
            right = rng.choice(sorted(values))
            operand, text = values[right], right
        else:
            operand = rng.randint(0, 9)
            text = str(operand)
        lines.append(f"{target} = {left} {op} {text};")
        values[target] = value + operand if op == "+" else value - operand
    last = rng.choice(sorted(values))
    lines.append(f"output {last};")
    outputs.append(values[last])
    return Case(
        source="\n".join(lines) + "\n",
        inputs=(first,),
        outputs=tuple(outputs),
        required={name: NUM for name in values},
        states=1,
    )


def counter_loop(rng, iterations: int) -> Case:
    """A loop counting up to its input, summing ``i * step``."""
    start, step = rng.randint(0, 9), rng.randint(1, 5)
    source = (
        "n = input;\n"
        "i = 0;\n"
        f"s = {start};\n"
        "while (i < n) {\n"
        "\ti = i + 1;\n"
        f"\ts = s + i * {step};\n"
        "}\n"
        "output s;\n"
    )
    total = start + step * iterations * (iterations + 1) // 2
    return Case(source=source, inputs=(iterations,), outputs=(total,))


def self_passing_fact(rng, depth: int) -> Case:
    """Factorial by self-application, recursing `depth` calls deep."""
    offset = rng.randint(0, 9)
    source = (
        "function fact(f,n) {\n"
        "\tif(n>1) { return f(f,n-1) * n; } else { return 1; }\n"
        "}\n"
        "z = fact(fact, input);\n"
        f"output z + {offset};\n"
    )
    return Case(source=source, inputs=(depth,), outputs=(math.factorial(depth) + offset,))


def nested_parens(rng, depth: int) -> Case:
    """``output`` of an expression wrapped in `depth` parentheses."""
    value, offset = rng.randint(0, 9), rng.randint(1, 9)
    source = (
        "x = input;\n"
        "output " + "(" * depth + f"x + {offset}" + ")" * depth + ";\n"
    )
    return Case(source=source, inputs=(value,), outputs=(value + offset,))


def loop_nest(rng, depth: int, prefix: str = "") -> Case:
    """`depth` nested counter loops around a two-statement body, with every
    variable name starting with `prefix`.

    Each inner counter is first bound inside the loop around it, so the
    analysis sees one extra binding pattern per level: the final states bind
    ``c0..cj`` for every ``j < depth``.
    """
    a, b = f"{prefix}a", f"{prefix}b"
    counters = [f"{prefix}c{level}" for level in range(depth)]
    lines = [f"{a} = 0;", f"{b} = 0;"]
    for level, counter in enumerate(counters):
        pad = "\t" * level
        lines += [
            f"{pad}{counter} = {rng.randint(2, 3)};",
            f"{pad}while ({counter} > 0) {{",
            f"{pad}\t{counter} = {counter} - 1;",
        ]
    pad = "\t" * depth
    lines += [
        f"{pad}{a} = {rng.choice(counters)} {rng.choice('+-*')} {rng.randint(1, 9)};",
        f"{pad}{b} = {a} {rng.choice('+-*')} {rng.choice(counters)};",
    ]
    lines += ["\t" * level + "}" for level in reversed(range(depth))]
    lines.append(f"output {a} + {b};")
    return Case(
        source="\n".join(lines) + "\n",
        required={a: NUM, b: NUM, counters[0]: NUM},
        optional={counter: NUM for counter in counters[1:]},
        states=depth,
    )


def branches(cases, selector: str = "sel") -> Case:
    """The programs of `cases` as the arms of an if-else chain on an input.

    The analysis cannot decide the conditions, so it analyzes every arm from
    the same entry state and keeps the final states of all of them: its cost
    is the sum of the arms', and each final state binds the selector and one
    arm's variables.  The cases must read no input and predict their state
    counts.
    """

    def indent(text):
        return "\n".join("\t" + line for line in text.splitlines())

    chain = cases[-1].source
    for arm in reversed(range(len(cases) - 1)):
        chain = (
            f"if ({selector} > {arm}) {{\n{indent(cases[arm].source)}\n"
            f"}} else {{\n{indent(chain)}\n}}"
        )
    return Case(
        source=f"{selector} = input;\n{chain}\n",
        required={selector: NUM},
        states=sum(case.states for case in cases),
        alternatives=tuple((case.required, case.optional) for case in cases),
    )


def call_summary(rng, inner_depth: int) -> Case:
    """A self-passing recursive function with loops `inner_depth` deep,
    called in a two-deep loop through a curried method of ``this``.

    The function is declared first, so it is the statement with id 2 (the
    root sequence has id 1).
    """
    body = ["\tacc = 0;"]
    for level in range(inner_depth):
        pad = "\t" * (level + 1)
        body += [
            f"{pad}k{level} = n;",
            f"{pad}while (k{level} > 0) {{",
            f"{pad}\tk{level} = k{level} - 1;",
        ]
    pad = "\t" * (inner_depth + 1)
    body.append(f"{pad}acc = acc + k{inner_depth - 1} * {rng.randint(1, 9)};")
    body += ["\t" * (level + 1) + "}" for level in reversed(range(inner_depth))]
    lines = [
        "function rec(self, n) {",
        *body,
        "\tif (n > 0) {",
        "\t\tr = self(self, n - 1);",
        "\t} else {",
        f"\t\tr = {rng.randint(0, 9)};",
        "\t}",
        "\treturn acc + r;",
        "}",
        "this.m = rec(rec);",
        f"i = {rng.randint(2, 3)};",
        "j = 0;",
        "s = 0;",
        "while (i > 0) {",
        f"\tj = {rng.randint(2, 3)};",
        "\twhile (j > 0) {",
        "\t\ts = s + this.m(j);",
        "\t\tj = j - 1;",
        "\t}",
        "\ti = i - 1;",
        "}",
        "output s;",
    ]
    return Case(
        source="\n".join(lines) + "\n",
        required={"rec": {"fun": [2, 0, 0]}, "i": NUM, "j": NUM, "s": NUM},
        states=1,
    )


# --- The soundness corpus ------------------------------------------------------

# Declared at the top of every corpus program.  Together with the blocks below
# they cover what the library's own generator leaves out: recursion, loops
# inside functions, `new` inside a loop, exceptions thrown across calls and
# `this`-method calls.
_CORPUS_PRELUDE = """\
function F(v) {{
\tthis.value = v;
}}
function rec(self, n) {{
\tif (n > 0) {{
\t\treturn self(self, n - 1) + {rec_step};
\t}} else {{
\t\treturn {rec_base};
\t}}
}}
function loopf(n) {{
\tt = 0;
\tk = n;
\twhile (k > 0) {{
\t\tt = t + k;
\t\tk = k - 1;
\t}}
\treturn t;
}}
function thrower(v) {{
\tif (v > {throw_above}) {{
\t\tthrow v * 2;
\t}}
\treturn v + 1;
}}
function meth(a, b) {{
\tthis.value = a + b;
\treturn this.value * 2;
}}
x1 = input;
x2 = input;
"""


def _block_recursion(rng, u):
    return [f"r{u} = rec(rec, {rng.randint(2, 4)});", f"output r{u};"]


def _block_loop_in_function(rng, u):
    return [f"t{u} = loopf({rng.randint(1, 3)}) + x1;", f"output t{u};"]


def _block_new_in_loop(rng, u):
    return [
        f"k{u} = {rng.randint(1, 3)};",
        f"o{u} = new F(x1);",
        f"while (k{u} > 0) {{",
        f"\to{u} = new F(k{u} + x2);",
        f"\to{u}.extra = k{u};",
        f"\tk{u} = k{u} - 1;",
        "}",
        f"output o{u}.value;",
    ]


def _block_throw_across_call(rng, u):
    return [
        "try {",
        f"\ty{u} = thrower(x1 - {rng.randint(0, 5)});",
        f"\toutput y{u};",
        f"}} catch(e{u}) {{",
        f"\toutput e{u} + 1;",
        "}",
    ]


def _block_this_method(rng, u):
    return [
        f"q{u} = new F({rng.randint(0, 9)});",
        f"q{u}.m = meth({rng.randint(0, 9)});",
        f"output q{u}.m(x2);",
        f"output q{u}.value;",
    ]


def _block_recurried_method(rng, u):
    return [
        f"w{u} = {rng.randint(1, 2)};",
        f"while (w{u} > 0) {{",
        f"\tglobal.h = meth(w{u});",
        "\toutput global.h(x1);",
        f"\tw{u} = w{u} - 1;",
        "}",
    ]


def _block_division(rng, u):
    # divides by an input: the vectors where x2 is 0 end in a run-time error
    return [f"d{u} = {rng.randint(10, 99)} / x2;", f"output d{u};"]


def _block_branch(rng, u):
    return [
        f"if (x1 > {rng.randint(0, 5)}) {{",
        f"\tz{u} = x1 * {rng.randint(2, 5)};",
        "} else {",
        f"\tz{u} = x2 - {rng.randint(0, 5)};",
        "}",
        f"output z{u};",
    ]


CORPUS_BLOCKS = (
    _block_recursion,
    _block_loop_in_function,
    _block_new_in_loop,
    _block_throw_across_call,
    _block_this_method,
    _block_recurried_method,
    _block_division,
    _block_branch,
)
CORPUS_BLOCKS_PER_PROGRAM = 4
CORPUS_VECTORS = 4


def corpus_program(rng, index: int) -> Case:
    """Program `index` of the corpus: the prelude, then four consecutive
    block kinds starting at ``index`` (cyclically), so every eight programs
    hold each kind four times whatever the seed."""
    lines = [
        _CORPUS_PRELUDE.format(
            rec_step=rng.randint(1, 9),
            rec_base=rng.randint(0, 9),
            throw_above=rng.randint(0, 4),
        ).rstrip("\n")
    ]
    for position in range(CORPUS_BLOCKS_PER_PROGRAM):
        block = CORPUS_BLOCKS[(index + position) % len(CORPUS_BLOCKS)]
        lines += block(rng, position)
    lines.append("output x1 + x2;")
    vectors = tuple(
        (rng.randint(-3, 9), rng.randint(-3, 9)) for _ in range(CORPUS_VECTORS)
    )
    return Case(source="\n".join(lines) + "\n", vectors=vectors)

"""Shared test utilities: corpus loading, AST traversal and lookups.

The parser assigns ids by pre-order position, so tests pin expected
sids/eids by locating the relevant node in the parsed tree instead of
hard-coding numbers.
"""

import collections
import functools
import gc
import json
import sys
from pathlib import Path

from sdtl import syntax
from sdtl.soundness import check_generated_corpus

PROGRAMS = Path(__file__).parent / "programs"

GOLDEN = [
    "fact.sdtl",
    "showcase.sdtl",
    "while_types.sdtl",
    "currying_add.sdtl",
    "currying_loop.sdtl",
    "objects.sdtl",
    "exceptions_basic.sdtl",
    "tryorerror.sdtl",
    "sideeffect_fact.sdtl",
]

# programs whose concrete runs terminate (currying_loop spins forever)
GOLDEN_RUNNABLE = [name for name in GOLDEN if name != "currying_loop.sdtl"]

# 200 programs of a seeded random generator that has since been retired,
# each with its four input vectors of eight integers, recorded once so that
# the digests over them keep pinning the same inputs
GENERATED = [
    (case["source"], [tuple(vector) for vector in case["inputs"]])
    for case in json.loads(
        (Path(__file__).parent / "generated_2026.json").read_text(encoding="utf-8")
    )
]


def load(name: str) -> str:
    return (PROGRAMS / name).read_text(encoding="utf-8")


def load_program(name: str) -> syntax.Program:
    return syntax.parse(load(name))


def iter_nodes(node: syntax.Node):
    """Pre-order traversal of a subtree."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(syntax.child_nodes(node)))


def seq_and_last_sids(program) -> set:
    """The sids of every ``Seq`` node and of the last top-level statement:
    the nodes that a per-node check leaves to their statements and to the
    final check."""
    sids = {n.sid for n in iter_nodes(program.root) if type(n) is syntax.Seq}
    return sids | {syntax.statements(program.root)[-1].sid}


def node_to_json(node: syntax.Node) -> dict:
    """Id-annotated AST node as {"id", "kind", ...scalar fields, "children"},
    built recursively: the tree that ``syntax.dump_ast`` lists node by node."""
    obj = syntax._head_json(node)
    obj["children"] = [node_to_json(child) for child in syntax.child_nodes(node)]
    return obj


def dump_tree(text: str) -> dict:
    """The tree that a ``dump-ast`` text lists, each node's children in
    place of their ids, after checking its layout: "[", one node a line
    with ids 1 to N in order, "]".  Equal to ``node_to_json`` of the root
    that was dumped."""
    lines = text.splitlines()
    assert lines[0] == "[" and lines[-1] == "]"
    nodes = [json.loads(line.removesuffix(",")) for line in lines[1:-1]]
    assert json.loads(text) == nodes
    assert [node["id"] for node in nodes] == list(range(1, len(nodes) + 1))
    for node in nodes:
        node["children"] = [nodes[child - 1] for child in node["children"]]
    return nodes[0]


def find_fundecl(program, name) -> syntax.FunDecl:
    for node in iter_nodes(program.root):
        if isinstance(node, syntax.FunDecl) and node.name == name:
            return node
    raise LookupError(name)


def find_call_eid(program, callee_name) -> int:
    """Eid of the (unique) call expression whose callee is a plain variable."""
    for node in iter_nodes(program.root):
        if isinstance(node, syntax.Call) and node.callee.name == callee_name:
            return node.eid
    raise LookupError(callee_name)


def find_new_eid(program, ctor_name) -> int:
    """Eid (allocation site) of the (unique) `new` on the named constructor."""
    for node in iter_nodes(program.root):
        if isinstance(node, syntax.New) and isinstance(node.callee, syntax.Var) \
                and node.callee.name == ctor_name:
            return node.eid
    raise LookupError(ctor_name)


@functools.cache
def generated_reports() -> list:
    """The report of each enumerated program, checked once per test run."""
    return check_generated_corpus()


# the allocation-site caveat (caveat_site_reset.sdtl) after a selection that
# leaves `z` a number or a boolean: at `b=mk(F,true);` both abstract states
# are candidates for each run, so a violation there has two explanations
MULTI_CANDIDATE = """if (input > 0) { z = 1; } else { z = true; }
function F(v){this.m=v;}
function mk(c,v){return new c(v);}
a=mk(F,1);
b=mk(F,true);
output a.m+1;
"""


def wide_call(count: int) -> str:
    """A function of `count` parameters that returns the first, and the
    output of one call of it on `count` ones: the run prints 1."""
    params = ", ".join(f"p{index}" for index in range(count))
    return (f"function g({params}) {{ return p0; }}\n"
            f"output g({', '.join(['1'] * count)});\n")


def call_chain(depth: int) -> str:
    """Functions f0 to f`depth`, each but f0 calling the one before through
    the global object, and one call of the last: no call recurses."""
    return "function f0(x) { return x; } global.f0 = f0;\n" + "".join(
        f"function f{i}(x) {{ return global.f{i - 1}(x); }} global.f{i} = f{i};\n"
        for i in range(1, depth + 1)
    ) + f"output f{depth}(7);\n"


def straight_line(count: int) -> str:
    """`count` top-level statements over eight variables and no control flow:
    every tenth prints a variable, the rest assign nested arithmetic.

    The products make the integers grow without bound, so the program is
    for the parser and the analysis only: never run it concretely (at 800
    statements a run does not finish in a minute)."""
    lines = [f"x{index} = {index};" for index in range(min(count, 8))]
    for index in range(len(lines), count):
        if index % 10 == 0:
            lines.append(f"output x{index % 8};")
        else:
            lines.append(
                f"x{index % 8} = (x{(index + 3) % 8} - {index % 7}) * x{(index + 5) % 8};"
            )
    return "\n".join(lines) + "\n"


def calls_by_file(run, key=lambda code: code.co_filename) -> collections.Counter:
    """Python calls and generator resumes during `run()`, per source file
    (or per ``key(code object)`` of the called function)."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[key(frame.f_code)] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def max_depth(run) -> int:
    """Deepest Python call depth reached during `run()`, counted from its
    caller as ``sys.setprofile`` sees calls and returns.

    The cyclic collector is off meanwhile: a collection runs the
    ``gc.callbacks`` (hypothesis registers one) in a frame of its own,
    on top of whichever call started it."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return deepest

import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    GENERATED, GOLDEN, PROGRAMS, calls_by_file, dump_tree, find_fundecl, iter_nodes,
    load, load_program, node_to_json, straight_line,
)
from sdtl import concrete, syntax
from sdtl.syntax import (
    Assign, BinOp, Call, Con, FunDecl, Member, MethodCall, Nil, ParseError,
    Seq, Var, child_nodes, node_id, parse,
)

AST_GOLDEN = PROGRAMS.parent / "golden" / "ast"


def test_smallest_program_ids():
    program = parse("x = 1;")
    nodes = [(node_id(n), type(n).__name__) for n in iter_nodes(program.root)]
    assert nodes == [(1, "Assign"), (2, "Var"), (3, "Con")]


def test_factorial_declaration():
    program = load_program("fact.sdtl")
    decl = find_fundecl(program, "fact")
    assert decl.params == ("f", "n")
    assert program.fun_table[decl.sid] is decl


def test_empty_parameter_list():
    program = parse("function g(){}")
    decl = find_fundecl(program, "g")
    assert program.fun_table[decl.sid].params == ()
    assert isinstance(decl.body, Nil)


def test_showcase_juiceme_params():
    program = load_program("showcase.sdtl")
    assert find_fundecl(program, "juiceMe").params == ("j", "x")


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError, match="duplicate parameter"):
        parse("function f(a,a){}")


@pytest.mark.parametrize("name", GOLDEN)
def test_ids_unique(name):
    program = load_program(name)
    ids = [node_id(n) for n in iter_nodes(program.root)]
    assert len(ids) == len(set(ids))
    assert min(ids) == 1 and max(ids) == len(ids)


@pytest.mark.parametrize("name", GOLDEN)
def test_reparse_is_stable(name):
    source = load(name)
    assert parse(source) == parse(source)


def test_fun_table_matches_declarations():
    program = load_program("showcase.sdtl")
    decl_sids = {n.sid for n in iter_nodes(program.root) if isinstance(n, FunDecl)}
    assert set(program.fun_table) == decl_sids
    assert {d.name for d in program.fun_table.values()} == {
        "fact", "Fruit", "juicible", "juiceMe",
    }


def test_operator_precedence():
    program = parse("x = 1 + 2 * 3;")
    value = program.root.value
    assert isinstance(value, BinOp) and value.op == "+"
    assert isinstance(value.right, BinOp) and value.right.op == "*"

    program = parse("x = 1 + 2 > 3 * 4;")
    value = program.root.value
    assert value.op == ">"
    assert value.left.op == "+" and value.right.op == "*"


def test_left_associativity():
    program = parse("x = 8 - 4 - 2;")
    value = program.root.value
    assert value.op == "-"
    assert isinstance(value.left, BinOp) and value.left.op == "-"
    assert value.right.value == 2


def test_unary_minus_desugars():
    program = parse("x = -1;")
    value = program.root.value
    assert isinstance(value, BinOp) and value.op == "-"
    assert value.left == Con(value.left.eid, 0)
    assert value.right.value == 1


def test_method_call_vs_plain_call():
    program = parse("a.b(1); f(1);")
    first, second = program.root.first.exp, program.root.second.exp
    assert isinstance(first, MethodCall) and first.member == "b"
    assert isinstance(second, Call) and second.callee.name == "f"


def test_member_chain():
    program = parse("x = a.b.c;")
    lexp = program.root.value.lexp
    assert isinstance(lexp, Member) and lexp.member == "c"
    inner = lexp.obj.lexp
    assert isinstance(inner, Member) and inner.member == "b"
    assert isinstance(inner.obj.lexp, Var)


def test_new_with_member_callee():
    program = parse("x = new a.B(2);")
    new = program.root.value
    assert isinstance(new.callee, Member) and new.callee.member == "B"

    program = parse("x = new F();")
    assert program.root.value.args == ()


def test_seq_right_associates():
    program = parse("a=1; b=2; c=3;")
    root = program.root
    assert isinstance(root, Seq) and isinstance(root.second, Seq)
    assert isinstance(root.second.second, Assign)


def test_comments_and_nil():
    program = parse("# only a comment\nnil;")
    assert isinstance(program.root, Nil)
    assert isinstance(parse("").root, Nil)


def test_block_statements_need_no_semicolon():
    program = parse("if(true){x=1;}\ny=2;")
    assert isinstance(program.root, Seq)


def test_trailing_semicolon_optional():
    assert isinstance(parse("x = 1").root, Assign)


def test_missing_semicolon_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("x = 1 y = 2;")
    assert exc.value.line == 1 and "';'" in exc.value.message


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("x = 1;\nyy = ;")
    assert exc.value.line == 2


def test_assignment_target_must_be_lexp():
    with pytest.raises(ParseError, match="left side"):
        parse("1 = 2;")


def test_callee_must_be_variable_or_member():
    with pytest.raises(ParseError, match="callee"):
        parse("(f)(1);")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() converts any number of digits",
)
def test_long_integer_literal_is_a_parse_error_at_its_position():
    with pytest.raises(ParseError, match=r"^1:5: integer literal too long \(5,000 digits\)"):
        parse("x = " + "1" * 5000 + ";")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse("while = 1;")


def test_numbers_are_decimal_digits_only():
    # '²' is a digit to str.isdigit but not to int()
    assert parse("x = 12;").root.value.value == 12
    with pytest.raises(ParseError, match="unexpected character '²'"):
        parse("x = 1²;")


@settings(max_examples=300)
@given(
    st.text(max_size=40)
    # characters that form tokens: letters, digits, blanks, '#' and symbols
    | st.text(alphabet="ifnewx19\u0663 \t\r\n#=;,(){}.+-*/<>", max_size=40)
)
@example("²")
@example("x = " + "1" * 5000 + ";")  # over the host's 4,300-digit limit for int()
def test_parse_returns_a_program_or_raises_parse_error(source):
    try:
        program = parse(source)
    except ParseError:
        return
    assert isinstance(program, syntax.Program)


PARSE_ERRORS = PROGRAMS.parent / "golden_parse_errors.json"


def _parse_error_text(source):
    try:
        parse(source)
    except ParseError as err:
        return str(err)
    return None


def record_parse_errors():
    """Rewrite the error text of each source in PARSE_ERRORS."""
    cases = json.loads(PARSE_ERRORS.read_text(encoding="utf-8"))
    lines = [json.dumps([source, _parse_error_text(source)]) for source, _ in cases]
    PARSE_ERRORS.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


@pytest.mark.parametrize("source, expected", [
    pytest.param(*case, id=str(index))
    for index, case in enumerate(json.loads(PARSE_ERRORS.read_text(encoding="utf-8")))
])
def test_parse_error_text_matches_golden(source, expected):
    """The error texts were recorded, from the repository root and before
    the lexer became one pattern, with

        PYTHONPATH=src:tests python -c 'import test_syntax; test_syntax.record_parse_errors()'
    """
    if "too long" in expected and not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("int() converts any number of digits")
    assert _parse_error_text(source) == expected


def test_dump_ast_schema():
    program = load_program("objects.sdtl")
    dumped = node_to_json(program.root)

    ids = []

    def walk(obj):
        assert set(obj) >= {"id", "kind", "children"}
        ids.append(obj["id"])
        for child in obj["children"]:
            walk(child)

    walk(dumped)
    assert len(ids) == len(set(ids))
    kinds = collections.Counter(
        type(n).__name__ for n in iter_nodes(program.root)
    )
    assert kinds["FunDecl"] == 3 and kinds["New"] == 1


@pytest.mark.parametrize("name", GOLDEN)
def test_dump_ast_matches_golden(name):
    r"""The fixtures under tests/golden/ast were recorded, from the
    repository root and once the dump listed one node a line, with

        for f in tests/golden/ast/*.json; do
            PYTHONPATH=src python -m sdtl.cli dump-ast \
                tests/programs/$(basename $f .json).sdtl > $f
        done
    """
    expected = (AST_GOLDEN / name).with_suffix(".json").read_text(encoding="utf-8")
    assert syntax.dump_ast(load_program(name)) + "\n" == expected


GENERATED_AST_DIGEST = (
    "39d5445c42cf86f867b7ce6567bc7353584d242f287d7775d4a93ffdf0144b76"
)


def test_ast_of_generated_and_long_programs_matches_digest():
    """sha256 over the compact JSON of each tree and its function table's
    sids (each followed by a newline), for the 200 recorded programs of
    ``helpers.GENERATED`` and straight-line programs of 100, 300 and 800 statements, recorded
    before parsing was made linear.  Turning a tree into JSON recurses once
    per statement of a top-level sequence, so it runs with headroom."""
    sources = [
        *(source for source, _ in GENERATED),
        *(straight_line(count) for count in (100, 300, 800)),
    ]
    digest = hashlib.sha256()
    with concrete.recursion_headroom():
        for source in sources:
            program = parse(source)
            tree = [node_to_json(program.root), list(program.fun_table)]
            digest.update(json.dumps(tree).encode() + b"\n")
    assert digest.hexdigest() == GENERATED_AST_DIGEST


def test_parse_work_grows_linearly():
    """Four times the statements cost about four times the calls; a
    traversal that re-walks the statement spine per statement costs well
    over ten times as many."""
    small, large = (
        calls_by_file(lambda: parse(straight_line(count)))[syntax.__file__]
        for count in (200, 800)
    )
    assert large / small < 5


def test_parse_work_per_token():
    """Calls into the syntax module per token of a 300-statement program:
    9.9 when each operand descended through every precedence level and each
    token read was clamped to the end of input, 7.1 with one precedence
    table and direct reads, 3.3 with token kinds read by index and each node
    built once."""
    source = straight_line(300)
    calls = calls_by_file(lambda: parse(source))[syntax.__file__]
    assert calls / len(syntax.tokenize(source)) < 3.5


@pytest.mark.parametrize("source", [load("fact.sdtl"), straight_line(300)], ids=["fact", "n300"])
def test_parse_builds_each_node_once(source, monkeypatch):
    """Every node constructed is a node of the tree, and each is constructed
    once: the ids are written into the nodes the parser built, not into
    copies."""
    built = []
    for cls in syntax._LAYOUT:
        def init(self, *args, _init=cls.__init__):
            built.append(self)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    tree = list(iter_nodes(parse(source).root))
    assert sorted(map(id, built)) == sorted(map(id, tree))


def test_dump_ast_work_grows_linearly():
    """Writing the indented text of a right-nested statement spine through
    the json encoder's nested generators cost calls growing with nodes
    times depth: 0.54, 2.1 and 8.0 million for 50, 100 and 200 statements.
    One encoding per node made about 93,000 calls for 200, and indenting
    each node by its depth made 5.3 MB of text for 200 statements and 82.5
    MB for 800.  One line per node makes about 16,000 calls and 0.11 MB
    for 200, and 0.47 MB for 800."""
    programs = [parse(straight_line(count)) for count in (200, 800)]
    small, large = (
        sum(calls_by_file(lambda: syntax.dump_ast(program)).values())
        for program in programs
    )
    assert large / small < 5
    small, large = (len(syntax.dump_ast(program)) for program in programs)
    assert large < 1_000_000 and large / small <= 4.5


def test_dump_ast_lists_the_nodes_one_a_line_in_id_order():
    sources = [
        *(source for source, _ in GENERATED),
        *(path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.sdtl"))),
        *(straight_line(count) for count in (1, 2, 100)),
    ]
    with concrete.recursion_headroom():
        for source in sources:
            program = parse(source)
            assert dump_tree(syntax.dump_ast(program)) == node_to_json(program.root)


def test_dump_ast_of_800_statements_at_the_default_recursion_limit(tmp_path):
    source = tmp_path / "long.sdtl"
    source.write_text(straight_line(800))
    env = dict(os.environ, PYTHONPATH=str(Path(syntax.__file__).parent.parent))
    with open(tmp_path / "out.json", "w", encoding="utf-8") as out:
        completed = subprocess.run(
            [sys.executable, "-m", "sdtl", "dump-ast", str(source)],
            stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert completed.returncode == 0 and completed.stderr == ""
    with concrete.recursion_headroom():
        tree = dump_tree((tmp_path / "out.json").read_text(encoding="utf-8"))
        assert tree == node_to_json(parse(source.read_text()).root)


def _recursive_preorder(node):
    yield node
    for child in child_nodes(node):
        yield from _recursive_preorder(child)


@pytest.mark.parametrize("name", GOLDEN)
def test_iter_nodes_is_preorder_numbering(name):
    root = load_program(name).root
    nodes = list(iter_nodes(root))
    assert [id(n) for n in nodes] == [id(n) for n in _recursive_preorder(root)]
    assert [node_id(n) for n in nodes] == list(range(1, len(nodes) + 1))


NESTED_DECLARATIONS = "function f() { function g() { function h() {} } }\nfunction k() {}"


@pytest.mark.parametrize(
    "source", [load(name) for name in GOLDEN] + [NESTED_DECLARATIONS], ids=GOLDEN + ["nested"]
)
def test_fun_table_is_in_ascending_sid_order(source):
    table = parse(source).fun_table
    assert list(table) == sorted(table)
    assert all(isinstance(decl, FunDecl) and decl.sid == sid for sid, decl in table.items())

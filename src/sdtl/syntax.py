"""SDTL syntax: lexer, recursive-descent parser and id-annotated AST.

A token is a ``(kind, value, offset)`` tuple; the line and column of an
offset are worked out only when a :class:`ParseError` is raised.

Every statement and expression node carries a unique positive id (``sid``
for statements, ``eid`` for expressions and left-expressions).  The parser
builds each node once, with id 0; the ids are then written into the nodes
in place, in a single left-to-right pre-order traversal starting at 1, so
parsing the same text twice yields identical trees.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from dataclasses import dataclass
from typing import Union


class ParseError(Exception):
    def __init__(self, message, source, offset):
        """`message` about the character at `offset` of `source`, which the
        text of the error places by line and column."""
        self.line, self.col = position(source, offset)
        super().__init__(f"{self.line}:{self.col}: {message}")
        self.message = message


def position(source: str, offset: int) -> tuple[int, int]:
    """(line, column), both from 1, of the character at `offset`: CR LF, CR
    and LF each end a line, as when a file is read with universal newlines."""
    lines = re.split(r"\r\n?|\n", source[:offset])
    return len(lines), len(lines[-1]) + 1


# --- AST nodes -------------------------------------------------------------


@dataclass(frozen=True)
class Stm:
    sid: int


@dataclass(frozen=True)
class Exp:
    eid: int


@dataclass(frozen=True)
class Lexp:
    eid: int


@dataclass(frozen=True)
class Nil(Stm):
    pass


@dataclass(frozen=True)
class Seq(Stm):
    first: Stm
    second: Stm


@dataclass(frozen=True)
class ExpStm(Stm):
    exp: Exp


@dataclass(frozen=True)
class Output(Stm):
    exp: Exp


@dataclass(frozen=True)
class Assign(Stm):
    target: Lexp
    value: Exp


@dataclass(frozen=True)
class If(Stm):
    guard: Exp
    then_body: Stm


@dataclass(frozen=True)
class IfElse(Stm):
    guard: Exp
    then_body: Stm
    else_body: Stm


@dataclass(frozen=True)
class While(Stm):
    guard: Exp
    body: Stm


@dataclass(frozen=True)
class FunDecl(Stm):
    name: str
    params: tuple[str, ...]
    body: Stm


@dataclass(frozen=True)
class Return(Stm):
    exp: Exp


@dataclass(frozen=True)
class TryCatch(Stm):
    body: Stm
    exc_name: str
    handler: Stm


@dataclass(frozen=True)
class Throw(Stm):
    exp: Exp


@dataclass(frozen=True)
class Con(Exp):
    value: Union[int, bool]


@dataclass(frozen=True)
class LexpRef(Exp):
    lexp: Lexp


@dataclass(frozen=True)
class Input(Exp):
    pass


@dataclass(frozen=True)
class Call(Exp):
    callee: Lexp
    args: tuple[Exp, ...]


@dataclass(frozen=True)
class MethodCall(Exp):
    receiver: Exp
    member: str
    args: tuple[Exp, ...]


@dataclass(frozen=True)
class BinOp(Exp):
    op: str
    left: Exp
    right: Exp


@dataclass(frozen=True)
class Paren(Exp):
    inner: Exp


@dataclass(frozen=True)
class Global(Exp):
    pass


@dataclass(frozen=True)
class This(Exp):
    pass


@dataclass(frozen=True)
class New(Exp):
    callee: Lexp
    args: tuple[Exp, ...]


@dataclass(frozen=True)
class Var(Lexp):
    name: str


@dataclass(frozen=True)
class Member(Lexp):
    obj: Exp
    member: str


Node = Union[Stm, Exp, Lexp]


def node_id(node: Node) -> int:
    return node.sid if isinstance(node, Stm) else node.eid


_ROLES = {"Stm": "child", "Exp": "child", "Lexp": "child", "tuple[Exp, ...]": "children"}

# per node class, (name, role) of each field after the id in source order;
# the role, read off the field's annotation string, is "child" (a node),
# "children" (a tuple of nodes) or "scalar"
_LAYOUT = {
    cls: tuple((f.name, _ROLES.get(f.type, "scalar")) for f in dataclasses.fields(cls)[1:])
    for base in (Stm, Exp, Lexp)
    for cls in base.__subclasses__()
}


# per node class, (name, whether it holds a tuple of nodes) of each field
# that holds nodes
_CHILDREN = {
    cls: tuple((name, role == "children") for name, role in layout if role != "scalar")
    for cls, layout in _LAYOUT.items()
}


def child_nodes(node: Node) -> list[Node]:
    """Children in source order (the order used for pre-order numbering)."""
    children = []
    for name, many in _CHILDREN[type(node)]:
        if many:
            children.extend(getattr(node, name))
        else:
            children.append(getattr(node, name))
    return children


@dataclass(frozen=True)
class Program:
    root: Stm
    fun_table: dict  # Sid -> FunDecl node


# --- Lexer -----------------------------------------------------------------

KEYWORDS = frozenset(
    [
        "nil", "output", "if", "else", "while", "function", "return",
        "try", "catch", "throw", "global", "this", "new", "input",
        "true", "false",
    ]
)


# one alternative per token, '==' before '='; in `re`, \d is a character for
# which str.isdecimal holds and [^\W_] one for which str.isalnum does
_TOKEN = re.compile(
    r"(?P<blank>[ \t\r\n]+)|(?P<num>\d+)|(?P<word>[^\W_]+)"
    r"|(?P<symbol>==|[;,(){}.=+\-*/<>])|(?P<comment>#[^\r\n]*)|(?P<other>.)"
)


def tokenize(source: str) -> list[tuple]:
    """``(kind, value, offset)`` of each token: kind is 'id', 'num', a
    keyword, a symbol, or 'eof' for the end of input."""
    tokens = []
    for match in _TOKEN.finditer(source):
        kind, text = match.lastgroup, match[0]
        if kind == "symbol":
            tokens.append((text, text, match.start()))
        elif kind == "word" and text[0].isalpha():  # a word starts with a letter
            tokens.append((text if text in KEYWORDS else "id", text, match.start()))
        elif kind == "num":
            try:
                value = int(text)
            except ValueError:  # over the host's digit limit for int()
                message = f"integer literal too long ({len(text):,} digits)"
                raise ParseError(message, source, match.start()) from None
            tokens.append(("num", value, match.start()))
        elif kind != "blank" and kind != "comment":
            raise ParseError(f"unexpected character {text[0]!r}", source, match.start())
    # a comment on the last line puts the end of input at its '#'
    end = source.find("#", max(source.rfind("\n"), source.rfind("\r")) + 1)
    tokens.append(("eof", None, len(source) if end < 0 else end))
    return tokens


# --- Parser ----------------------------------------------------------------

_ATOMS = {"input": Input, "global": Global, "this": This}
_PREFIXED = {"output": Output, "return": Return, "throw": Throw}  # keyword, then an expression
_STATEMENT_KEYWORDS = frozenset(["nil", "if", "while", "function", "try", *_PREFIXED])


class _Parser:
    """Recursive descent over the tokens, reading the kind at ``pos``.  Only
    a token whose kind was read is consumed, so the parser reads past 'eof'
    only through the final expect("eof").

    A variable or member is read as a bare left-expression, and becomes a
    LexpRef only where it is used as an expression: so the target of an
    assignment, a call or a `new` is built without a wrapper to discard."""

    def __init__(self, source, tokens):
        self.source = source
        self.tokens = tokens
        self.kinds = [token[0] for token in tokens]
        self.pos = 0

    def expect(self, kind):
        """Consume a token of `kind` and return its value."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind!r}, found {self.describe()}")
        self.pos = pos + 1
        return self.tokens[pos][1]

    def describe(self) -> str:
        kind, value, _ = self.tokens[self.pos]
        return "end of input" if kind == "eof" else repr(str(value))

    def fail(self, message, pos=None):
        """Raise `message` at the token at `pos`, by default the next one."""
        offset = self.tokens[self.pos if pos is None else pos][2]
        raise ParseError(message, self.source, offset)

    # statements

    def parse_program(self) -> Stm:
        root = self.parse_stm_list(("eof",))
        self.expect("eof")
        return root

    def parse_stm_list(self, terminators) -> Stm:
        kinds = self.kinds
        stms = []
        while kinds[self.pos] not in terminators:
            stm = self.parse_stm()
            stms.append(stm)
            kind = kinds[self.pos]
            if kind == ";":
                self.pos += 1
            elif kind not in terminators and not isinstance(
                stm, (If, IfElse, While, FunDecl, TryCatch)
            ):
                self.fail(f"expected ';', found {self.describe()}")
        return seq_normalize(stms)

    def parse_block(self) -> Stm:
        self.expect("{")
        body = self.parse_stm_list(("}",))
        self.expect("}")
        return body

    def parse_guard(self) -> Exp:
        self.expect("(")
        guard = self.parse_exp()
        self.expect(")")
        return guard

    def parse_stm(self) -> Stm:
        kind = self.kinds[self.pos]
        if kind not in _STATEMENT_KEYWORDS:
            return self.parse_assign_or_exp()
        self.pos += 1
        if kind == "nil":
            return Nil(0)
        if kind in _PREFIXED:
            return _PREFIXED[kind](0, self.parse_exp())
        if kind == "if":
            guard, then_body = self.parse_guard(), self.parse_block()
            if self.kinds[self.pos] != "else":
                return If(0, guard, then_body)
            self.pos += 1
            return IfElse(0, guard, then_body, self.parse_block())
        if kind == "while":
            return While(0, self.parse_guard(), self.parse_block())
        if kind == "function":
            return self.parse_fundecl()
        body = self.parse_block()  # try
        self.expect("catch")
        self.expect("(")
        exc_name = self.expect("id")
        self.expect(")")
        return TryCatch(0, body, exc_name, self.parse_block())

    def parse_fundecl(self) -> Stm:
        keyword = self.pos - 1
        name = self.expect("id")
        params = self.parse_list(lambda: self.expect("id"))
        if len(set(params)) != len(params):
            self.fail(f"duplicate parameter name in function {name!r}", keyword)
        return FunDecl(0, name, params, self.parse_block())

    def parse_assign_or_exp(self) -> Stm:
        operand = self.parse_unary()
        if self.kinds[self.pos] == "=" and isinstance(operand, Lexp):
            self.pos += 1
            return Assign(0, operand, self.parse_exp())
        exp = self.parse_exp(0, operand)
        if self.kinds[self.pos] == "=":
            self.fail("left side of '=' must be a variable or member")
        return ExpStm(0, exp)

    # expressions

    _PRECEDENCE = {">": 0, "<": 0, "==": 0, "+": 1, "-": 1, "*": 2, "/": 2}

    def parse_exp(self, min_level=0, operand=None) -> Exp:
        """Precedence climbing: operators of `min_level` or tighter, each
        level left-associative, from the first `operand` when it was read."""
        exp = self.parse_unary() if operand is None else operand
        if isinstance(exp, Lexp):  # _as_exp, inlined on the hottest path
            exp = LexpRef(0, exp)
        kinds = self.kinds
        while (level := self._PRECEDENCE.get(op := kinds[self.pos], -1)) >= min_level:
            self.pos += 1
            exp = BinOp(0, op, exp, self.parse_exp(level + 1))
        return exp

    def parse_unary(self) -> Exp | Lexp:
        if self.kinds[self.pos] == "-":
            self.pos += 1
            # unary minus is sugar for 0 - E
            return BinOp(0, "-", Con(0, 0), _as_exp(self.parse_unary()))
        return self.parse_postfix()

    def parse_postfix(self) -> Exp | Lexp:
        exp = self.parse_primary()
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind == ".":
                self.pos += 1
                member = self.expect("id")
                if kinds[self.pos] == "(":
                    exp = MethodCall(0, _as_exp(exp), member, self.parse_list(self.parse_exp))
                else:
                    exp = Member(0, _as_exp(exp), member)
            elif kind == "(":
                if not isinstance(exp, Var):
                    self.fail("callee must be a variable or member")
                exp = Call(0, exp, self.parse_list(self.parse_exp))
            else:
                return exp

    def parse_list(self, parse_item) -> tuple:
        """'(', items read by `parse_item` separated by ',', then ')': the
        parameters of a declaration and the arguments of a call or `new`."""
        self.expect("(")
        items = []
        if self.kinds[self.pos] != ")":
            items.append(parse_item())
            while self.kinds[self.pos] == ",":
                self.pos += 1
                items.append(parse_item())
        self.expect(")")
        return tuple(items)

    def parse_primary(self) -> Exp | Lexp:
        kind, value, _ = self.tokens[self.pos]
        self.pos += 1
        if kind == "id":
            return Var(0, value)
        if kind == "num":
            return Con(0, value)
        if kind == "(":
            inner = self.parse_exp()
            self.expect(")")
            return Paren(0, inner)
        if kind == "true" or kind == "false":
            return Con(0, kind == "true")
        if kind == "new":
            return self.parse_new()
        if kind in _ATOMS:
            return _ATOMS[kind](0)
        self.pos -= 1  # not the start of an expression: report it unconsumed
        self.fail(f"expected an expression, found {self.describe()}")

    def parse_new(self) -> Exp:
        # callee of `new` is a left-expression: ID followed by member chain
        kind, value, _ = self.tokens[self.pos]
        if kind == "id":
            exp = Var(0, value)
        elif kind == "global" or kind == "this":
            exp = _ATOMS[kind](0)
        else:
            self.fail("expected a constructor name after 'new'")
        self.pos += 1
        while self.kinds[self.pos] == ".":
            self.pos += 1
            exp = Member(0, _as_exp(exp), self.expect("id"))
        if not isinstance(exp, Lexp):
            self.fail("constructor of 'new' must be a variable or member")
        return New(0, exp, self.parse_list(self.parse_exp))


def _as_exp(node: Exp | Lexp) -> Exp:
    return LexpRef(0, node) if isinstance(node, Lexp) else node


def seq_normalize(stms: list[Stm]) -> Stm:
    """Right-associate a statement list into nested Seq; [] is Nil, [s] is s."""
    if not stms:
        return Nil(0)
    result = stms[-1]
    for stm in reversed(stms[:-1]):
        result = Seq(0, stm, result)
    return result


def statements(stm: Stm) -> list[Stm]:
    """The statement list of `stm`, the inverse of :func:`seq_normalize` on
    non-empty lists: the first statements of the ``Seq`` chain on its right
    spine, then its last statement."""
    stms = []
    while type(stm) is Seq:
        stms.append(stm.first)
        stm = stm.second
    stms.append(stm)
    return stms


def _renumber(node: Node, next_id, fun_table: dict) -> None:
    """Write pre-order ids drawn from `next_id` into `node` and its subtree,
    in place, entering each declaration into `fun_table` as it is reached,
    so in ascending sid order."""
    cls = type(node)
    nid = next_id()
    object.__setattr__(node, "sid" if isinstance(node, Stm) else "eid", nid)
    if cls is FunDecl:
        fun_table[nid] = node
    for name, many in _CHILDREN[cls]:
        if many:
            for item in getattr(node, name):
                _renumber(item, next_id, fun_table)
        else:
            _renumber(getattr(node, name), next_id, fun_table)


def parse(source: str) -> Program:
    """Parse SDTL source text into an id-annotated Program."""
    root = _Parser(source, tokenize(source)).parse_program()
    fun_table = {}
    _renumber(root, itertools.count(1).__next__, fun_table)
    return Program(root, fun_table)


# --- Debug dump ------------------------------------------------------------

def _head_json(node: Node) -> dict:
    """{"id", "kind", ...scalar fields, "children": []} of one node."""
    obj = {"id": node_id(node), "kind": type(node).__name__}
    for name, role in _LAYOUT[type(node)]:
        if role == "scalar":
            value = getattr(node, name)
            obj[name] = list(value) if isinstance(value, tuple) else value
    obj["children"] = []
    return obj


def dump_ast(program: Program) -> str:
    """The id-annotated tree as a JSON array of its nodes in pre-order (id
    order), one a line: each {"id", "kind", ...scalar fields, "children"}
    with its children's ids, written by one loop over an explicit stack, so
    text, work and host stack grow with the number of nodes alone."""
    lines, todo = [], [program.root]
    while todo:
        node = todo.pop()
        children = child_nodes(node)
        head = _head_json(node)
        head["children"] = [node_id(child) for child in children]
        lines.append(json.dumps(head))
        todo += reversed(children)
    return "[\n" + ",\n".join(lines) + "\n]"

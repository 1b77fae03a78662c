"""SDTL syntax: lexer, recursive-descent parser and id-annotated AST.

Every statement and expression node carries a unique positive id (``sid``
for statements, ``eid`` for expressions and left-expressions).  Ids are
assigned in a single left-to-right pre-order traversal starting at 1, so
parsing the same text twice yields identical trees.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from dataclasses import dataclass
from typing import NamedTuple, Union


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


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


def child_nodes(node: Node) -> list[Node]:
    """Children in source order (the order used for pre-order numbering)."""
    children = []
    for name, role in _LAYOUT[type(node)]:
        if role == "child":
            children.append(getattr(node, name))
        elif role == "children":
            children.extend(getattr(node, name))
    return children


@dataclass(frozen=True)
class Program:
    root: Stm
    fun_table: dict  # Sid -> FunDecl node

    def stm(self, sid: int) -> Stm:
        """Body statement of the function declared at `sid`."""
        return self._decl(sid).body

    def param(self, sid: int) -> tuple[str, ...]:
        return self._decl(sid).params

    def arity(self, sid: int) -> int:
        return len(self._decl(sid).params)

    def _decl(self, sid: int) -> FunDecl:
        try:
            return self.fun_table[sid]
        except KeyError:
            raise KeyError(f"internal error: no function declared at sid {sid}") from None


# --- Lexer -----------------------------------------------------------------

KEYWORDS = frozenset(
    [
        "nil", "output", "if", "else", "while", "function", "return",
        "try", "catch", "throw", "global", "this", "new", "input",
        "true", "false",
    ]
)


class Token(NamedTuple):
    kind: str  # 'id', 'num', a keyword, a symbol, or 'eof'
    value: object
    line: int
    col: int


# one alternative per token, '==' before '='; in `re`, \d is a character for
# which str.isdecimal holds and [^\W_] one for which str.isalnum does
_TOKEN = re.compile(
    r"(?P<blank>[ \t\r]+)|(?P<num>\d+)|(?P<word>[^\W_]+)"
    r"|(?P<symbol>==|[;,(){}.=+\-*/<>])|(?P<newline>\n)|(?P<comment>#.*)|(?P<other>.)"
)


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "blank" or kind == "comment":
            continue
        text, col = match[0], match.start() - line_start + 1
        if kind == "word" and text[0].isalpha():  # a word starts with a letter
            tokens.append(Token(text if text in KEYWORDS else "id", text, line, col))
        elif kind == "symbol":
            tokens.append(Token(text, text, line, col))
        elif kind == "num":
            try:
                value = int(text)
            except ValueError:  # over the host's digit limit for int()
                raise ParseError(
                    f"integer literal too long ({len(text):,} digits)", line, col
                ) from None
            tokens.append(Token("num", value, line, col))
        elif kind == "newline":
            line, line_start = line + 1, match.end()
        else:
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
    # a comment on the last line puts the end of input at its '#'
    before_comment = source[line_start:].partition("#")[0]
    tokens.append(Token("eof", None, line, len(before_comment) + 1))
    return tokens


# --- Parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # only a token that was peeked is consumed, so the parser reads past
    # 'eof' only through the final expect("eof")
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {self.describe(tok)}")
        return self.next()

    def describe(self, tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(str(tok.value))

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # statements

    def parse_program(self) -> Stm:
        root = self.parse_stm_list(("eof",))
        self.expect("eof")
        return root

    def parse_stm_list(self, terminators) -> Stm:
        stms = []
        while self.peek().kind not in terminators:
            stm = self.parse_stm()
            stms.append(stm)
            if self.peek().kind == ";":
                self.next()
            elif not isinstance(stm, (If, IfElse, While, FunDecl, TryCatch)):
                if self.peek().kind not in terminators:
                    self.fail(f"expected ';', found {self.describe(self.peek())}")
        return seq_normalize(stms)

    def parse_block(self) -> Stm:
        self.expect("{")
        body = self.parse_stm_list(("}",))
        self.expect("}")
        return body

    def parse_stm(self) -> Stm:
        kind = self.peek().kind
        if kind == "nil":
            self.next()
            return Nil(0)
        if kind == "output":
            self.next()
            return Output(0, self.parse_exp())
        if kind == "return":
            self.next()
            return Return(0, self.parse_exp())
        if kind == "throw":
            self.next()
            return Throw(0, self.parse_exp())
        if kind == "if":
            return self.parse_if()
        if kind == "while":
            self.next()
            self.expect("(")
            guard = self.parse_exp()
            self.expect(")")
            return While(0, guard, self.parse_block())
        if kind == "function":
            return self.parse_fundecl()
        if kind == "try":
            self.next()
            body = self.parse_block()
            self.expect("catch")
            self.expect("(")
            exc_name = self.expect("id").value
            self.expect(")")
            return TryCatch(0, body, exc_name, self.parse_block())
        return self.parse_assign_or_exp()

    def parse_if(self) -> Stm:
        self.next()
        self.expect("(")
        guard = self.parse_exp()
        self.expect(")")
        then_body = self.parse_block()
        if self.peek().kind == "else":
            self.next()
            return IfElse(0, guard, then_body, self.parse_block())
        return If(0, guard, then_body)

    def parse_fundecl(self) -> Stm:
        tok = self.next()
        name = self.expect("id").value
        self.expect("(")
        params = []
        if self.peek().kind != ")":
            params.append(self.expect("id").value)
            while self.peek().kind == ",":
                self.next()
                params.append(self.expect("id").value)
        self.expect(")")
        if len(set(params)) != len(params):
            raise ParseError(
                f"duplicate parameter name in function {name!r}", tok.line, tok.col
            )
        return FunDecl(0, name, tuple(params), self.parse_block())

    def parse_assign_or_exp(self) -> Stm:
        exp = self.parse_exp()
        if self.peek().kind == "=":
            if not isinstance(exp, LexpRef):
                self.fail("left side of '=' must be a variable or member")
            self.next()
            return Assign(0, exp.lexp, self.parse_exp())
        return ExpStm(0, exp)

    # expressions

    _PRECEDENCE = {">": 0, "<": 0, "==": 0, "+": 1, "-": 1, "*": 2, "/": 2}

    def parse_exp(self, min_level=0) -> Exp:
        """Precedence climbing: operators of `min_level` or tighter, each
        level left-associative."""
        exp = self.parse_unary()
        while (level := self._PRECEDENCE.get(self.peek().kind, -1)) >= min_level:
            op = self.next().kind
            exp = BinOp(0, op, exp, self.parse_exp(level + 1))
        return exp

    def parse_unary(self) -> Exp:
        if self.peek().kind == "-":
            self.next()
            # unary minus is sugar for 0 - E
            return BinOp(0, "-", Con(0, 0), self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Exp:
        exp = self.parse_primary()
        while True:
            kind = self.peek().kind
            if kind == ".":
                self.next()
                member = self.expect("id").value
                if self.peek().kind == "(":
                    exp = MethodCall(0, exp, member, self.parse_args())
                else:
                    exp = LexpRef(0, Member(0, exp, member))
            elif kind == "(":
                if not (isinstance(exp, LexpRef) and isinstance(exp.lexp, Var)):
                    self.fail("callee must be a variable or member")
                exp = Call(0, exp.lexp, self.parse_args())
            else:
                return exp

    def parse_args(self) -> tuple[Exp, ...]:
        self.expect("(")
        args = []
        if self.peek().kind != ")":
            args.append(self.parse_exp())
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_exp())
        self.expect(")")
        return tuple(args)

    def parse_primary(self) -> Exp:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Con(0, tok.value)
        if tok.kind in ("true", "false"):
            self.next()
            return Con(0, tok.kind == "true")
        if tok.kind == "input":
            self.next()
            return Input(0)
        if tok.kind == "global":
            self.next()
            return Global(0)
        if tok.kind == "this":
            self.next()
            return This(0)
        if tok.kind == "new":
            self.next()
            return self.parse_new()
        if tok.kind == "id":
            self.next()
            return LexpRef(0, Var(0, tok.value))
        if tok.kind == "(":
            self.next()
            inner = self.parse_exp()
            self.expect(")")
            return Paren(0, inner)
        self.fail(f"expected an expression, found {self.describe(tok)}")

    def parse_new(self) -> Exp:
        # callee of `new` is a left-expression: ID followed by member chain
        if self.peek().kind == "id":
            tok = self.next()
            exp: Exp = LexpRef(0, Var(0, tok.value))
        elif self.peek().kind == "global":
            self.next()
            exp = Global(0)
        elif self.peek().kind == "this":
            self.next()
            exp = This(0)
        else:
            self.fail("expected a constructor name after 'new'")
        while self.peek().kind == ".":
            self.next()
            member = self.expect("id").value
            exp = LexpRef(0, Member(0, exp, member))
        if not isinstance(exp, LexpRef):
            self.fail("constructor of 'new' must be a variable or member")
        return New(0, exp.lexp, self.parse_args())


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


def _renumber(node: Node, next_id, fun_table: dict) -> Node:
    """Rebuild `node` with pre-order ids drawn from `next_id`, entering each
    declaration into `fun_table` in ascending sid order."""
    cls = type(node)
    nid = next_id()
    if cls is FunDecl:
        fun_table[nid] = None  # holds the slot of an outer declaration
    args = [nid]
    for name, role in _LAYOUT[cls]:
        value = getattr(node, name)
        if role == "child":
            value = _renumber(value, next_id, fun_table)
        elif role == "children":
            value = tuple([_renumber(item, next_id, fun_table) for item in value])
        args.append(value)
    node = cls(*args)
    if cls is FunDecl:
        fun_table[nid] = node
    return node


def parse(source: str) -> Program:
    """Parse SDTL source text into an id-annotated Program."""
    root = _Parser(tokenize(source)).parse_program()
    fun_table = {}
    root = _renumber(root, itertools.count(1).__next__, fun_table)
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
    """The id-annotated tree as ``indent=2`` JSON, each node an object
    {"id", "kind", ...scalar fields, "children"}, written from an explicit
    stack one node at a time, so that calls and host stack stay linear in
    the number of nodes however deep the tree."""
    chunks = []
    todo = [(program.root, "")]  # (node, its indent) or text to emit
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            chunks.append(item)
            continue
        node, pad = item
        text = json.dumps(_head_json(node), indent=2).replace("\n", "\n" + pad)
        children = child_nodes(node)
        if not children:
            chunks.append(text)
            continue
        chunks.append(text[: -len("[]\n}" + pad)])
        todo.append("\n" + pad + "  ]\n" + pad + "}")
        for index in reversed(range(len(children))):
            todo.append((children[index], pad + "    "))
            todo.append(("," if index else "[") + "\n" + pad + "    ")
    return "".join(chunks)

"""Concrete syntax for .gract programs.

A program is a grade declaration, primitive operation signatures, actor
declarations whose methods carry explicit requires/produces/measure
annotations, and an init line naming the starting resources and the first
call. Sequencing `e1; e2` is sugar for a let with an unused fresh binder,
`ve?` is an await, and `(+)` (or the unicode circled plus) is the
nondeterministic choice.

Graded names resolve lexically: a name bound by a parameter or let is a
variable, an unbound name with a grade is a resource literal, an unbound
bare name stays a variable for the type checker to reject. The parser
resolves no actor, method or resource names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, TypeVar

from .grades import (
    BUILTIN_MONOIDS,
    ActorContext,
    Grade,
    GradeMonoid,
    GradeParseError,
    LatticeError,
    Level,
    ctx_norm,
)
from .terms import (
    ActorDecl,
    Await,
    Call,
    Choice,
    Expr,
    GradedRes,
    GradedVar,
    Hold,
    Let,
    Lit,
    MethodDecl,
    OpSig,
    PrimOp,
    Program,
    Release,
    ResT,
    Return,
    Type,
    UnitT,
    UnitVal,
    Value,
    ValueExpr,
    Var,
    fut_type,
)

KEYWORDS = {
    "grade", "natEq", "natLeq", "lin", "affine", "levels",
    "let", "in", "return", "unit", "hold", "release",
    "init", "start", "requires", "produces", "measure",
    "fut", "Unit", "inf",
}

# One alternative per token kind, tried in order. In a str pattern `\w` is
# exactly `str.isalnum()` or '_', and `\d` exactly `str.isdecimal()`, the
# digits `int()` accepts. An identifier starts with a letter or '_': the
# IDENT alternative also matches a non-decimal numeral such as '²' first,
# and `tokenize` rejects that as a stray character.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*)"
    r"|(?P<IDENT>[^\W\d]\w*)"
    r"|(?P<NAT>\d+)"
    r"|(?P<PUNCT>\(\+\)|⊕|<=|[{}(),:;=!?^])"
    r"|(?P<stray>.)",
    re.DOTALL,
)

# How deep expressions may nest: each `;`, `let` bound or body, and
# parenthesis (a choice's two branches) opens one level. Checking, running
# and exploring walk terms recursively, so this keeps them inside Python's
# default recursion limit.
MAX_NESTING = 256


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        where = f"{line}:{col}"
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{where}: {message}{hint}")


@dataclass
class Token:
    kind: str  # IDENT, NAT, PUNCT, EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens ending in EOF. Lines and columns count
    from 1; a column counts characters, a tab as one."""
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in tok:
                line += tok.count("\n")
                line_start = m.start() + tok.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "stray" or kind == "IDENT" and not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"stray character {tok[0]!r}", line, col)
        # the circled plus is the same token as (+)
        toks.append(Token(kind, "(+)" if tok == "⊕" else tok, line, col))
    toks.append(Token("EOF", "", line, len(text) - line_start + 1))
    return toks


T = TypeVar("T")


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.monoid: GradeMonoid | None = None
        self.seq_counter = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> "ParseError":
        t = self.peek()
        return ParseError(message, t.line, t.col, expected)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "EOF" and text != "":
            raise self.fail(f"found {t.text or 'end of input'!r}", (text,))
        return self.next()

    def ident(self, what: str = "name") -> str:
        t = self.peek()
        if t.kind != "IDENT":
            raise self.fail(f"expected {what}, found {t.text or 'end of input'!r}", ("identifier",))
        if t.text in KEYWORDS:
            raise self.fail(f"keyword {t.text!r} cannot be used as a {what}")
        return self.next().text

    def at_ident(self, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == "IDENT" and t.text not in KEYWORDS

    def commas(self, item: Callable[[], T]) -> list[T]:
        """One item or more, separated by commas."""
        out = [item()]
        while self.peek().text == ",":
            self.next()
            out.append(item())
        return out

    # -- grades and types ----------------------------------------------------

    def grade(self) -> Grade:
        t = self.peek()
        if t.kind not in ("IDENT", "NAT"):
            raise self.fail("expected a grade", ("grade",))
        assert self.monoid is not None
        try:
            g = self.monoid.parse(t.text)
        except GradeParseError as err:
            raise ParseError(str(err), t.line, t.col) from None
        self.next()
        return g

    def type_(self) -> Type:
        t = self.peek()
        if t.text == "Unit":
            self.next()
            return UnitT()
        if t.text == "fut":
            self.next()
            self.expect("(")
            result = self.type_()
            self.expect(",")
            ctx = self.actor_ctx()
            self.expect(")")
            return fut_type(result, ctx_norm(self.monoid, ctx))
        res = self.ident("type")
        self.expect("^")
        return ResT(res, self.grade())

    def actor_ctx(self) -> ActorContext:
        """Comma-separated `Actor: res^g, res^g, Other: ...`; may be empty.

        An identifier followed by ':' opens an actor entry, one followed by
        '^' continues the current entry; anything else ends the context.
        """
        ctx: ActorContext = {}
        while self.at_ident() and self.peek(1).text == ":":
            actor = self.ident("actor name")
            self.expect(":")
            env = ctx.setdefault(actor, {})
            while True:
                res = self.ident("resource name")
                self.expect("^")
                g = self.grade()
                assert self.monoid is not None
                env[res] = self.monoid.plus(env[res], g) if res in env else g
                if self.peek().text == "," and self.at_ident(1) and self.peek(2).text == "^":
                    self.next()
                    continue
                break
            if self.peek().text == "," and self.at_ident(1) and self.peek(2).text == ":":
                self.next()
                continue
            break
        return ctx

    # -- expressions ---------------------------------------------------------

    def fresh_seq(self) -> str:
        name = f"_s{self.seq_counter}"
        self.seq_counter += 1
        return name

    # `depth` counts the levels around an expression (see MAX_NESTING)
    def expr(self, bound: frozenset[str], depth: int = 0) -> Expr:
        first = self.simple_expr(bound, depth)
        if self.peek().text == ";":
            self.next()
            rest = self.expr(bound, depth + 1)
            return Let(self.fresh_seq(), first, rest)
        return first

    def simple_expr(self, bound: frozenset[str], depth: int) -> Expr:
        if depth > MAX_NESTING:
            raise self.fail(f"expression nests deeper than {MAX_NESTING}")
        t = self.peek()
        if t.text == "let":
            self.next()
            var = self.ident("variable")
            self.expect("=")
            head = self.simple_expr(bound, depth + 1)
            self.expect("in")
            body = self.expr(bound | {var}, depth + 1)
            return Let(var, head, body)
        if t.text == "return":
            self.next()
            return Return(self.vexpr(bound))
        if t.text == "hold":
            self.next()
            g = self.grade()
            return Hold(g, self.ident("resource name"))
        if t.text == "release":
            self.next()
            g = self.grade()
            return Release(g, self.vexpr(bound))
        if t.text == "(":
            self.next()
            inner = self.expr(bound, depth + 1)
            if self.peek().text == "(+)":
                self.next()
                right = self.expr(bound, depth + 1)
                self.expect(")")
                return Choice(inner, right)
            self.expect(")")
            return inner
        if t.kind == "IDENT" and t.text not in KEYWORDS:
            nxt = self.peek(1).text
            if nxt == "!":
                target = self.ident("actor name")
                self.expect("!")
                method = self.ident("method name")
                args = self.vexpr_list(bound)
                return Call(target, method, args)
            if nxt == "(":
                op = self.ident("operation name")
                args = self.vexpr_list(bound)
                return PrimOp(op, args)
        # anything else must be an awaited value expression
        ve = self.vexpr(bound)
        self.expect("?")
        return Await(ve)

    def vexpr_list(self, bound: frozenset[str]) -> tuple[ValueExpr, ...]:
        self.expect("(")
        args = self.commas(lambda: self.vexpr(bound)) if self.peek().text != ")" else []
        self.expect(")")
        return tuple(args)

    def vexpr(self, bound: frozenset[str]) -> ValueExpr:
        t = self.peek()
        if t.text == "unit":
            self.next()
            return Lit(UnitVal())
        if t.kind != "IDENT" or t.text in KEYWORDS:
            raise self.fail("expected a value expression", ("identifier", "unit"))
        name = self.next().text
        if self.peek().text == "^":
            self.next()
            g = self.grade()
            if name in bound:
                return GradedVar(name, g)
            return Lit(GradedRes(name, g))
        # a bound name, or an unbound ungraded one left for the checker to flag
        return Var(name)

    # -- declarations --------------------------------------------------------

    def grade_decl(self) -> GradeMonoid:
        self.expect("grade")
        t = self.peek()
        if t.text in BUILTIN_MONOIDS:
            self.next()
            return BUILTIN_MONOIDS[t.text]()
        if t.text == "levels":
            self.next()
            self.expect("{")
            names = self.commas(lambda: self.ident("level name"))
            order: list[tuple[str, str]] = []
            if self.peek().text == ";":
                self.next()
                order = self.commas(self.level_order)
            close = self.peek()
            self.expect("}")
            try:
                return Level(names, order)
            except LatticeError as err:
                raise ParseError(str(err), close.line, close.col) from None
        raise self.fail(
            f"unknown grade instance {t.text or 'end of input'!r}",
            tuple(BUILTIN_MONOIDS) + ("levels",),
        )

    def level_order(self) -> tuple[str, str]:
        lo = self.ident("level name")
        self.expect("<=")
        return lo, self.ident("level name")

    def param(self) -> tuple[str, Type]:
        x = self.ident("parameter name")
        self.expect(":")
        return x, self.type_()

    def params(self) -> list[tuple[str, Type]]:
        self.expect("(")
        out = self.commas(self.param) if self.peek().text != ")" else []
        self.expect(")")
        if len({x for x, _ in out}) != len(out):
            raise self.fail("duplicate parameter name")
        return out

    def method_decl(self) -> MethodDecl:
        name = self.ident("method name")
        params = self.params()
        self.expect(":")
        result = self.type_()
        self.expect("requires")
        requires = self.actor_ctx()
        self.expect("produces")
        produces = self.actor_ctx()
        self.expect("measure")
        t = self.peek()
        if t.kind != "NAT":
            raise self.fail("expected a measure", ("natural number",))
        measure = int(self.next().text)
        self.expect("{")
        body = self.expr(frozenset(x for x, _ in params))
        self.expect("}")
        return MethodDecl(name, params, result, requires, produces, measure, body)

    def value_args(self) -> tuple[Value, ...]:
        args = self.vexpr_list(frozenset())
        if not all(isinstance(a, Lit) for a in args):
            raise self.fail("start arguments must be literal values")
        return tuple(a.value for a in args)

    def program(self) -> Program:
        self.monoid = self.grade_decl()
        op_sigs: dict[str, OpSig] = {}
        actors: dict[str, ActorDecl] = {}
        while self.at_ident():
            name = self.ident("declaration name")
            nxt = self.peek().text
            if nxt == "(":
                if name in op_sigs:
                    raise self.fail(f"duplicate operation {name!r}")
                params = self.params()
                self.expect(":")
                op_sigs[name] = OpSig([ty for _, ty in params], self.type_())
            elif nxt == "{":
                if name in actors:
                    raise self.fail(f"duplicate actor {name!r}")
                self.next()
                methods: dict[str, MethodDecl] = {}
                while self.peek().text != "}":
                    m = self.method_decl()
                    if m.name in methods:
                        raise self.fail(f"duplicate method {name}.{m.name}")
                    methods[m.name] = m
                self.expect("}")
                actors[name] = ActorDecl(name, methods)
            else:
                raise self.fail(f"found {nxt!r} after {name!r}", ("(", "{"))
        self.expect("init")
        init_ctx = self.actor_ctx()
        self.expect(";")
        self.expect("start")
        actor = self.ident("actor name")
        self.expect("!")
        method = self.ident("method name")
        args = self.value_args()
        if self.peek().kind != "EOF":
            raise self.fail(f"trailing input {self.peek().text!r}")
        return Program(
            monoid=self.monoid,
            op_sigs=op_sigs,
            actors=actors,
            init_ctx=init_ctx,
            start_actor=actor,
            start_method=method,
            start_args=args,
        )


def parse_program(text: str) -> Program:
    return Parser(text).program()


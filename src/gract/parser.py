"""Concrete syntax for .gract programs.

A program is a grade declaration, primitive operation signatures, actor
declarations whose methods carry explicit requires/produces/measure
annotations, and an init line naming the starting resources and the first
call. Sequencing `e1; e2` is sugar for a let with an unused fresh binder
(one the text does not spell), `ve?` is an await, and `(+)` (or the
unicode circled plus) is the nondeterministic choice.

Graded names resolve lexically: a name bound by a parameter or let is a
variable, an unbound name with a grade is a resource literal, an unbound
bare name stays a variable for the type checker to reject. The parser
resolves no actor, method or resource names.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, Iterator, TypeVar

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

# Each match is a run of skips (spaces, tabs, carriage returns, newlines and
# `//` comments), then one token in the group: an identifier, a numeral, a
# punctuation mark or one stray character, or else the empty end of input.
# In a str pattern `\w` is exactly `str.isalnum()` or '_', and `\d` exactly
# `str.isdecimal()`, the digits `int()` accepts. The identifier alternative
# also matches a non-decimal numeral such as '²' first, and `lex` rejects
# that as a stray character. The group always matches, so the scan never
# backtracks into a skip.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)*"
    r"([^\W\d]\w*|\d+|\(\+\)|⊕|<=|[{}(),:;=!?^]|.|\Z)",
    re.DOTALL,
)


def _kind(tok: str) -> str | None:
    """The kind of a token, read off its first character; None for a
    stray character."""
    c = tok[0]
    if c.isalpha() or c == "_":
        return "IDENT"
    if c.isdecimal():
        return "NAT"
    return "PUNCT" if c in "{}(),:;=!?^" or tok in ("(+)", "<=", "⊕") else None


# How deep expressions and types may nest: each `;`, `let` bound or body,
# and parenthesis (a choice's two branches) opens one expression level, and
# each `fut(` one type level. Checking, running and exploring walk terms
# and types recursively, so this keeps them inside Python's default
# recursion limit.
MAX_NESTING = 256


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


def positions(text: str) -> Iterator[tuple[int, int]]:
    """The line and column of each token of `text`, then of the end of
    input, by a rescan with `_TOKEN`. Both count from 1; a column counts
    characters, a tab as one."""
    line, line_start, prev = 1, 0, 0
    for m in _TOKEN.finditer(text):
        start = m.start(1)
        if breaks := text.count("\n", prev, start):
            line += breaks
            line_start = text.rindex("\n", prev, start) + 1
        prev = start
        yield line, start - line_start + 1


def locate(text: str, i: int) -> tuple[int, int]:
    """The line and column of token `i` of `text`."""
    return next(islice(positions(text), i, None))


def lex(text: str) -> tuple[list[str], list[str]]:
    """The texts and kinds (IDENT, NAT or PUNCT) of the tokens of `text`,
    without the end of input; `⊕` reads as `(+)`. No position is computed
    unless a stray character is found."""
    toks = _TOKEN.findall(text)
    # the end of input matches once, or twice after a final skip
    del toks[toks.index(""):]
    kind = {t: _kind(t) for t in set(toks)}
    kinds = list(map(kind.__getitem__, toks))
    if None in kinds:
        i = kinds.index(None)
        raise ParseError(f"stray character {toks[i][0]!r}", *locate(text, i))
    if "⊕" in kind:
        toks = ["(+)" if t == "⊕" else t for t in toks]
    return toks, kinds


T = TypeVar("T")


class Parser:
    def __init__(self, text: str):
        self.text = text
        toks, kinds = lex(text)
        # three ends of input: peek(2) from the first one needs no clamp
        self.toks = toks + ["", "", ""]
        self.kinds = kinds + ["EOF", "EOF", "EOF"]
        self.pos = 0
        self.monoid: GradeMonoid | None = None
        self.seq_counter = 0
        # the `_s` names the text spells, which `fresh_seq` must not reuse
        self.spelled = {t for t in toks if t.startswith("_s")} if "_s" in text else ()

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> str:
        """The text of the token `ahead` places on; "" at the end of input."""
        return self.toks[self.pos + ahead]

    # callers step over a token they have checked, never the end of input
    def next(self) -> str:
        self.pos += 1
        return self.toks[self.pos - 1]

    def accept(self, text: str) -> bool:
        """Step over the next token if it is `text`."""
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(message, *locate(self.text, self.pos), expected)

    def expect(self, text: str) -> None:
        t = self.toks[self.pos]
        if t != text:
            raise self.fail(f"found {t or 'end of input'!r}", (text,))
        self.pos += 1

    def ident(self, what: str = "name") -> str:
        i = self.pos
        t = self.toks[i]
        if self.kinds[i] != "IDENT":
            raise self.fail(f"expected {what}, found {t or 'end of input'!r}", ("identifier",))
        if t in KEYWORDS:
            raise self.fail(f"keyword {t!r} cannot be used as a {what}")
        self.pos = i + 1
        return t

    def at_ident(self, ahead: int = 0) -> bool:
        i = self.pos + ahead
        return self.kinds[i] == "IDENT" and self.toks[i] not in KEYWORDS

    def commas(self, item: Callable[[], T]) -> list[T]:
        """One item or more, separated by commas."""
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def parens(self, item: Callable[[], T]) -> list[T]:
        """Items separated by commas in parentheses; may be empty."""
        self.expect("(")
        out = self.commas(item) if self.peek() != ")" else []
        self.expect(")")
        return out

    # -- grades and types ----------------------------------------------------

    def grade(self) -> Grade:
        if self.kinds[self.pos] not in ("IDENT", "NAT"):
            raise self.fail("expected a grade", ("grade",))
        assert self.monoid is not None
        try:
            g = self.monoid.parse(self.peek())
        except GradeParseError as err:
            raise self.fail(str(err)) from None
        self.pos += 1
        return g

    # `depth` counts the `fut(` around a type (see MAX_NESTING)
    def type_(self, depth: int = 0) -> Type:
        if depth > MAX_NESTING:
            raise self.fail(f"type nests deeper than {MAX_NESTING}")
        if self.accept("Unit"):
            return UnitT()
        if self.accept("fut"):
            self.expect("(")
            result = self.type_(depth + 1)
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
        while self.at_ident() and self.peek(1) == ":":
            actor = self.ident("actor name")
            self.expect(":")
            env = ctx.setdefault(actor, {})
            while True:
                res = self.ident("resource name")
                self.expect("^")
                g = self.grade()
                assert self.monoid is not None
                env[res] = self.monoid.plus(env[res], g) if res in env else g
                if self.peek() != "," or not self.at_ident(1) or self.peek(2) != "^":
                    break
                self.pos += 1
            if self.peek() != "," or not self.at_ident(1) or self.peek(2) != ":":
                break
            self.pos += 1
        return ctx

    # -- expressions ---------------------------------------------------------

    def fresh_seq(self) -> str:
        """The next `_sN` binder for `e1; e2` that the text does not spell."""
        while True:
            name = f"_s{self.seq_counter}"
            self.seq_counter += 1
            if name not in self.spelled:
                return name

    # `depth` counts the levels around an expression (see MAX_NESTING)
    def expr(self, bound: frozenset[str], depth: int = 0) -> Expr:
        first = self.simple_expr(bound, depth)
        if self.accept(";"):
            rest = self.expr(bound, depth + 1)
            return Let(self.fresh_seq(), first, rest)
        return first

    def simple_expr(self, bound: frozenset[str], depth: int) -> Expr:
        if depth > MAX_NESTING:
            raise self.fail(f"expression nests deeper than {MAX_NESTING}")
        t = self.toks[self.pos]
        if t == "let":
            self.pos += 1
            var = self.ident("variable")
            self.expect("=")
            head = self.simple_expr(bound, depth + 1)
            self.expect("in")
            body = self.expr(bound | {var}, depth + 1)
            return Let(var, head, body)
        if t == "return":
            self.pos += 1
            return Return(self.vexpr(bound))
        if t == "hold":
            self.pos += 1
            return Hold(self.grade(), self.ident("resource name"))
        if t == "release":
            self.pos += 1
            return Release(self.grade(), self.vexpr(bound))
        if t == "(":
            self.pos += 1
            inner = self.expr(bound, depth + 1)
            if self.accept("(+)"):
                right = self.expr(bound, depth + 1)
                self.expect(")")
                return Choice(inner, right)
            self.expect(")")
            return inner
        if self.at_ident():
            nxt = self.peek(1)
            if nxt == "!":
                self.pos += 2
                return Call(t, self.ident("method name"), self.vexpr_list(bound))
            if nxt == "(":
                self.pos += 1
                return PrimOp(t, self.vexpr_list(bound))
        # anything else must be an awaited value expression
        ve = self.vexpr(bound)
        self.expect("?")
        return Await(ve)

    def vexpr_list(self, bound: frozenset[str]) -> tuple[ValueExpr, ...]:
        return tuple(self.parens(lambda: self.vexpr(bound)))

    def vexpr(self, bound: frozenset[str]) -> ValueExpr:
        if self.accept("unit"):
            return Lit(UnitVal())
        if not self.at_ident():
            raise self.fail("expected a value expression", ("identifier", "unit"))
        name = self.next()
        if self.accept("^"):
            g = self.grade()
            return GradedVar(name, g) if name in bound else Lit(GradedRes(name, g))
        # a bound name, or an unbound ungraded one left for the checker to flag
        return Var(name)

    # -- declarations --------------------------------------------------------

    def grade_decl(self) -> GradeMonoid:
        self.expect("grade")
        t = self.peek()
        if t in BUILTIN_MONOIDS:
            self.pos += 1
            return BUILTIN_MONOIDS[t]()
        if self.accept("levels"):
            self.expect("{")
            names = self.commas(lambda: self.ident("level name"))
            order: list[tuple[str, str]] = []
            if self.accept(";"):
                order = self.commas(self.level_order)
            close = self.pos
            self.expect("}")
            try:
                return Level(names, order)
            except LatticeError as err:
                raise ParseError(str(err), *locate(self.text, close)) from None
        raise self.fail(f"unknown grade instance {t or 'end of input'!r}",
                        tuple(BUILTIN_MONOIDS) + ("levels",))

    def level_order(self) -> tuple[str, str]:
        lo = self.ident("level name")
        self.expect("<=")
        return lo, self.ident("level name")

    def param(self) -> tuple[str, Type]:
        x = self.ident("parameter name")
        self.expect(":")
        return x, self.type_()

    def params(self) -> list[tuple[str, Type]]:
        out = self.parens(self.param)
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
        if self.kinds[self.pos] != "NAT":
            raise self.fail("expected a measure", ("natural number",))
        measure = int(self.next())
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
            nxt = self.peek()
            if nxt == "(":
                if name in op_sigs:
                    raise self.fail(f"duplicate operation {name!r}")
                params = self.params()
                self.expect(":")
                op_sigs[name] = OpSig([ty for _, ty in params], self.type_())
            elif nxt == "{":
                if name in actors:
                    raise self.fail(f"duplicate actor {name!r}")
                self.pos += 1
                methods: dict[str, MethodDecl] = {}
                while self.peek() != "}":
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
        if self.peek():
            raise self.fail(f"trailing input {self.peek()!r}")
        return Program(monoid=self.monoid, op_sigs=op_sigs, actors=actors, init_ctx=init_ctx,
                       start_actor=actor, start_method=method, start_args=args)


def parse_program(text: str) -> Program:
    return Parser(text).program()


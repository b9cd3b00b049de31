"""Surface syntax: the bundled corpus, desugaring, errors, round trips."""

from __future__ import annotations

import pytest

from gract.grades import INF, Level, Lin, NatLeq
from gract.parser import ParseError, lex, parse_program
from gract.terms import (
    Await,
    Call,
    Choice,
    Expr,
    GradedRes,
    GradedVar,
    Hold,
    Let,
    Lit,
    PrimOp,
    Release,
    Return,
    UnitVal,
    Var,
)

from corpus import EXAMPLES
from term_helpers import parse_expr

CAFE = (EXAMPLES / "cafe.gract").read_text()


def count_nodes(e: Expr, kind) -> int:
    n = int(isinstance(e, kind))
    if isinstance(e, Let):
        n += count_nodes(e.bound, kind) + count_nodes(e.body, kind)
    elif isinstance(e, Choice):
        n += count_nodes(e.left, kind) + count_nodes(e.right, kind)
    return n


def test_cafe_parses_with_expected_shape():
    prog = parse_program(CAFE)
    assert prog.monoid.name == "lin"
    assert set(prog.op_sigs) == {"makeCoffee", "washCup", "drink"}
    assert list(prog.actors) == ["B", "Cs", "Cn"]
    methods = [m for a in prog.actors.values() for m in a.methods]
    assert sorted(methods) == ["clean", "main", "pickup", "place", "takeOrder"]
    bodies = [m.body for a in prog.actors.values() for m in a.methods.values()]
    assert sum(count_nodes(b, Hold) for b in bodies) == 2
    assert sum(count_nodes(b, Release) for b in bodies) == 2
    assert sum(count_nodes(b, Choice) for b in bodies) == 1
    assert prog.init_ctx == {"B": {"CC": 1}}
    assert (prog.start_actor, prog.start_method) == ("Cs", "main")
    assert prog.start_args == ()


def test_cafe_method_annotations():
    prog = parse_program(CAFE)
    m = prog.actors["Cs"].methods["main"]
    assert m.requires == {"B": {"CC": 1}}
    assert m.produces == {"B": {"CC": 1}}
    assert m.measure == 39
    assert prog.actors["B"].methods["takeOrder"].measure == 12
    assert prog.actors["B"].methods["clean"].requires == {}
    assert prog.actors["Cn"].methods["pickup"].produces == {}


def test_sequencing_is_let_sugar():
    e = parse_expr("f?; return unit", Lin(), bound=frozenset({"f"}))
    assert isinstance(e, Let)
    assert e.bound == Await(Var("f"))
    assert e.body == Return(Lit(UnitVal()))
    assert e.var not in ("f",)


def test_let_body_extends_over_semicolon():
    e = parse_expr("let x = hold 1 r in release 1 x^1; return unit", Lin())
    assert isinstance(e, Let) and e.var == "x"
    assert isinstance(e.body, Let)  # the sequence lives inside the let body
    assert e.body.bound == Release(1, GradedVar("x", 1))


def test_choice_and_ascii_oplus():
    a = parse_expr("(return unit (+) return unit)", Lin())
    b = parse_expr("(return unit ⊕ return unit)", Lin())
    assert a == b == Choice(Return(Lit(UnitVal())), Return(Lit(UnitVal())))


def test_graded_name_resolution_is_lexical():
    e = parse_expr("A!m(x^1, Order^1, z)", Lin(), bound=frozenset({"x"}))
    assert e == Call(
        "A", "m", (GradedVar("x", 1), Lit(GradedRes("Order", 1)), Var("z"))
    )


def test_operation_application():
    e = parse_expr("drink(x^1)", Lin(), bound=frozenset({"x"}))
    assert e == PrimOp("drink", (GradedVar("x", 1),))


def test_grouping_parens():
    e = parse_expr("(return unit)", Lin())
    assert e == Return(Lit(UnitVal()))


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_program("grade lin\nB {\n  m(: Unit\n}\ninit ;\nstart B!m()")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_program("grade wat\ninit ;\nstart A!m()")
    assert "wat" in err.value.message
    assert "lin" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse_program("grade")
    assert ((err.value.line, err.value.col, err.value.message)
            == (1, 6, "unknown grade instance 'end of input'"))
    # machine-generated names such as y#3 are not source syntax
    with pytest.raises(ParseError) as err:
        parse_expr("y#3?", Lin())
    assert (err.value.line, err.value.col) == (1, 2) and "'#'" in err.value.message


def test_duplicate_method_rejected():
    bad = (
        "grade lin\n"
        "A { m(): Unit requires produces measure 0 { return unit }\n"
        "    m(): Unit requires produces measure 0 { return unit } }\n"
        "init ;\nstart A!m()"
    )
    with pytest.raises(ParseError) as err:
        parse_program(bad)
    assert "duplicate" in err.value.message


def test_unresolved_names_parse_fine():
    prog = parse_program("grade lin\ninit ;\nstart A!m()")
    assert prog.actors == {}
    assert prog.start_actor == "A"


def test_level_grade_declaration():
    prog = parse_program(
        "grade levels { none, priv, pub; none <= priv, priv <= pub }\n"
        "A { m(): Unit requires A: r^priv produces measure 0 { return unit } }\n"
        "init A: r^pub;\nstart A!m()"
    )
    assert isinstance(prog.monoid, Level)
    assert prog.monoid.zero() == "none"
    assert prog.init_ctx == {"A": {"r": "pub"}}
    assert prog.actors["A"].methods["m"].requires == {"A": {"r": "priv"}}


def test_bad_lattice_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_program("grade levels { a, b }\ninit ;\nstart A!m()")


def test_natleq_grades_in_types():
    prog = parse_program(
        "grade natLeq\n"
        "A { m(x: r^3): Unit requires A: r^8 produces measure 0 { return unit } }\n"
        "init A: r^inf;\nstart A!m(r^2)"
    )
    assert isinstance(prog.monoid, NatLeq)
    assert prog.init_ctx == {"A": {"r": INF}}
    assert prog.start_args == (GradedRes("r", 2),)


def test_comments_and_whitespace():
    toks, _ = lex("// hi\nreturn unit // bye\n")
    assert toks == ["return", "unit"]


def test_pretty_parse_pretty_is_idempotent_on_corpus():
    for name in ("cafe.gract",):
        text = (EXAMPLES / name).read_text()
        prog = parse_program(text)
        printed = {
            (a, m): str(d.body)
            for a, decl in prog.actors.items()
            for m, d in decl.methods.items()
        }
        for (a, m), s in printed.items():
            scope = frozenset(x for x, _ in prog.actors[a].methods[m].params)
            again = parse_expr(s, prog.monoid, bound=scope)
            assert str(again) == s, (a, m)


def test_start_args_must_be_literals():
    with pytest.raises(ParseError):
        parse_program("grade lin\ninit ;\nstart A!m(x)")

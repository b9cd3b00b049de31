"""Differential tests of the typing kernel.

`typing_kernel_oracle` is the checker's kernel as it was before the flat
rewrite: a class-pattern `match` per node, and every context normalized
again where it is used. The current kernel must give the same typing
(type, contexts with their key order, measure, used variables and
futures), or an error with the same code, location and detail, on gate
8's judgment universe, on judgments with zero grades (the inputs that
need normalizing) or ill-typed arguments, on the method table of every corpus program, and on
the process typing of explored states.
"""

from dataclasses import replace

import pytest

import test_acceptance as gate8
import typing_kernel_oracle as oracle
from gract import grades, typecheck
from gract.explorer import explore
from gract.grades import INF
from gract.parser import parse_program
from gract.terms import (
    ActorDecl,
    Await,
    Call,
    Choice,
    FutRef,
    GradedRes,
    GradedVar,
    Hold,
    Let,
    Lit,
    MethodDecl,
    PrimOp,
    Release,
    Return,
    UnitT,
    UnitVal,
    Var,
    fut_type,
)
from gract.typecheck import CheckError

from corpus import EXAMPLES, TWO_CAFES

DEPTH_2 = 17 + 663      # gate 8's depth-1 and depth-2 expressions come first
STRIDE = 7              # of its 48,399 depth-3 expressions, every 7th


def _ctx(ctx):
    return tuple((a, tuple(env.items())) for a, env in ctx.items())


def _judge(kernel, prog, e, gamma, sigma):
    try:
        t = kernel.type_expr(prog, "A", dict(gamma), dict(sigma), e)
    except CheckError as err:
        return err.code, err.loc, err.detail
    return (t.ty, _ctx(t.requires), _ctx(t.produces), t.measure,
            tuple(t.used_vars.items()), t.used_futs)


def _mismatches(prog, exprs, contexts, fresh=False):
    """Judgments where the kernel and the oracle differ. With `fresh`, the
    kernel types each judgment in a new copy of `prog`, whose premise
    table starts empty; otherwise one table serves every judgment."""
    out = []
    for e in exprs:
        for gamma, sigma in contexts:
            got = _judge(typecheck, replace(prog) if fresh else prog, e, gamma, sigma)
            want = _judge(oracle, prog, e, gamma, sigma)
            if got != want:
                out.append((str(e), gamma, sigma, got, want))
    return out


def _gate8_slice():
    universe = gate8._universe()
    return universe[:DEPTH_2] + universe[DEPTH_2::STRIDE]


def test_gate8_universe_slice_types_alike():
    prog = gate8._oracle_program()
    assert _mismatches(prog, _gate8_slice(), gate8._contexts()) == []
    # one warm table: each depth-2 premise once in each of the six contexts
    assert len(prog.premises) == 663 * 6


def test_gate8_universe_slice_types_alike_with_fresh_tables():
    prog = gate8._oracle_program()
    assert _mismatches(prog, _gate8_slice(), gate8._contexts(), fresh=True) == []
    assert prog.premises == {}


def _zero_program():
    """Gate 8's program plus a method whose declared contexts hold zero
    grades, which a call site must not pass on."""
    prog = gate8._oracle_program()
    m2 = MethodDecl("m2", [], UnitT(), {"B": {"R": 0, "S": 1}}, {"A": {"S": 0}, "B": {"R": 1}},
                    1, Return(Lit(UnitVal())))
    b = prog.actors["B"]
    return replace(prog, actors={**prog.actors,
                                 "B": ActorDecl("B", {**b.methods, "m2": m2})})


def test_zero_grades_and_bad_arguments_type_alike():
    edges = [
        Hold(0, "R"),
        Release(0, Lit(GradedRes("R", INF))),
        Release(0, GradedVar("x", 1)),
        Await(Var("y0")),
        Call("B", "m2", ()),
        # rejections gate 8 does not reach
        Call("B", "m1", (Lit(UnitVal()),)),
        Call("B", "m1", (Lit(GradedRes("S", 1)),)),
        Call("B", "m1", ()),
        Call("B", "m9", ()),
        PrimOp("brew", (Lit(UnitVal()),)),
        PrimOp("brew", ()),
        PrimOp("grind", ()),
        Release(1, Var("u")),
        Await(Lit(UnitVal())),
        Return(Lit(FutRef("g"))),
    ]
    atoms = edges + gate8._atoms()
    exprs = edges + [Let("z", a, b) for a in atoms for b in atoms] + \
        [Choice(a, b) for a in atoms for b in atoms]
    # a future type may spell a zero grade; an await passes it on as is
    contexts = gate8._contexts() + [({"y0": fut_type(UnitT(), {"B": {"S": 0}})}, {})]
    assert _mismatches(_zero_program(), exprs, contexts) == []


CORPUS = sorted(p.name for p in EXAMPLES.glob("*.gract"))


@pytest.mark.parametrize("name", CORPUS + ["two-cafes"])
def test_method_table_reports_alike(name):
    text = TWO_CAFES if name == "two-cafes" else (EXAMPLES / name).read_text()
    prog = parse_program(text)
    got, want = typecheck.check_method_table(prog), oracle.check_method_table(prog)
    # repr pins key order too
    assert repr(got) == repr(want)


def _process_typing(prog, processes):
    try:
        return typecheck.type_process(prog, processes)
    except CheckError as err:
        return err.code, err.loc, err.detail


@pytest.mark.parametrize("name", ["cafe.gract", "clearance.gract"])
def test_process_typings_alike(monkeypatch, name):
    prog = parse_program((EXAMPLES / name).read_text())
    states = explore(prog, unfold=2).visited
    lists = [cfg.processes for cfg in states]
    # reversed, most lists consume futures before producing them
    lists += [ps[::-1] for ps in lists]
    got = [_process_typing(prog, ps) for ps in lists]
    monkeypatch.setattr(typecheck, "_type_atomic", oracle._type_atomic)
    # a program whose typing table is empty, so the oracle types every process
    prog = parse_program((EXAMPLES / name).read_text())
    want = [_process_typing(prog, ps) for ps in lists]
    assert len(got) == 2 * len(states) and got == want
    # a rejection is a plain (code, loc, detail) tuple; ProcTyping is a tuple too
    assert any(type(t) is tuple for t in got)
    assert any(isinstance(t, typecheck.ProcTyping) for t in got)


def test_universe_slice_normalizes_few_contexts(monkeypatch):
    """Timing-free guard: contexts are built normal, so gate 8's depth-1
    and depth-2 judgments call ctx_norm 1,246 times (5,603 when every
    result was normalized again)."""
    calls = 0
    real = grades.ctx_norm

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(grades, "ctx_norm", counted)
    monkeypatch.setattr(typecheck, "ctx_norm", counted)
    prog = gate8._oracle_program()
    accepted = 0
    for e in gate8._universe()[:DEPTH_2]:
        for gamma, sigma in gate8._contexts():
            try:
                typecheck.type_expr(prog, "A", dict(gamma), dict(sigma), e)
                accepted += 1
            except CheckError:
                pass
    assert accepted == 303
    assert 0 < calls < 1500

"""Structure-level checks: future sets, well-formedness, renaming, hashing."""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

from gract.explorer import explore
from gract.grades import Lin
from gract.parser import parse_program
from gract.terms import (
    Thread,
    PrimOp,
    ValueExpr,
    Await,
    Call,
    Choice,
    Configuration,
    FulfilledFut,
    FutRef,
    GradedRes,
    GradedVar,
    Hold,
    Idle,
    Let,
    Lit,
    Release,
    Return,
    UnitVal,
    Value,
    CallMsg,
    Var,
    calls_in,
    free_vars,
    futures_consumed_one,
    futures_in_expr,
    rename_var,
    well_formed,
    with_entry,
)

from corpus import EXAMPLES, NATEQ_BARISTA, TWO_CAFES
from term_helpers import (
    config_of,
    fresh_future,
    fresh_var,
    futures_consumed,
    futures_produced,
    futures_produced_one,
)

u = Lit(UnitVal())


def test_produced_futures_per_process():
    assert futures_produced_one(FulfilledFut("f", UnitVal())) == {"f"}
    assert futures_produced([]) == set()
    ps = [CallMsg("f", "a", "m", ()), Thread({}, Return(u), "g", "b")]
    assert futures_produced(ps) == {"f", "g"}
    assert futures_produced_one(Idle("a")) == set()


def test_consumed_futures_per_process():
    th = Thread({"y": FutRef("f")}, Await(Var("y")), "g", "a")
    assert futures_consumed_one(th) == {"f"}
    assert futures_consumed_one(FulfilledFut("f", UnitVal())) == set()
    # a future produced on the left shadows its occurrences on the right
    assert futures_consumed([FulfilledFut("f", UnitVal()), th]) == set()
    assert futures_consumed([th, FulfilledFut("f", UnitVal())]) == {"f"}
    assert futures_consumed_one(CallMsg("g", "a", "m", (FutRef("h"),))) == {"h"}


def test_future_sets_flatten_like_the_binary_tree():
    atoms = [
        FulfilledFut("f1", FutRef("f9")),
        Thread({"x": FutRef("f1")}, Await(Var("x")), "f2", "a"),
        CallMsg("f3", "b", "m", (FutRef("f2"),)),
        Idle("c"),
        Thread({}, Await(Lit(FutRef("f3"))), "f4", "d", suspended=True),
    ]

    def tree_fp(node):
        if isinstance(node, tuple):
            return tree_fp(node[0]) | tree_fp(node[1])
        return futures_produced_one(node)

    def tree_fr(node):
        if isinstance(node, tuple):
            return tree_fr(node[0]) | (tree_fr(node[1]) - tree_fp(node[0]))
        return futures_consumed_one(node)

    def random_tree(items, rng):
        if len(items) == 1:
            return items[0]
        k = rng.randrange(1, len(items))
        return (random_tree(items[:k], rng), random_tree(items[k:], rng))

    rng = random.Random(7)
    for _ in range(50):
        tree = random_tree(atoms, rng)
        assert tree_fp(tree) == futures_produced(atoms)
        assert tree_fr(tree) == futures_consumed(atoms)


def test_well_formed_one_active_or_idle():
    two_active = config_of(
        {},
        [
            Thread({}, Return(u), "f", "a"),
            Thread({}, Return(u), "g", "a"),
        ],
    )
    assert any("a" in p for p in well_formed(two_active.processes))

    ok = config_of(
        {},
        [Idle("a"), Thread({}, Return(u), "f", "a", suspended=True)],
    )
    assert well_formed(ok.processes) == []

    dup = config_of(
        {},
        [FulfilledFut("f", UnitVal()), FulfilledFut("f", UnitVal()), Idle("a")],
    )
    assert any("f" in p for p in well_formed(dup.processes))

    both = config_of(
        {},
        [Idle("a"), Thread({}, Return(u), "f", "a")],
    )
    assert well_formed(both.processes) != []


def test_well_formed_counts_an_actor_seen_only_through_suspended_threads():
    waiting = config_of(
        {},
        [Thread({}, Return(u), "f", "a", suspended=True),
         Thread({}, Return(u), "g", "a", suspended=True), Idle("b")],
    )
    assert well_formed(waiting.processes) == ["actor a has 0 active threads and 0 idle markers"]


def test_rename_respects_shadowing():
    e = Let("x", Return(Var("x")), Return(GradedVar("x", 1)))
    r = rename_var(e, "x", "z")
    assert r == Let("x", Return(Var("z")), Return(GradedVar("x", 1)))
    assert free_vars(e) == {"x"}
    assert free_vars(Choice(Return(Var("a")), Hold(1, "r"))) == {"a"}
    assert free_vars(Let("x", Call("A", "m", (Var("w"),)), Release(1, Var("x")))) == {"w"}


def _rename_by_patterns(e, old, new):
    """The pattern-matching renaming that `rename_var` replaced."""
    def ve(v):
        match v:
            case Var(name) if name == old:
                return Var(new)
            case GradedVar(name, g) if name == old:
                return GradedVar(new, g)
        return v

    match e:
        case Call(a, m, args):
            return Call(a, m, tuple(ve(x) for x in args))
        case Await(t):
            return Await(ve(t))
        case Release(g, t):
            return Release(g, ve(t))
        case PrimOp(op, args):
            return PrimOp(op, tuple(ve(x) for x in args))
        case Choice(l, r):
            return Choice(_rename_by_patterns(l, old, new), _rename_by_patterns(r, old, new))
        case Return(v):
            return Return(ve(v))
        case Let(x, bound, body):
            bound = _rename_by_patterns(bound, old, new)
            return Let(x, bound, body if x == old else _rename_by_patterns(body, old, new))
    return e


def _subexpressions(e):
    yield e
    for child in {Let: ("bound", "body"), Choice: ("left", "right")}.get(type(e), ()):
        yield from _subexpressions(getattr(e, child))


def test_rename_matches_the_pattern_matching_original():
    texts = [p.read_text() for p in sorted(EXAMPLES.glob("*.gract"))] + [TWO_CAFES]
    checked = 0
    for text in texts:
        for actor in parse_program(text).actors.values():
            for decl in actor.methods.values():
                binders = {x.var for x in _subexpressions(decl.body) if type(x) is Let}
                for e in _subexpressions(decl.body):
                    for old in sorted(free_vars(e) | binders | {"q"}):
                        assert rename_var(e, old, "y#0") == _rename_by_patterns(e, old, "y#0")
                        checked += 1
    assert checked > 200


def _walks_by_patterns(e):
    """Free variables, futures and calls of `e` by the pattern-matching
    walks that the queries over `terms.parts` replaced."""
    def ve(v):
        match v:
            case Var(name) | GradedVar(name, _):
                return {name}, set()
            case Lit(FutRef(name)):
                return set(), {name}
        return set(), set()

    match e:
        case Call(_, _, args) | PrimOp(_, args):
            found = [ve(a) for a in args]
            calls = {(e.actor, e.method)} if type(e) is Call else set()
            return (set().union(*(f[0] for f in found)), set().union(*(f[1] for f in found)),
                    calls)
        case Await(t) | Release(_, t) | Return(t):
            return (*ve(t), set())
        case Hold():
            return set(), set(), set()
        case Choice(l, r):
            a, b = _walks_by_patterns(l), _walks_by_patterns(r)
            return a[0] | b[0], a[1] | b[1], a[2] | b[2]
        case Let(x, bound, body):
            a, b = _walks_by_patterns(bound), _walks_by_patterns(body)
            return a[0] | (b[0] - {x}), a[1] | b[1], a[2] | b[2]


def _corpus_expressions():
    """Every subexpression of the corpus's method bodies and of the
    threads an exploration of the natEq barista stores."""
    exprs = []
    for text in [p.read_text() for p in sorted(EXAMPLES.glob("*.gract"))] + [TWO_CAFES]:
        prog = parse_program(text)
        for actor in prog.actors.values():
            for decl in actor.methods.values():
                exprs += _subexpressions(decl.body)
    # explored threads hold runtime expressions, with futures in them
    barista = parse_program(NATEQ_BARISTA)
    for config in explore(barista, unfold=2, max_states=300).visited:
        for p in config.processes:
            if type(p) is Thread:
                exprs += _subexpressions(p.expr)
    return exprs


def test_walks_over_parts_match_the_pattern_matching_originals():
    exprs = _corpus_expressions()
    assert len(exprs) > 1000 and any(futures_in_expr(e) for e in exprs)
    for e in exprs:
        assert (free_vars(e), futures_in_expr(e), calls_in(e)) == _walks_by_patterns(e)


def test_rename_returns_a_node_without_the_variable_as_it_is():
    """Renaming a variable that is not free in a node builds nothing; one
    that is free builds a new node, whose free variables are the renamed
    ones."""
    shared = renamed = 0
    for e in _corpus_expressions():
        free = free_vars(e)
        assert type(free) is frozenset and free_vars(e) is free  # computed once, kept
        binders = {x.var for x in _subexpressions(e) if type(x) is Let}
        for old in sorted(free | binders | {"q"}):
            r = rename_var(e, old, "y#0")
            if old in free:
                assert r is not e and free_vars(r) == free - {old} | {"y#0"}
                renamed += 1
            else:
                assert r is e
                shared += 1
    assert shared > 1000 and renamed > 1000


def _with_entry_by_dict(pairs, key, value):
    """The sorted dict round-trip that `with_entry`'s splice replaced."""
    return tuple(sorted({**dict(pairs), key: value}.items()))


# sorted pair tuples as `alpha` (str keys) and `call_counts` ((actor, method) keys) hold them
_SORTED_ITEMS = st.one_of(
    st.dictionaries(st.text("abc", max_size=3), st.integers(), min_size=1, max_size=6),
    st.dictionaries(st.tuples(st.text("ab", max_size=2), st.text("ab", max_size=2)),
                    st.integers(), min_size=1, max_size=6),
).map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=300, deadline=None)
@given(items=_SORTED_ITEMS, at=st.integers(0, 5), value=st.integers())
@example(items=(("a", 1),), at=0, value=2)  # into an empty tuple
@example(items=(("a", 1), ("b", 2), ("c", 3)), at=0, value=4)  # at the front
@example(items=(("a", 1), ("b", 2), ("c", 3)), at=1, value=4)  # in the middle
@example(items=((("A", "m"), 1), (("B", "m"), 2), (("B", "n"), 3)), at=2, value=4)  # at the end
def test_with_entry_splices_as_the_sorted_dict_did(items, at, value):
    """Inserting the entry at `at` into the pairs without it, and replacing
    its value in the pairs with it, each give what the dict round-trip
    gives, sharing every untouched pair."""
    at %= len(items)
    key, old = items[at]
    without = items[:at] + items[at + 1:]
    for pairs, v in ((without, old), (items, value)):
        got = with_entry(pairs, key, v)
        assert got == _with_entry_by_dict(pairs, key, v)
        assert all(p is q for p, q in zip(got[:at] + got[at + 1:], without))


def test_fresh_names_are_monotone():
    c = Configuration((), ())
    f0, c = fresh_future(c)
    f1, c = fresh_future(c)
    y0, c = fresh_var(c)
    assert (f0, f1, y0) == ("f#0", "f#1", "y#0")
    f2, d = fresh_future(c)
    assert (f2, d.next_future) == ("f#2", 3)
    assert c.next_future == 2  # the successor does not feed back


def test_printing_forms():
    assert str(Hold(1, "CC")) == "hold 1 CC"
    assert str(Release(1, GradedVar("cc", 1))) == "release 1 cc^1"
    assert str(Lit(GradedRes("Order", float("inf")))) == "Order^inf"
    assert str(Await(Var("f1"))) == "f1?"
    seq = Let("_s0", Await(Var("f")), Return(u))
    assert str(seq) == "f?; return unit"
    named = Let("x", Await(Var("f")), Return(Var("x")))
    assert str(named) == "let x = f? in return x"


class _CountedLeaf(ValueExpr):
    """A value expression that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        _CountedLeaf.hashed += 1
        return 7

    def __repr__(self):
        return "leaf"


def test_syntax_nodes_hash_once():
    leaf = _CountedLeaf()
    e = Choice(Let("x", Return(leaf), Await(Var("x"))),
               Call("B", "m", (leaf, GradedVar("y", 1))))
    assert hash(e) == hash(e)
    assert _CountedLeaf.hashed == 2  # once per parent node holding it
    hash(e.left)
    hash(e.right)
    assert _CountedLeaf.hashed == 2
    # the value the frozen dataclass would compute, so hash order stays
    assert hash(e) == hash((e.left, e.right))
    assert hash(e.right) == hash(("B", "m", (leaf, GradedVar("y", 1))))


class _CountedValue(Value):
    """A value that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        _CountedValue.hashed += 1
        return 11


def test_processes_hash_once():
    v = _CountedValue()
    procs = [Thread({"x": v}, Return(Var("x")), "f#1", "A"),
             Thread({"x": v}, Return(Var("x")), "f#1", "A", suspended=True),
             CallMsg("f#2", "B", "m", (v,)), FulfilledFut("f#3", v), Idle("A")]
    for p in procs:
        assert hash(p) == hash(p)
    assert _CountedValue.hashed == 4  # once per process holding it
    assert procs[-1]._hash == hash(("A",))


def test_a_twin_differs_only_in_the_flag_and_keeps_the_hash():
    v = _CountedValue()
    before = _CountedValue.hashed
    t = Thread({"x": v}, Return(Var("x")), "f#1", "A")
    s = t.twin(suspended=True)
    assert s == Thread({"x": v}, Return(Var("x")), "f#1", "A", suspended=True) != t
    assert hash(s) == hash(t) and s.twin(suspended=False) == t
    assert _CountedValue.hashed == before + 1  # t's hash, computed once for both


def test_cached_hash_leaves_equality_repr_and_str_alone():
    nodes = [Let("x", Hold(1, "R"), Release(1, GradedVar("x", 1))),
             PrimOp("brew", (Lit(GradedRes("R", 1)),)), Return(u), Var("v")]
    fresh = [Let("x", Hold(1, "R"), Release(1, GradedVar("x", 1))),
             PrimOp("brew", (Lit(GradedRes("R", 1)),)), Return(Lit(UnitVal())), Var("v")]
    texts = [(repr(n), str(n)) for n in nodes]
    for n in nodes:
        hash(n)
    assert [(repr(n), str(n)) for n in nodes] == texts
    assert "_hash" not in repr(nodes[0])
    assert nodes == fresh and {*nodes} == {*fresh}


"""Law suite for the grade algebras.

The subtraction laws split in two tiers. Every instance must be an ordered
commutative monoid with a monotone, exact partial subtraction that takes
back what plus split off ("split then hold") and that the checker can apply
wherever it subtracts. The adjunction, and a grade's residual from itself
being discardable, hold on the bounded naturals, the linearity and affinity
grades and level lattices; on the exact-usage naturals both fail at
inf - inf, so that instance is excluded from that tier and pinned by
direct examples instead. Random level lattices are checked on both tiers.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gract.grades import (
    INF,
    Affine,
    GradeParseError,
    LatticeError,
    Level,
    Lin,
    NatExact,
    NatLeq,
    ctx_minus,
    ctx_norm,
    ctx_plus,
    format_grade,
)

from corpus import PlantedNatExact
from term_helpers import carrier_sample


def privacy() -> Level:
    return Level(["none", "priv", "pub"], [("none", "priv"), ("priv", "pub")])


def diamond() -> Level:
    return Level(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )


@st.composite
def lattices(draw) -> Level:
    """A random level lattice: subsets of {0, 1, 2}, the whole set among
    them, closed under intersection and ordered by inclusion. The diamond
    M3 and the pentagon N5 are among them. The least set is the bottom."""
    sets = {frozenset(range(3))}
    for s in draw(st.lists(st.frozensets(st.integers(0, 2)), max_size=5)):
        sets |= {s & t for t in sets}
    name = {s: "l" + "".join(map(str, sorted(s))) for s in sets}
    ordered = sorted(sets, key=lambda s: (len(s), sorted(s)))
    return Level([name[s] for s in ordered],
                 [(name[a], name[b]) for a, b in product(sets, repeat=2) if a < b])


ALL = [NatExact(), NatLeq(), Lin(), Affine(), privacy(), diamond()]
SUBTRACTIVE = [NatLeq(), Lin(), Affine(), privacy(), diamond()]

all_m = pytest.mark.parametrize("m", ALL, ids=lambda m: m.name)
sub_m = pytest.mark.parametrize("m", SUBTRACTIVE, ids=lambda m: m.name)


# -- ordered commutative monoid laws, every instance --------------------------


@all_m
def test_partial_order(m):
    S = carrier_sample(m)
    for g in S:
        assert m.leq(g, g)
    for g, h in product(S, repeat=2):
        if m.leq(g, h) and m.leq(h, g):
            assert g == h
    for g, h, k in product(S, repeat=3):
        if m.leq(g, h) and m.leq(h, k):
            assert m.leq(g, k)


@all_m
def test_commutative_monoid(m):
    S = carrier_sample(m)
    z = m.zero()
    for g in S:
        assert m.plus(g, z) == g
        assert m.plus(z, g) == g
    for g, h in product(S, repeat=2):
        assert m.plus(g, h) == m.plus(h, g)
    for g, h, k in product(S, repeat=3):
        assert m.plus(m.plus(g, h), k) == m.plus(g, m.plus(h, k))


@all_m
def test_plus_monotone(m):
    S = carrier_sample(m)
    for g, g2, h in product(S, repeat=3):
        if m.leq(g, g2):
            assert m.leq(m.plus(g, h), m.plus(g2, h))


@all_m
def test_nothing_below_zero(m):
    for g in carrier_sample(m):
        if m.leq(g, m.zero()):
            assert g == m.zero()


@all_m
def test_minus_monotone_in_total(m):
    # definedness is upward closed in the total, and the residual grows with it
    S = carrier_sample(m)
    for g, h, h2 in product(S, repeat=3):
        d = m.minus(h, g)
        if d is not None and m.leq(h, h2):
            d2 = m.minus(h2, g)
            assert d2 is not None
            assert m.leq(d, d2)


@all_m
def test_minus_exactness(m):
    # adding back what was subtracted restores the total exactly; the
    # usage-inference checker cancels flows on the strength of this
    S = carrier_sample(m)
    for g, h in product(S, repeat=2):
        d = m.minus(h, g)
        if d is not None:
            assert m.plus(g, d) == h


@all_m
def test_split_then_hold(m):
    # the checker splits a held grade with plus; after one share g is taken
    # back from g + h, the other share h can be taken back too
    S = carrier_sample(m)
    for g, h in product(S, repeat=2):
        d = m.minus(m.plus(g, h), g)
        assert d is not None and m.minus(d, h) is not None, (g, h, d)


@all_m
def test_minus_antitone_in_used(m):
    S = carrier_sample(m)
    for g, g2, h in product(S, repeat=3):
        d = m.minus(h, g)
        if d is not None and m.leq(g2, g):
            d2 = m.minus(h, g2)
            assert d2 is not None
            assert m.leq(d, d2)


@all_m
def test_minus_splits_sums(m):
    S = carrier_sample(m)
    for g1, g2, h in product(S, repeat=3):
        one = m.minus(h, m.plus(g1, g2))
        first = m.minus(h, g1)
        two = None if first is None else m.minus(first, g2)
        assert one == two


@all_m
def test_zero_sum_inverses(m):
    S = carrier_sample(m)
    z = m.zero()
    for g, h in product(S, repeat=2):
        assert (m.plus(g, h) == z) == (m.minus(z, g) == h)


@all_m
def test_leq_gives_defined_residual(m):
    # an argument's surplus over its parameter's grade can be worked out
    S = carrier_sample(m)
    for g, h in product(S, repeat=2):
        if m.leq(g, h):
            assert m.minus(h, g) is not None, (g, h)


@all_m
def test_minus_zero_is_identity(m):
    for g in carrier_sample(m):
        assert m.minus(g, m.zero()) == g


@all_m
def test_meet_subtracts_from_both(m):
    # a let cancels the meet of what its bound frees and its body needs
    S = carrier_sample(m)
    for g, h in product(S, repeat=2):
        c = m.meet(g, h)
        assert m.minus(g, c) is not None and m.minus(h, c) is not None, (g, h, c)


# -- adjunction tier ----------------------------------------------------------
# natEq fails each of these at inf - inf only: inf + 3 == inf, yet the
# residual inf - inf is inf, which is neither 3 nor discardable.


@sub_m
def test_adjunction(m):
    S = carrier_sample(m)
    for g, h, h2 in product(S, repeat=3):
        lhs = m.leq(m.plus(g, h2), h)
        d = m.minus(h, g)
        rhs = d is not None and m.leq(h2, d)
        assert lhs == rhs, (g, h, h2, d)


@sub_m
def test_residual_of_sum(m):
    # (g + h) - g is defined, bounds h from above, and minus underapproximates
    S = carrier_sample(m)
    for g, h in product(S, repeat=2):
        d = m.minus(m.plus(g, h), g)
        assert d is not None
        assert m.leq(h, d)
        back = m.minus(h, g)
        if back is not None:
            assert m.leq(m.plus(g, back), h)


@sub_m
def test_self_and_zero_subtraction(m):
    for g in carrier_sample(m):
        d = m.minus(g, g)
        assert d is not None and m.is_discardable(d)
        assert m.minus(g, m.zero()) == g


@sub_m
def test_leq_gives_discardable_residual(m):
    S = carrier_sample(m)
    for g, h in product(S, repeat=2):
        if m.leq(g, h):
            d = m.minus(h, g)
            assert d is not None and m.is_discardable(d)


# -- random lattices and the planted algebra -----------------------------------

LAWS = [test_partial_order, test_commutative_monoid, test_plus_monotone,
        test_nothing_below_zero, test_minus_monotone_in_total, test_minus_exactness,
        test_split_then_hold, test_minus_antitone_in_used, test_minus_splits_sums,
        test_zero_sum_inverses, test_leq_gives_defined_residual, test_minus_zero_is_identity,
        test_meet_subtracts_from_both, test_adjunction, test_residual_of_sum,
        test_self_and_zero_subtraction, test_leq_gives_discardable_residual]


@settings(max_examples=40, deadline=None)
@given(lattices())
def test_random_lattices_keep_every_law(m):
    for law in LAWS:
        law(m)


def test_the_planted_algebra_breaks_split_then_hold():
    # natEq with the subtraction it once had cannot take back a split share
    m = PlantedNatExact()
    assert m.minus(m.plus(1, 1), 1) is None
    with pytest.raises(AssertionError):
        test_split_then_hold(m)


# -- pinned instance facts ----------------------------------------------------


def test_lin_tables():
    m = Lin()
    assert m.plus(1, 1) == INF
    assert m.minus(INF, 1) == INF
    assert m.minus(1, 1) == 0
    assert m.minus(0, 1) is None
    assert m.minus(1, INF) is None
    assert m.is_discardable(INF) and not m.is_discardable(1)
    assert not m.leq(0, 1) and m.leq(1, INF)


def test_affine_extends_lin():
    m = Affine()
    assert m.leq(0, 1)
    assert m.is_discardable(1)
    for g, h in product([0, 1, INF], repeat=2):
        assert m.minus(g, h) == Lin().minus(g, h)


def test_natleq_minus_matches_sup_oracle():
    m = NatLeq()
    S = carrier_sample(m)
    for x, y in product(S, repeat=2):
        # largest z in the carrier slice with x + z <= y, if any
        best = None
        for z in S:
            if m.leq(m.plus(x, z), y):
                best = z if best is None or m.leq(best, z) else best
        got = m.minus(y, x)
        if best is None:
            assert got is None
        else:
            assert got is not None and m.leq(best, got)
            assert m.leq(m.plus(x, got), y)
    assert m.minus(5, 3) == 2
    assert m.minus(INF, 7) == INF
    assert m.minus(3, 5) is None


def test_natexact_design_table():
    m = NatExact()
    assert m.minus(5, 5) == 0
    assert m.minus(INF, 5) == INF
    assert m.minus(INF, INF) == INF
    assert m.minus(5, 3) == 2
    assert not m.leq(3, 5)
    assert not m.is_discardable(2)


def test_level_subtraction_iff_below():
    m = privacy()
    for x, y in product(m.names, repeat=2):
        d = m.minus(y, x)
        if m.leq(x, y):
            assert d == y
        else:
            assert d is None
    assert m.plus("priv", "pub") == "pub"
    assert m.zero() == "none"


def test_level_validation():
    with pytest.raises(LatticeError):
        Level(["a", "b"], [])  # no join for a, b
    with pytest.raises(LatticeError):
        Level(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(LatticeError):
        Level(["a", "b", "c"], [("b", "c"), ("a", "c")])  # a not below b
    with pytest.raises(LatticeError):
        Level(["a", "a"], [])


def test_diamond_meet_and_join():
    m = diamond()
    assert m.plus("l", "r") == "top"
    assert m.meet("l", "r") == "bot"
    assert m.meet("top", "l") == "l"


def test_parse_format_round_trip():
    for m in ALL:
        for g in carrier_sample(m):
            assert m.parse(format_grade(g)) == g
    with pytest.raises(GradeParseError):
        NatLeq().parse("pub")
    with pytest.raises(GradeParseError):
        Lin().parse("2")
    with pytest.raises(GradeParseError):
        privacy().parse("secret")


def test_meet_is_glb_when_one_exists():
    for m in ALL:
        S = carrier_sample(m)
        for g, h in product(S, repeat=2):
            lowers = [x for x in S if m.leq(x, g) and m.leq(x, h)]
            greatest = [x for x in lowers if all(m.leq(y, x) for y in lowers)]
            if greatest:
                assert m.meet(g, h) == greatest[0]
            else:
                assert m.meet(g, h) == m.zero()


# -- context lifts ------------------------------------------------------------

lin_env = st.dictionaries(st.sampled_from(["r", "s"]), st.sampled_from([0, 1, INF]), max_size=2)
lin_ctx = st.dictionaries(st.sampled_from(["A", "B"]), lin_env, max_size=2)


@given(lin_ctx, lin_ctx)
def test_ctx_plus_commutes(a, b):
    m = Lin()
    assert ctx_plus(m, a, b) == ctx_plus(m, b, a)


@given(lin_ctx, lin_ctx, lin_ctx)
def test_ctx_plus_associates(a, b, c):
    m = Lin()
    assert ctx_plus(m, ctx_plus(m, a, b), c) == ctx_plus(m, a, ctx_plus(m, b, c))


@given(lin_ctx)
def test_ctx_zero_normalises(a):
    m = Lin()
    assert ctx_plus(m, a, {}) == ctx_norm(m, a)
    assert ctx_norm(m, a) == ctx_norm(m, ctx_norm(m, a))


@given(lin_ctx, lin_ctx)
def test_ctx_minus_exact(a, b):
    m = Lin()
    d = ctx_minus(m, a, b)
    if d is not None:
        assert ctx_norm(m, ctx_plus(m, b, d)) == ctx_norm(m, a)


@given(lin_ctx, lin_ctx)
def test_ctx_minus_defined_when_covered(a, b):
    m = Lin()
    if ctx_minus(m, a, b) is None:
        assert not all(m.leq(g, a.get(actor, {}).get(r, m.zero()))
                       for actor, env in b.items() for r, g in env.items())


def test_env_absent_is_zero():
    m = Lin()
    assert ctx_plus(m, {"A": {"r": 1}}, {"A": {"r": 1}}) == {"A": {"r": INF}}
    assert ctx_minus(m, {"A": {"r": 1}}, {"A": {"r": 1}}) == {}
    assert ctx_minus(m, {}, {"A": {"r": 1}}) is None
    assert ctx_minus(m, {"A": {"r": 1, "s": INF}}, {"A": {"r": 1}}) == {"A": {"s": INF}}

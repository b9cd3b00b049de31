"""Grade algebras: ordered commutative monoids with a partial subtraction.

A grade measures how much of a resource a program may use: nothing, exactly
once, at most once, without restriction, or at a level drawn from a finite
lattice. Grades form an ordered commutative monoid whose only element below
zero is zero itself. Consumption is modelled by a partial subtraction:
minus(h, g) is what is left of h once g is taken from it, or None where h
does not cover g.

The checker and the machine agree only where an algebra keeps the laws
their rules rely on. README's "Which law each grade operation relies on"
states the seven laws and names the one each call site relies on; every
shipped instance keeps all seven, and tests/test_grades.py checks them.

Grades are plain values (ints, the float infinity, or level names as
strings); each monoid instance owns their interpretation, ordering and
syntax.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional, Union

Grade = Union[int, float, str]

INF: float = float("inf")


class GradeParseError(ValueError):
    """A grade literal that the active monoid does not recognise."""


class LatticeError(ValueError):
    """A level declaration that is not a join-semilattice with a bottom."""


class GradeMonoid:
    """Interface shared by all grade algebras.

    Subclasses provide zero, plus, leq, minus and meet over their carrier,
    and releasable(g, held): whether what is held at `held` may be released
    or used at g (leq where any part of a grade may go).
    minus returns None where the subtraction is undefined; it never raises.
    """

    name: str = "?"

    def zero(self) -> Grade:
        raise NotImplementedError

    def plus(self, g: Grade, h: Grade) -> Grade:
        raise NotImplementedError

    def leq(self, g: Grade, h: Grade) -> bool:
        raise NotImplementedError

    def minus(self, total: Grade, used: Grade) -> Optional[Grade]:
        """total - used, or None when the consumption is not covered."""
        raise NotImplementedError

    def meet(self, g: Grade, h: Grade) -> Grade:
        """Greatest lower bound; falls back to zero when none exists."""
        raise NotImplementedError

    def is_discardable(self, g: Grade) -> bool:
        return self.leq(self.zero(), g)

    def parse(self, text: str) -> Grade:
        raise NotImplementedError


class _NatBase(GradeMonoid):
    """Shared syntax, addition and subtraction for the extended naturals.
    minus(h, g) cancels a summand: it is the k with g + k == h (inf when
    both are inf), defined exactly when g <= h in the usual order."""

    def zero(self) -> Grade:
        return 0

    def plus(self, g: Grade, h: Grade) -> Grade:
        if g == INF or h == INF:
            return INF
        return g + h

    def minus(self, total: Grade, used: Grade) -> Optional[Grade]:
        if used > total:
            return None
        if total == INF:
            return INF
        return total - used

    def parse(self, text: str) -> Grade:
        if text == "inf":
            return INF
        if text.isdecimal():  # the digits int() accepts; '²' is a digit but not decimal
            return int(text)
        raise GradeParseError(f"not a {self.name} grade: {text!r}")


class NatExact(_NatBase):
    """Extended naturals under the equality order: exact usage tracking.

    A grade held once may be split by plus among several users, and each
    takes its share back by the naturals' cancellation, so every user
    uses exactly what it declares. Under the equality order the adjunction
    (g + k <= h exactly when k <= h - g) fails only at inf - inf: inf + 1
    == inf, yet 1 is not inf - inf. README's seven laws all hold here.
    """

    name = "natEq"

    def leq(self, g: Grade, h: Grade) -> bool:
        return g == h

    releasable = leq

    def meet(self, g: Grade, h: Grade) -> Grade:
        return g if g == h else 0


class NatLeq(_NatBase):
    """Extended naturals under the usual order: upper-bound usage tracking."""

    name = "natLeq"

    def leq(self, g: Grade, h: Grade) -> bool:
        return g <= h

    releasable = leq

    def meet(self, g: Grade, h: Grade) -> Grade:
        return min(g, h)


class _LinLike(GradeMonoid):
    """Carrier {0, 1, inf}: unused, exactly once, unrestricted.

    1 + 1 = inf (two obligations collapse to unrestricted use), and the
    subtraction table is x - 0 = x, inf - x = inf, 1 - 1 = 0, undefined
    otherwise.
    """

    def zero(self) -> Grade:
        return 0

    def plus(self, g: Grade, h: Grade) -> Grade:
        if g == 0:
            return h
        if h == 0:
            return g
        return INF

    def minus(self, total: Grade, used: Grade) -> Optional[Grade]:
        if used == 0:
            return total
        if total == INF:
            return INF
        if total == 1 and used == 1:
            return 0
        return None

    def parse(self, text: str) -> Grade:
        if text == "inf":
            return INF
        if text in ("0", "1"):
            return int(text)
        raise GradeParseError(f"not a {self.name} grade: {text!r}")


class Lin(_LinLike):
    """Linearity grades: 0 and 1 sit below inf and are mutually unrelated."""

    name = "lin"

    def leq(self, g: Grade, h: Grade) -> bool:
        return g == h or h == INF

    releasable = leq

    def meet(self, g: Grade, h: Grade) -> Grade:
        if g == h or h == INF:
            return g
        if g == INF:
            return h
        # 0 and 1 share no lower bound here, fall back to zero
        return 0


class Affine(_LinLike):
    """Affinity grades: totally ordered 0 <= 1 <= inf, use at most once."""

    name = "affine"

    def leq(self, g: Grade, h: Grade) -> bool:
        return g <= h

    releasable = leq

    def meet(self, g: Grade, h: Grade) -> Grade:
        return min(g, h)


class Level(GradeMonoid):
    """A finite join-semilattice of named levels; addition is join.

    The first declared name is the bottom element and plays the role of
    zero. Subtraction total - used is defined exactly when used <= total
    and then equals total. Construction validates that the declared order
    is a partial order, that the first name is a global bottom, and that
    every pair of levels has a join.
    """

    def __init__(self, names: Iterable[str], order: Iterable[tuple[str, str]]):
        self.names: list[str] = list(names)
        if not self.names:
            raise LatticeError("a level declaration needs at least one name")
        if len(set(self.names)) != len(self.names):
            raise LatticeError("duplicate level name")
        self.name = "levels(" + ",".join(self.names) + ")"
        known = set(self.names)
        below: dict[str, set[str]] = {n: {n} for n in self.names}
        for lo, hi in order:
            if lo not in known or hi not in known:
                raise LatticeError(f"order mentions undeclared level: {lo} <= {hi}")
            below[hi].add(lo)
        # transitive closure, then antisymmetry and bottom checks
        changed = True
        while changed:
            changed = False
            for n in self.names:
                extra = set()
                for m in below[n]:
                    extra |= below[m]
                if not extra <= below[n]:
                    below[n] |= extra
                    changed = True
        for g, h in product(self.names, repeat=2):
            if g != h and g in below[h] and h in below[g]:
                raise LatticeError(f"levels {g} and {h} order each other")
        bottom = self.names[0]
        for n in self.names:
            if bottom not in below[n]:
                raise LatticeError(f"first level {bottom} is not below {n}")
        self._below = below
        self._join: dict[tuple[str, str], str] = {}
        for g, h in product(self.names, repeat=2):
            uppers = [u for u in self.names if g in below[u] and h in below[u]]
            least = [u for u in uppers if all(u in below[v] for v in uppers)]
            if not least:
                raise LatticeError(f"levels {g} and {h} have no join")
            self._join[(g, h)] = least[0]

    def zero(self) -> Grade:
        return self.names[0]

    def plus(self, g: Grade, h: Grade) -> Grade:
        return self._join[(g, h)]

    def leq(self, g: Grade, h: Grade) -> bool:
        return g in self._below[h]

    def minus(self, total: Grade, used: Grade) -> Optional[Grade]:
        return total if self.leq(used, total) else None

    def releasable(self, g: Grade, held: Grade) -> bool:
        # a level labels the resource; releasing it lower would launder it
        return g == held

    def meet(self, g: Grade, h: Grade) -> Grade:
        lowers = [l for l in self.names if self.leq(l, g) and self.leq(l, h)]
        greatest = [l for l in lowers if all(self.leq(m, l) for m in lowers)]
        return greatest[0] if greatest else self.zero()

    def parse(self, text: str) -> Grade:
        if text in self._below:
            return text
        raise GradeParseError(f"unknown level: {text!r}")


def format_grade(g: Grade) -> str:
    """Monoid-independent grade rendering: levels print as their name."""
    if g == INF:
        return "inf"
    return str(g)


BUILTIN_MONOIDS = {
    "natEq": NatExact,
    "natLeq": NatLeq,
    "lin": Lin,
    "affine": Affine,
}


# ---------------------------------------------------------------------------
# Resource environments and actor contexts.
#
# A resource environment maps resource names to grades within one actor; an
# actor context maps actor names to resource environments. Absent entries
# mean grade zero, and all operations normalise zero entries away so that
# structural equality coincides with the intended pointwise equality.

ResourceEnv = dict[str, Grade]
ActorContext = dict[str, ResourceEnv]


def ctx_norm(m: GradeMonoid, ctx: ActorContext) -> ActorContext:
    z = m.zero()
    out = {}
    for actor, env in ctx.items():
        env = {r: g for r, g in env.items() if g != z}
        if env:
            out[actor] = env
    return out


def ctx_plus(m: GradeMonoid, a: ActorContext, b: ActorContext) -> ActorContext:
    out = {actor: dict(env) for actor, env in a.items()}
    for actor, env in b.items():
        mine = out.setdefault(actor, {})
        for r, g in env.items():
            mine[r] = m.plus(mine[r], g) if r in mine else g
    return ctx_norm(m, out)


def ctx_minus(m: GradeMonoid, total: ActorContext, used: ActorContext) -> Optional[ActorContext]:
    out = {actor: dict(env) for actor, env in total.items()}
    z = m.zero()
    for actor, env in used.items():
        mine = out.setdefault(actor, {})
        for r, g in env.items():
            left = m.minus(mine.get(r, z), g)
            if left is None:
                return None
            mine[r] = left
    return ctx_norm(m, out)

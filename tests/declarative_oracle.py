"""Reference enumerator for the declarative typing relation.

Independent of the production checker: it searches over actual derivation
shapes instead of inferring usage. Each rule is applied with its exact
context discipline (leaf rules discard only droppable leftovers, a bare
hold admits no variables at all, a sequential composition splits variables,
futures, and the bound expression's produce), and pass-through padding on
the two actor contexts is reintroduced only where rules must meet: branch
unification and the final comparison against a candidate judgment.

A judgment set is represented by shift-closed bases: a derived base
(T, req, prod, n) stands for every judgment (T, req+Q, prod+Q, n) with the
same padding Q added to both actor contexts, which is exactly the freedom
the rules grant.
"""

from __future__ import annotations

from itertools import product

from gract.grades import INF, Lin
from gract.terms import (
    Await,
    Call,
    Choice,
    FutRef,
    FutT,
    GradedRes,
    GradedVar,
    Hold,
    Let,
    Lit,
    PrimOp,
    Release,
    ResT,
    Return,
    Type,
    UnitT,
    UnitVal,
    ValueExpr,
    Var,
    fut_type,
)

M = Lin()
GRADES = (0, 1, INF)

# coordinate contexts: frozenset of ((actor, resource), grade), zero-free
Ctx = frozenset


def ctx_of(pairs) -> Ctx:
    out: dict = {}
    for key, g in pairs:
        out[key] = M.plus(out.get(key, 0), g)
    return frozenset((k, g) for k, g in out.items() if g != M.zero())


def cadd(a: Ctx, b: Ctx) -> Ctx:
    return ctx_of(list(a) + list(b))


def from_actor_ctx(ctx: dict) -> Ctx:
    return ctx_of(((a, r), g) for a, env in ctx.items() for r, g in env.items())


# typing contexts: frozenset of (name, Type); future contexts: (name, FutT)

def dis(gamma: frozenset) -> bool:
    for _, t in gamma:
        match t:
            case FutT():
                return False
            case ResT(_, g):
                if not M.is_discardable(g):
                    return False
            case _:
                pass
    return True


def derive_value(gamma: frozenset, sigma: frozenset, ve: ValueExpr) -> frozenset:
    """All types the value expression admits under exactly these contexts."""
    match ve:
        case Lit(UnitVal()):
            if not sigma and dis(gamma):
                return frozenset({UnitT()})
        case Lit(GradedRes(r, h)):
            if not sigma and dis(gamma):
                return frozenset(ResT(r, g) for g in GRADES if M.leq(g, h))
        case Lit(FutRef(f)):
            hit = [(n, t) for n, t in sigma if n == f]
            if len(hit) == 1 and len(sigma) == 1 and dis(gamma):
                return frozenset({hit[0][1]})
        case Var(x):
            hit = [(n, t) for n, t in gamma if n == x]
            if hit and not isinstance(hit[0][1], ResT) and not sigma \
                    and dis(gamma - {hit[0]}):
                return frozenset({hit[0][1]})
        case GradedVar(x, g):
            hit = [(n, t) for n, t in gamma
                   if n == x and isinstance(t, ResT) and M.releasable(g, t.grade)]
            if len(hit) == 1 and not sigma and dis(gamma - {hit[0]}):
                return frozenset({ResT(hit[0][1].res, g)})
    return frozenset()


# ---------------------------------------------------------------------------
# context decompositions

def _gamma_splits(gamma: frozenset):
    """Every (left, right) with left joined to right giving gamma back:
    unit variables may serve both sides, resource grades split additively
    (a zero share may stay as an explicit entry or vanish), futures pick
    one side."""
    options: list[list[tuple[tuple, tuple]]] = []
    for entry in sorted(gamma, key=repr):
        name, t = entry
        match t:
            case UnitT():
                options.append([((entry,), (entry,)), ((entry,), ()), ((), (entry,))])
            case ResT(r, g):
                opts = []
                for g1, g2 in product(GRADES, repeat=2):
                    if M.plus(g1, g2) != g:
                        continue
                    for l in ({(name, ResT(r, g1))} if g1 != 0 else
                              {(name, ResT(r, 0)), None}):
                        for rr in ({(name, ResT(r, g2))} if g2 != 0 else
                                   {(name, ResT(r, 0)), None}):
                            opts.append((() if l is None else (l,),
                                         () if rr is None else (rr,)))
                options.append(sorted(set(opts), key=repr))
            case _:
                options.append([((entry,), ()), ((), (entry,))])
    for combo in product(*options):
        left = frozenset(e for part, _ in combo for e in part)
        right = frozenset(e for _, part in combo for e in part)
        yield left, right


def _sigma_splits(sigma: frozenset):
    entries = sorted(sigma, key=repr)
    for mask in range(1 << len(entries)):
        left = frozenset(e for i, e in enumerate(entries) if mask >> i & 1)
        yield left, sigma - left


def _args_splits(gamma: frozenset, sigma: frozenset, n: int):
    """Split both contexts into n ordered pieces."""
    if n == 0:
        if not gamma and not sigma:
            yield []
        return
    if n == 1:
        yield [(gamma, sigma)]
        return
    for g1, grest in _gamma_splits(gamma):
        for s1, srest in _sigma_splits(sigma):
            for rest in _args_splits(grest, srest, n - 1):
                yield [(g1, s1)] + rest


# ---------------------------------------------------------------------------
# shift solving

def _coords(*ctxs: Ctx):
    out = set()
    for c in ctxs:
        out |= {k for k, _ in c}
    return sorted(out)


def _with(c: Ctx, assign: dict) -> Ctx:
    return cadd(c, ctx_of(assign.items()))


def shift_match(base_req: Ctx, base_prod: Ctx, req: Ctx, prod: Ctx) -> bool:
    """Is (req, prod) equal to the base plus one common padding?"""
    coords = _coords(base_req, base_prod, req, prod)
    for grades in product(GRADES, repeat=len(coords)):
        q = dict(zip(coords, grades))
        if _with(base_req, q) == req and _with(base_prod, q) == prod:
            return True
    return False


def _unify_pair(b1, b2):
    """Common paddings making two (req, prod) pairs coincide; yields the
    unified pair. Solved one coordinate at a time."""
    (r1, p1), (r2, p2) = b1, b2
    coords = _coords(r1, p1, r2, p2)
    d1 = {k: g for k, g in r1}
    e1 = {k: g for k, g in p1}
    d2 = {k: g for k, g in r2}
    e2 = {k: g for k, g in p2}
    per_coord = []
    for c in coords:
        opts = []
        for q1, q2 in product(GRADES, repeat=2):
            if M.plus(d1.get(c, 0), q1) == M.plus(d2.get(c, 0), q2) and \
               M.plus(e1.get(c, 0), q1) == M.plus(e2.get(c, 0), q2):
                opts.append((M.plus(d1.get(c, 0), q1), M.plus(e1.get(c, 0), q1)))
        if not opts:
            return
        per_coord.append(sorted(set(opts)))
    for combo in product(*per_coord):
        req = ctx_of((c, rg[0]) for c, rg in zip(coords, combo))
        prod = ctx_of((c, rg[1]) for c, rg in zip(coords, combo))
        yield req, prod


# ---------------------------------------------------------------------------
# the derivation search

def derive(prog, a: str, gamma: frozenset, sigma: frozenset, e) -> frozenset:
    """All derivable judgment bases (T, required, produced, measure)."""
    out: set = set()
    match e:
        case Return(ve):
            for t in derive_value(gamma, sigma, ve):
                out.add((t, ctx_of(()), ctx_of(()), 0))
        case Hold(g, r):
            if not gamma and not sigma:
                for h in GRADES:
                    if M.leq(g, h):
                        out.add((ResT(r, g), ctx_of([((a, r), h)]), ctx_of(()), 1))
        case Release(g, ve):
            for t in derive_value(gamma, sigma, ve):
                if isinstance(t, ResT) and M.releasable(g, t.grade):
                    out.add((UnitT(), ctx_of(()), ctx_of([((a, t.res), g)]), 1))
        case Await(ve):
            for t in derive_value(gamma, sigma, ve):
                if isinstance(t, FutT):
                    prod = from_actor_ctx({b: dict(env) for b, env in t.produces})
                    out.add((t.result, ctx_of(()), prod, 1))
        case Call(b, meth, args):
            decl = prog.method(b, meth)
            if decl is None:
                return frozenset()
            for pieces in _args_splits(gamma, sigma, len(args)):
                if all(want in derive_value(gm, sg, ve)
                       for (gm, sg), ve, (_, want) in zip(pieces, args, decl.params)):
                    t = fut_type(decl.result, decl.produces)
                    out.add((t, from_actor_ctx(decl.requires), ctx_of(()),
                             decl.measure + 3))
        case PrimOp(op, args):
            sig = prog.op_sigs.get(op)
            if sig is None:
                return frozenset()
            for pieces in _args_splits(gamma, sigma, len(args)):
                if all(want in derive_value(gm, sg, ve)
                       for (gm, sg), ve, want in zip(pieces, args, sig.params)):
                    out.add((sig.result, ctx_of(()), ctx_of(()), 1))
        case Choice(left, right):
            lset = derive(prog, a, gamma, sigma, left)
            rset = derive(prog, a, gamma, sigma, right)
            for (t1, r1, p1, n1) in lset:
                for (t2, r2, p2, n2) in rset:
                    if t1 != t2:
                        continue
                    for req, prod in _unify_pair((r1, p1), (r2, p2)):
                        out.add((t1, req, prod, 1 + n1))
                        out.add((t1, req, prod, 1 + n2))
        case Let(x, bound, body):
            if any(n == x for n, _ in gamma):
                return frozenset()
            for g1, g2 in _gamma_splits(gamma):
                for s1, s2 in _sigma_splits(sigma):
                    first = derive(prog, a, g1, s1, bound)
                    by_type: dict[Type, list] = {}
                    for item in first:
                        by_type.setdefault(item[0], []).append(item)
                    for t_bound, items in by_type.items():
                        second = derive(prog, a, g2 | {(x, t_bound)}, s2, body)
                        if not second:
                            continue
                        for (_, r1, p1, n1) in items:
                            for (t, r2, p2, n2) in second:
                                out.update(
                                    (t, req, prod, 1 + n1 + n2)
                                    for req, prod in _let_glue(r1, p1, r2, p2))
    return frozenset(out)


def _let_glue(r1: Ctx, p1: Ctx, r2: Ctx, p2: Ctx):
    """Feed part of the bound expression's produce into the body's
    requirement; the unfed produce and the unfed requirement surface in
    the composite judgment. Enumerated per coordinate."""
    coords = _coords(p1, r2)
    e1 = {k: g for k, g in p1}
    d2 = {k: g for k, g in r2}
    per_coord = []
    for c in coords:
        opts = set()
        for flow, left_over, unmet in product(GRADES, repeat=3):
            if M.plus(flow, left_over) == e1.get(c, 0) and \
               M.plus(flow, unmet) == d2.get(c, 0):
                opts.add((left_over, unmet))
        if not opts:
            return
        per_coord.append(sorted(opts))
    for combo in product(*per_coord):
        bypass = ctx_of((c, lo) for c, (lo, _) in zip(coords, combo))
        unmet = ctx_of((c, um) for c, (_, um) in zip(coords, combo))
        yield cadd(r1, unmet), cadd(bypass, p2)


# ---------------------------------------------------------------------------
# comparison entry point

def judgment_holds(prog, a: str, gamma: frozenset, sigma: frozenset, e,
                   t: Type, req: Ctx, prod: Ctx, n: int) -> bool:
    """Does some derivation assign this exact judgment (padding allowed)?"""
    for (t0, r0, p0, n0) in derive(prog, a, gamma, sigma, e):
        if t0 == t and n0 == n and shift_match(r0, p0, req, prod):
            return True
    return False

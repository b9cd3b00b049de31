"""Graded type checking for expressions, processes, and configurations.

The declarative rules leave room for choice: how a variable context splits
between premises, how much cancellation a sequencing step performs, how far
both sides of a judgment are padded. This checker commits to one canonical
derivation per expression: usage is inferred rather than guessed, padding
is never introduced internally, sequencing cancels as much as the meet of
the two adjacent contexts allows, and a choice reconciles its branches by
padding one of them by a single explicit difference. Programs accepted
here are accepted by the declarative rules; the converse is not promised.

Each expression also gets a measure, a natural number that bounds the
number of machine steps its thread can still take. Method declarations are
checked as a fixed point: call sites charge the callee's declared measure,
and the body's computed measure must land exactly on the declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .grades import (
    ActorContext,
    GradeMonoid,
    ctx_minus,
    ctx_norm,
    ctx_plus,
    format_grade,
)
from .semantics import initial_config
from .terms import (
    Await,
    Call,
    CallMsg,
    Choice,
    Configuration,
    Expr,
    FulfilledFut,
    FutRef,
    FutT,
    GradedRes,
    GradedVar,
    Hold,
    Idle,
    Let,
    Lit,
    LocalEnv,
    PrimOp,
    Process,
    Program,
    Release,
    ResT,
    Return,
    Thread,
    Type,
    UnitT,
    UnitVal,
    Value,
    ValueExpr,
    Var,
    ctx_of,
    entry,
    fut_type,
    well_formed,
)


class CheckError(Exception):
    """Rejection with a stable code and a human-readable location. The
    message is formatted only when the error is printed."""

    def __init__(self, code: str, detail: str = "", loc: str = ""):
        self.code = code
        self.detail = detail
        self.loc = loc

    def __str__(self) -> str:
        return f"{self.code} at {self.loc}: {self.detail}" if self.loc \
            else f"{self.code}: {self.detail}"

    def to_json(self) -> dict:
        return {"code": self.code, "loc": self.loc, "detail": self.detail}


# ---------------------------------------------------------------------------
# Variable usage
#
# The kernel dispatches on a node's exact class, and every context a
# typing builds is in normal form (no zero grade, no empty actor), so no
# result is normalized again. The one exception is `await`, which passes
# on its future type's context as that type spells it.

Gamma = dict[str, Type]
Sigma = dict[str, FutT]
UNIT = UnitT()


def usage_add(m: GradeMonoid, a: Gamma, b: Gamma, loc: str) -> Gamma:
    """Combine the consumption of two sub-derivations. Resource grades
    add; a future variable may be consumed on one side only. A collision
    is reported at `loc`, the node whose premises collide."""
    out = dict(a)
    for x, t in b.items():
        prev = out.get(x)
        if prev is None:
            out[x] = t
        elif type(prev) is ResT and type(t) is ResT and prev.res == t.res:
            out[x] = ResT(prev.res, m.plus(prev.grade, t.grade))
        elif type(prev) is FutT and type(t) is FutT:
            raise CheckError("NonLinearFuture", f"variable {x} consumed twice", loc)
        elif not (type(prev) is UnitT and type(t) is UnitT):
            raise CheckError("TypeMismatch", f"variable {x} used at {prev} and {t}", loc)
    return out


def futs_add(a: set[str], b: set[str], loc: str) -> set[str]:
    dup = a & b
    if dup:
        raise CheckError("NonLinearFuture", f"future {sorted(dup)[0]} consumed twice", loc)
    return a | b


def fits_expected(m: GradeMonoid, actual: Type, expected: Type, loc: str = "") -> None:
    """A value of type `actual` can stand where `expected` is needed:
    resources may carry surplus grade provided the surplus is droppable."""
    k = type(actual)
    if k is ResT:
        if type(expected) is ResT and actual.res == expected.res:
            h, g = actual.grade, expected.grade
            if not m.leq(g, h):
                raise CheckError("GradeTooSmall",
                                 f"have {actual.res}^{format_grade(h)}, need ^{format_grade(g)}",
                                 loc)
            surplus = m.minus(h, g)
            if surplus is None or not m.is_discardable(surplus):
                raise CheckError(
                    "NonDiscardableLeftover",
                    f"surplus {actual.res}^{format_grade(h)} over ^{format_grade(g)}", loc)
            return
    elif k is UnitT and type(expected) is UnitT or k is FutT and actual == expected:
        return
    raise CheckError("TypeMismatch", f"have {actual}, need {expected}", loc)


# ---------------------------------------------------------------------------
# Values and value expressions

def type_value(sigma: Sigma, v: Value, loc: str = "") -> tuple[Type, set[str]]:
    """Runtime values: closed, so usage is only of futures."""
    k = type(v)
    if k is GradedRes:
        return ResT(v.res, v.grade), set()
    if k is UnitVal:
        return UNIT, set()
    if k is FutRef:
        ty = sigma.get(v.name)
        if ty is None:
            raise CheckError("UnknownFuture", v.name, loc)
        return ty, {v.name}
    raise CheckError("TypeMismatch", f"not a value: {v!r}", loc)


def type_value_expr(prog: Program, gamma: Gamma, sigma: Sigma,
                    ve: ValueExpr, loc: str = "") -> tuple[Type, Gamma, set[str]]:
    k = type(ve)
    if k is GradedVar:
        x = ve.name
        t = gamma.get(x)
        if t is None:
            raise CheckError("UnknownVariable", x, loc)
        if type(t) is not ResT:
            raise CheckError("TypeMismatch", f"{x}: {t} used with a grade", loc)
        g, m = ve.grade, prog.monoid
        if not m.releasable(g, t.grade):
            raise CheckError(
                "GradeTooSmall" if not m.leq(g, t.grade) else "UnreleasableGrade",
                f"{x}: {t.res}^{format_grade(t.grade)} used at ^{format_grade(g)}", loc)
        ty = ResT(t.res, g)
        return ty, {x: ty}, set()
    if k is Var:
        x = ve.name
        t = gamma.get(x)
        if t is None:
            raise CheckError("UnknownVariable", x, loc)
        if type(t) is ResT:
            raise CheckError("UngradedResourceUse", f"{x}: {t}", loc)
        return t, {x: t}, set()
    if k is Lit:
        ty, futs = type_value(sigma, ve.value, loc)
        return ty, {}, futs
    raise CheckError("TypeMismatch", f"not a value expression: {ve!r}", loc)


def type_value_list(prog: Program, gamma: Gamma, sigma: Sigma,
                    ves, loc: str = "") -> tuple[list[Type], Gamma, set[str]]:
    types: list[Type] = []
    used: Gamma = {}
    futs: set[str] = set()
    for ve in ves:
        ty, uv, uf = type_value_expr(prog, gamma, sigma, ve, loc)
        types.append(ty)
        used = usage_add(prog.monoid, used, uv, loc)
        futs = futs_add(futs, uf, loc)
    return types, used, futs


# ---------------------------------------------------------------------------
# Expressions

@dataclass
class ExprTyping:
    """A canonical typing. Its contexts may be shared with the program's
    signatures and with other typings, so they are only read."""

    ty: Type
    requires: ActorContext
    produces: ActorContext
    measure: int
    used_vars: Gamma
    used_futs: set[str]


def can_absorb(e: Expr) -> bool:
    """Whether a derivation for e has a leaf that can drop unused context:
    value positions discard, a bare hold has none."""
    k = type(e)
    if k is Let:
        return can_absorb(e.bound) or can_absorb(e.body)
    if k is Choice:
        return can_absorb(e.left) and can_absorb(e.right)
    if k is Call or k is PrimOp:
        return len(e.args) > 0
    return k is Return or k is Await or k is Release


def _cancel(m: GradeMonoid, psi1: ActorContext, phi2: ActorContext) -> ActorContext:
    """Largest internal cancellation between what a first step frees and a
    second step needs: the meet of the two grades, which every algebra can
    subtract from both. The result is only subtracted, and by exactness a
    zero entry subtracts nothing, so it is not normalized."""
    out: ActorContext = {}
    for actor in psi1.keys() & phi2.keys():
        for r in psi1[actor].keys() & phi2[actor].keys():
            out.setdefault(actor, {})[r] = m.meet(psi1[actor][r], phi2[actor][r])
    return out


def _shift_candidates(m: GradeMonoid, pairs) -> list:
    cands = [m.zero()]
    for lo, hi in pairs:
        d = m.minus(hi, lo)
        if d is not None:
            cands.append(d)
    return cands


def _unify_branches(prog: Program, left: Expr, right: Expr,
                    tl: ExprTyping, tr: ExprTyping, loc: str) -> ExprTyping:
    m = prog.monoid
    if tl.ty != tr.ty:
        raise CheckError("BranchMismatch", f"types {tl.ty} vs {tr.ty}", loc)
    if tl.used_futs != tr.used_futs:
        raise CheckError("BranchMismatch", "branches consume different futures", loc)

    used: Gamma = {}
    # in first-seen order, so the mismatch reported does not follow string hashing
    for x in {**tl.used_vars, **tr.used_vars}:
        ul, ur = tl.used_vars.get(x), tr.used_vars.get(x)
        if ul == ur:
            used[x] = ul
            continue
        if isinstance(ul, FutT) or isinstance(ur, FutT):
            raise CheckError("BranchMismatch", f"future variable {x} read in one branch", loc)
        res = None
        for t in (ul, ur):
            if t is not None and not isinstance(t, ResT):
                raise CheckError("BranchMismatch", f"variable {x} used at {ul} vs {ur}", loc)
            if isinstance(t, ResT):
                res = t.res
        gl = ul.grade if ul else m.zero()
        gr = ur.grade if ur else m.zero()
        # the branch using less must drop the difference inside itself
        if m.leq(gl, gr):
            diff, absorber, g = m.minus(gr, gl), left, gr
        elif m.leq(gr, gl):
            diff, absorber, g = m.minus(gl, gr), right, gl
        else:
            diff = None
        if diff is None or not m.is_discardable(diff) or not can_absorb(absorber):
            raise CheckError("BranchMismatch",
                             f"usage of {x}: ^{format_grade(gl)} vs ^{format_grade(gr)}", loc)
        used[x] = ResT(res, g)

    # pad one branch on both sides of its judgment by a single difference
    # so the two judgments coincide
    for lo, hi in ((tl, tr), (tr, tl)):
        if _theta_match(m, hi.requires, lo.requires, hi.produces, lo.produces):
            # an await's context is its future type's, possibly with zeros
            return ExprTyping(tl.ty, hi.requires, ctx_norm(m, hi.produces),
                              1 + min(tl.measure, tr.measure), used, tl.used_futs)
    raise CheckError("BranchMismatch",
                     "branch contexts cannot be reconciled by one padding", loc)


def _infer(prog: Program, a: str, gamma: Gamma, sigma: Sigma,
           e: Expr, loc: str) -> ExprTyping:
    m = prog.monoid
    k = type(e)
    if k is Let:
        x, body = e.var, e.body
        if x in gamma:
            raise CheckError("ShadowedBinder", x, loc)
        t1 = _premise(prog, a, gamma, sigma, e.bound, f"{loc} binding of {x}")
        t2 = _infer(prog, a, {**gamma, x: t1.ty}, sigma, body, loc)
        _check_binder_leftover(m, x, t1.ty, t2.used_vars.get(x), body, loc)
        uv2 = {y: t for y, t in t2.used_vars.items() if y != x}
        used = usage_add(m, t1.used_vars, uv2, loc)
        futs = futs_add(t1.used_futs, t2.used_futs, loc)
        cancel = _cancel(m, t1.produces, t2.requires)
        phi_rest = ctx_minus(m, t2.requires, cancel)
        psi_kept = ctx_minus(m, t1.produces, cancel)
        assert phi_rest is not None and psi_kept is not None
        return ExprTyping(t2.ty, ctx_plus(m, t1.requires, phi_rest),
                          ctx_plus(m, psi_kept, t2.produces),
                          1 + t1.measure + t2.measure, used, futs)
    if k is Return:
        ty, uv, uf = type_value_expr(prog, gamma, sigma, e.value, loc)
        return ExprTyping(ty, {}, {}, 0, uv, uf)
    if k is Hold:
        g, r = e.grade, e.res
        return ExprTyping(ResT(r, g), {a: {r: g}} if g != m.zero() else {}, {}, 1, {}, set())
    if k is Release:
        ty, uv, uf = type_value_expr(prog, gamma, sigma, e.target, loc)
        if type(ty) is not ResT:
            raise CheckError("TypeMismatch", f"release of {ty}", loc)
        g, h = e.grade, ty.grade
        if not m.releasable(g, h):
            raise CheckError("GradeTooSmall" if not m.leq(g, h) else "UnreleasableGrade",
                             f"release {format_grade(g)} of a ^{format_grade(h)}", loc)
        return ExprTyping(UNIT, {}, {a: {ty.res: g}} if g != m.zero() else {}, 1, uv, uf)
    if k is Await:
        ty, uv, uf = type_value_expr(prog, gamma, sigma, e.target, loc)
        if type(ty) is not FutT:
            raise CheckError("TypeMismatch", f"await on {ty}", loc)
        return ExprTyping(ty.result, {}, ctx_of(ty.produces), 1, uv, uf)
    if k is Call:
        sig = prog.signatures.get((e.actor, e.method))
        if sig is None:
            raise CheckError("UnknownMethod", f"{e.actor}!{e.method}", loc)
        params = sig.decl.params
        types, used, futs = type_value_list(prog, gamma, sigma, e.args, loc)
        if len(types) != len(params):
            raise CheckError("TypeMismatch",
                             f"{e.actor}!{e.method} takes {len(params)} arguments", loc)
        for ty, (x, want) in zip(types, params):
            fits_expected(m, ty, want, f"{loc} argument {x}")
        return ExprTyping(sig.fut, sig.requires, {}, sig.decl.measure + 3, used, futs)
    if k is PrimOp:
        op = e.op
        sig = prog.op_sigs.get(op)
        if sig is None:
            raise CheckError("UnknownOp", op, loc)
        types, used, futs = type_value_list(prog, gamma, sigma, e.args, loc)
        if len(types) != len(sig.params):
            raise CheckError("TypeMismatch", f"{op} takes {len(sig.params)} arguments", loc)
        for i, (ty, want) in enumerate(zip(types, sig.params)):
            fits_expected(m, ty, want, f"{loc} {op} argument {i}")
        return ExprTyping(sig.result, {}, {}, 1, used, futs)
    if k is Choice:
        tl = _premise(prog, a, gamma, sigma, e.left, f"{loc} left branch")
        tr = _premise(prog, a, gamma, sigma, e.right, f"{loc} right branch")
        return _unify_branches(prog, e.left, e.right, tl, tr, loc)
    raise CheckError("TypeMismatch", f"not an expression: {e!r}", loc)


def _premise(prog: Program, a: str, gamma: Gamma, sigma: Sigma,
             e: Expr, loc: str) -> ExprTyping:
    """A `Let`'s bound or a `Choice`'s branch, typed in its conclusion's
    context. A compound premise (a `Let` or `Choice`) goes through
    `prog.premises`, keyed on the actor, the expression and the context.
    An entry is the typing, only read, or the rejection's code, detail and
    location below the premise's, so a hit raises the same error afresh
    at this position. A leaf is cheaper to type than to key."""
    k = type(e)
    if k is not Let and k is not Choice:
        return _infer(prog, a, gamma, sigma, e, loc)
    table = prog.premises
    key = a, e, tuple(gamma.items()), tuple(sigma.items())
    seen = table.get(key)
    if seen is None:
        try:
            seen = table[key] = _infer(prog, a, gamma, sigma, e, loc)
        except CheckError as err:
            # every rejection inside a premise is located below it
            assert err.loc.startswith(loc)
            table[key] = err.code, err.detail, err.loc[len(loc):]
            raise
    elif type(seen) is tuple:
        raise CheckError(seen[0], seen[1], loc + seen[2])
    return seen


def _check_binder_leftover(m: GradeMonoid, x: str, ty: Type, used: Optional[Type],
                           scope: Expr, loc: str) -> None:
    """A variable in scope must be consumed exactly, or its remainder must
    be droppable at some leaf of the scope. A bare hold has no such leaf,
    so nothing unused may reach one."""
    k = type(ty)
    if k is ResT:
        r, h = ty.res, ty.grade
        if used is None:
            if not m.is_discardable(h) or not can_absorb(scope):
                raise CheckError("NonDiscardableLeftover",
                                 f"{x}: {r}^{format_grade(h)} unused", loc)
            return
        g = used.grade if type(used) is ResT else m.zero()
        left = m.minus(h, g)
        if left is None:
            raise CheckError("GradeTooSmall",
                             f"{x}: {r}^{format_grade(h)} used at ^{format_grade(g)}", loc)
        if left != m.zero() and (not m.is_discardable(left) or not can_absorb(scope)):
            raise CheckError("NonDiscardableLeftover",
                             f"{x}: {r}^{format_grade(left)} left over", loc)
    elif k is FutT:
        if used is None:
            raise CheckError("NonDiscardableLeftover", f"future {x} never read", loc)
    elif k is UnitT:
        if used is None and not can_absorb(scope):
            raise CheckError("NonDiscardableLeftover", f"{x}: Unit has no drop site", loc)


def type_expr(prog: Program, a: str, gamma: Gamma, sigma: Sigma, e: Expr,
              loc: str = "") -> ExprTyping:
    """Canonical typing of e for a thread of actor a, with the ambient
    leftover checks applied at this root."""
    t = _infer(prog, a, gamma, sigma, e, loc)
    for x, ty in gamma.items():
        _check_binder_leftover(prog.monoid, x, ty, t.used_vars.get(x), e, loc)
    return t


# ---------------------------------------------------------------------------
# Local environments and processes

def type_local_env(prog: Program, lam: LocalEnv, sigma: Sigma,
                   loc: str = "") -> tuple[Gamma, set[str]]:
    gamma: Gamma = {}
    futs: set[str] = set()
    for x, v in lam.items():
        where = f"{loc} {x}"
        ty, uf = type_value(sigma, v, where)
        futs = futs_add(futs, uf, where)
        gamma[x] = ty
    return gamma, futs


class ProcTyping(NamedTuple):
    """A sequence's typing as the program's typing table stores it, with
    what the configuration judgment reads of the sequence alone: its
    `well_formed` diagnostics, its rendered `requires` and its unread
    (produced, unmarked) futures. It is shared, so it is only read."""

    requires: ActorContext
    measure: int
    produced: dict[str, FutT]
    marked: frozenset[str]
    ill_formed: tuple[str, ...]
    requires_json: dict
    unread: frozenset[str]


def _type_atomic(prog: Program, p: Process,
                 sigma: Sigma) -> tuple[ActorContext, set[str], int, dict[str, FutT]]:
    # a producer that carries its future's declared type is typed against it
    m = prog.monoid
    match p:
        case Idle(_):
            return {}, set(), 0, {}
        case FulfilledFut(f, v, fut):
            ty, futs = type_value(sigma, v, f"fulfilment of {f}")
            if fut is not None:
                fits_expected(m, ty, fut.result, f"fulfilment of {f}")
                return ctx_of(fut.produces), futs, 0, {f: fut}
            return {}, futs, 0, {f: fut_type(ty, {})}
        case CallMsg(f, b, meth, vals):
            sig = prog.signatures.get((b, meth))
            if sig is None:
                raise CheckError("UnknownMethod", f"{b}!{meth}", f"message {f}")
            decl = sig.decl
            if len(vals) != len(decl.params):
                raise CheckError("TypeMismatch",
                                 f"{b}!{meth} takes {len(decl.params)} arguments",
                                 f"message {f}")
            futs: set[str] = set()
            for v, (x, want) in zip(vals, decl.params):
                where = f"message {f} argument {x}"
                ty, uf = type_value(sigma, v, where)
                futs = futs_add(futs, uf, where)
                fits_expected(m, ty, want, where)
            return sig.requires, futs, decl.measure + 2, {f: sig.fut}
        case Thread(lam, e, f, a, _, fut):
            loc = f"thread {f} of {a}"
            gamma, env_futs = type_local_env(prog, lam, sigma, loc)
            t = type_expr(prog, a, gamma, sigma, e, loc)
            futs = futs_add(env_futs, t.used_futs, loc)
            if fut is not None:
                fits_expected(m, t.ty, fut.result, loc)
                shift = ctx_minus(m, ctx_of(fut.produces), t.produces)
                if shift is None:
                    raise CheckError("ContextMismatch",
                                     "thread produces more than its future promises", loc)
                return ctx_plus(m, t.requires, shift), futs, 1 + t.measure, {f: fut}
            return t.requires, futs, 1 + t.measure, {f: fut_type(t.ty, t.produces)}
    raise CheckError("TypeMismatch", f"not a process: {p!r}")


def type_process(prog: Program, processes) -> ProcTyping:
    """Type a sequence of processes, composing left to right: a future
    may be consumed only after its producer, each exactly once.

    The typing depends on the sequence alone, so the program's typing
    table keeps it under `tuple(processes)`: a sequence the program has
    typed before is not composed again, and every subject-reduction check
    of the program types each distinct configuration once. Each process
    is typed through the table's per-process entries, and rejections are
    never stored. The result is the table's entry itself: a repeated call
    returns the identical object, so it is only read."""
    key = tuple(processes)
    pt = prog.typings.get(key)
    if pt is None:
        reqs: list[ActorContext] = []
        measure, produced, marked = _compose(prog, key, reqs)
        requires: ActorContext = {}
        # most processes require nothing, and adding {} only normalizes again
        for req in filter(None, reqs):
            requires = ctx_plus(prog.monoid, requires, req)
        pt = prog.typings[key] = ProcTyping(
            requires, measure, produced, frozenset(marked), tuple(well_formed(key)),
            _grades_json(requires), frozenset(produced) - marked)
    return pt


def _compose(prog: Program, processes, reqs: Optional[list] = None) -> tuple:
    """The left-to-right composition: the measure, the produced and the
    marked futures; each process's `requires` goes to `reqs` if given.
    Each process is read inline from the program's typing table,
    `prog.typings`, which maps it (a value, so equal processes share an
    entry) to `_type_atomic`'s result and the futures that result read
    with their types, sorted. A hit counts only while those still hold, so
    one table serves every configuration the program is typed in; a miss
    types the process afresh and replaces its entry. Rejections are never
    stored, so each is raised at its own location."""
    table = prog.typings
    measure = 0
    # the futures produced so far are the ones visible to the next process;
    # marked futures stay resolvable so reuse is reported as reuse, not as
    # an unknown name
    produced: dict[str, FutT] = {}
    marked: set[str] = set()
    for p in processes:
        seen = table.get(p)
        if seen is not None:
            # a read type is most often its producer's very object: test identity first
            for f, t in seen[1]:
                if produced.get(f) is not t and produced.get(f) != t:
                    seen = None
                    break
        if seen is None:
            try:
                result = _type_atomic(prog, p, produced)
            except CheckError as err:
                # a future some later process produces, looked for only on this error
                if err.code == "UnknownFuture" and any(
                        type(q) is not Idle and q.future == err.detail for q in processes):
                    raise CheckError("FutureConsumedBeforeProduced",
                                     f"future {err.detail}", err.loc) from None
                raise
            # each consumed future is in `produced`: `_type_atomic` read it there
            seen = table[p] = result, tuple((f, produced[f]) for f in sorted(result[1]))
        (req, _, n, prod), reads = seen
        for f, _ in reads:
            if f in marked:
                raise CheckError("MarkedReuse", f"future {f} consumed twice")
            marked.add(f)
        if prod:
            for f, t in prod.items():
                if f in produced:
                    raise CheckError("DoubleProduce", f"future {f}")
                produced[f] = t
        if reqs is not None:
            reqs.append(req)
        measure += n
    return measure, produced, marked


# ---------------------------------------------------------------------------
# Configurations

def _grades_json(ctx: ActorContext) -> dict:
    return {a: {r: format_grade(g) for r, g in env.items()} for a, env in ctx.items()}


def type_config(prog: Program, config: Configuration) -> dict:
    """Type the whole configuration and check its claims fit the graded
    state. The report is JSON-ready; ok is False on any error, IllFormed
    first. All but the resource fit is read from the sequence's entry.
    Each required `(actor, resource)` is checked against `config.alpha`
    as stored, in `requires` order; a resource held but not required is
    never reported, whatever its grade. The report's `requires` is the
    entry's own dict, shared by every report on the sequence: only read it."""
    try:
        pt = type_process(prog, config.processes)
        problems, errors = pt.ill_formed, []
    except CheckError as e:
        # no rejection is stored, so well-formedness is judged afresh
        pt, problems, errors = None, well_formed(config.processes), [e.to_json()]
    if problems or pt is None:
        errors = [{"code": "IllFormed", "loc": "", "detail": p} for p in problems] or errors
        return {"ok": False, "requires": {}, "measure": 0, "errors": errors}
    m = prog.monoid
    for actor, env in pt.requires.items():
        for r, g in env.items():
            have = entry(entry(config.alpha, actor), r, m.zero())
            if not m.leq(g, have):
                errors.append({"code": "InsufficientInitialResources", "loc": f"init {actor}.{r}",
                               "detail": f"requires {format_grade(g)}, holds {format_grade(have)}"})
    return {"ok": not errors, "requires": pt.requires_json, "measure": pt.measure,
            "errors": errors}


def measure_of_config(prog: Program, config: Configuration) -> Optional[int]:
    """The configuration's measure, None if it does not type. Composed
    through the per-process entries only; no `requires` is kept. The
    states of an exploration are distinct sequences (10,661 on the full
    k=2 k-cafe): a sequence entry would be hit only when `check_helpful`
    measures a state again, and hashing the sequence for it costs about
    as much as composing it."""
    try:
        return _compose(prog, config.processes)[0]
    except CheckError:
        return None


# ---------------------------------------------------------------------------
# Method tables and whole programs

def _theta_match(m: GradeMonoid, declared: ActorContext, computed: ActorContext,
                 declared2: ActorContext, computed2: ActorContext) -> bool:
    """Declared contexts must be the computed ones padded by one common
    difference on both sides of the judgment."""
    coords = set()
    for ctx in (declared, computed, declared2, computed2):
        coords |= {(a, r) for a, env in ctx.items() for r in env}
    for a, r in coords:
        dphi = declared.get(a, {}).get(r, m.zero())
        cphi = computed.get(a, {}).get(r, m.zero())
        dpsi = declared2.get(a, {}).get(r, m.zero())
        cpsi = computed2.get(a, {}).get(r, m.zero())
        found = False
        for t in _shift_candidates(m, [(cphi, dphi), (cpsi, dpsi)]):
            if m.plus(cphi, t) == dphi and m.plus(cpsi, t) == dpsi:
                found = True
                break
        if not found:
            return False
    return True


def _body_typing(prog: Program, actor: str, decl) -> ExprTyping:
    gamma = {x: t for x, t in decl.params}
    return type_expr(prog, actor, gamma, {}, decl.body, f"{actor}.{decl.name}")


def check_method_table(prog: Program) -> dict:
    """Every declared method signature must be consistent with its body,
    with declared measures forming a fixed point of the call charges."""
    m = prog.monoid
    reports = []
    for actor, adecl in prog.actors.items():
        for name, decl in adecl.methods.items():
            sig = prog.signatures[actor, name]
            report = {"actor": actor, "method": name, "ok": True, "errors": []}
            try:
                t = _body_typing(prog, actor, decl)
                report["computed"] = {
                    "type": str(t.ty),
                    "requires": _grades_json(t.requires),
                    "produces": _grades_json(t.produces),
                    "measure": t.measure,
                }
                report["declared"] = {
                    "type": str(decl.result),
                    "requires": _grades_json(sig.requires),
                    "produces": _grades_json(sig.produces),
                    "measure": decl.measure,
                }
                if t.ty != decl.result:
                    report["errors"].append(CheckError(
                        "TypeMismatch", f"body returns {t.ty}, declared {decl.result}",
                        f"{actor}.{name}").to_json())
                if not _theta_match(m, sig.requires, t.requires, sig.produces, t.produces):
                    report["errors"].append(CheckError(
                        "ContextMismatch",
                        "declared contexts are not the computed ones padded alike",
                        f"{actor}.{name}").to_json())
                if t.measure != decl.measure:
                    # probe whether the measure tracks this method's own
                    # declared value; if so no finite declaration can work
                    probe = replace(decl, measure=decl.measure + 1)
                    probe_prog = replace(prog, actors={**prog.actors, actor: replace(
                        adecl, methods={**adecl.methods, name: probe})})
                    probed = _body_typing(probe_prog, actor, probe).measure
                    code = ("UnsolvableRecursiveMeasure" if probed != t.measure
                            else "MeasureMismatch")
                    report["errors"].append(CheckError(
                        code, f"computed {t.measure}, declared {decl.measure}",
                        f"{actor}.{name}").to_json())
            except CheckError as e:
                report["errors"].append(e.to_json())
            report["ok"] = not report["errors"]
            reports.append(report)
    return {"ok": all(r["ok"] for r in reports), "methodReports": reports}


def check_program(prog: Program) -> dict:
    """Method table consistency plus typability of the start state. The
    report is the caller's own: its `requires` is a copy of the entry's."""
    table = check_method_table(prog)
    config_report = type_config(prog, initial_config(prog))
    config_report["requires"] = {a: dict(env) for a, env in config_report["requires"].items()}
    errors = [e for r in table["methodReports"] for e in r["errors"]]
    errors += config_report["errors"]
    return {
        "ok": table["ok"] and config_report["ok"],
        "methodReports": table["methodReports"],
        "configReport": config_report,
        "errors": errors,
    }

"""Reference typing kernel: gract's checker before its flat rewrite.

These are `typecheck`'s original expression kernel (`_infer` with its
class-pattern `match`, `type_value`, `type_value_expr`, `fits_expected`,
usage arithmetic, branch unification and leftover checks), the process
typing `_type_atomic` and the method-table check `check_method_table`,
kept verbatim: every context is normalized again where it is used, and
each call site normalizes its declaration's contexts afresh. Since the
future registry left the configuration, `_type_atomic` reads a
producer's declared future type from the process (`fut`), where it read
the registry entry. The
differential tests require the current kernel to give the same typing,
or an error with the same code, location and detail, on every input they
try. One rule has changed since: a release on a level lattice must give
back the level it holds (`GradeMonoid.releasable`); this kernel still
tests `leq`, so the tests feed it no such release. A usage collision
(`usage_add`, `futs_add`) is reported at the location of the node whose
premises collide, as the checker reports it, where both once left the
location empty.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from gract.grades import (
    ActorContext,
    GradeMonoid,
    ctx_minus,
    ctx_norm,
    ctx_plus,
    format_grade,
)
from gract.terms import (
    Await,
    Call,
    CallMsg,
    Choice,
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
    fut_type,
)
from gract.typecheck import CheckError, ExprTyping

Gamma = dict[str, Type]
Sigma = dict[str, FutT]


def usage_add(m: GradeMonoid, a: Gamma, b: Gamma, loc: str) -> Gamma:
    """Combine the consumption of two sub-derivations. Resource grades
    add; a future variable may be consumed on one side only."""
    out = dict(a)
    for x, t in b.items():
        if x not in out:
            out[x] = t
            continue
        prev = out[x]
        match (prev, t):
            case (UnitT(), UnitT()):
                pass
            case (ResT(r1, g1), ResT(r2, g2)) if r1 == r2:
                out[x] = ResT(r1, m.plus(g1, g2))
            case (FutT(), FutT()):
                raise CheckError("NonLinearFuture", f"variable {x} consumed twice", loc)
            case _:
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
    match (actual, expected):
        case (UnitT(), UnitT()):
            return
        case (FutT(), FutT()) if actual == expected:
            return
        case (ResT(r1, h), ResT(r2, g)) if r1 == r2:
            if not m.leq(g, h):
                raise CheckError("GradeTooSmall",
                                 f"have {r1}^{format_grade(h)}, need ^{format_grade(g)}", loc)
            surplus = m.minus(h, g)
            if surplus is None or not m.is_discardable(surplus):
                raise CheckError("NonDiscardableLeftover",
                                 f"surplus {r1}^{format_grade(h)} over ^{format_grade(g)}", loc)
            return
    raise CheckError("TypeMismatch", f"have {actual}, need {expected}", loc)


# ---------------------------------------------------------------------------
# Values and value expressions

def type_value(prog: Program, sigma: Sigma, v: Value,
               loc: str = "") -> tuple[Type, set[str]]:
    """Runtime values: closed, so usage is only of futures."""
    match v:
        case UnitVal():
            return UnitT(), set()
        case GradedRes(r, h):
            return ResT(r, h), set()
        case FutRef(f):
            if f not in sigma:
                raise CheckError("UnknownFuture", f, loc)
            return sigma[f], {f}
    raise CheckError("TypeMismatch", f"not a value: {v!r}", loc)


def type_value_expr(prog: Program, gamma: Gamma, sigma: Sigma,
                    ve: ValueExpr, loc: str = "") -> tuple[Type, Gamma, set[str]]:
    m = prog.monoid
    match ve:
        case Lit(v):
            ty, futs = type_value(prog, sigma, v, loc)
            return ty, {}, futs
        case GradedVar(x, g):
            if x not in gamma:
                raise CheckError("UnknownVariable", x, loc)
            t = gamma[x]
            if not isinstance(t, ResT):
                raise CheckError("TypeMismatch", f"{x}: {t} used with a grade", loc)
            if not m.leq(g, t.grade):
                raise CheckError(
                    "GradeTooSmall",
                    f"{x}: {t.res}^{format_grade(t.grade)} used at ^{format_grade(g)}", loc)
            return ResT(t.res, g), {x: ResT(t.res, g)}, set()
        case Var(x):
            if x not in gamma:
                raise CheckError("UnknownVariable", x, loc)
            t = gamma[x]
            if isinstance(t, ResT):
                raise CheckError("UngradedResourceUse", f"{x}: {t}", loc)
            return t, {x: t}, set()
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

def can_absorb(e: Expr) -> bool:
    """Whether a derivation for e has a leaf that can drop unused context:
    value positions discard, a bare hold has none."""
    match e:
        case Return(_) | Await(_) | Release(_, _):
            return True
        case Call(_, _, args) | PrimOp(_, args):
            return len(args) > 0
        case Hold(_, _):
            return False
        case Choice(left, right):
            return can_absorb(left) and can_absorb(right)
        case Let(_, bound, body):
            return can_absorb(bound) or can_absorb(body)
    return False


def _cancel(m: GradeMonoid, psi1: ActorContext, phi2: ActorContext) -> ActorContext:
    """Largest internal cancellation between what a first step frees and a
    second step needs; coordinates where the meet is not below both (a meet
    fallback on partial orders) cancel nothing."""
    out: ActorContext = {}
    for actor in psi1.keys() & phi2.keys():
        for r in psi1[actor].keys() & phi2[actor].keys():
            g1, g2 = psi1[actor][r], phi2[actor][r]
            c = m.meet(g1, g2)
            if m.minus(g1, c) is None or m.minus(g2, c) is None:
                continue
            out.setdefault(actor, {})[r] = c
    return ctx_norm(m, out)


def _shift_candidates(m: GradeMonoid, pairs) -> list:
    cands = [m.zero()]
    for lo, hi in pairs:
        d = m.minus(hi, lo)
        if d is not None:
            cands.append(d)
    return cands


def _unify_branches(prog: Program, a: str, left: Expr, right: Expr,
                    tl: ExprTyping, tr: ExprTyping, loc: str) -> ExprTyping:
    m = prog.monoid
    if tl.ty != tr.ty:
        raise CheckError("BranchMismatch", f"types {tl.ty} vs {tr.ty}", loc)
    if tl.used_futs != tr.used_futs:
        raise CheckError("BranchMismatch", "branches consume different futures", loc)

    used: Gamma = {}
    for x in tl.used_vars.keys() | tr.used_vars.keys():
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
            raise CheckError("BranchMismatch",
                             f"usage of {x}: ^{format_grade(gl)} vs ^{format_grade(gr)}", loc)
        if diff is None or not m.is_discardable(diff) or not can_absorb(absorber):
            raise CheckError("BranchMismatch",
                             f"usage of {x}: ^{format_grade(gl)} vs ^{format_grade(gr)}", loc)
        used[x] = ResT(res, g)

    # pad one branch on both sides of its judgment by a single difference
    # so the two judgments coincide
    for shift_left in (True, False):
        lo_phi, hi_phi = (tl, tr) if shift_left else (tr, tl)
        coords = set()
        for ctx in (tl.requires, tr.requires, tl.produces, tr.produces):
            coords |= {(act, r) for act, env in ctx.items() for r in env}
        ok = True
        for act, r in sorted(coords):
            glo_phi = lo_phi.requires.get(act, {}).get(r, m.zero())
            ghi_phi = hi_phi.requires.get(act, {}).get(r, m.zero())
            glo_psi = lo_phi.produces.get(act, {}).get(r, m.zero())
            ghi_psi = hi_phi.produces.get(act, {}).get(r, m.zero())
            found = None
            for d in _shift_candidates(m, [(glo_phi, ghi_phi), (glo_psi, ghi_psi)]):
                if m.plus(glo_phi, d) == ghi_phi and m.plus(glo_psi, d) == ghi_psi:
                    found = d
                    break
            if found is None:
                ok = False
                break
        if ok:
            hi = hi_phi
            return ExprTyping(tl.ty, ctx_norm(m, hi.requires), ctx_norm(m, hi.produces),
                              1 + min(tl.measure, tr.measure), used,
                              set(tl.used_futs))
    raise CheckError("BranchMismatch",
                     "branch contexts cannot be reconciled by one padding", loc)


def _infer(prog: Program, a: str, gamma: Gamma, sigma: Sigma,
           e: Expr, loc: str) -> ExprTyping:
    m = prog.monoid
    match e:
        case Return(ve):
            ty, uv, uf = type_value_expr(prog, gamma, sigma, ve, loc)
            return ExprTyping(ty, {}, {}, 0, uv, uf)
        case Call(b, meth, args):
            decl = prog.method(b, meth)
            if decl is None:
                raise CheckError("UnknownMethod", f"{b}!{meth}", loc)
            types, used, futs = type_value_list(prog, gamma, sigma, args, loc)
            if len(types) != len(decl.params):
                raise CheckError("TypeMismatch",
                                 f"{b}!{meth} takes {len(decl.params)} arguments", loc)
            for ty, (x, want) in zip(types, decl.params):
                fits_expected(m, ty, want, f"{loc} argument {x}")
            return ExprTyping(
                fut_type(decl.result, ctx_norm(m, decl.produces)),
                ctx_norm(m, decl.requires), {}, decl.measure + 3, used, futs)
        case Await(ve):
            ty, uv, uf = type_value_expr(prog, gamma, sigma, ve, loc)
            if not isinstance(ty, FutT):
                raise CheckError("TypeMismatch", f"await on {ty}", loc)
            return ExprTyping(ty.result, {}, ctx_of(ty.produces), 1, uv, uf)
        case Hold(g, r):
            phi = ctx_norm(m, {a: {r: g}})
            return ExprTyping(ResT(r, g), phi, {}, 1, {}, set())
        case Release(g, ve):
            ty, uv, uf = type_value_expr(prog, gamma, sigma, ve, loc)
            if not isinstance(ty, ResT):
                raise CheckError("TypeMismatch", f"release of {ty}", loc)
            if not m.leq(g, ty.grade):
                raise CheckError("GradeTooSmall",
                                 f"release {format_grade(g)} of a ^{format_grade(ty.grade)}",
                                 loc)
            return ExprTyping(UnitT(), {}, ctx_norm(m, {a: {ty.res: g}}), 1, uv, uf)
        case PrimOp(op, args):
            sig = prog.op_sigs.get(op)
            if sig is None:
                raise CheckError("UnknownOp", op, loc)
            types, used, futs = type_value_list(prog, gamma, sigma, args, loc)
            if len(types) != len(sig.params):
                raise CheckError("TypeMismatch", f"{op} takes {len(sig.params)} arguments", loc)
            for i, (ty, want) in enumerate(zip(types, sig.params)):
                fits_expected(m, ty, want, f"{loc} {op} argument {i}")
            return ExprTyping(sig.result, {}, {}, 1, used, futs)
        case Choice(l, r):
            tl = _infer(prog, a, gamma, sigma, l, f"{loc} left branch")
            tr = _infer(prog, a, gamma, sigma, r, f"{loc} right branch")
            return _unify_branches(prog, a, l, r, tl, tr, loc)
        case Let(x, bound, body):
            if x in gamma:
                raise CheckError("ShadowedBinder", x, loc)
            t1 = _infer(prog, a, gamma, sigma, bound, f"{loc} binding of {x}")
            gamma2 = dict(gamma)
            gamma2[x] = t1.ty
            t2 = _infer(prog, a, gamma2, sigma, body, loc)
            _check_binder_leftover(m, x, t1.ty, t2.used_vars.get(x), body, loc)
            uv2 = {y: t for y, t in t2.used_vars.items() if y != x}
            used = usage_add(m, t1.used_vars, uv2, loc)
            futs = futs_add(t1.used_futs, t2.used_futs, loc)
            cancel = _cancel(m, t1.produces, t2.requires)
            phi_rest = ctx_minus(m, t2.requires, cancel)
            psi_kept = ctx_minus(m, t1.produces, cancel)
            assert phi_rest is not None and psi_kept is not None
            return ExprTyping(
                t2.ty,
                ctx_norm(m, ctx_plus(m, t1.requires, phi_rest)),
                ctx_norm(m, ctx_plus(m, psi_kept, t2.produces)),
                1 + t1.measure + t2.measure, used, futs)
    raise CheckError("TypeMismatch", f"not an expression: {e!r}", loc)


def _check_binder_leftover(m: GradeMonoid, x: str, ty: Type, used: Optional[Type],
                           scope: Expr, loc: str) -> None:
    """A variable in scope must be consumed exactly, or its remainder must
    be droppable at some leaf of the scope. A bare hold has no such leaf,
    so nothing unused may reach one."""
    match ty:
        case UnitT():
            if used is None and not can_absorb(scope):
                raise CheckError("NonDiscardableLeftover", f"{x}: Unit has no drop site", loc)
            return
        case FutT():
            if used is None:
                raise CheckError("NonDiscardableLeftover", f"future {x} never read", loc)
            return
        case ResT(r, h):
            if used is None:
                if not m.is_discardable(h) or not can_absorb(scope):
                    raise CheckError("NonDiscardableLeftover",
                                     f"{x}: {r}^{format_grade(h)} unused", loc)
                return
            g = used.grade if isinstance(used, ResT) else m.zero()
            left = m.minus(h, g)
            if left is None:
                raise CheckError("GradeTooSmall",
                                 f"{x}: {r}^{format_grade(h)} used at ^{format_grade(g)}", loc)
            if left == m.zero():
                return
            if not m.is_discardable(left) or not can_absorb(scope):
                raise CheckError(
                    "NonDiscardableLeftover",
                    f"{x}: {r}^{format_grade(left)} left over", loc)


def type_expr(prog: Program, a: str, gamma: Gamma, sigma: Sigma, e: Expr,
              loc: str = "") -> ExprTyping:
    """Canonical typing of e for a thread of actor a, with the ambient
    leftover checks applied at this root."""
    t = _infer(prog, a, gamma, sigma, e, loc)
    for x, ty in gamma.items():
        _check_binder_leftover(prog.monoid, x, ty, t.used_vars.get(x), e, loc)
    return t

def type_local_env(prog: Program, lam: LocalEnv, sigma: Sigma,
                   loc: str = "") -> tuple[Gamma, set[str]]:
    gamma: Gamma = {}
    futs: set[str] = set()
    for x, v in lam.items():
        ty, uf = type_value(prog, sigma, v, f"{loc} {x}")
        futs = futs_add(futs, uf, f"{loc} {x}")
        gamma[x] = ty
    return gamma, futs

def _declared(fut: Optional[FutT]):
    return None if fut is None else (fut.result, ctx_of(fut.produces))


def _type_atomic(prog: Program, p: Process,
                 sigma: Sigma) -> tuple[ActorContext, set[str], int, dict[str, FutT]]:
    m = prog.monoid
    match p:
        case Idle(_):
            return {}, set(), 0, {}
        case FulfilledFut(f, v, fut):
            ty, futs = type_value(prog, sigma, v, f"fulfilment of {f}")
            reg = _declared(fut)
            if reg is not None:
                want, produces = reg
                fits_expected(m, ty, want, f"fulfilment of {f}")
                return ctx_norm(m, produces), futs, 0, {f: fut_type(want, produces)}
            return {}, futs, 0, {f: fut_type(ty, {})}
        case CallMsg(f, b, meth, vals):
            decl = prog.method(b, meth)
            if decl is None:
                raise CheckError("UnknownMethod", f"{b}!{meth}", f"message {f}")
            if len(vals) != len(decl.params):
                raise CheckError("TypeMismatch",
                                 f"{b}!{meth} takes {len(decl.params)} arguments",
                                 f"message {f}")
            futs: set[str] = set()
            for v, (x, want) in zip(vals, decl.params):
                ty, uf = type_value(prog, sigma, v, f"message {f} argument {x}")
                futs = futs_add(futs, uf, f"message {f} argument {x}")
                fits_expected(m, ty, want, f"message {f} argument {x}")
            return (ctx_norm(m, decl.requires), futs, decl.measure + 2,
                    {f: fut_type(decl.result, ctx_norm(m, decl.produces))})
        case Thread(lam, e, f, a, _, fut):
            loc = f"thread {f} of {a}"
            gamma, env_futs = type_local_env(prog, lam, sigma, loc)
            t = type_expr(prog, a, gamma, sigma, e, loc)
            futs = futs_add(env_futs, t.used_futs, loc)
            reg = _declared(fut)
            if reg is not None:
                want, declared = reg
                fits_expected(m, t.ty, want, loc)
                shift = ctx_minus(m, ctx_norm(m, declared), t.produces)
                if shift is None:
                    raise CheckError("ContextMismatch",
                                     "thread produces more than its future promises", loc)
                requires = ctx_plus(m, t.requires, shift)
                return (ctx_norm(m, requires), futs, 1 + t.measure,
                        {f: fut_type(want, ctx_norm(m, declared))})
            return (ctx_norm(m, t.requires), futs, 1 + t.measure,
                    {f: fut_type(t.ty, t.produces)})
    raise CheckError("TypeMismatch", f"not a process: {p!r}")

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
            report = {"actor": actor, "method": name, "ok": True, "errors": []}
            try:
                t = _body_typing(prog, actor, decl)
                report["computed"] = {
                    "type": str(t.ty),
                    "requires": {a: {r: format_grade(g) for r, g in env.items()}
                                 for a, env in t.requires.items()},
                    "produces": {a: {r: format_grade(g) for r, g in env.items()}
                                 for a, env in t.produces.items()},
                    "measure": t.measure,
                }
                report["declared"] = {
                    "type": str(decl.result),
                    "requires": {a: {r: format_grade(g) for r, g in env.items()}
                                 for a, env in ctx_norm(m, decl.requires).items()},
                    "produces": {a: {r: format_grade(g) for r, g in env.items()}
                                 for a, env in ctx_norm(m, decl.produces).items()},
                    "measure": decl.measure,
                }
                if t.ty != decl.result:
                    report["errors"].append(CheckError(
                        "TypeMismatch", f"body returns {t.ty}, declared {decl.result}",
                        f"{actor}.{name}").to_json())
                if not _theta_match(m, ctx_norm(m, decl.requires), t.requires,
                                    ctx_norm(m, decl.produces), t.produces):
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

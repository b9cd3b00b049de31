"""Acceptance gate: eight end-to-end checks, one PASS/FAIL line each.

Each check prints its verdict line before asserting, so a red run still
shows which gates failed. Frozen numbers (state counts, universe sizes,
step sequences) are pinned exactly; loosening them is not a fix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from functools import lru_cache
from itertools import product

from gract import cli
from gract.explorer import check_helpful, check_subject_reduction, explore
from gract.grades import INF, Affine, Level, Lin, NatLeq
from gract.parser import parse_program
from gract.semantics import (
    initial_config,
    is_terminated,
    random_chooser,
    run,
    script_chooser,
    step_config,
)
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
    OpSig,
    PrimOp,
    Program,
    Release,
    ResT,
    Return,
    UnitT,
    UnitVal,
    Var,
    ctx_of,
    fut_type,
)
from gract.typecheck import CheckError, check_program, measure_of_config, type_expr

import declarative_oracle as oracle
from corpus import EXAMPLES
from term_helpers import carrier_sample

_times: dict[str, float] = {}


def _verdict(name: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, {k: v for k, v in checks.items() if not v}


def _cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def _cafe() -> Program:
    return parse_program((EXAMPLES / "cafe.gract").read_text())


@lru_cache(maxsize=None)
def _exploration():
    t0 = time.perf_counter()
    rep = explore(_cafe(), unfold=2, max_depth=500)
    _times["explore"] = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# 1. grade algebra laws

def _laws(m, sample) -> bool:
    z = m.zero()
    for g in sample:
        if m.plus(g, z) != g or not m.leq(g, g):
            return False
        if m.leq(g, z) and g != z:
            return False
        d = m.minus(g, g)
        if d is None or not m.is_discardable(d) or m.minus(g, z) != g:
            return False
    for g, h in product(sample, repeat=2):
        if m.plus(g, h) != m.plus(h, g):
            return False
        if m.leq(g, h) and m.leq(h, g) and g != h:
            return False
        d = m.minus(h, g)
        if d is not None and m.plus(g, d) != h:
            return False
        if m.leq(g, h) and (d is None or not m.is_discardable(d)):
            return False
        if m.minus(m.plus(g, h), g) is None:
            return False
    for g, h, k in product(sample, repeat=3):
        if m.plus(m.plus(g, h), k) != m.plus(g, m.plus(h, k)):
            return False
        if m.leq(g, h) and not m.leq(m.plus(g, k), m.plus(h, k)):
            return False
        if m.leq(g, h) and m.leq(h, k) and not m.leq(g, k):
            return False
        # subtraction is the upper adjoint of addition
        d = m.minus(h, g)
        lhs = m.leq(m.plus(g, k), h)
        if lhs != (d is not None and m.leq(k, d)):
            return False
    return True


def test_1_grade_algebra_laws():
    t0 = time.perf_counter()
    lin = Lin()
    privacy = Level(["public", "internal", "secret"],
                    [("public", "internal"), ("internal", "secret")])
    checks = {
        "lin laws": _laws(lin, carrier_sample(lin)),
        "lin carrier is 3 grades": len(carrier_sample(lin)) == 3,
        "affine laws": _laws(Affine(), carrier_sample(Affine())),
        "privacy lattice laws": _laws(privacy, carrier_sample(privacy)),
        "naturals laws": _laws(NatLeq(), list(range(9)) + [INF]),
        "lin 1+1 saturates": lin.plus(1, 1) == INF,
        "lin inf-1 stays inf": lin.minus(INF, 1) == INF,
        "lin 1-1 is 0": lin.minus(1, 1) == 0,
        "level subtraction iff below": all(
            privacy.minus(y, x) == (y if privacy.leq(x, y) else None)
            for x, y in product(carrier_sample(privacy), repeat=2)),
    }
    checks["under 1s"] = time.perf_counter() - t0 < 1.0
    _verdict("grade algebra laws hold on all four instances", checks)


# ---------------------------------------------------------------------------
# 2. static checking of the cafe program

def test_2_check_command_and_localization():
    t0 = time.perf_counter()
    rc_ok, out_ok, _ = _cli(["check", str(EXAMPLES / "cafe.gract"), "--json"])
    doc_ok = json.loads(out_ok)
    rc_bad, out_bad, _ = _cli(["check", str(EXAMPLES / "cafe-nocup.gract"), "--json"])
    doc_bad = json.loads(out_bad)
    bad_errors = doc_bad["configReport"]["errors"]
    checks = {
        "well-typed cafe exits 0": rc_ok == 0,
        "canonical initial context is one cup": (
            doc_ok["configReport"]["requires"] == {"B": {"CC": "1"}}),
        "cupless cafe exits 1": rc_bad == 1,
        "error names the missing resource": any(
            e["code"] == "InsufficientInitialResources" for e in bad_errors),
        "error localized to the init declaration": any(
            e.get("loc") == "init B.CC" for e in bad_errors),
    }
    checks["under 1s"] = time.perf_counter() - t0 < 1.0
    _verdict("checker accepts the cafe and localizes the cupless failure", checks)


# ---------------------------------------------------------------------------
# 3. scripted replay of the worked reduction

EXPECTED_PREFIX = ["spawn", "call", "spawn", "hold", "silent", "silent", "silent",
                   "call", "spawn", "rls", "silent", "return", "silent", "get"]


def test_3_scripted_replay_matches_worked_reduction():
    t0 = time.perf_counter()
    prog = _cafe()
    doc = json.loads((EXAMPLES / "cafe-replay.json").read_text())
    trace = run(initial_config(prog), prog, script_chooser(doc["steps"]), 50)
    rules = [s.rule for s in trace.steps]
    after_hold = ctx_of(trace.steps[3].config.alpha)
    after_release = ctx_of(trace.steps[9].config.alpha)
    checks = {
        "script drives exactly 14 steps": len(trace.steps) == 14,
        "rule names match the worked reduction": rules == EXPECTED_PREFIX,
        "cup is held after step 4": after_hold.get("B", {}).get("CC", 0) == 0,
        "cup reappears at the counter after step 10": (
            after_release.get("Cn", {}).get("Cf", 0) == 1),
    }
    checks["under 1s"] = time.perf_counter() - t0 < 1.0
    _verdict("scripted replay reproduces the worked 14-step reduction", checks)


# ---------------------------------------------------------------------------
# 4. dynamic soundness along random runs

def test_4_random_runs_stay_typable():
    t0 = time.perf_counter()
    prog = _cafe()
    start = initial_config(prog)
    violations = 0
    for seed in range(100):
        trace = run(start, prog, random_chooser(random.Random(seed)), 200)
        rep = check_subject_reduction(prog, trace)
        if not rep["ok"]:
            violations += len(rep["violations"])
    elapsed = time.perf_counter() - t0
    checks = {
        "zero violations over 100 seeded runs": violations == 0,
        "under 30s": elapsed < 30.0,
    }
    _verdict("every configuration along 100 random runs re-typechecks", checks)


# ---------------------------------------------------------------------------
# 5. measures guide progress on every explored state

def test_5_measure_decreasing_successors_everywhere():
    prog = _cafe()
    rep = _exploration()
    helpful = check_helpful(prog, rep.visited)
    zero_mismatch = untypable = 0
    for cfg in rep.visited:
        mu = measure_of_config(prog, cfg)
        if mu is None:
            untypable += 1
            continue
        terminated = is_terminated(cfg) and not step_config(cfg, prog)
        if (mu == 0) != terminated:
            zero_mismatch += 1
    checks = {
        "every visited state is typable": untypable == 0,
        "decreasing successor whenever measure > 0": helpful["ok"],
        "a good share of states actually checked": helpful["checked"] > 100,
        "measure hits zero exactly on terminated states": zero_mismatch == 0,
    }
    _verdict("a measure-decreasing successor exists from every live state", checks)


# ---------------------------------------------------------------------------
# 6. bounded exploration verdict is stable

def test_6_exploration_terminates_and_is_stable():
    rep = _exploration()
    again = explore(_cafe(), unfold=2, max_depth=500)
    checks = {
        "verdict is fair-terminating": rep.verdict == "FairTerminating",
        "state count frozen at 153": rep.states_visited == 153,
        "depth within bound": rep.max_depth <= 500,
        "serial rerun agrees": again.states_visited == 153 and
            again.verdict == rep.verdict,
        "under 60s": _times["explore"] < 60.0,
    }
    _verdict("unfolding-2 exploration fair-terminates with a stable count", checks)


# ---------------------------------------------------------------------------
# 7. the three seeded failure modes

def _all_codes(report: dict) -> set:
    codes = {e["code"] for e in report.get("errors", [])}
    for mr in report.get("methodReports", []):
        codes |= {e["code"] for e in mr.get("errors", [])}
    cfg = report.get("configReport") or {}
    codes |= {e["code"] for e in cfg.get("errors", [])}
    return codes


def test_7_failure_modes_diagnosed():
    rc, out, _ = _cli(["run", str(EXAMPLES / "cafe-nocup.gract"),
                       "--unsafe", "--json"])
    doc = json.loads(out)
    diag = doc.get("diagnosis") or []
    linear = check_program(
        parse_program((EXAMPLES / "linear-future.gract").read_text()))
    recursive = check_program(
        parse_program((EXAMPLES / "recursive-unsolvable.gract").read_text()))
    checks = {
        "cupless run gets stuck": rc == 4 and doc["status"] == "stuck",
        "stuck diagnosis blames the hold": any(
            d.get("code") == "StuckAtHold" and d.get("actor") == "B"
            and d.get("res") == "CC" for d in diag),
        "double await is a linearity error": not linear["ok"] and
            "NonLinearFuture" in _all_codes(linear),
        "unbounded recursion has no measure": not recursive["ok"] and
            "UnsolvableRecursiveMeasure" in _all_codes(recursive),
    }
    _verdict("the three seeded failure modes are each diagnosed", checks)


# ---------------------------------------------------------------------------
# 8. canonical checker vs derivation-search reference

UNIT = UnitT()


def _oracle_program() -> Program:
    m0 = MethodDecl("m0", [], UNIT, {"B": {"R": 1}}, {}, 2, Return(Lit(UnitVal())))
    m1 = MethodDecl("m1", [("z0", ResT("R", 1))], UNIT, {}, {"B": {"S": 1}}, 1,
                    Return(Lit(UnitVal())))
    actors = {"A": ActorDecl("A", {}), "B": ActorDecl("B", {"m0": m0, "m1": m1})}
    ops = {"brew": OpSig([ResT("R", 1)], ResT("S", 1))}
    return Program(Lin(), ops, actors, {}, "A", "m0", ())


def _atoms():
    return [
        Return(Lit(UnitVal())),
        Return(Var("u")),
        Return(GradedVar("x", 1)),
        Return(Lit(GradedRes("R", 1))),
        Return(Var("y")),
        Hold(1, "R"),
        Hold(INF, "R"),
        Hold(1, "S"),
        Release(1, Lit(GradedRes("R", 1))),
        Release(1, GradedVar("x", 1)),
        Await(Var("y")),
        Await(Lit(FutRef("f"))),
        Call("B", "m0", ()),
        Call("B", "m1", (GradedVar("x", 1),)),
        Call("B", "m1", (Lit(GradedRes("R", 1)),)),
        PrimOp("brew", (Lit(GradedRes("R", 1)),)),
        PrimOp("brew", (GradedVar("x", 1),)),
    ]


def _binder_uses(name: str):
    return [
        Return(Var(name)),
        Return(GradedVar(name, 1)),
        Release(1, GradedVar(name, 1)),
        Await(Var(name)),
        PrimOp("brew", (GradedVar(name, 1),)),
    ]


def _universe():
    d1 = _atoms()
    d2 = [Let("z", a, b) for a in d1 for b in d1 + _binder_uses("z")] + \
         [Choice(a, b) for a in d1 for b in d1]
    d3 = [Let("w", a, b) for a in d2 for b in d1 + _binder_uses("w")] + \
         [Let("w", a, b) for a in d1 for b in d2] + \
         [Choice(a, b) for a in d2 for b in d1] + \
         [Choice(a, b) for a in d1 for b in d2]
    return d1 + d2 + d3


def _contexts():
    return [
        ({}, {}),
        ({"x": ResT("R", 1)}, {}),
        ({"x": ResT("R", INF)}, {}),
        ({"u": UNIT}, {}),
        ({"y": fut_type(UNIT, {"B": {"S": 1}})}, {}),
        ({}, {"f": fut_type(UNIT, {})}),
    ]


def test_8_checker_agrees_with_derivation_search():
    t0 = time.perf_counter()
    prog = _oracle_program()
    checked = accepted = disagreements = 0
    # each rejection's code, location and detail, keyed by its judgment's index
    rejections = hashlib.sha256()
    for e in _universe():
        for gdict, sdict in _contexts():
            checked += 1
            try:
                t = type_expr(prog, "A", dict(gdict), dict(sdict), e)
            except CheckError as err:
                rejections.update(
                    f"{checked - 1}|{err.code}|{err.loc}|{err.detail}\n".encode())
                continue
            accepted += 1
            gamma = frozenset(gdict.items())
            sigma = frozenset(
                (f, ty) for f, ty in sdict.items() if f in t.used_futs)
            if not oracle.judgment_holds(
                    prog, "A", gamma, sigma, e, t.ty,
                    oracle.from_actor_ctx(t.requires),
                    oracle.from_actor_ctx(t.produces), t.measure):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    checks = {
        "universe size frozen": checked == 294474,
        "accepted count frozen": accepted == 2919,
        "zero disagreements": disagreements == 0,
        # the 291,555 rejections as recorded at b9d15bb
        "rejections frozen": rejections.hexdigest() == (
            "49df6d187ab87ca4f81ccac99bf41d8cd6d06849c8a793ee89dfda6ee10de582"),
        "under 5 minutes": elapsed < 300.0,
    }
    _verdict("derivation search confirms every canonically accepted judgment",
             checks)

"""Subject reduction's graded-state law compares the stored resource
entries, zero grades left out. It must flag exactly what the law flagged
when both sides were converted (`ctx_of`) and the expected side built
with `ctx_minus`, `ctx_plus` and `ctx_norm`. That check is kept here as
the reference, inside an otherwise unchanged `check_subject_reduction`.
The reference finds a choice step from the parent's redex, as the
explorer once did, so it does not read `StepResult.branch`.
"""

import random
from dataclasses import replace
from functools import partial

import pytest

from gract.explorer import check_subject_reduction
from gract.grades import ctx_minus, ctx_norm, ctx_plus
from gract.parser import parse_program
from gract.semantics import (
    CallLbl,
    HoldLbl,
    RlsLbl,
    Trace,
    initial_config,
    label_str,
    random_chooser,
    redex,
    run,
)
from gract.terms import Choice, ctx_key, ctx_of
from gract.typecheck import type_config, type_process

from corpus import EXAMPLES, KCAFE1, planted_barista
from term_helpers import active_thread

SOURCES = {
    "cafe": (EXAMPLES / "cafe.gract").read_text(),
    "clearance": (EXAMPLES / "clearance.gract").read_text(),
    "kcafe(1)": KCAFE1,
}
# each builds a fresh program; the barista is the planted one, which gets stuck
PROGRAMS = {name: partial(parse_program, src) for name, src in SOURCES.items()}
PROGRAMS["NATEQ_BARISTA"] = planted_barista


def _reference_alpha(m, alpha, s):
    match s.label:
        case HoldLbl(r, g):
            return ctx_minus(m, alpha, {s.actor: {r: g}})
        case RlsLbl(r, g):
            return ctx_norm(m, ctx_plus(m, alpha, {s.actor: {r: g}}))
        case _:
            return ctx_norm(m, alpha)


def _is_choice_step(pre, s) -> bool:
    # only an active thread's redex is a choice, so a choice step is `base`
    if s.rule != "silent" or s.variant != "base":
        return False
    return isinstance(redex(active_thread(pre, s.actor).expr), Choice)


def reference_sr(prog, trace) -> dict:
    """check_subject_reduction with the conversion-based graded-state law."""
    m = prog.monoid
    violations, measures = [], []

    def snap(cfg, where):
        report = type_config(prog, cfg)
        if not report["ok"]:
            violations.append({"step": where, "code": "Untypable",
                               "errors": report["errors"]})
            measures.append(None)
            return None
        measures.append(report["measure"])
        return type_process(prog, cfg.processes)

    pre = trace.initial
    pt = snap(pre, -1)
    unmarked0 = None if pt is None else set(pt.produced) - pt.marked
    for k, s in enumerate(trace.steps):
        post = s.config
        pt2 = snap(post, k)
        if pt is not None and pt2 is not None:
            unmarked = set(pt2.produced) - pt2.marked
            if unmarked0 is not None and unmarked != unmarked0:
                violations.append({"step": k, "code": "UnreadSetChanged",
                                   "was": sorted(unmarked0), "now": sorted(unmarked)})
            want = set(pt.marked)
            match s.rule, s.label:
                case "call", CallLbl(fresh, _, _, _):
                    want.add(fresh)
                case "get", lbl:
                    want.discard(lbl.future)
                case _:
                    pass
            if pt2.marked != want:
                violations.append({"step": k, "code": "MarkLawBroken",
                                   "expected": sorted(want), "got": sorted(pt2.marked)})
        mu0, mu1 = measures[-2], measures[-1]
        if mu0 is not None and mu1 is not None:
            if _is_choice_step(pre, s):
                if mu1 < mu0 - 1:
                    violations.append({"step": k, "code": "MeasureDroppedTooFar",
                                       "from": mu0, "to": mu1})
            elif mu1 != mu0 - 1:
                violations.append({"step": k, "code": "MeasureNotDecrementing",
                                   "from": mu0, "to": mu1})
        if post.alpha != pre.alpha or isinstance(s.label, (HoldLbl, RlsLbl)):
            want_alpha = _reference_alpha(m, ctx_of(pre.alpha), s)
            if want_alpha is None or ctx_norm(m, ctx_of(post.alpha)) != want_alpha:
                violations.append({"step": k, "code": "GradedStateMismatch",
                                   "label": label_str(s.label)})
        pre, pt = post, pt2
    if trace.status == "stuck" and measures[-1] is not None:
        violations.append({"step": len(trace.steps) - 1, "code": "StuckState",
                           "measure": measures[-1]})
    return {"ok": not violations, "steps": len(trace.steps),
            "violations": violations, "measures": measures}


def _runs(prog, seed: int, n: int = 100) -> list[Trace]:
    rng = random.Random(seed)
    return [run(initial_config(prog), prog, random_chooser(rng), 200) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_random_runs_are_judged_alike(name):
    prog = PROGRAMS[name]()
    traces = _runs(prog, 22)
    got = [check_subject_reduction(prog, tr) for tr in traces]
    assert got == [reference_sr(prog, tr) for tr in traces]
    moves = [s for tr in traces for s in tr.steps if isinstance(s.label, (HoldLbl, RlsLbl))]
    # every program but the stuck barista holds and releases along its runs
    assert (len(moves) > 0) == (name != "NATEQ_BARISTA")
    assert all(law["ok"] for law in got) == (name != "NATEQ_BARISTA")


@pytest.fixture(scope="module")
def cafe_trace():
    prog = parse_program(SOURCES["cafe"])
    tr = run(initial_config(prog), prog, random_chooser(random.Random(22)), 200)
    assert tr.status == "terminated"
    return prog, tr


def _forged(trace: Trace, k: int, alpha: dict) -> Trace:
    """The trace up to step k, whose configuration gets `alpha`."""
    s = trace.steps[k]
    step = replace(s, config=s.config.copy(alpha=ctx_key(alpha)))
    return Trace(trace.initial, [*trace.steps[:k], step], "bound")


def _graded_state_flags(prog, trace: Trace) -> list[int]:
    law = check_subject_reduction(prog, trace)
    assert law == reference_sr(prog, trace)
    return [v["step"] for v in law["violations"] if v["code"] == "GradedStateMismatch"]


def _first(trace: Trace, rule: str) -> int:
    return next(k for k, s in enumerate(trace.steps) if s.rule == rule)


def test_a_hold_off_by_one_grade_is_flagged(cafe_trace):
    prog, tr = cafe_trace
    k = _first(tr, "hold")
    alpha = ctx_of(tr.steps[k].config.alpha)
    assert alpha["B"]["CC"] == 0  # the hold left its zero entry
    alpha["B"]["CC"] = 1
    assert _graded_state_flags(prog, _forged(tr, k, alpha)) == [k]
    assert _graded_state_flags(prog, _forged(tr, k, ctx_of(tr.steps[k].config.alpha))) == []


def test_a_release_off_by_one_grade_is_flagged(cafe_trace):
    prog, tr = cafe_trace
    k = _first(tr, "rls")
    alpha = ctx_of(tr.steps[k].config.alpha)
    alpha[tr.steps[k].actor][tr.steps[k].label.res] = 0
    assert _graded_state_flags(prog, _forged(tr, k, alpha)) == [k]


def test_a_zero_grade_entry_moves_nothing(cafe_trace):
    prog, tr = cafe_trace
    k = _first(tr, "silent")
    alpha = {**ctx_of(tr.steps[k].config.alpha), "Z": {"R": 0}}
    forged = _forged(tr, k, alpha)
    assert forged.steps[k].config.alpha != (tr.steps[k - 1].config if k else tr.initial).alpha
    assert _graded_state_flags(prog, forged) == []
    # and a hold whose zero entry is missing still matches
    h = _first(tr, "hold")
    emptied = ctx_of(tr.steps[h].config.alpha)
    del emptied["B"]["CC"]
    assert _graded_state_flags(prog, _forged(tr, h, emptied)) == []


def test_a_silent_step_that_moves_resources_is_flagged(cafe_trace):
    prog, tr = cafe_trace
    k = _first(tr, "silent")
    alpha = {**ctx_of(tr.steps[k].config.alpha), "Z": {"R": 1}}
    assert _graded_state_flags(prog, _forged(tr, k, alpha)) == [k]

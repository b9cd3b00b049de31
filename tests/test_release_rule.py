"""The release rule: what grade a thread may give back of what it holds.

On a level lattice a grade is a label, not an amount, so a resource held
at `secret` may be released at `secret` only: releasing it at `public`
would launder it. The counting algebras keep their weakening and release
any part of what is held.
"""

import pytest

from gract.grades import INF, Affine, Level, Lin, NatExact, NatLeq
from gract.parser import parse_program
from gract.semantics import Stuck, step_expr
from gract.terms import GradedRes, GradedVar, Lit, Release
from gract.typecheck import check_program

from corpus import EXAMPLES
from term_helpers import carrier_sample

LAUNDER = """\
  launder(): Unit requires Db: Doc^secret produces Db: Doc^public measure 4 {
    let d = hold secret Doc in release public d^secret; return unit }
"""


def _clearance_with(method: str) -> str:
    text = (EXAMPLES / "clearance.gract").read_text()
    head, sep, tail = text.partition("Db {\n")
    assert sep, "clearance.gract declares actor Db"
    return head + sep + method + tail


def _codes(report: dict) -> list[str]:
    return [e["code"] for e in report["errors"]]


def test_clearance_still_checks():
    report = check_program(parse_program((EXAMPLES / "clearance.gract").read_text()))
    assert report["ok"] and report["configReport"]["measure"] == 12


def test_laundering_release_is_rejected():
    report = check_program(parse_program(_clearance_with(LAUNDER)))
    assert not report["ok"]
    launder = [r for r in report["methodReports"] if r["method"] == "launder"]
    assert [e["code"] for e in launder[0]["errors"]] == ["UnreleasableGrade"]
    assert launder[0]["errors"][0]["loc"] == "Db.launder binding of _s0"
    assert _codes(report) == ["UnreleasableGrade"]


RAISE = """\
  raise_(): Unit requires Db: Doc^public produces Db: Doc^secret measure 4 {
    let d = hold public Doc in release secret d^public; return unit }
"""


def test_release_above_the_held_level_is_still_too_small():
    report = check_program(parse_program(_clearance_with(RAISE)))
    assert "GradeTooSmall" in _codes(report)
    assert "UnreleasableGrade" not in _codes(report)


def test_counting_algebras_release_part_of_a_grade():
    for m in (Lin(), Affine(), NatLeq(), NatExact()):
        sample = carrier_sample(m)
        assert all(m.releasable(g, h) == m.leq(g, h) for g in sample for h in sample)
    assert Affine().releasable(0, 1) and NatLeq().releasable(2, 5)
    ladder = Level(["public", "internal", "secret"],
                   [("public", "internal"), ("internal", "secret")])
    assert ladder.releasable("secret", "secret")
    assert not ladder.releasable("public", "secret")
    assert not ladder.releasable("secret", "public")


def test_machine_refuses_a_laundering_release():
    ladder = Level(["public", "secret"], [("public", "secret")])
    prog = parse_program(_clearance_with(""))
    with pytest.raises(Stuck) as down:
        step_expr(ladder, {}, Release("public", Lit(GradedRes("Doc", "secret"))),
                  prog, "f#9", "y#9", None, {})
    assert down.value.code == "UnreleasableGrade"
    same = step_expr(ladder, {}, Release("secret", Lit(GradedRes("Doc", "secret"))),
                     prog, "f#9", "y#9", None, {})
    assert len(same) == 1
    lin = step_expr(Lin(), {}, Release(1, Lit(GradedRes("R", INF))),
                    prog, "f#9", "y#9", None, {})
    assert len(lin) == 1


LAUNDER_BY_USE = """\
  launder2(): Unit requires Db: Doc^secret produces Db: Doc^public measure 4 {
    let d = hold secret Doc in release public d^public; return unit }
"""


def test_laundering_through_a_graded_use_is_rejected():
    """A level is a label: using a `secret` resource at `public` would
    relabel it as surely as releasing it at `public` does."""
    report = check_program(parse_program(_clearance_with(LAUNDER_BY_USE)))
    assert not report["ok"]
    launder = [r for r in report["methodReports"] if r["method"] == "launder2"]
    assert [e["code"] for e in launder[0]["errors"]] == ["UnreleasableGrade"]
    assert launder[0]["errors"][0]["loc"] == "Db.launder2 binding of _s0"
    assert _codes(report) == ["UnreleasableGrade"]


def test_machine_refuses_a_laundering_graded_use():
    ladder = Level(["public", "secret"], [("public", "secret")])
    prog = parse_program(_clearance_with(""))
    env = {"d": GradedRes("Doc", "secret")}
    with pytest.raises(Stuck) as down:
        step_expr(ladder, env, Release("public", GradedVar("d", "public")),
                  prog, "f#9", "y#9", None, {})
    assert down.value.code == "UnreleasableGrade"
    same = step_expr(ladder, env, Release("secret", GradedVar("d", "secret")),
                     prog, "f#9", "y#9", None, {})
    assert len(same) == 1
    # counting algebras still use part of what a variable holds
    part = step_expr(NatExact(), {"r": GradedRes("R", INF)},
                     Release(3, GradedVar("r", 3)), prog, "f#9", "y#9", None, {})
    assert len(part) == 1

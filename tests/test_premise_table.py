"""The program's premise table and the locations it relies on.

A `Let`'s bound and a `Choice`'s branches that are themselves a `Let` or
a `Choice` are typed once per program, actor and context
(`Program.premises`). A stored rejection keeps only the part of its
location below the premise, so a hit must report the location of the
position it is met at; and a usage collision must carry a location, or
it could not be split that way.
"""

import json
from dataclasses import replace

import test_acceptance as gate8
from gract.parser import parse_program
from gract.terms import (
    Await,
    Choice,
    GradedVar,
    Hold,
    Let,
    Lit,
    Return,
    UnitT,
    UnitVal,
    Var,
    fut_type,
)
from gract.typecheck import CheckError, check_method_table, type_expr

from corpus import EXAMPLES, cli_output

UNIT = Return(Lit(UnitVal()))
Y = {"y": fut_type(UnitT(), {})}

# fails one level below its own location: `y` is read by both premises of
# the inner let
DOUBLE_READ = Choice(UNIT, Let("z", Await(Var("y")), Await(Var("y"))))


def _error(prog, e, gamma):
    try:
        type_expr(prog, "A", dict(gamma), {}, e, "A.m")
    except CheckError as err:
        return err.code, err.loc, err.detail
    raise AssertionError(f"{e} types")


def test_a_stored_rejection_reports_each_position_its_own_loc():
    prog = gate8._oracle_program()
    as_bound = Let("w", DOUBLE_READ, UNIT)
    as_branch = Choice(DOUBLE_READ, UNIT)
    first = _error(prog, as_bound, Y)
    [entry] = [v for k, v in prog.premises.items() if k[1] is DOUBLE_READ]
    assert entry == ("NonLinearFuture", "variable y consumed twice", " right branch")
    second = _error(prog, as_branch, Y)
    assert first == ("NonLinearFuture", "A.m binding of w right branch",
                     "variable y consumed twice")
    assert second == ("NonLinearFuture", "A.m left branch right branch",
                      "variable y consumed twice")
    # the same errors as with an empty table
    assert second == _error(replace(prog), as_branch, Y)


def test_a_stored_typing_is_shared_and_unchanged():
    prog = gate8._oracle_program()
    premise = Let("z", Await(Var("y")), UNIT)
    t = type_expr(prog, "A", dict(Y), {}, Let("w", premise, UNIT))
    [entry] = [v for k, v in prog.premises.items() if k[1] is premise]
    again = type_expr(prog, "A", dict(Y), {}, Choice(premise, premise))
    assert prog.premises == {("A", premise, tuple(Y.items()), ()): entry}
    assert t.measure == again.measure == entry.measure + 1
    assert entry.used_vars == {"y": Y["y"]} and entry.used_futs == set()


def test_each_actor_has_its_own_entries():
    prog = gate8._oracle_program()
    held = Let("z", Hold(1, "R"), Return(GradedVar("z", 1)))
    for actor in ("A", "B"):
        t = type_expr(prog, actor, {}, {}, Choice(held, held))
        assert t.requires == {actor: {"R": 1}}
    assert len(prog.premises) == 2


RECURSIVE_IN_A_BOUND = """\
grade lin
A {
  loop(): Unit requires produces measure 9 { (let f = A!loop() in f?); return unit }
}
init ;
start A!loop()
"""


def test_the_measure_probe_answers_nothing_from_the_original_table():
    """The recursive call sits in a compound bound, so the body's typing
    stores that bound; the probe raises the declared measure, and only a
    table of its own sees the call's charge grow with it."""
    prog = parse_program(RECURSIVE_IN_A_BOUND)
    [report] = check_method_table(prog)["methodReports"]
    assert [e["code"] for e in report["errors"]] == ["UnsolvableRecursiveMeasure"]
    assert prog.premises and replace(prog).premises == {}


def test_a_usage_collision_is_located(tmp_path):
    path = tmp_path / "twice.gract"
    path.write_text("""\
grade lin
A {
  main(): Unit requires produces measure 9 {
    let f = B!m() in let g = f? in let h = f? in return unit }
}
B {
  m(): Unit requires produces measure 0 { return unit }
}
init ;
start A!main()
""")
    code, out = cli_output(["check", str(path), "--json"])
    errors = json.loads(out)["errors"]
    assert code == 1
    assert {"code": "NonLinearFuture", "loc": "A.main",
            "detail": "variable f consumed twice"} in errors
    code, out = cli_output(["check", str(EXAMPLES / "linear-future.gract"), "--json"])
    assert [e["loc"] for e in json.loads(out)["errors"]
            if e["code"] == "NonLinearFuture"] == ["C.main"]

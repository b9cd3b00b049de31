"""A checked program that gets stuck is reported by every law check.

`corpus.planted_barista()` is `NATEQ_BARISTA` under an algebra that
breaks "split then hold": it passes `check` and gets stuck in every run.
The stuck state is typable, so the helpful law and subject reduction
must both name it. A stuck state that does not type (`cafe-nocup.gract`
lacks the cup it needs) is no violation of either. Under `natEq` itself
the barista is accepted and every run terminates.
"""

import json
import random

import pytest

from gract.explorer import check_helpful, check_subject_reduction, explore
from gract.parser import parse_program
from gract.semantics import initial_config, random_chooser, run
from gract.typecheck import check_program

from corpus import EXAMPLES, NATEQ_BARISTA, cli_output, planted_barista


@pytest.fixture(scope="module")
def barista():
    return planted_barista()


def test_the_checker_accepts_and_the_explorer_finds_it_stuck(barista):
    report = check_program(barista)
    assert report["ok"] and report["configReport"]["measure"] == 88
    rep = explore(barista, unfold=2)
    assert (rep.verdict, rep.states_visited, rep.max_depth) == ("StuckFound", 78, 13)


def test_check_helpful_reports_each_typable_stuck_state(barista):
    law = check_helpful(barista, explore(barista, unfold=2).visited)
    assert not law["ok"]
    assert [(v["code"], v["measure"]) for v in law["violations"]] == [("StuckState", 76)] * 2
    assert law["checked"] == 78
    [stuck] = {json.dumps(v["config"]["actors"]) for v in law["violations"]}
    assert json.loads(stuck) == {"B": {"CC": "2"}}


def test_subject_reduction_flags_a_run_that_ends_stuck(barista):
    tr = run(initial_config(barista), barista, random_chooser(random.Random(4)), 200)
    assert tr.status == "stuck"
    law = check_subject_reduction(barista, tr)
    assert not law["ok"]
    assert law["violations"] == [{"step": len(tr.steps) - 1, "code": "StuckState",
                                  "measure": 76}]


def test_sr_passes_every_run_of_the_natEq_barista(tmp_path):
    """Each customer's hold takes back the share of `CC^2` that the
    checker split off for it, so no run gets stuck. (`explore` finds the
    barista `FairTerminating` in 8,929 states; CI runs it.)"""
    path = tmp_path / "barista.gract"
    path.write_text(NATEQ_BARISTA)
    code, out = cli_output(["check", str(path), "--json"])
    report = json.loads(out)
    assert code == 0 and report["ok"] and report["configReport"]["measure"] == 88
    code, out = cli_output(["sr", str(path), "--runs", "30", "--seed", "4", "--json"])
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert len(report["runs"]) == 30
    for r in report["runs"]:
        assert (r["status"], r["steps"], r["ok"], r["violations"]) == ("terminated", 88, True, [])


def test_an_untypable_stuck_state_is_no_violation():
    prog = parse_program((EXAMPLES / "cafe-nocup.gract").read_text())
    rep = explore(prog, unfold=2)
    assert rep.verdict == "StuckFound"
    assert check_helpful(prog, rep.visited)["ok"]
    tr = run(initial_config(prog), prog, random_chooser(random.Random(0)), 200)
    assert tr.status == "stuck"
    codes = {v["code"] for v in check_subject_reduction(prog, tr)["violations"]}
    assert "StuckState" not in codes

"""Every dynamic law is seen to fail.

Each law `check_subject_reduction` checks is broken once by a forgery of
the cafe's 41-step fifo run, and its exact (step, code) list is pinned;
the reference judgment of `test_sr_graded_state` must agree on each
forgery. The helpful law is broken by two example programs, one of
which also has untypable states, which that law skips.
"""

from dataclasses import replace

import pytest

from gract.explorer import check_helpful, check_subject_reduction, explore
from gract.parser import parse_program
from gract.semantics import Trace, fifo_chooser, initial_config, run
from gract.terms import FulfilledFut, UnitVal
from gract.typecheck import measure_of_config

from corpus import EXAMPLES
from test_sr_graded_state import reference_sr


def _load(name):
    return parse_program((EXAMPLES / f"{name}.gract").read_text())


@pytest.fixture(scope="module")
def fifo():
    cafe = _load("cafe")
    tr = run(initial_config(cafe), cafe, fifo_chooser, 200)
    assert tr.status == "terminated" and len(tr.steps) == 41
    return cafe, tr


def _flags(fifo, steps) -> list[tuple[int, str]]:
    """The (step, code) list subject reduction gives a run of `steps`
    from the cafe's start, which the reference judgment must match."""
    cafe, tr = fifo
    forged = Trace(tr.initial, steps, "bound")
    law = check_subject_reduction(cafe, forged)
    assert law == reference_sr(cafe, forged)
    return [(v["step"], v["code"]) for v in law["violations"]]


def test_a_skipped_step_breaks_the_measure_and_the_graded_state(fifo):
    """Without step 3 (B's hold), step 4 is reached from step 2: the
    measure drops by two and B's cup is gone with no hold."""
    steps = fifo[1].steps
    assert steps[3].rule == "hold"
    assert _flags(fifo, steps[:3] + steps[4:8]) == [
        (3, "MeasureNotDecrementing"), (3, "GradedStateMismatch")]


def test_a_call_that_names_another_future_breaks_the_mark_law(fifo):
    steps = fifo[1].steps
    call = steps[1]
    assert call.rule == "call"
    forged = replace(call, label=replace(call.label, future="f#99"))
    assert _flags(fifo, [steps[0], forged, *steps[2:4]]) == [(1, "MarkLawBroken")]


def test_a_choice_that_drops_two_breaks_the_choice_law(fifo):
    """Step 39 takes the choice; carrying step 40's configuration, it
    drops the measure by two, which not even a choice may do."""
    steps = fifo[1].steps
    assert steps[39].branch is not None
    skipped = replace(steps[39], config=steps[40].config)
    assert _flags(fifo, [*steps[:39], skipped]) == [(39, "MeasureDroppedTooFar")]


def test_a_fulfilment_from_nowhere_changes_the_unread_set(fifo):
    first = fifo[1].steps[0]
    stray = first.config.copy(first.config.processes + (FulfilledFut("f#77", UnitVal()),))
    assert _flags(fifo, [replace(first, config=stray)]) == [(0, "UnreadSetChanged")]


def test_a_hold_of_more_than_is_held_breaks_the_graded_state(fifo):
    """Step 2 forged to leave B no cup is untypable and moves resources
    with no hold; B's hold at step 3 then takes a cup B lacks."""
    steps = fifo[1].steps
    assert steps[3].rule == "hold" and steps[3].actor == "B"
    cupless = replace(steps[2], config=steps[2].config.copy(alpha=(("B", (("CC", 0),)),)))
    assert _flags(fifo, [*steps[:2], cupless, steps[3]]) == [
        (2, "Untypable"), (2, "GradedStateMismatch"), (3, "GradedStateMismatch")]


@pytest.mark.parametrize("name, states, checked, untypable, measures", [
    ("recursive-unsolvable", 5, 5, 0, [7, 9]),
    ("linear-future", 8, 1, 7, [7]),
], ids=["recursive-unsolvable", "linear-future"])
def test_a_state_with_no_cheaper_successor_breaks_the_helpful_law(
        name, states, checked, untypable, measures):
    """Both programs are rejected by `check`. Every state the law checks
    is typable; it skips the untypable ones."""
    prog = _load(name)
    visited = explore(prog, unfold=2).visited
    assert len(visited) == states
    assert sum(measure_of_config(prog, c) is None for c in visited) == untypable
    law = check_helpful(prog, visited)
    assert law["checked"] == checked
    assert [(v["code"], v["measure"]) for v in law["violations"]] == [
        ("NoHelpfulSuccessor", mu) for mu in measures]

"""`step_config` lists successors in the order of the processes that act,
as they stand in the parent configuration: a spawn at its message, an
activation at its suspended thread, an active thread's steps at the
thread, and a choice's left branch first. The order reads no fresh-name
spelling, so renaming futures leaves it alone; fifo runs, random
choices and a replay's `pick` index this order."""

import pytest

from gract.parser import parse_program
from gract.semantics import step_config
from gract.terms import Await, Choice, FulfilledFut, FutRef, Idle, Lit, Return, Thread, UnitVal, Var

from corpus import EXAMPLES
from term_helpers import config_of


@pytest.fixture(scope="module")
def cafe():
    return parse_program((EXAMPLES / "cafe.gract").read_text())


def _unit():
    return Return(Lit(UnitVal()))


def _waiting(actor, future, awaited):
    return Thread({"y": FutRef(awaited)}, Await(Var("y")), future, actor, suspended=True)


def _order(succ):
    return [(s.rule, s.actor, s.variant) for s in succ]


def test_a_thread_steps_before_a_later_thread_it_activates_in_front_of(cafe):
    """B's suspended thread takes B's idle marker, so it lands where A's
    thread stands; A stands before it in the parent, so A's return comes
    first."""
    procs = [Idle("B"), FulfilledFut("f#1", UnitVal()), Thread({}, _unit(), "f#2", "A"),
             _waiting("B", "f#3", "f#1")]
    assert _order(step_config(config_of({}, procs), cafe)) == [
        ("return", "A", "base"), ("get", "B", "act")]


def _two_readers(first, second):
    return [FulfilledFut(first, UnitVal()), FulfilledFut(second, UnitVal()), Idle("D"),
            _waiting("C", "f#3", first), _waiting("D", "f#4", second), Idle("C")]


@pytest.mark.parametrize("first, second", [("f#9", "f#10"), ("f#10", "f#9"), ("f#1", "f#2")])
def test_two_activations_onto_one_place_keep_their_threads_order(cafe, first, second):
    """C and D both land at index 3, each taking the fulfilment it awaits.
    C stands first, so its `get` comes first, whatever the futures are
    called ("f#10" sorts before "f#9" as text)."""
    succ = step_config(config_of({}, _two_readers(first, second)), cafe)
    assert [(s.rule, s.actor, s.variant, s.label.future) for s in succ] == [
        ("get", "C", "act", first), ("get", "D", "act", second)]


def test_a_choice_lists_its_left_branch_first(cafe):
    left, right = _unit(), Return(Var("u"))
    chooser = Thread({"u": UnitVal()}, Choice(left, right), "f#1", "A")
    succ = step_config(config_of({}, [chooser]), cafe)
    assert [(s.rule, s.branch) for s in succ] == [("silent", left), ("silent", right)]

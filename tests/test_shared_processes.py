"""Processes are immutable values that successors share with their parent."""

import dataclasses

import pytest

from gract.explorer import explore
from gract.parser import parse_program
from gract.semantics import config_to_json, initial_config, step_config
from gract.terms import (
    ActiveThread,
    CallMsg,
    FulfilledFut,
    FutRef,
    Idle,
    Lit,
    Return,
    SuspendedThread,
    UnitVal,
)

from corpus import EXAMPLES


@pytest.fixture(scope="module")
def cafe():
    with open(EXAMPLES / "cafe.gract") as fh:
        return parse_program(fh.read())


@pytest.fixture(scope="module")
def cafe_states(cafe):
    rep = explore(cafe, unfold=2)
    assert rep.states_visited == 153
    return rep.visited


SAMPLES = [
    ActiveThread({"x": UnitVal()}, Return(Lit(UnitVal())), "f#1", "A"),
    SuspendedThread({"g": FutRef("f#2")}, Return(Lit(UnitVal())), "f#1", "A"),
    Idle("A"),
    CallMsg("f#3", "B", "m", (UnitVal(),)),
    FulfilledFut("f#4", UnitVal()),
]


@pytest.mark.parametrize("p", SAMPLES, ids=lambda p: type(p).__name__)
def test_every_process_field_is_frozen(p):
    for f in dataclasses.fields(p):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, f.name, getattr(p, f.name))
    assert not hasattr(p, "copy")


def test_step_config_leaves_its_input_unchanged(cafe, cafe_states):
    for cfg in cafe_states:
        before = config_to_json(cfg)
        procs = list(cfg.processes)
        step_config(cfg, cafe)
        assert config_to_json(cfg) == before
        assert all(p is q for p, q in zip(cfg.processes, procs, strict=True))


def test_successors_share_the_processes_they_do_not_rewrite(cafe, cafe_states):
    """A step rewrites or removes at most two processes; a folded scheduling
    move (activating a queued thread, or suspending the actor's active one)
    touches one more."""
    for cfg in cafe_states:
        for s in step_config(cfg, cafe):
            kept = {id(p) for p in s.config.processes}
            shared = sum(id(p) in kept for p in cfg.processes)
            touched = 2 if s.variant == "base" else 3
            assert shared >= len(cfg.processes) - touched, (s.rule, s.variant)


def test_copy_shares_processes_and_nothing_else(cafe):
    c = initial_config(cafe)
    d = c.copy()
    assert d.processes == c.processes and d.processes is not c.processes
    assert all(p is q for p, q in zip(c.processes, d.processes, strict=True))
    d.processes.pop()
    d.alpha["B"]["CC"] = 0
    d.alpha["Z"] = {}
    d.registry["f#9"] = None
    d.call_counts[("B", "clean")] = 7
    fresh = initial_config(cafe)
    assert config_to_json(c) == config_to_json(fresh)
    assert c.alpha == fresh.alpha


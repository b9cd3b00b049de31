"""Processes and configurations are immutable values that successors
share with their parent: a successor shares every field its step did not
change, and an exploration writes no configuration a step built."""

import copy
import dataclasses

import pytest

from gract import explorer
from gract.explorer import explore
from gract.parser import parse_program
from gract.semantics import config_to_json, step_config
from gract.terms import (
    CallMsg,
    Configuration,
    FulfilledFut,
    FutRef,
    GradedRes,
    Idle,
    Lit,
    Return,
    Thread,
    UnitVal,
)

from corpus import EXAMPLES, TWO_CAFES


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
    Thread({"x": UnitVal()}, Return(Lit(UnitVal())), "f#1", "A"),
    Thread({"g": FutRef("f#2")}, Return(Lit(UnitVal())), "f#1", "A", suspended=True),
    Idle("A"),
    CallMsg("f#3", "B", "m", (UnitVal(),)),
    FulfilledFut("f#4", UnitVal()),
]


@pytest.mark.parametrize("p", SAMPLES, ids=["Thread", "Thread-suspended", "Idle", "CallMsg",
                                             "FulfilledFut"])
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


def test_a_configuration_cannot_be_written(cafe_states):
    cfg = cafe_states[-1]
    for name in Configuration._fields:
        with pytest.raises(AttributeError):
            setattr(cfg, name, getattr(cfg, name))
    with pytest.raises(TypeError):
        cfg.processes[0] = cfg.processes[0]
    with pytest.raises(TypeError):
        cfg.alpha[0] = cfg.alpha[0]
    assert cfg.copy() == cfg and hash(cfg.copy()) == hash(cfg)


def _fields(cfg):
    return cfg.alpha, cfg.call_counts


def test_step_config_leaves_the_parent_fields_alone(cafe, cafe_states):
    """Successors share their parent's fields: the parent keeps the same
    objects with the same contents."""
    for cfg in cafe_states:
        objects = _fields(cfg)
        inner = dict(cfg.alpha)
        contents = copy.deepcopy(objects)
        step_config(cfg, cafe)
        assert all(x is y for x, y in zip(_fields(cfg), objects, strict=True))
        assert all(dict(cfg.alpha)[a] is env for a, env in inner.items())
        assert _fields(cfg) == contents


def test_successors_share_the_fields_their_rule_does_not_change(cafe, cafe_states):
    changes = {"hold": {"alpha"}, "rls": {"alpha"}, "call": {"call_counts"}}
    seen = set()
    for cfg in cafe_states:
        for s in step_config(cfg, cafe):
            seen.add(s.rule)
            changed = changes.get(s.rule, set())
            for name in ("alpha", "call_counts"):
                if name not in changed:
                    assert getattr(s.config, name) is getattr(cfg, name), (s.rule, name)
            if "alpha" in changed:
                # the other actors' resources are shared even then
                assert all(dict(s.config.alpha)[a] is env for a, env in cfg.alpha
                           if a != s.actor)
    assert seen >= set(changes) | {"spawn", "silent", "get", "return"}


def test_env_order_is_not_part_of_a_thread():
    """Two threads whose environments differ only in insertion order are
    one value."""
    env = {"x": UnitVal(), "y": GradedRes("Order", 1)}
    t1 = Thread(env, Return(Lit(UnitVal())), "f#99", "Z", suspended=True)
    t2 = Thread(dict(reversed(env.items())), Return(Lit(UnitVal())), "f#99", "Z", suspended=True)
    assert list(t1.env) != list(t2.env)
    assert t1 == t2 and hash(t1) == hash(t2) and t1 is not t2


@pytest.mark.parametrize("text, bounds, states", [
    (None, {"unfold": 2}, 153),
    (TWO_CAFES, {"unfold": 2, "max_states": 1000}, 1000),
], ids=["cafe", "two-cafes"])
def test_explore_stores_configurations_as_step_config_built_them(
        monkeypatch, cafe, text, bounds, states):
    """Every stored configuration holds the very process objects, in the
    same list, that `step_config` put there: exploring writes no state."""
    built = {}

    def recording(config, prog):
        succ = step_config(config, prog)
        for s in succ:
            built[id(s.config)] = (s.config, s.config.processes, list(s.config.processes))
        return succ

    monkeypatch.setattr(explorer, "step_config", recording)
    prog = cafe if text is None else parse_program(text)
    rep = explore(prog, **bounds)
    assert rep.states_visited == states
    for cfg in rep.visited[1:]:
        _, procs, objects = built[id(cfg)]
        assert cfg.processes is procs
        assert all(p is q for p, q in zip(cfg.processes, objects, strict=True))

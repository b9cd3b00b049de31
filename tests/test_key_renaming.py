"""The state key reads no fresh-name spelling.

Fresh futures (`f#n`) and let-variables (`y#n`) are named by counters, so
one state reached along two paths can carry its names under different
numbers. The key must not tell such states apart: a renaming of fresh
names keeps every stored state's key, and two commuting `let` steps of
different threads, which bind the same two variables the other way round,
reach one key in either order. `KCAFE1` and the natEq barista are the
programs where a key that sorted environments by name, or ordered
processes by text that spelled their names, split states this way.

Each key is computed with a fresh memo, so no process borrows the pieces
of an equal one met before.
"""

import dataclasses
import random

import pytest

from gract.explorer import _FRESH, canonical_key, explore
from gract.parser import parse_program
from gract.semantics import step_config
from gract.terms import Configuration

from corpus import KCAFE1, NATEQ_BARISTA

PROGRAMS = {"kcafe(1)": KCAFE1, "natEq-barista": NATEQ_BARISTA}


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def explored(request):
    prog = parse_program(PROGRAMS[request.param])
    rep = explore(prog, unfold=2)
    assert rep.verdict == "FairTerminating"
    return prog, rep.visited


def _rename(node, names: dict):
    """`node` with every string that is a fresh name replaced as `names`
    says, every other part rebuilt or kept as it is."""
    if type(node) is str:
        return names.get(node, node)
    if type(node) is tuple:
        return tuple(_rename(x, names) for x in node)
    if type(node) is dict:
        return {_rename(k, names): _rename(v, names) for k, v in node.items()}
    if dataclasses.is_dataclass(node):
        return type(node)(*(_rename(getattr(node, f.name), names)
                            for f in dataclasses.fields(node)))
    return node


def _renamed(config: Configuration, rng: random.Random) -> Configuration:
    """`config` under a random injective renaming of its fresh names, each
    kind onto numbers it could not have reached yet."""
    found = sorted(set(_FRESH.findall(repr(config.processes))))
    names = {}
    for kind in "fy":
        old = [n for n in found if n[0] == kind]
        new = rng.sample(range(1000, 1000 + 10 * len(old) + 10), len(old))
        names.update((o, f"{kind}#{n}") for o, n in zip(old, new))
    procs = tuple(_rename(p, names) for p in config.processes)
    return config.copy(processes=procs, next_future=config.next_future + 2000,
                       next_var=config.next_var + 2000)


def test_renaming_fresh_names_keeps_each_stored_key(explored):
    _, states = explored
    rng = random.Random(31)
    moved = [cfg for cfg in states
             if canonical_key(_renamed(cfg, rng), {}) != canonical_key(cfg, {})]
    assert moved[:1] == []


def _let_steps(prog, cfg) -> dict:
    """The `let` steps of active threads at `cfg`, by the thread's actor:
    those that bind the next fresh variable."""
    return {s.actor: s for s in step_config(cfg, prog)
            if s.variant == "base" and s.config.next_var == cfg.next_var + 1}


def test_commuting_let_steps_reach_one_key(explored):
    prog, states = explored
    pairs = 0
    split = []
    for cfg in states:
        lets = _let_steps(prog, cfg)
        for i in lets:
            for j in lets:
                if i < j:
                    ij = _let_steps(prog, lets[i].config)[j].config
                    ji = _let_steps(prog, lets[j].config)[i].config
                    pairs += 1
                    if canonical_key(ij, {}) != canonical_key(ji, {}):
                        split.append(cfg)
    assert pairs > 0
    assert split[:1] == []

"""Differential tests of the helpful law's lazy successor walk.

`explorer.check_helpful` builds a state's successors in process order
and stops at the first helpful one; `helpful_oracle.check_helpful` is
the check as it was when it built every successor first. The two must
return the identical result, violations and their configurations
included, on explored states, on states whose process lists are
reversed (most of them untypable), on stuck and unhelpful states, and
on a state whose helpful successor is not its first.
"""

import dataclasses
from functools import cache

import pytest

import helpful_oracle as oracle
from gract import semantics
from gract.explorer import check_helpful, explore
from gract.parser import parse_program
from gract.terms import Choice, Thread
from gract.typecheck import measure_of_config

from corpus import (EXAMPLES, KCAFE1, NATEQ_BARISTA, TWO_CAFES, PlantedNatExact,
                    planted_barista)

CAFE = (EXAMPLES / "cafe.gract").read_text()


def _source(text):
    return lambda: parse_program(text)


def _planted_cafe():
    """The cafe under `PlantedNatExact`: it explores, and two of its live
    states have no cheaper successor."""
    return dataclasses.replace(parse_program(CAFE), monoid=PlantedNatExact())


# name -> (a fresh program, explore's unfold)
PROGRAMS = {
    **{f"cafe-unfold{k}": (_source(CAFE), k) for k in range(4)},
    "cafe-nocup": (_source((EXAMPLES / "cafe-nocup.gract").read_text()), 2),
    "clearance": (_source((EXAMPLES / "clearance.gract").read_text()), 2),
    "kcafe1": (_source(KCAFE1), 2),
    "two-cafes": (_source(TWO_CAFES), 2),
    "nateq-barista": (_source(NATEQ_BARISTA), 2),
    "planted-barista": (planted_barista, 2),
    "planted-cafe": (_planted_cafe, 2),
}


@cache
def _states(name):
    fresh, unfold = PROGRAMS[name]
    visited = explore(fresh(), unfold=unfold, max_states=2000).visited
    # reversed, most states consume a future before its producer
    return visited + [c.copy(c.processes[::-1]) for c in visited]


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_the_lazy_check_returns_the_eager_result(name):
    states = _states(name)
    fresh = PROGRAMS[name][0]
    # one program per side, so neither reads the other's tables
    got = check_helpful(fresh(), states)
    want = oracle.check_helpful(fresh(), states)
    assert got == want


def test_reversed_lists_reach_the_untypable_branch():
    """Only the cafe at unfold 0, two states, has no untypable reversal."""
    none_untypable = []
    for name, (fresh, _) in PROGRAMS.items():
        prog = fresh()
        if all(measure_of_config(prog, c) is not None for c in _states(name)):
            none_untypable.append(name)
    assert none_untypable == ["cafe-unfold0"]


def test_both_violations_are_compared():
    codes = {}
    for name in ("planted-barista", "planted-cafe"):
        law = check_helpful(PROGRAMS[name][0](), _states(name))
        codes[name] = [(v["code"], v["measure"]) for v in law["violations"]]
    assert codes["planted-barista"] == [("StuckState", 76)] * 2
    assert {code for code, _ in codes["planted-cafe"]} == {"NoHelpfulSuccessor"}


def test_a_helpful_successor_after_a_raising_choice_edge():
    """The cafe's choice between stopping and ordering again, with its
    branches swapped: the left branch, taken first, raises the measure,
    and only the second successor is helpful."""
    prog = parse_program(CAFE)
    state, thread = next((c, p) for c in explore(prog, unfold=2).visited
                         for p in c.processes if type(p) is Thread and type(p.expr) is Choice)
    swapped = Thread(thread.env, Choice(thread.expr.right, thread.expr.left), thread.future,
                     thread.actor, thread.suspended, thread.fut)
    cfg = state.copy(tuple(swapped if p is thread else p for p in state.processes))
    mu = measure_of_config(prog, cfg)
    mus = [measure_of_config(prog, s.config) for s in semantics.step_config(cfg, prog)]
    assert mus[0] > mu > mus[1]
    got = check_helpful(prog, [cfg])
    assert got == oracle.check_helpful(parse_program(CAFE), [cfg])
    assert got == {"ok": True, "checked": 1, "violations": []}


# ---------------------------------------------------------------------------
# timing-free guard: successors built by the helpful law

@pytest.fixture
def built(monkeypatch):
    """The successors built, counted at `semantics.StepResult`."""
    count = [0]
    real = semantics.StepResult

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(semantics, "StepResult", counting)
    return count


@pytest.mark.parametrize("text, states, lazy, eager", [
    (CAFE, 153, 151, 225),
    (KCAFE1, 149, 148, 291),
], ids=["cafe", "kcafe1"])
def test_the_check_builds_successors_only_until_one_is_helpful(
        built, text, states, lazy, eager):
    """Every live state's first successor is helpful here, so the check
    builds one successor per checked state; building each state's whole
    list builds `eager`."""
    prog = parse_program(text)
    visited = explore(prog, unfold=2).visited
    assert len(visited) == states
    counts = []
    for check in (check_helpful, oracle.check_helpful):
        built[0] = 0
        law = check(prog, visited)
        assert law["ok"] and law["checked"] == lazy
        counts.append(built[0])
    assert counts == [lazy, eager]

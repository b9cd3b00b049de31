"""Differential tests of the explorer's canonical state key.

`canonical_key_oracle.canonical_key` is the explorer's original key, made
to forget fresh-name spelling as the explorer's key does: one string per
state, every process serialized afresh and fresh names renamed by a regex
pass.  The explorer's key is a tuple built from cached
per-process pieces.  It need not be the same string, only the same
partition of states: two states get the same key exactly when they get the
same oracle string, so dedupe, state counts, BFS order and reports cannot
move.
"""

from collections import Counter
from dataclasses import replace

import pytest

import canonical_key_oracle as oracle
from gract import explorer
from gract.parser import parse_program
from gract.terms import FutRef, GradedRes, Idle, Thread
from gract.typecheck import check_program

from corpus import EXAMPLES, KCAFE1, TWO_CAFES, planted_barista
from term_helpers import carrier_sample


def _load(name):
    with open(EXAMPLES / name) as fh:
        return parse_program(fh.read())


def _bijection():
    """The bijection check: a function that pairs one more key with its
    oracle string, and the list of pairs that break the bijection between
    keys and strings."""
    string_of: dict = {}
    key_of: dict = {}
    mismatches = []

    def pair(key, want):
        if string_of.setdefault(key, want) != want or key_of.setdefault(want, key) != key:
            mismatches.append((key, want))

    return pair, mismatches


def _explore_against_oracle(monkeypatch, prog, **bounds):
    """Explore with every key the explorer computes paired with the
    oracle's string; returns the report, the number of keys and the pairs
    that break the bijection between keys and strings."""
    real = explorer.canonical_key
    pair, mismatches = _bijection()
    keys = []

    def checked(config, *memo):
        key = real(config, *memo)
        keys.append(key)
        pair(key, oracle.canonical_key(config))
        return key

    monkeypatch.setattr(explorer, "canonical_key", checked)
    return explorer.explore(prog, **bounds), len(keys), mismatches


@pytest.mark.parametrize("unfold, states", [(2, 153), (3, 235), (4, 320), (5, 408)])
def test_cafe_keys_equal_the_oracle(monkeypatch, unfold, states):
    rep, n, mismatches = _explore_against_oracle(monkeypatch, _load("cafe.gract"),
                                                 unfold=unfold)
    assert rep.states_visited == states and rep.verdict == "FairTerminating"
    assert n > states
    assert mismatches[:1] == []


def test_checked_corpus_keys_equal_the_oracle(monkeypatch):
    checked = []
    for path in sorted(EXAMPLES.glob("*.gract")):
        if path.name == "cafe.gract":
            continue  # covered above, at every unfold
        prog = _load(path.name)
        if not check_program(prog)["ok"]:
            continue
        rep, n, mismatches = _explore_against_oracle(monkeypatch, prog, unfold=2)
        assert n >= rep.states_visited > 1
        assert mismatches[:1] == [], path.name
        checked.append(path.name)
    assert checked == ["clearance.gract"]


@pytest.mark.parametrize("load, states", [(lambda: parse_program(KCAFE1), 149),
                                           (planted_barista, 78)], ids=["kcafe(1)", "barista"])
def test_keys_that_once_read_spelling_equal_the_oracle(monkeypatch, load, states):
    """The programs whose states the key once told apart by fresh-name
    spelling: a thread's environment sorted by name, and processes ordered
    by text that spelled their names."""
    rep, n, mismatches = _explore_against_oracle(monkeypatch, load(), unfold=2)
    assert rep.states_visited == states
    assert n > states
    assert mismatches[:1] == []


def test_two_cafe_keys_equal_the_oracle(monkeypatch):
    prog = parse_program(TWO_CAFES)
    assert check_program(prog)["ok"]
    rep, n, mismatches = _explore_against_oracle(monkeypatch, prog,
                                                 unfold=2, max_states=1000)
    assert rep.states_visited == 1000 and rep.bound_hit
    assert n > 1000
    assert mismatches[:1] == []


def _perturbed(config, m):
    """Copies of `config` that differ from it in one value of one thread's
    environment: a future it names redirected to another future the state
    produces, or a resource's grade changed to another grade of `m`; each
    with the type of the value changed."""
    procs = config.processes
    produced = [p.future for p in procs if type(p) is not Idle]
    for i, p in enumerate(procs):
        if type(p) is not Thread:
            continue
        for x, v in p.env.items():
            if type(v) is FutRef:
                others = [FutRef(f) for f in produced if f != v.name]
            elif type(v) is GradedRes:
                others = [GradedRes(v.res, g) for g in carrier_sample(m) if g != v.grade]
            else:
                continue
            for w in others:
                t = replace(p, env={**p.env, x: w})
                yield type(v), config.copy(procs[:i] + (t,) + procs[i + 1:])


@pytest.mark.parametrize("load, states", [(lambda: parse_program(KCAFE1), 149),
                                           (lambda: _load("cafe.gract"), 153)],
                         ids=["kcafe(1)", "cafe"])
def test_environment_perturbations_are_keyed_as_the_oracle_keys_them(load, states):
    """Every stored state and every copy of it with one environment value
    changed (a named future, a grade) are partitioned alike by the two
    keys. Explorations alone never reach two states that differ only
    there, so a key that dropped environment values or fresh-name codes
    passed every exploration test."""
    prog = load()
    rep = explorer.explore(prog, unfold=2)
    assert rep.states_visited == states
    pair, mismatches = _bijection()
    memo: dict = {}
    kinds = Counter()
    for config in rep.visited:
        for kind, c in [(None, config), *_perturbed(config, prog.monoid)]:
            pair(explorer.canonical_key(c, memo), oracle.canonical_key(c))
            kinds[kind] += 1
    assert kinds[FutRef] > 0 and kinds[GradedRes] > 0, kinds
    assert mismatches[:1] == []


def test_the_bijection_check_tells_merges_and_splits_apart(monkeypatch):
    """The check itself: a key that merges states the oracle tells apart,
    or splits states the oracle merges, is reported."""
    real = explorer.canonical_key
    cafe = _load("cafe.gract")
    monkeypatch.setattr(explorer, "canonical_key", lambda c, *memo: real(c, *memo)[1:])
    assert _explore_against_oracle(monkeypatch, cafe, unfold=2, max_states=300)[2]
    monkeypatch.setattr(explorer, "canonical_key", lambda c, *memo: (real(c, *memo), id(c)))
    assert _explore_against_oracle(monkeypatch, cafe, unfold=2, max_states=300)[2]


def test_explore_serializes_each_process_once(monkeypatch):
    """A timing-free guard: explore shares process objects between
    configurations, and the key cuts each object into its pieces once (848
    serializations at unfold 2 when every key serialized every process)."""
    real = explorer._key_pieces
    calls = [0]

    def counting(p):
        calls[0] += 1
        return real(p)

    monkeypatch.setattr(explorer, "_key_pieces", counting)
    rep = explorer.explore(_load("cafe.gract"), unfold=2)
    assert rep.states_visited == 153
    assert 0 < calls[0] < 400

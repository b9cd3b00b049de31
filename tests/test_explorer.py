"""Explorer tests: canonical states, bounded search, the dynamic laws."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from gract import explorer
from gract.explorer import (
    bounded_successors,
    canonical_key,
    check_helpful,
    check_subject_reduction,
    explore,
    helpful_chooser,
)
from gract.parser import parse_program
from gract.semantics import initial_config, run, fifo_chooser, random_chooser, step_config
from gract.terms import (
    Await,
    CallMsg,
    FulfilledFut,
    FutRef,
    GradedRes,
    Idle,
    Lit,
    Return,
    Thread,
    UnitVal,
    Var,
    ctx_key,
    ctx_of,
)

from corpus import EXAMPLES
from term_helpers import config_of


@pytest.fixture(scope="module")
def cafe():
    with open(EXAMPLES / "cafe.gract") as fh:
        return parse_program(fh.read())


@pytest.fixture(scope="module")
def nocup():
    with open(EXAMPLES / "cafe-nocup.gract") as fh:
        return parse_program(fh.read())


# ---------------------------------------------------------------------------
# canonical keys

def _mini(procs, nf=9, nv=9):
    return config_of({"A": {}}, procs, next_future=nf, next_var=nv)


def test_key_ignores_swappable_order():
    a = _mini([Idle("A"), Idle("B")])
    b = _mini([Idle("B"), Idle("A")])
    assert canonical_key(a, {}) == canonical_key(b, {})


def test_key_ignores_fresh_numbering_and_counters():
    a = _mini([FulfilledFut("f#3", UnitVal()), Idle("B")], nf=4)
    b = _mini([FulfilledFut("f#7", UnitVal()), Idle("B")], nf=8, nv=2)
    assert canonical_key(a, {}) == canonical_key(b, {})


def test_key_separates_different_states():
    a = _mini([FulfilledFut("f#3", UnitVal()), Idle("B")])
    b = _mini([Idle("B")])
    assert canonical_key(a, {}) != canonical_key(b, {})


def test_key_separates_environment_values():
    """Threads that differ only in what a variable holds, a resource's
    grade or the future it names, are different states. The two
    fulfilments have one template, so only the codes of their names tell
    which one the thread holds."""
    def reader(value):
        return Thread({"x": value}, Await(Var("x")), "f#3", "A")

    ffs = [FulfilledFut("f#1", UnitVal()), FulfilledFut("f#2", UnitVal())]
    assert canonical_key(_mini([reader(FutRef("f#1")), *ffs]), {}) != \
        canonical_key(_mini([reader(FutRef("f#2")), *ffs]), {})
    assert canonical_key(_mini([reader(GradedRes("CC", 1))]), {}) != \
        canonical_key(_mini([reader(GradedRes("CC", 2))]), {})


# ---------------------------------------------------------------------------
# budget filtering

@pytest.mark.parametrize("unfold, states", [(2, 153), (5, 408)])
def test_explore_keys_no_copy_of_a_stored_configuration(monkeypatch, cafe, unfold, states):
    """A successor equal to a stored configuration is dropped before its
    key is computed: each stored configuration is keyed once."""
    keyed = []

    def recording(config, *memo):
        keyed.append(config)
        return canonical_key(config, *memo)

    monkeypatch.setattr(explorer, "canonical_key", recording)
    rep = explore(cafe, unfold=unfold)
    assert rep.states_visited == states
    stored = set(rep.visited)
    assert Counter(c for c in keyed if c in stored) == Counter(stored)


def test_unbounded_successors_keep_everything(cafe):
    cfg = initial_config(cafe)
    s = bounded_successors(cafe, cfg, unfold=2)
    assert s.raw_count == len(step_config(cfg, cafe))
    assert len(s.kept) == s.raw_count


def test_call_past_budget_is_pruned(cafe):
    tr = run(initial_config(cafe), cafe, fifo_chooser, 200)
    pre = tr.steps[0].config
    assert tr.steps[1].rule == "call"
    s = bounded_successors(cafe, pre, 0)
    assert s.pruned_calls >= 1
    assert all(k.rule != "call" for k in s.kept)


# ---------------------------------------------------------------------------
# exploration

def test_cafe_explores_to_fair_termination(cafe):
    rep = explore(cafe, unfold=2)
    assert rep.verdict == "FairTerminating"
    assert rep.states_visited == 153
    assert rep.pruned_choices >= 1 and rep.pruned_calls == 0
    assert not rep.bound_hit
    assert "untypable" not in rep.measure_histogram
    assert rep.witness_trace, "termination witness expected"


def test_exploration_is_deterministic(cafe):
    one = explore(cafe, unfold=2)
    two = explore(cafe, unfold=2)
    assert one.states_visited == two.states_visited
    assert one.verdict == two.verdict
    assert one.measure_histogram == two.measure_histogram


def test_missing_cup_is_found_stuck(nocup):
    rep = explore(nocup, unfold=2)
    assert rep.verdict == "StuckFound"
    diag = rep.stuck_state["diagnosis"]
    assert {"code": "StuckAtHold", "actor": "B", "res": "CC", "grade": "1"} in diag
    assert len(rep.witness_trace) == 4


@pytest.mark.parametrize("program, verdict, length", [
    ("cafe", "FairTerminating", 41), ("nocup", "StuckFound", 4)])
def test_only_the_witness_path_is_formatted(monkeypatch, request, program, verdict, length):
    """Each stored state keeps the step that reached it; a step is
    formatted only when it lies on the witness's path."""
    prog = request.getfixturevalue(program)
    brief = explorer._step_brief
    briefs = []

    def counting(s):
        briefs.append(s)
        return brief(s)

    monkeypatch.setattr(explorer, "_step_brief", counting)
    rep = explore(prog, unfold=2)
    assert (rep.verdict, len(rep.witness_trace)) == (verdict, length)
    assert len(briefs) == length
    assert rep.visited[0] == initial_config(prog)
    assert len(set(rep.visited)) == len(rep.visited) == rep.states_visited


def test_state_budget_reports_bound(cafe):
    rep = explore(cafe, unfold=2, max_states=5)
    assert rep.bound_hit
    assert rep.verdict == "BoundExhausted"


def test_state_cap_is_an_upper_bound(cafe):
    """The start state counts against the cap, so a cap below 1 is refused,
    as `gract explore --states 0` is."""
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_states"):
            explore(cafe, unfold=2, max_states=cap)
    rep = explore(cafe, unfold=2, max_states=1)
    assert rep.states_visited == 1 and rep.bound_hit


def test_depth_budget_reports_bound(cafe):
    rep = explore(cafe, unfold=2, max_depth=3)
    assert rep.bound_hit
    assert rep.verdict == "BoundExhausted"


def test_depth_cap_judges_the_level_it_stores():
    """A level at the depth cap is stepped, but none of its successors is
    stored: cafe-nocup's stuck state sits at depth 4."""
    nocup = parse_program((EXAMPLES / "cafe-nocup.gract").read_text())
    rep = explore(nocup, unfold=2, max_depth=4)
    assert (rep.verdict, rep.states_visited, rep.max_depth, rep.bound_hit) == (
        "StuckFound", 6, 5, False)
    assert len(rep.witness_trace) == 4
    assert rep.to_json() == explore(nocup, unfold=2, max_depth=5).to_json()


def test_depth_cap_counts_a_terminated_state_at_the_cap(cafe):
    rep = explore(cafe, unfold=2, max_depth=86)
    assert (rep.verdict, rep.states_visited, rep.max_depth, rep.bound_hit) == (
        "FairTerminating", 153, 86, False)
    capped = explore(cafe, unfold=2, max_depth=85)
    assert (capped.verdict, capped.max_depth, capped.bound_hit) == (
        "WeaklyTerminatingWitness", 85, True)


def test_clearance_escalation_is_found_stuck():
    with open(EXAMPLES / "clearance.gract") as fh:
        src = fh.read()
    escalated = parse_program(
        src.replace("Db!audit()", "Db!leak()")
           .replace("main(): Unit requires Db: Doc^internal",
                    "main(): Unit requires Db: Doc^secret"))
    rep = explore(escalated, unfold=2)
    assert rep.verdict == "StuckFound"
    assert any(d["code"] == "StuckAtHold" and d["actor"] == "Db"
               for d in rep.stuck_state["diagnosis"])


def test_report_json_shape(cafe):
    out = explore(cafe, unfold=2).to_json()
    assert out["schema"] == "gract/1"
    assert {"verdict", "statesVisited", "maxDepth", "measureHistogram",
            "prunedCalls", "prunedChoices", "boundHit"} <= set(out)


# ---------------------------------------------------------------------------
# the helpful direction

def test_every_live_state_has_a_helpful_successor(cafe):
    rep = explore(cafe, unfold=2)
    law = check_helpful(cafe, rep.visited)
    assert law["ok"], law["violations"][:1]
    assert law["checked"] > 100


def test_helpful_run_terminates_at_the_measure(cafe):
    tr = run(initial_config(cafe), cafe, helpful_chooser(cafe), 300)
    assert tr.status == "terminated"
    assert len(tr.steps) == 41


# ---------------------------------------------------------------------------
# subject reduction along runs

def test_key_swaps_only_disconnected_neighbours():
    """A producer and a consumer of its future keep their order, though the
    right one's template orders first; the swapped order is another state."""
    ff = FulfilledFut("f#1", UnitVal())
    reader = Thread({"y": FutRef("f#1")}, Await(Var("y")), "f#2", "A")
    assert canonical_key(_mini([ff, reader]), {}) != canonical_key(_mini([reader, ff]), {})
    producer = Thread({}, Return(Lit(UnitVal())), "f#1", "A")
    msg = CallMsg("f#2", "B", "m", (FutRef("f#1"),))
    assert canonical_key(_mini([msg, producer]), {}) != canonical_key(_mini([producer, msg]), {})


def test_fifo_run_satisfies_preservation(cafe):
    tr = run(initial_config(cafe), cafe, fifo_chooser, 200)
    sr = check_subject_reduction(cafe, tr)
    assert sr["ok"], sr["violations"][:3]
    assert sr["measures"] == list(range(41, -1, -1))


def test_random_runs_satisfy_preservation(cafe):
    for seed in range(10):
        tr = run(initial_config(cafe), cafe, random_chooser(random.Random(seed)), 300)
        sr = check_subject_reduction(cafe, tr)
        assert sr["ok"], (seed, sr["violations"][:2])


def test_tampered_trace_is_caught(cafe):
    tr = run(initial_config(cafe), cafe, fifo_chooser, 200)
    victim = tr.steps[5]
    alpha = ctx_of(victim.config.alpha)
    alpha["B"] = {**alpha.get("B", {}), "CC": 1}
    forged = victim.config.copy(alpha=ctx_key(alpha))
    tr.steps[5] = replace(victim, config=forged)
    sr = check_subject_reduction(cafe, tr)
    assert not sr["ok"]
    assert any(v["code"] == "GradedStateMismatch" for v in sr["violations"])

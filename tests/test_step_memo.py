"""The program's step and successor tables: a program steps each thread
once per distinct input, whatever operation asks, its runs step each
configuration once, and every successor, verdict and output is the one
stepping afresh gives."""

import json
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

from gract import semantics
from gract.explorer import check_helpful, check_subject_reduction, explore
from gract.parser import parse_program
from gract.semantics import (
    config_to_json,
    fifo_chooser,
    initial_config,
    random_chooser,
    run,
    step_config,
)
from gract.terms import (
    Hold,
    Idle,
    Let,
    Lit,
    OpSig,
    Program,
    ResT,
    Return,
    Thread,
    UnitVal,
)

from corpus import EXAMPLES, TWO_CAFES, cli_output
from term_helpers import config_of


def _load(name):
    return parse_program((EXAMPLES / name).read_text())


def _explorations():
    return [(_load("cafe.gract"), {"unfold": 2}, 153),
            (parse_program(TWO_CAFES), {"unfold": 2, "max_states": 200}, 200)]


@contextmanager
def afresh():
    """Step everything afresh: each `_thread_steps` call gets a throwaway
    thread-step table and each read of a program's `successors` a
    throwaway successor table, so neither of the program's tables is read
    or written. Yields a one-element list that counts the calls `run`
    makes to `step_config` inside the block."""
    real = semantics._thread_steps

    def throwaway(config, prog, *args):
        kept, prog.steps = prog.steps, {}
        try:
            return real(config, prog, *args)
        finally:
            prog.steps = kept

    # a data descriptor wins over the instance's own table; a program built
    # inside the block still gets one, for use after it
    fresh_table = property(lambda prog: {},
                           lambda prog, table: vars(prog).__setitem__("successors", table))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_thread_steps", throwaway)
        mp.setattr(Program, "successors", fresh_table, raising=False)
        yield _count_calls(mp, "step_config")


def _count_calls(mp, name):
    """Count the calls to `semantics.<name>` in a one-element list."""
    real = getattr(semantics, name)
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    mp.setattr(semantics, name, counting)
    return calls


@pytest.fixture
def step_expr_calls(monkeypatch):
    return _count_calls(monkeypatch, "step_expr")


# ---------------------------------------------------------------------------
# timing-free guards: how often a thread is stepped afresh

def test_explore_steps_each_thread_once(step_expr_calls):
    """A timing-free guard: 282 expression steps at unfold 2 without the
    table, 167 of them with distinct inputs."""
    rep = explore(_load("cafe.gract"), unfold=2)
    assert rep.states_visited == 153
    assert 0 < step_expr_calls[0] < 200


def test_a_second_run_steps_nothing(step_expr_calls):
    """Runs of one program start from the same configuration with the same
    counters, so a second identical run takes every step from the table."""
    cafe = _load("cafe.gract")
    first = run(initial_config(cafe), cafe, fifo_chooser, 200)
    assert first.status == "terminated" and len(first.steps) == 41
    assert step_expr_calls[0] > 0
    step_expr_calls[0] = 0
    again = run(initial_config(cafe), cafe, fifo_chooser, 200)
    assert step_expr_calls[0] == 0
    # the same step objects, read from the program's successor table
    assert len(again.steps) == 41 and all(s is t for s, t in zip(again.steps, first.steps))


def test_runs_step_each_distinct_configuration_once(monkeypatch):
    """Gate 4's step budget over 100 runs scheduled by one Random(4), as
    `gract sr --seed 4` schedules them: 6,806 steps, but 369 distinct
    configurations, so 369 `step_config` calls where stepping at every
    visit made 6,906."""
    cafe = _load("cafe.gract")
    calls = _count_calls(monkeypatch, "step_config")
    rng = random.Random(4)
    traces = [run(initial_config(cafe), cafe, random_chooser(rng), 200) for _ in range(100)]
    seen = {tr.initial for tr in traces} | {s.config for tr in traces for s in tr.steps}
    assert sum(len(tr.steps) for tr in traces) == 6806
    assert calls[0] == len(seen) == len(cafe.successors) == 369


@pytest.mark.parametrize("case", range(2), ids=["cafe", "two-cafes"])
def test_check_helpful_after_explore_steps_nothing(step_expr_calls, case):
    prog, bounds, states = _explorations()[case]
    rep = explore(prog, **bounds)
    assert rep.states_visited == states
    step_expr_calls[0] = 0
    assert check_helpful(prog, rep.visited)["ok"]
    assert step_expr_calls[0] == 0
    # each state is stepped once by each of them, so neither keeps its list
    assert prog.successors == {}


def test_an_activated_thread_steps_from_its_active_twins_entry(step_expr_calls):
    """A suspended thread activated on its idle actor takes its steps from
    the entry its active twin filled (stepping both took two calls when a
    suspended thread had an entry of its own)."""
    cafe = _load("cafe.gract")
    thread = Thread({}, Let("x", Hold(1, "Cf"), Return(Lit(UnitVal()))), "f#1", "Cn")
    suspended = Thread(thread.env, thread.expr, thread.future, thread.actor, suspended=True)
    alpha = {"Cn": {"Cf": 1}}
    active = step_config(config_of(alpha, [thread]), cafe)
    activated = step_config(config_of(alpha, [suspended, Idle("Cn")]), cafe)
    assert step_expr_calls[0] == 1
    assert [s.variant for s in activated] == ["act"]
    assert ([s.config.processes for s in activated]
            == [s.config.processes for s in active] != [])


def test_a_variant_program_steps_with_its_own_table(step_expr_calls):
    """A variant whose coffee comes out at grade 2 steps the same threads
    to different results, so reading the original's entries would show."""
    cafe = _load("cafe.gract")
    fifo = run(initial_config(cafe), cafe, fifo_chooser, 200)
    table, successors = dict(cafe.steps), dict(cafe.successors)
    sig = cafe.op_sigs["makeCoffee"]
    variant = replace(cafe, op_sigs={**cafe.op_sigs,
                                     "makeCoffee": OpSig(sig.params, ResT("Cf", 2))})
    assert variant.steps == {} and variant.steps is not cafe.steps
    assert variant.successors == {} and cafe.successors
    step_expr_calls[0] = 0
    got = run(initial_config(variant), variant, fifo_chooser, 200)
    assert step_expr_calls[0] > 0
    with afresh() as step_config_calls:
        want = run(initial_config(variant), variant, fifo_chooser, 200)
    assert step_config_calls[0] == len(want.steps) + 1
    assert _briefs(got) == _briefs(want) != _briefs(fifo)
    # the original's entries are neither read nor overwritten by the variant
    assert cafe.steps.keys() == table.keys()
    assert all(cafe.steps[k] is v for k, v in table.items())
    assert cafe.successors.keys() == successors.keys()


# ---------------------------------------------------------------------------
# differential tests: the table against stepping afresh

def _briefs(trace):
    return [(s.rule, s.label, config_to_json(s.config)) for s in trace.steps]


@pytest.mark.parametrize("case", range(2))
def test_memo_changes_no_successor(case):
    prog, bounds, states = _explorations()[case]
    rep = explore(prog, **bounds)
    assert rep.states_visited == states
    for cfg in rep.visited:
        got = step_config(cfg, prog)
        with afresh():
            want = step_config(cfg, prog)
        assert got == want
        assert [config_to_json(s.config) for s in got] == [config_to_json(s.config) for s in want]


def test_equal_steps_share_the_updated_thread():
    cafe = _load("cafe.gract")
    pairs = []
    for cfg in explore(cafe, unfold=2).visited:
        first, again = step_config(cfg, cafe), step_config(cfg, cafe)
        assert all(s.config is not t.config for s, t in zip(first, again))
        pairs += [(s.config.processes[s.pos], t.config.processes[t.pos])
                  for s, t in zip(first, again) if s.rule == "silent"]
    assert pairs and all(p is q for p, q in pairs)


@pytest.mark.parametrize("case", range(2))
def test_check_helpful_is_the_same_without_its_memo(case):
    prog, bounds, states = _explorations()[case]
    rep = explore(prog, **bounds)
    assert rep.states_visited == states
    with_table = check_helpful(prog, rep.visited)
    with afresh():
        assert check_helpful(prog, rep.visited) == with_table
    assert with_table["ok"] and with_table["checked"] > 0


def _runs(prog):
    rng = random.Random(4)
    # `gract sr`'s default step budget, so its seed-4 runs are these traces
    traces = [run(initial_config(prog), prog, random_chooser(rng), 400) for _ in range(100)]
    return traces, [check_subject_reduction(prog, tr) for tr in traces]


def test_the_table_changes_no_run_law_or_output(seed4_runs):
    r = seed4_runs
    cafe = r.prog
    steps = [_briefs(tr) for tr in r.traces]
    names = ["helpful", "run-replay", "explore"]
    got_cli = [r.outputs[name] for name in names]
    table, successors = dict(cafe.steps), dict(cafe.successors)
    with afresh() as step_config_calls:
        want_traces, want_laws = _runs(cafe)
        assert step_config_calls[0] == sum(len(tr.steps) + 1 for tr in want_traces)
        want_cli = [cli_output(r.commands[name]) for name in names]
    assert cafe.steps == table and cafe.successors == successors
    want_steps = [_briefs(tr) for tr in want_traces]
    assert steps == want_steps and r.laws == want_laws and all(law["ok"] for law in r.laws)
    assert got_cli == want_cli
    sr_code, sr_out = r.outputs["sr"]
    assert sr_code == 0 and json.loads(sr_out)["runs"] == r.runs
    assert [code for code, _ in got_cli] == [0, 0, 4]

"""The thread-step memo: one exploration steps each thread once per distinct
input, and a memo changes no successor and no verdict."""

import pytest

from gract import explorer, semantics
from gract.explorer import check_helpful, explore
from gract.parser import parse_program
from gract.semantics import fifo_chooser, initial_config, run, step_config

from corpus import EXAMPLES, TWO_CAFES


def _load(name):
    return parse_program((EXAMPLES / name).read_text())


def _explorations():
    return [(_load("cafe.gract"), {"unfold": 2}, 153),
            (parse_program(TWO_CAFES), {"unfold": 2, "max_states": 200}, 200)]


def _counting_step_expr(monkeypatch):
    real = semantics.step_expr
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(semantics, "step_expr", counting)
    return calls


def test_explore_steps_each_thread_once(monkeypatch):
    """A timing-free guard: 282 expression steps at unfold 2 without the
    memo, 167 of them with distinct inputs."""
    calls = _counting_step_expr(monkeypatch)
    rep = explore(_load("cafe.gract"), unfold=2)
    assert rep.states_visited == 153
    assert 0 < calls[0] < 200


def test_run_keeps_no_memo(monkeypatch):
    """A run's states do not repeat, so it steps every thread afresh."""
    cafe = _load("cafe.gract")
    calls = _counting_step_expr(monkeypatch)
    trace = run(initial_config(cafe), cafe, fifo_chooser, 200)
    assert trace.status == "terminated"
    first = calls[0]
    run(initial_config(cafe), cafe, fifo_chooser, 200)
    assert calls[0] == 2 * first


@pytest.mark.parametrize("case", range(2))
def test_memo_changes_no_successor(case):
    prog, bounds, states = _explorations()[case]
    rep = explore(prog, **bounds)
    assert rep.states_visited == states
    memo: dict = {}
    for cfg in rep.visited:
        assert step_config(cfg, prog, memo) == step_config(cfg, prog)


def test_equal_steps_share_the_updated_thread():
    cafe = _load("cafe.gract")
    memo: dict = {}
    pairs = []
    for cfg in explore(cafe, unfold=2).visited:
        first, again = step_config(cfg, cafe, memo), step_config(cfg, cafe, memo)
        assert all(s.config is not t.config for s, t in zip(first, again))
        pairs += [(s.config.processes[s.pos], t.config.processes[t.pos])
                  for s, t in zip(first, again) if s.rule == "silent"]
    assert pairs and all(p is q for p, q in pairs)


@pytest.mark.parametrize("case", range(2))
def test_check_helpful_is_the_same_without_its_memo(monkeypatch, case):
    prog, bounds, states = _explorations()[case]
    rep = explore(prog, **bounds)
    assert rep.states_visited == states
    with_memo = check_helpful(prog, rep.visited)
    real = semantics.step_config
    monkeypatch.setattr(explorer, "step_config", lambda cfg, p, memo=None: real(cfg, p))
    assert check_helpful(prog, rep.visited) == with_memo
    assert with_memo["ok"] and with_memo["checked"] > 0

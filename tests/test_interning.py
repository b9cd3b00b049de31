"""Hash-consing of processes within one exploration: equal processes are
one object, the caller's start configuration is left alone, and every
report is the one an exploration without interning gives."""

import io
from contextlib import redirect_stdout

import pytest

from gract import explorer
from gract.cli import _emit_json
from gract.explorer import explore
from gract.parser import parse_program
from gract.semantics import config_to_json, initial_config

from corpus import EXAMPLES, TWO_CAFES


def _load(name):
    return parse_program((EXAMPLES / name).read_text())


def _report_text(prog, **bounds) -> str:
    rep = explore(prog, **bounds)
    with redirect_stdout(io.StringIO()) as out:
        _emit_json({"command": "explore", "program": "p.gract", **rep.to_json()})
    return out.getvalue()


@pytest.mark.parametrize("prog, bounds, states", [
    (lambda: _load("cafe.gract"), {"unfold": 2}, 153),
    (lambda: parse_program(TWO_CAFES), {"unfold": 2, "max_states": 1000}, 1000),
])
def test_equal_processes_are_one_object(prog, bounds, states):
    rep = explore(prog(), **bounds)
    assert rep.states_visited == states
    objects: dict = {}
    for cfg in rep.visited:
        for p in cfg.processes:
            objects.setdefault(p, set()).add(id(p))
    assert len(objects) > 1
    assert [k for k, ids in objects.items() if len(ids) > 1] == []


def test_explore_leaves_the_start_configuration_alone():
    prog = _load("cafe.gract")
    start = initial_config(prog)
    procs, objects, text = start.processes, list(start.processes), config_to_json(start)
    # one start configuration serves several explorations, as in a benchmark
    reports = [explore(prog, start, unfold=2).to_json() for _ in range(2)]
    assert reports[0] == reports[1] and reports[0]["statesVisited"] == 153
    assert start.processes is procs
    assert all(p is q for p, q in zip(start.processes, objects, strict=True))
    assert config_to_json(start) == text


@pytest.mark.parametrize("name, unfold", [
    ("cafe.gract", 2), ("cafe.gract", 3), ("cafe.gract", 4), ("cafe.gract", 5),
    ("clearance.gract", 2),
])
def test_interning_changes_no_report(monkeypatch, name, unfold):
    prog = _load(name)
    got = _report_text(prog, unfold=unfold)
    monkeypatch.setattr(explorer, "intern_process", lambda table, p: p)
    assert got == _report_text(prog, unfold=unfold)


def test_explore_serializes_each_distinct_process_once(monkeypatch):
    """A timing-free guard: with equal processes one object, the key
    serializes each distinct process once (263 calls at unfold 2 when it
    serialized each process object once)."""
    real = explorer.process_to_json
    calls = [0]

    def counting(p):
        calls[0] += 1
        return real(p)

    monkeypatch.setattr(explorer, "process_to_json", counting)
    assert explore(_load("cafe.gract"), unfold=2).states_visited == 153
    assert 0 < calls[0] < 200

"""What one exploration shares between states and with its caller: the
caller's start configuration is left alone, and the key memo, keyed on the
process value, cuts each distinct process into its key pieces once."""

from gract import explorer
from gract.explorer import explore
from gract.parser import parse_program
from gract.semantics import config_to_json, initial_config

from corpus import EXAMPLES


def _load(name):
    return parse_program((EXAMPLES / name).read_text())


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


def test_explore_serializes_each_distinct_process_once(monkeypatch):
    """A timing-free guard: equal processes share one key-memo entry, so
    the key cuts each distinct process into its pieces once (263
    serializations at unfold 2 when it serialized each process object
    once)."""
    real = explorer._key_pieces
    calls = [0]

    def counting(p):
        calls[0] += 1
        return real(p)

    monkeypatch.setattr(explorer, "_key_pieces", counting)
    assert explore(_load("cafe.gract"), unfold=2).states_visited == 153
    assert 0 < calls[0] < 200

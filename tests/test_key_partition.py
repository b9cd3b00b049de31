"""The spelling-free key gives the answers the spelling key gave.

The explorer's key once serialized each process with `json.dumps(...,
sort_keys=True)`: a thread's environment sorted by name, so `y#10` before
`y#6`, and processes ordered by that text. It stored one state under
several keys. `_sort_keys_key` is that key; exploring every corpus program
at unfold 0-3 under it and under the explorer's key must give the same
verdict and depth, find a stuck state alike, and reach the same terminal
states, compared by the explorer's key; the explorer's key stores no more
states.
"""

import json

import pytest

from gract import explorer
from gract.explorer import canonical_key
from gract.parser import parse_program
from gract.semantics import disconnected, is_terminated, process_to_json
from gract.terms import Idle

from corpus import EXAMPLES, KCAFE1, NATEQ_BARISTA, TWO_CAFES, planted_barista

SOURCES = {path.stem: path.read_text() for path in sorted(EXAMPLES.glob("*.gract"))}
SOURCES.update({"two-cafes": TWO_CAFES, "kcafe(1)": KCAFE1, "natEq-barista": NATEQ_BARISTA})
# each builds a fresh program
PROGRAMS = {name: (lambda src=src: parse_program(src)) for name, src in SOURCES.items()}
PROGRAMS["planted-barista"] = planted_barista


def _sort_keys_key(config, memo):
    """The explorer's key before it forgot spelling: each process's
    sorted-key JSON, bubble-sorted by that text where swaps are legal, its
    fresh names coded by kind and first occurrence."""
    pieces = []
    for p in config.processes:
        if p not in memo:
            ser = json.dumps(process_to_json(p), sort_keys=True)
            parts = explorer._FRESH.split(ser)
            memo[p] = ser, "\0".join(parts[0::2]), parts[1::2], p
        pieces.append(memo[p])
    changed = True
    while changed:
        changed = False
        for i in range(len(pieces) - 1):
            a, b = pieces[i], pieces[i + 1]
            if b[0] < a[0] and disconnected(a[3], b[3]):
                pieces[i], pieces[i + 1] = b, a
                changed = True
    codes: dict = {}
    body = []
    for pc in pieces:
        body.append(pc[1])
        body += [codes.setdefault(name, (name[0], len(codes))) for name in pc[2]]
    live = sorted((codes[p.future], p.fut) for p in config.processes if type(p) is not Idle)
    return tuple(body), config.alpha, tuple(live), config.call_counts


def _answers(prog, unfold):
    rep = explorer.explore(prog, unfold=unfold)
    memo: dict = {}
    ends = {canonical_key(c, memo) for c in rep.visited if is_terminated(c)}
    return (rep.verdict, rep.max_depth, rep.stuck_state is not None, ends), rep.states_visited


@pytest.mark.parametrize("unfold", range(4))
@pytest.mark.parametrize("name", PROGRAMS)
def test_explore_answers_as_under_the_sort_keys_key(monkeypatch, name, unfold):
    now, stored = _answers(PROGRAMS[name](), unfold)
    with monkeypatch.context() as m:
        m.setattr(explorer, "canonical_key", _sort_keys_key)
        before, stored_before = _answers(PROGRAMS[name](), unfold)
    assert now == before
    assert stored <= stored_before

"""Reports of explorations cut short by the state cap.

Once the cap is full and hit, `explore` stops keying successors, since
none of them can be stored; the reports must be the ones a search that
keys every successor gives. The sha256 is that of the report as
`gract explore --json` prints it for `<program>.gract`, recorded when
every successor was keyed. Two stuck programs' reports are pinned the
same way, for the stuck state and the diagnosis they carry, recorded
when the diagnosis stepped each thread a second time. The stuck barista
is `NATEQ_BARISTA` under the planted algebra (`corpus.planted_barista`).
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from gract.cli import _emit_json
from gract.explorer import explore
from gract.parser import parse_program

from corpus import EXAMPLES, TWO_CAFES, planted_barista

PROGRAMS = {"cafe": (EXAMPLES / "cafe.gract").read_text(), "two-cafes": TWO_CAFES,
            "cafe-nocup": (EXAMPLES / "cafe-nocup.gract").read_text()}

# program, max_states: verdict, states, depth, pruned calls and choices,
# bound hit, sha256 of the report text
PINNED = {
    ("cafe", 1): ("BoundExhausted", 1, 0, 0, 0, True,
                  "52bc51d7747e06cce5c3f3f2043f5ec94fc72fcbefc7aa0f51eff02bb1a2be8a"),
    ("cafe", 2): ("BoundExhausted", 2, 1, 0, 0, True,
                  "bd9cc5b0df890a24bec8f3d2bac2a2a34288a62badf712a78c26a5e91632a7aa"),
    ("cafe", 5): ("BoundExhausted", 5, 3, 0, 0, True,
                  "f193c8d24b2f9b139073e67668d0192e34c7c0c2e3345a13a8eb4dbd9f7e79b5"),
    ("cafe", 50): ("BoundExhausted", 50, 24, 0, 0, True,
                   "331b2e06f58431ea68d64d31c2f614380a732a2822b94173e34a43cc3fbd48ca"),
    ("cafe", 152): ("WeaklyTerminatingWitness", 152, 85, 0, 1, True,
                    "e653ec2e0a6fd7bed7251c30c1ffb152dda694e3a8b4ed71f7beec70f6f6bb4b"),
    ("cafe", 153): ("FairTerminating", 153, 86, 0, 1, False,
                    "a33468bd434c820c8b535d6e624e90369a646c628d5acf27d9aae20bc0f06bf4"),
    ("cafe", 154): ("FairTerminating", 153, 86, 0, 1, False,
                    "a33468bd434c820c8b535d6e624e90369a646c628d5acf27d9aae20bc0f06bf4"),
    ("two-cafes", 1): ("BoundExhausted", 1, 0, 0, 0, True,
                       "ab25c966394915c3e01e58723ebb3fa251eb0962e984bcce61ad9f4216f67cf2"),
    ("two-cafes", 50): ("BoundExhausted", 50, 8, 0, 0, True,
                        "1b29f75752d2b0573da1e1d0befe3af0f0710d6f629cc6e26dab8720c1f8ebd7"),
    ("two-cafes", 200): ("BoundExhausted", 200, 12, 0, 0, True,
                         "fd028e79bf0154c807dd781b3689e2264749f44b579897b7407082948a36b9d7"),
    ("two-cafes", 1000): ("BoundExhausted", 1000, 20, 0, 0, True,
                          "694e98fdb46d025aab853898dab89f14522bdfaf2606118a03e7b95da2d7114e"),
}


# program: verdict, states, depth, sha256 of the report text, under
# explore's default bounds
STUCK = {
    "cafe-nocup": ("StuckFound", 6, 5,
                   "efc90771989bfd360f520a75de4ddce80b8e393fdfe1433ce54a71aa529bfdb4"),
    "nateq-barista": ("StuckFound", 78, 13,
                      "0fb18da3a87f7cf64a5e18d54b7eb68133e69fbeaa9b437a71b4058f4728d822"),
}


@pytest.fixture(scope="module")
def programs():
    return {**{name: parse_program(src) for name, src in PROGRAMS.items()},
            "nateq-barista": planted_barista()}


def _report(programs, name, **bounds):
    rep = explore(programs[name], unfold=2, **bounds)
    with redirect_stdout(io.StringIO()) as out:
        _emit_json({"command": "explore", "program": f"{name}.gract", **rep.to_json()})
    return rep, out.getvalue()


@pytest.mark.parametrize("name, cap", sorted(PINNED))
def test_capped_report_is_pinned(programs, name, cap):
    rep, text = _report(programs, name, max_states=cap)
    got = (rep.verdict, rep.states_visited, rep.max_depth, rep.pruned_calls,
           rep.pruned_choices, rep.bound_hit, hashlib.sha256(text.encode()).hexdigest())
    assert got == PINNED[name, cap]
    assert sum(rep.measure_histogram.values()) == rep.states_visited


@pytest.mark.parametrize("name", sorted(STUCK))
def test_stuck_report_is_pinned(programs, name):
    rep, text = _report(programs, name)
    got = (rep.verdict, rep.states_visited, rep.max_depth,
           hashlib.sha256(text.encode()).hexdigest())
    assert got == STUCK[name]
    assert rep.stuck_state["diagnosis"]

"""A thread whose awaited future no fulfilment of the configuration
produces has no step. `step_config` skips it before making room for it or
reading its step-table entry; every successor is the one that making
room for and stepping every thread gives, in the order that the sort
`step_config` once ended with gave."""

import pytest

from gract import semantics
from gract.explorer import explore
from gract.parser import parse_program
from gract.semantics import (
    StepResult,
    Tau,
    fifo_chooser,
    initial_config,
    label_str,
    run,
    step_config,
    stuck_diagnosis,
)
from gract.terms import (
    Await,
    CallMsg,
    FulfilledFut,
    Let,
    Return,
    Thread,
    UnitVal,
    Var,
)

from corpus import EXAMPLES, KCAFE1, NATEQ_BARISTA, TWO_CAFES, planted_barista
from term_helpers import config_of


def _load(name):
    return parse_program((EXAMPLES / name).read_text())


# the ranks the sort broke ties of one position with, the label's text last
RULE_ORDER = {"spawn": 0, "silent": 1, "hold": 2, "rls": 3, "call": 4, "get": 5, "return": 6}
VARIANT_ORDER = {"base": 0, "act": 1, "yld": 2}


def stepping_every_thread(config, prog):
    """The reference: `step_config` as it was before disabled threads were
    skipped and before its successors stopped being sorted. Room is made
    for every message and suspended thread, every thread is stepped, and
    the successors are sorted by where each acted (a spawn at its message,
    a thread where it stepped, an activated thread where it landed), then
    by rule, variant and label text."""
    out = []
    for i, p in enumerate(config.processes):
        match p:
            case CallMsg():
                spawned = semantics._spawned(prog, p)
                if type(spawned) is str:
                    continue
                freed = semantics._free_actor(config.processes, prog.monoid, p.actor, i)
                if freed is not None:
                    procs, pos, variant = freed
                    c = config.copy(procs[:pos] + (spawned,) + procs[pos + 1:])
                    out.append((i, StepResult("spawn", Tau(), c, p.actor,
                                              "base" if variant == "act" else variant)))
            case Thread(suspended=False):
                out += [(i, s) for s in semantics._thread_steps(config, prog, p, i, "base")]
            case Thread():
                freed = semantics._free_actor(config.processes, prog.monoid, p.actor, i)
                if freed is not None:
                    procs, pos, variant = freed
                    active = p.twin(suspended=False)
                    base = config.copy(procs[:pos] + (active,) + procs[pos + 1:])
                    out += [(pos, s)
                            for s in semantics._thread_steps(base, prog, active, pos, variant)]
    out.sort(key=lambda ps: (ps[0], RULE_ORDER[ps[1].rule], VARIANT_ORDER[ps[1].variant],
                             label_str(ps[1].label)))
    return [s for _, s in out]


def _brief(s):
    return (s.rule, s.label, s.actor, s.variant, s.branch, s.config)


def _assert_exact(prog, configs):
    for cfg in configs:
        assert ([_brief(s) for s in step_config(cfg, prog)]
                == [_brief(s) for s in stepping_every_thread(cfg, prog)])


def _unsolvable_run():
    """`gract run examples/recursive-unsolvable.gract --unsafe --strategy
    fifo`: every third step calls `A!loop()` once more, so the processes
    keep growing, each new thread awaiting a future nothing fulfils."""
    prog = _load("recursive-unsolvable.gract")
    return prog, run(initial_config(prog), prog, fifo_chooser, 1000)


EXPLORED = {
    "cafe": (lambda: _load("cafe.gract"), {"unfold": 2}, "FairTerminating", 153),
    "cafe(5)": (lambda: _load("cafe.gract"), {"unfold": 5}, "FairTerminating", 408),
    "cafe-nocup": (lambda: _load("cafe-nocup.gract"), {"unfold": 2}, "StuckFound", 6),
    "clearance": (lambda: _load("clearance.gract"), {"unfold": 2}, "FairTerminating", 19),
    "two-cafes": (lambda: parse_program(TWO_CAFES), {"unfold": 2, "max_states": 200},
                  "BoundExhausted", 200),
    "kcafe(1)": (lambda: parse_program(KCAFE1), {"unfold": 2}, "FairTerminating", 149),
    "natEq-barista": (planted_barista, {"unfold": 2}, "StuckFound", 78),
    "shared-barista(1)": (lambda: parse_program(NATEQ_BARISTA), {"unfold": 1},
                          "BoundExhausted", 718),
}


@pytest.mark.parametrize("name", EXPLORED)
def test_every_explored_state_steps_as_stepping_every_thread(name):
    load, bounds, verdict, states = EXPLORED[name]
    prog = load()
    rep = explore(prog, **bounds)
    assert (rep.verdict, rep.states_visited) == (verdict, states)
    _assert_exact(prog, rep.visited)


def test_every_configuration_of_a_growing_run_steps_as_stepping_every_thread():
    prog, trace = _unsolvable_run()
    _assert_exact(prog, [trace.initial] + [s.config for s in trace.steps])


def test_a_growing_run_scans_for_room_once_per_message(monkeypatch):
    """A timing-free guard. The run's 1,000 configurations hold up to 333
    threads, each awaiting a future nothing fulfils. Making room for each
    of them, as stepping every thread did, scanned the processes 166,834
    times for room and 55,611 times for a fulfilment to offer; the run
    took 2.4 s on a 2-vCPU virtual machine. Now only its messages are
    given room, and no thread is offered a fulfilment."""
    calls = {}
    for name in ("_free_actor", "_offered_future"):
        real = getattr(semantics, name)
        calls[name] = 0

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(semantics, name, counting)
    _, trace = _unsolvable_run()
    assert (trace.status, len(trace.steps)) == ("bound", 1000)
    assert len(trace.steps[-1].config.processes) == 334
    assert calls == {"_free_actor": 667, "_offered_future": 0}


def test_an_await_on_a_non_future_keeps_its_fault():
    """An await whose target is not a future awaits nothing, so it is
    stepped as before: its fault is its step-table entry and the
    diagnosis reports it."""
    cafe = _load("cafe.gract")
    thread = Thread({"u": UnitVal()}, Let("c", Await(Var("u")), Return(Var("c"))), "f#1", "Cs")
    cfg = config_of({}, [FulfilledFut("f#2", UnitVal()), thread])
    assert step_config(cfg, cafe) == []
    assert [v.code for v in cafe.steps.values()] == ["AwaitOnNonFuture"]
    assert {"code": "AwaitOnNonFuture", "actor": "Cs", "detail": "unit"} in stuck_diagnosis(
        cfg, cafe)


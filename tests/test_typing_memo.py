"""The program's typing table: a program types each process once, whatever
operation asks, and every typing, verdict and error is the one typing
without the table gives."""

import json
import random
import sys
from contextlib import contextmanager
from dataclasses import replace

import pytest

from gract import typecheck
from gract.explorer import check_helpful, check_subject_reduction, explore, helpful_chooser
from gract.grades import format_grade
from gract.parser import parse_program
from gract.semantics import fifo_chooser, initial_config, random_chooser, run, step_config
from gract.terms import (
    Await,
    CallMsg,
    FulfilledFut,
    FutRef,
    GradedRes,
    Idle,
    Lit,
    ResT,
    Thread,
    UnitT,
    UnitVal,
    fut_type,
    well_formed,
)
from gract.typecheck import (CheckError, check_program, measure_of_config, type_config,
                             type_process)

from corpus import EXAMPLES, cli_output
from term_helpers import config_of

CAFE = EXAMPLES / "cafe.gract"
UNIT_FUT = fut_type(UnitT(), {})


def _parse_cafe():
    return parse_program(CAFE.read_text())


@pytest.fixture(scope="module")
def cafe():
    return _parse_cafe()


@pytest.fixture
def fresh_cafe():
    """A cafe whose typing table is still empty."""
    return _parse_cafe()


@pytest.fixture(scope="module")
def states(cafe):
    rep = explore(cafe, unfold=2)
    assert rep.states_visited == 153
    return rep.visited


def _afresh(typing):
    """`typing` against a throwaway table: the program's is neither read
    nor written, so every process and sequence is typed afresh."""
    def typed_afresh(prog, arg):
        kept, prog.typings = prog.typings, {}
        try:
            return typing(prog, arg)
        finally:
            prog.typings = kept
    return typed_afresh


@contextmanager
def without_memo():
    """Type every process and every sequence afresh. `type_process` and
    `measure_of_config`, which read the program's typing table, are
    replaced in every module that imported them, this one included, by
    calls that type against a throwaway table."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("type_process", "measure_of_config"):
            real = getattr(typecheck, name)
            for module in list(sys.modules.values()):
                if vars(module).get(name) is real:
                    mp.setattr(module, name, _afresh(real))
        yield


def typings(prog, cfg):
    try:
        pt = type_process(prog, cfg.processes)
    except CheckError as err:
        pt = err.to_json()
    return measure_of_config(prog, cfg), type_config(prog, cfg), pt


def test_memo_changes_no_typing_of_explored_states(cafe, states):
    configs = [c for cfg in states
               for c in [cfg, *(s.config for s in step_config(cfg, cafe))]]
    # reversed, most configurations consume futures before producing them
    configs += [c.copy(c.processes[::-1]) for c in configs]
    got = [typings(cafe, c) for c in configs]
    with without_memo():
        want = [typings(cafe, c) for c in configs]
    assert got == want
    assert any(mu is None for mu, _, _ in got) and any(mu is not None for mu, _, _ in got)


def test_memo_changes_no_subject_reduction_result(seed4_runs):
    r = seed4_runs
    names = ["sr-replay", "helpful", "explore"]
    got_cli = [r.outputs[name] for name in names]
    with without_memo():
        want = [check_subject_reduction(r.prog, tr) for tr in r.traces]
        want_cli = [cli_output(r.commands[name]) for name in names]
    assert r.laws == want and all(law["ok"] for law in r.laws)
    assert got_cli == want_cli
    sr_code, sr_out = r.outputs["sr"]
    assert sr_code == 0 and json.loads(sr_out)["runs"] == r.runs
    assert [code for code, _ in got_cli] == [5, 0, 4]


def test_memo_rechecks_the_futures_a_process_read(cafe):
    reader = Thread({}, Await(Lit(FutRef("f#1"))), "f#2", "Cn")
    plain = FulfilledFut("f#1", UnitVal(), UNIT_FUT)
    cup = FulfilledFut("f#1", GradedRes("Cf", 1), fut_type(ResT("Cf", 1), {}))
    first = type_process(cafe, [plain, reader])
    # the reader's entry records the unit type it read; behind a producer
    # of another declared type it must be typed again
    second = type_process(cafe, [cup, reader])
    with without_memo():
        assert second == type_process(cafe, [cup, reader])
    assert first.produced["f#2"] == UNIT_FUT
    assert second.produced["f#2"] == fut_type(ResT("Cf", 1), {})
    with pytest.raises(CheckError) as err:
        type_process(cafe, [reader])
    assert err.value.code == "UnknownFuture"


def test_fulfilments_differing_only_in_fut_get_their_own_typings(cafe):
    plain = FulfilledFut("f#1", UnitVal(), UNIT_FUT)
    cup = FulfilledFut("f#1", UnitVal(), fut_type(UnitT(), {"B": {"CC": 1}}))
    assert type_process(cafe, [plain]).requires == {}
    assert type_process(cafe, [cup]).requires == {"B": {"CC": 1}}
    # one entry each: typing the second neither reused nor replaced the first
    assert cafe.typings[plain][0][0] == {}
    assert cafe.typings[cup][0][0] == {"B": {"CC": 1}}
    assert type_process(cafe, [plain]).produced == {"f#1": UNIT_FUT}


def test_memo_stores_no_rejection(cafe):
    thread = Thread({}, Await(Lit(FutRef("f#9"))), "f#2", "Cn")
    errors = []
    for _ in range(2):
        before = len(cafe.typings)
        with pytest.raises(CheckError) as err:
            type_process(cafe, [thread])
        errors.append(err.value.to_json())
        assert len(cafe.typings) == before and thread not in cafe.typings
    assert errors[0] == errors[1] and errors[0]["code"] == "UnknownFuture"


def test_a_rejected_sequence_leaves_no_entry(fresh_cafe):
    msg = CallMsg("f#1", "B", "takeOrder", (GradedRes("Order", 1),))
    reader = Thread({}, Await(Lit(FutRef("f#1"))), "f#2", "Cn")
    # the reader consumes f#1 before the message produces it
    sequence = (reader, msg)
    errors = []
    for _ in range(2):
        with pytest.raises(CheckError) as err:
            type_process(fresh_cafe, list(sequence))
        errors.append(err.value.to_json())
        assert sequence not in fresh_cafe.typings
        assert not any(type(key) is tuple for key in fresh_cafe.typings)
    assert errors[0] == errors[1] and errors[0]["code"] == "FutureConsumedBeforeProduced"
    # the same processes in producing order type, and only then is there an entry
    assert type_process(fresh_cafe, [msg, reader]).marked == {"f#1"}
    assert (msg, reader) in fresh_cafe.typings


def test_a_variant_program_types_with_its_own_table(cafe):
    order = (GradedRes("Order", 1),)
    msg = CallMsg("f#1", "B", "takeOrder", order)
    mu = type_process(cafe, [msg]).measure
    assert msg in cafe.typings
    b = cafe.actors["B"]
    decl = b.methods["takeOrder"]
    variant = replace(cafe, actors={**cafe.actors, "B": replace(
        b, methods={**b.methods, "takeOrder": replace(decl, measure=decl.measure + 1)})})
    assert variant.typings == {} and variant.typings is not cafe.typings
    assert type_process(variant, [msg]).measure == mu + 1
    # the original's entry is neither read nor overwritten by the variant
    assert type_process(cafe, [msg]).measure == mu


def test_a_returned_typing_is_the_tables_shared_entry(fresh_cafe, seed4_runs):
    order = (GradedRes("Order", 1),)
    msgs = [CallMsg("f#1", "B", "takeOrder", order), CallMsg("f#2", "Cn", "pickup", ()),
            FulfilledFut("f#3", UnitVal())]
    for ps in (msgs, msgs[:1]):
        pt = type_process(fresh_cafe, ps)
        assert type_process(fresh_cafe, ps) is pt
        # the marked set is frozen, so no caller can change a shared entry's
        assert isinstance(pt.marked, frozenset)
        with without_memo():
            assert type_process(fresh_cafe, ps) == pt
    # the law checks and config typings only read the entries they share,
    # so after them every sequence entry is still its key's typing
    r = seed4_runs
    assert all(check_subject_reduction(r.prog, tr)["ok"] for tr in r.traces)
    for tr in r.traces:
        for cfg in [tr.initial, *(s.config for s in tr.steps)]:
            assert type_config(r.prog, cfg)["ok"]
    keys = [key for key in r.prog.typings if type(key) is tuple]
    got = [r.prog.typings[key] for key in keys]
    with without_memo():
        want = [type_process(r.prog, key) for key in keys]
    assert len(keys) > 100 and got == want
    # the judgment's sequence-only part, against a fresh computation of each
    for pt, fresh, key in zip(got, want, keys):
        assert pt.unread == set(fresh.produced) - set(fresh.marked)
        assert pt.requires_json == {a: {r: format_grade(g) for r, g in env.items()}
                                    for a, env in fresh.requires.items()}
        assert pt.ill_formed == tuple(well_formed(key)) == ()
    # a report carries the entry's rendering itself, not a copy
    cfg = r.traces[0].steps[-1].config
    assert type_config(r.prog, cfg)["requires"] is type_process(
        r.prog, cfg.processes).requires_json
    # check_program's report is its caller's: editing it changes no entry
    report = check_program(fresh_cafe)["configReport"]
    shared = type_config(fresh_cafe, initial_config(fresh_cafe))["requires"]
    assert report["requires"] == shared and report["requires"] is not shared
    before = {a: dict(env) for a, env in shared.items()}
    for env in report["requires"].values():
        env.clear()
    assert type_config(fresh_cafe, initial_config(fresh_cafe))["requires"] == before


@pytest.fixture
def well_formed_calls(monkeypatch):
    calls = []
    real = typecheck.well_formed

    def counting(processes):
        calls.append(tuple(processes))
        return real(processes)

    monkeypatch.setattr(typecheck, "well_formed", counting)
    return calls


def test_well_formedness_is_judged_once_per_sequence(seed4_runs, well_formed_calls):
    prog = _parse_cafe()
    traces = seed4_runs.traces
    snapshots = [tuple(cfg.processes) for tr in traces
                 for cfg in [tr.initial, *(s.config for s in tr.steps)]]
    assert all(check_subject_reduction(prog, tr)["ok"] for tr in traces)
    entries = [key for key in prog.typings if type(key) is tuple]
    # each distinct sequence once, on its entry's miss; never per snapshot
    assert len(well_formed_calls) == len(set(well_formed_calls)) == len(entries)
    assert set(well_formed_calls) == set(entries) == set(snapshots)
    assert len(well_formed_calls) * 10 < len(snapshots)
    well_formed_calls.clear()
    assert all(check_subject_reduction(prog, tr)["ok"] for tr in traces)
    assert well_formed_calls == []


def test_an_ill_formed_sequence_is_reported_ill_formed(fresh_cafe, well_formed_calls):
    twice_idle = config_of({}, [Idle("B"), Idle("B")])
    # two fulfilments of one future: ill formed, and untypable (DoubleProduce)
    twice_fulfilled = config_of({}, [FulfilledFut("f#1", UnitVal(), UNIT_FUT)] * 2)
    with pytest.raises(CheckError):
        type_process(fresh_cafe, twice_fulfilled.processes)
    for cfg, problem in ((twice_idle, "actor B has 0 active threads and 2 idle markers"),
                         (twice_fulfilled, "future f#1 produced twice")):
        want = {"ok": False, "requires": {}, "measure": 0,
                "errors": [{"code": "IllFormed", "loc": "", "detail": problem}]}
        # the first call misses, the second hits where there is an entry
        assert type_config(fresh_cafe, cfg) == want == type_config(fresh_cafe, cfg)
    # the typable one is stored once, with its diagnostics; the rejection never is
    assert fresh_cafe.typings[twice_idle.processes].ill_formed == (
        "actor B has 0 active threads and 2 idle markers",)
    assert twice_fulfilled.processes not in fresh_cafe.typings
    assert well_formed_calls == [twice_idle.processes] + [twice_fulfilled.processes] * 2


# ---------------------------------------------------------------------------
# timing-free guard: how often a process is typed afresh

@pytest.fixture
def atomic_calls(monkeypatch):
    calls = []
    real = typecheck._type_atomic

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(typecheck, "_type_atomic", counting)
    return calls


def test_subject_reduction_types_each_process_once(fresh_cafe, atomic_calls):
    tr = run(initial_config(fresh_cafe), fresh_cafe, fifo_chooser, 1000)
    assert len(tr.steps) == 41
    assert check_subject_reduction(fresh_cafe, tr)["ok"]
    # re-typing every process of both typings of each snapshot takes 280
    assert len(atomic_calls) < 100


def test_explore_and_helpful_type_each_process_once(fresh_cafe, atomic_calls):
    rep = explore(fresh_cafe, unfold=2)
    assert rep.states_visited == 153
    assert check_helpful(fresh_cafe, rep.visited)["ok"]
    # re-typing every process of every state and successor takes 1,727
    assert len(atomic_calls) < 400


def test_explore_and_helpful_keep_no_sequence_typing(fresh_cafe):
    """Measures are composed from the process entries alone: an
    exploration's states are distinct sequences, so a sequence entry per
    state would cost memory and never be read."""
    rep = explore(fresh_cafe, unfold=2)
    assert check_helpful(fresh_cafe, rep.visited)["ok"]
    helpful = run(initial_config(fresh_cafe), fresh_cafe, helpful_chooser(fresh_cafe), 200)
    assert helpful.status == "terminated"
    assert fresh_cafe.typings and not any(type(key) is tuple for key in fresh_cafe.typings)


@pytest.fixture
def composed(monkeypatch):
    """The sequences composed from their processes' typings."""
    calls = []
    real = typecheck._compose

    def counting(prog, processes, *reqs):
        calls.append(tuple(processes))
        return real(prog, processes, *reqs)

    monkeypatch.setattr(typecheck, "_compose", counting)
    return calls


def test_many_subject_reduction_checks_share_the_programs_typings(
        fresh_cafe, atomic_calls, composed):
    rng = random.Random(4)
    traces = [run(initial_config(fresh_cafe), fresh_cafe, random_chooser(rng), 200)
              for _ in range(100)]
    snapshots = [tuple(cfg.processes) for tr in traces
                 for cfg in [tr.initial, *(s.config for s in tr.steps)]]
    assert (len(snapshots), len(set(snapshots))) == (6906, 360)
    assert all(check_subject_reduction(fresh_cafe, tr)["ok"] for tr in traces)
    # a typing memo per check types each process about 28 times
    distinct = {p for processes in snapshots for p in processes}
    assert len(atomic_calls) <= 2 * len(distinct)
    # two typings per snapshot, but each distinct sequence is composed once
    assert len(composed) <= len(set(snapshots))
    atomic_calls.clear()
    composed.clear()
    assert all(check_subject_reduction(fresh_cafe, tr)["ok"] for tr in traces)
    assert composed == [] and atomic_calls == []

"""The typing memo: one operation types each process once, and every typing,
verdict and error is the one typing without a memo gives."""

import io
import random
from contextlib import contextmanager, redirect_stdout
from dataclasses import replace

import pytest

from gract import typecheck
from gract.cli import main
from gract.explorer import check_helpful, check_subject_reduction, explore
from gract.parser import parse_program
from gract.semantics import fifo_chooser, initial_config, random_chooser, run, step_config
from gract.terms import (
    ActiveThread,
    Await,
    FulfilledFut,
    FutRef,
    Lit,
    ResT,
    UnitT,
    UnitVal,
    ctx_key,
    fut_type,
)
from gract.typecheck import CheckError, measure_of_config, type_config, type_process

from corpus import EXAMPLES

CAFE = EXAMPLES / "cafe.gract"
UNIT_FUT = fut_type(UnitT(), {})


@pytest.fixture(scope="module")
def cafe():
    return parse_program(CAFE.read_text())


@pytest.fixture(scope="module")
def states(cafe):
    rep = explore(cafe, unfold=2)
    assert rep.states_visited == 153
    return rep.visited


def _afresh(prog, p, visible, registry, memo):
    return typecheck._type_atomic(prog, p, visible, registry)


@contextmanager
def without_memo():
    """Type every process afresh, whatever memo the caller passes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(typecheck, "_type_atomic_memo", _afresh)
        yield


def typings(prog, cfg, memo):
    try:
        pt = type_process(prog, cfg.processes, {}, cfg.registry, memo)
    except CheckError as err:
        pt = err.to_json()
    return measure_of_config(prog, cfg, memo), type_config(prog, cfg, memo=memo), pt


def test_memo_changes_no_typing_of_explored_states(cafe, states):
    configs = [c for cfg in states
               for c in [cfg, *(s.config for s in step_config(cfg, cafe))]]
    # reversed, most configurations consume futures before producing them
    configs += [replace(c, processes=c.processes[::-1]) for c in configs]
    memo: dict = {}
    got = [typings(cafe, c, memo) for c in configs]
    with without_memo():
        want = [typings(cafe, c, None) for c in configs]
    assert got == want
    assert any(mu is None for mu, _, _ in got) and any(mu is not None for mu, _, _ in got)


def _cli(argv) -> tuple[int, str]:
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


def test_memo_changes_no_subject_reduction_result(cafe):
    rng = random.Random(4)
    traces = [run(initial_config(cafe), cafe, random_chooser(rng), 200) for _ in range(100)]
    got = [check_subject_reduction(cafe, tr) for tr in traces]
    commands = [["sr", str(CAFE), "--replay", str(EXAMPLES / "corrupted-trace.json"), "--json"],
                ["run", str(CAFE), "--strategy", "helpful", "--json"]]
    got_cli = [_cli(argv) for argv in commands]
    with without_memo():
        want = [check_subject_reduction(cafe, tr) for tr in traces]
        want_cli = [_cli(argv) for argv in commands]
    assert got == want and all(law["ok"] for law in got)
    assert got_cli == want_cli
    assert [code for code, _ in got_cli] == [5, 0]


def test_memo_rechecks_the_futures_a_process_read(cafe):
    thread = ActiveThread({}, Await(Lit(FutRef("f#1"))), "f#2", "Cn")
    cup = fut_type(ResT("Cf", 1), {})
    memo: dict = {}
    first = type_process(cafe, thread, {"f#1": UNIT_FUT}, memo=memo)
    second = type_process(cafe, thread, {"f#1": cup}, memo=memo)
    assert second == type_process(cafe, thread, {"f#1": cup})
    assert second.produced != first.produced
    with pytest.raises(CheckError) as err:
        type_process(cafe, thread, {}, memo=memo)
    assert err.value.code == "UnknownFuture"


def test_memo_keys_on_the_own_future_registry_entry(cafe):
    ff = FulfilledFut("f#1", UnitVal())
    plain = {"f#1": (UnitT(), ())}
    cup = {"f#1": (UnitT(), ctx_key({"B": {"CC": 1}}))}
    memo: dict = {}
    assert type_process(cafe, ff, registry=plain, memo=memo).requires == {}
    assert type_process(cafe, ff, registry=cup, memo=memo).requires == {"B": {"CC": 1}}


def test_memo_stores_no_rejection(cafe):
    thread = ActiveThread({}, Await(Lit(FutRef("f#9"))), "f#2", "Cn")
    memo: dict = {}
    errors = []
    for _ in range(2):
        with pytest.raises(CheckError) as err:
            type_process(cafe, thread, {}, memo=memo)
        errors.append(err.value.to_json())
        assert memo == {}
    assert errors[0] == errors[1] and errors[0]["code"] == "UnknownFuture"


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


def test_subject_reduction_types_each_process_once(cafe, atomic_calls):
    tr = run(initial_config(cafe), cafe, fifo_chooser, 1000)
    assert len(tr.steps) == 41
    assert check_subject_reduction(cafe, tr)["ok"]
    # re-typing every process of both typings of each snapshot takes 280
    assert len(atomic_calls) < 100


def test_explore_and_helpful_type_each_process_once(cafe, atomic_calls):
    rep = explore(cafe, unfold=2)
    assert rep.states_visited == 153
    assert check_helpful(cafe, rep.visited)["ok"]
    # re-typing every process of every state and successor takes 1,727
    assert len(atomic_calls) < 400

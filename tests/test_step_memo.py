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
    Stuck,
    config_to_json,
    fifo_chooser,
    initial_config,
    is_terminated,
    random_chooser,
    run,
    step_config,
    stuck_diagnosis,
)
from gract.terms import (
    Await,
    Call,
    CallMsg,
    Choice,
    FulfilledFut,
    FutRef,
    GradedRes,
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
    Var,
    free_vars,
    parts,
)

from corpus import EXAMPLES, KCAFE1, TWO_CAFES, cli_output, planted_barista
from term_helpers import active_thread, config_of


def _load(name):
    return parse_program((EXAMPLES / name).read_text())


def _explorations():
    return [(_load("cafe.gract"), {"unfold": 2}, 153),
            (parse_program(TWO_CAFES), {"unfold": 2, "max_states": 200}, 200)]


@contextmanager
def afresh():
    """Step everything afresh: each read of a program's `steps` or
    `successors` gets a throwaway table and each `Thread.twin` builds its
    twin anew, so neither of the program's tables is read or written and
    no thread keeps a twin. Yields a one-element list that counts the
    calls `run` makes to `step_config` inside the block."""

    def fresh_table(name):
        # a data descriptor wins over the instance's own table; a program
        # built inside the block still gets one, for use after it
        return property(lambda prog: {}, lambda prog, table: vars(prog).__setitem__(name, table))

    with pytest.MonkeyPatch.context() as mp:
        for name in ("steps", "successors"):
            mp.setattr(Program, name, fresh_table(name), raising=False)
        # likewise over a thread's kept twin, and keeping one is dropped
        mp.setattr(Thread, "_twin", property(lambda t: None, lambda t, twin: None))
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
    """A timing-free guard. Without the table, the cafe at unfold 2 takes
    282 expression steps. Keyed on every input a step could read, the
    table stepped 167 of them afresh; keyed on the one input each redex
    reads, 129; and 102 once a thread awaiting a future that no
    fulfilment produces is not stepped at all."""
    rep = explore(_load("cafe.gract"), unfold=2)
    assert rep.states_visited == 153
    assert step_expr_calls[0] == 102


def test_two_cafes_step_each_thread_once(step_expr_calls):
    """The same guard on wide states: the two cafes' first 200 states
    took 169 expression steps with the wider key, 89 with the narrow one,
    and take 72 without stepping an await that nothing fulfils."""
    prog, bounds, states = _explorations()[1]
    assert explore(prog, **bounds).states_visited == states
    assert step_expr_calls[0] == 72


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


def _gate4_runs(cafe):
    """Gate 4's 100 runs: one Random(4) schedules them, 200 steps each."""
    rng = random.Random(4)
    return [run(initial_config(cafe), cafe, random_chooser(rng), 200) for _ in range(100)]


def test_runs_step_each_distinct_configuration_once(monkeypatch, step_expr_calls):
    """Gate 4's step budget over 100 runs scheduled by one Random(4), as
    `gract sr --seed 4` schedules them: 6,806 steps, but 369 distinct
    configurations, so 369 `step_config` calls where stepping at every
    visit made 6,906. Their threads are stepped afresh 249 times (516
    when the step table keyed a thread on every input, 291 when it also
    stepped an await that nothing fulfils)."""
    cafe = _load("cafe.gract")
    calls = _count_calls(monkeypatch, "step_config")
    traces = _gate4_runs(cafe)
    seen = {tr.initial for tr in traces} | {s.config for tr in traces for s in tr.steps}
    assert sum(len(tr.steps) for tr in traces) == 6806
    assert calls[0] == len(seen) == len(cafe.successors) == 369
    assert step_expr_calls[0] == 249


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


@pytest.mark.parametrize("load, stuck_states", [
    (lambda: _load("cafe-nocup.gract"), 1), (planted_barista, 2),
], ids=["cafe-nocup", "natEq-barista"])
def test_diagnosis_after_explore_steps_nothing(step_expr_calls, load, stuck_states):
    """Each stuck state `explore` stored is explained from the step table
    alone. Diagnosing them stepped 2 and 8 threads again when the
    diagnosis ran each thread's redex a second time. The barista is the
    planted one (`corpus.planted_barista`), which gets stuck."""
    prog = load()
    rep = explore(prog, unfold=2)
    assert rep.verdict == "StuckFound"
    stuck = [c for c in rep.visited if not step_config(c, prog) and not is_terminated(c)]
    assert len(stuck) == stuck_states
    step_expr_calls[0] = 0
    diagnoses = [stuck_diagnosis(c, prog) for c in stuck]
    assert step_expr_calls[0] == 0
    assert all(any(d["code"] == "StuckAtHold" for d in diag) for diag in diagnoses)


def test_a_faulted_redex_keeps_a_fault_never_raised():
    """A redex that faults has its fault as its step-table entry: a
    `Stuck` never raised, so it keeps no traceback, and with it no frame
    of the stepping that met the fault."""
    prog = planted_barista()
    explore(prog, unfold=2)
    faults = [v for v in prog.steps.values() if isinstance(v, BaseException)]
    assert [(type(v), v.code) for v in faults] == [(Stuck, "HoldBlocked")] * 3
    assert all(v.__traceback__ is None and v.__context__ is None for v in faults)


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


def test_a_step_builds_each_process_once(monkeypatch):
    """A call's message, a return's fulfilment, a spawned thread and an
    activated twin are built once from what their step reads, so every
    configuration that reaches them shares one object. A suspended
    thread is activated only beside its awaited fulfilment, which the
    cafe's exploration does in one configuration; two more, which differ
    only in their counters, activate one thread in both."""
    cafe = _load("cafe.gract")
    waiting = Thread({"g": FutRef("f#2")}, Let("c", Await(Var("g")), Return(Var("c"))),
                     "f#1", "Cs", suspended=True)
    pair = [config_of({}, [FulfilledFut("f#2", UnitVal()), waiting, Idle("Cs")], next_future=n)
            for n in (3, 5)]
    activated = {}  # active twin -> {configuration it steps in: the twin's id}
    real = semantics._thread_steps

    def spy(config, prog, thread, i, variant):
        if variant != "base":
            activated.setdefault(thread, {})[config] = id(thread)
        return real(config, prog, thread, i, variant)

    monkeypatch.setattr(semantics, "_thread_steps", spy)
    made = {}  # (rule, what the step read) -> {parent configuration: process built}
    for cfg in explore(cafe, unfold=2).visited + pair:
        for s in step_config(cfg, cafe):
            if s.variant != "base" or s.rule not in ("call", "return", "spawn"):
                continue
            if s.rule == "spawn":  # the message, which the successor no longer holds
                kept = {id(p) for p in s.config.processes}
                acting = next(p for p in cfg.processes if type(p) is CallMsg and id(p) not in kept)
            else:
                acting = active_thread(cfg, s.actor)
            if s.rule == "call":
                read, kind, future = (acting, cfg.next_future), CallMsg, s.label.future
            else:
                kind = FulfilledFut if s.rule == "return" else Thread
                read, future = acting, acting.future
            built = next(p for p in s.config.processes
                         if type(p) is kind and p.future == future)
            made.setdefault((s.rule, read), {})[cfg] = built
    shared = [key[0] for key, by_config in made.items() if len(by_config) > 1]
    assert set(shared) == {"call", "return", "spawn"}
    assert all(len({id(p) for p in by_config.values()}) == 1 for by_config in made.values())
    assert any(len(by_config) > 1 for by_config in activated.values())
    assert all(len(set(by_config.values())) == 1 for by_config in activated.values())


def _counted_steps(cafe, configs, step_expr_calls):
    """Step each configuration with the cafe's one table; returns the
    successor lists and how many expression steps were taken afresh."""
    step_expr_calls[0] = 0
    return [step_config(c, cafe) for c in configs], step_expr_calls[0]


def test_a_hold_steps_only_under_enough_resources(step_expr_calls):
    """The table keeps the actor's resources a hold reads: the same hold
    thread, in either order, steps with a Cf and has no successor without."""
    cafe = _load("cafe.gract")
    hold = Thread({}, Let("x", Hold(1, "Cf"), Return(Var("x"))), "f#1", "Cn")
    have, lack = config_of({"Cn": {"Cf": 1}}, [hold]), config_of({"Cn": {"CC": 1}}, [hold])
    (none, held, none_again), calls = _counted_steps(cafe, [lack, have, lack], step_expr_calls)
    assert none == none_again == [] and calls == 2
    assert [s.rule for s in held] == ["hold"] and held[0].config.alpha == (("Cn", (("Cf", 0),)),)


def test_an_await_steps_only_when_its_fulfilment_is_offered(step_expr_calls):
    """The table keeps the fulfilment an await reads: the same awaiting
    thread takes the value each offer carries, and beside another
    future's fulfilment it has no step and is not stepped (three
    expression steps when it was)."""
    cafe = _load("cafe.gract")
    waiting = Thread({"g": FutRef("f#2")}, Let("c", Await(Var("g")), Return(Var("c"))),
                     "f#1", "Cs")
    offers = [FulfilledFut("f#3", UnitVal()), FulfilledFut("f#2", UnitVal()),
              FulfilledFut("f#2", GradedRes("Cf", 1))]
    (other, unit, cf), calls = _counted_steps(
        cafe, [config_of({}, [f, waiting]) for f in offers], step_expr_calls)
    assert other == [] and calls == 2
    got = [s.config.processes for s in unit + cf]
    assert [s.rule for s in unit + cf] == ["get", "get"]
    assert [p[0].expr for p in got] == [Let("c", Return(Lit(v)), Return(Var("c")))
                                        for v in (UnitVal(), GradedRes("Cf", 1))]


@pytest.mark.parametrize("redex, reads", [
    (Choice(Return(Lit(UnitVal())), Return(Lit(UnitVal()))), None),
    (Call("Cn", "pickup", ()), "future"),
    (Return(Lit(UnitVal())), "var"),
], ids=["choice", "call", "let"])
def test_only_a_redex_that_reads_a_counter_is_stepped_per_counter(step_expr_calls, redex, reads):
    """Two configurations that differ only in their fresh-name counters:
    a choice reads neither and is stepped once for both; a call reads the
    fresh future and a let of a returned value the fresh variable, so each
    is stepped once per configuration and takes that configuration's name."""
    cafe = _load("cafe.gract")
    thread = Thread({}, Let("x", redex, Return(Var("x"))), "f#1", "Cs")
    configs = [config_of({}, [thread], next_future=3, next_var=4),
               config_of({}, [thread], next_future=5, next_var=7)]
    succs, stepped = _counted_steps(cafe, configs, step_expr_calls)
    assert stepped == (1 if reads is None else 2)
    for c, succ in zip(configs, succs):
        fresh = {"future": f"f#{c.next_future}", "var": f"y#{c.next_var}", None: ""}[reads]
        assert succ and all(s.config.next_future == c.next_future + (reads == "future")
                            and s.config.next_var == c.next_var + (reads == "var")
                            and fresh in str(s.config.processes) for s in succ)


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


def test_a_run_follows_each_step_to_its_targets_successors(monkeypatch):
    """A timing-free guard. A step's first arrival links it to its target's
    successor list, so a second pass of gate 4's 100 runs, which takes
    only steps the first took, reads the program's `successors` table at
    each run's start alone; looking each of its 6,806 targets up hashed
    each configuration again."""
    cafe = _load("cafe.gract")
    first = _gate4_runs(cafe)
    reads = [0]

    def read(prog):
        reads[0] += 1
        return vars(prog)["successors"]

    monkeypatch.setattr(Program, "successors", property(read), raising=False)
    again = _gate4_runs(cafe)
    assert sum(len(tr.steps) for tr in again) == 6806 and reads[0] == 100
    assert all(s is t for tr, tr2 in zip(first, again) for s, t in zip(tr.steps, tr2.steps))
    monkeypatch.undo()
    assert all(s.successors is cafe.successors[s.config] for tr in again for s in tr.steps)


def test_a_steps_link_is_no_part_of_its_value():
    """A linked step equals, and prints as, the same step unlinked, and
    `dataclasses.replace` leaves the copy unlinked."""
    cafe = _load("cafe.gract")
    linked = run(initial_config(cafe), cafe, fifo_chooser, 200).steps[0]
    assert linked.successors is cafe.successors[linked.config]
    unlinked = step_config(initial_config(cafe), cafe)[0]
    assert unlinked.successors is None
    assert unlinked == linked and repr(unlinked) == repr(linked)
    copy = replace(linked)
    assert copy.successors is None and copy == linked


def test_a_variant_program_follows_no_link_into_the_original():
    """A variant (`dataclasses.replace`) with nothing changed takes equal
    steps to equal configurations, so only identity shows whose lists its
    runs read: each step they take, and each list it links to, is the
    variant's own, on a run's first arrival and on a second run alike."""
    cafe = _load("cafe.gract")
    want = [run(initial_config(cafe), cafe, fifo_chooser, 200) for _ in range(2)][-1]
    steps = {id(s) for succ in cafe.successors.values() for s in succ}
    lists = {id(succ) for succ in cafe.successors.values()}
    variant = replace(cafe)
    for _ in range(2):
        got = run(initial_config(variant), variant, fifo_chooser, 200)
        assert _briefs(got) == _briefs(want)
        assert not {id(s) for s in got.steps} & steps
        assert not {id(s.successors) for s in got.steps} & lists
        assert all(s.successors is variant.successors[s.config] for s in got.steps)


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
        pairs += [(active_thread(s.config, s.actor), active_thread(t.config, t.actor))
                  for s, t in zip(first, again) if s.rule == "silent"]
    assert pairs and all(p is q for p, q in pairs)


def _subterms(e):
    yield e
    for sub in parts(e)[0]:
        yield from _subterms(sub)


@pytest.mark.parametrize("load", [lambda: _load("cafe.gract"), lambda: parse_program(KCAFE1)],
                         ids=["cafe", "kcafe(1)"])
def test_a_let_step_shares_every_subterm_the_renaming_leaves_alone(load):
    """The thread a let step builds holds, as the very objects, every
    subterm of the let's body in which the bound variable is not free."""
    prog = load()
    shared = 0
    for cfg in explore(prog, unfold=2).visited:
        for p in cfg.processes:
            if type(p) is not Thread or type(rx := semantics.redex(p.expr)) is not Let:
                continue
            [(_, _, (stepped,), _)] = semantics._step_entry(cfg, prog, p, rx, None)
            kept = {id(e) for e in _subterms(stepped.expr)}
            for e in _subterms(rx.body):
                if rx.var not in free_vars(e):
                    assert id(e) in kept, (str(rx), str(e))
                    shared += 1
    assert shared > 100


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

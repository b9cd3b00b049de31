"""Engine tests: value reduction, expression steps, configuration runs."""

import random

import pytest

from gract.explorer import explore
from gract.grades import INF, Lin
from gract.parser import parse_program
from gract.semantics import (
    CallLbl,
    FutLbl,
    HoldLbl,
    RlsLbl,
    Stuck,
    Tau,
    apply_primop,
    awaited,
    config_to_json,
    disconnected,
    eval_value_expr,
    fifo_chooser,
    initial_config,
    is_terminated,
    label_str,
    random_chooser,
    run,
    script_chooser,
    step_config,
    step_expr,
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
    GradedVar,
    Hold,
    Idle,
    Let,
    Lit,
    PrimOp,
    Release,
    Return,
    Thread,
    UnitVal,
    Var,
    ctx_of,
    well_formed,
)

from corpus import EXAMPLES, TWO_CAFES
from term_helpers import config_of, final_config

M = Lin()


@pytest.fixture(scope="module")
def cafe():
    with open(EXAMPLES / "cafe.gract") as fh:
        return parse_program(fh.read())


# ---------------------------------------------------------------------------
# value expressions

def test_graded_var_consumes():
    env = {"x": GradedRes("Cf", INF)}
    env2, v = eval_value_expr(M, env, GradedVar("x", 1))
    assert v == GradedRes("Cf", 1)
    assert env2["x"] == GradedRes("Cf", INF)
    assert env == {"x": GradedRes("Cf", INF)}  # input untouched


def test_graded_var_exact_consumption():
    env = {"x": GradedRes("Cf", 1)}
    env2, v = eval_value_expr(M, env, GradedVar("x", 1))
    assert env2["x"] == GradedRes("Cf", 0)
    assert v == GradedRes("Cf", 1)


def test_graded_var_insufficient():
    env = {"x": GradedRes("Cf", 0)}
    with pytest.raises(Stuck) as e:
        eval_value_expr(M, env, GradedVar("x", 1))
    assert e.value.code == "InsufficientGrade"


def test_future_var_is_read_once():
    env = {"y": FutRef("f#7"), "u": UnitVal()}
    env2, v = eval_value_expr(M, env, Var("y"))
    assert v == FutRef("f#7")
    assert "y" not in env2 and "u" in env2
    assert "y" in env


def test_unit_var_remains():
    env = {"u": UnitVal()}
    env2, v = eval_value_expr(M, env, Var("u"))
    assert v == UnitVal()
    assert env2 == env


def test_bare_resource_var_is_stuck():
    env = {"x": GradedRes("Cf", 1)}
    with pytest.raises(Stuck) as e:
        eval_value_expr(M, env, Var("x"))
    assert e.value.code == "UngradedResourceVar"


def test_unbound_var():
    with pytest.raises(Stuck) as e:
        eval_value_expr(M, {}, Var("nope"))
    assert e.value.code == "UnboundVariable"


# ---------------------------------------------------------------------------
# expression steps

def test_release_step(cafe):
    env = {"x": GradedRes("Cf", 1)}
    [(label, env2, e2)] = step_expr(M, env, Release(1, GradedVar("x", 1)), cafe, "f#9", "y#9",
                                    None, {})
    assert label == RlsLbl("Cf", 1)
    assert env2["x"] == GradedRes("Cf", 0)
    assert e2 == Return(Lit(UnitVal()))


def test_release_without_grade_is_stuck(cafe):
    # holder has grade 0, releasing 1 cannot consume the variable
    env = {"x": GradedRes("Cf", 0)}
    with pytest.raises(Stuck) as e:
        step_expr(M, env, Release(1, GradedVar("x", 1)), cafe, "f#9", "y#9", None, {})
    assert e.value.code == "InsufficientGrade"


def test_release_exceeding_value_grade_is_stuck(cafe):
    with pytest.raises(Stuck) as e:
        step_expr(M, {}, Release(1, Lit(GradedRes("Cf", 0))), cafe, "f#9", "y#9", None, {})
    assert e.value.code == "ReleaseExceedsGrade"


def test_hold_step_offers_resource(cafe):
    [(label, _, e2)] = step_expr(M, {}, Hold(1, "CC"), cafe, "f#9", "y#9", None, {"CC": 1})
    assert label == HoldLbl("CC", 1)
    assert e2 == Return(Lit(GradedRes("CC", 1)))


def test_hold_blocked_without_resource(cafe):
    with pytest.raises(Stuck) as e:
        step_expr(M, {}, Hold(1, "CC"), cafe, "f#9", "y#9", None, {"CC": 0})
    assert e.value.code == "HoldBlocked"


def test_call_step_evaluates_args_and_continues_with_future(cafe):
    env = {"o": GradedRes("Order", 1)}
    [(label, env2, e2)] = step_expr(M, env, Call("B", "takeOrder", (GradedVar("o", 1),)),
                                    cafe, "f#5", "y#0", None, {})
    assert label == CallLbl("f#5", "B", "takeOrder", (GradedRes("Order", 1),))
    assert env2["o"] == GradedRes("Order", 0)
    assert e2 == Return(Lit(FutRef("f#5")))


def test_await_takes_offered_value(cafe):
    env = {"y": FutRef("f#2")}
    [(label, env2, e2)] = step_expr(M, env, Await(Var("y")), cafe, "f#9", "y#9",
                                    ("f#2", UnitVal()), {})
    assert label == FutLbl("f#2", UnitVal())
    assert e2 == Return(Lit(UnitVal()))
    assert "y" not in env2


def test_await_without_offer_waits(cafe):
    env = {"y": FutRef("f#2")}
    assert step_expr(M, env, Await(Var("y")), cafe, "f#9", "y#9", None, {}) == []
    assert awaited(M, Thread(env, Await(Var("y")), "f#9", "C")) == "f#2"


def test_choice_offers_both_branches(cafe):
    left = Return(Lit(UnitVal()))
    right = Hold(1, "CC")
    out = step_expr(M, {}, Choice(left, right), cafe, "f#9", "y#9", None, {})
    assert [(lbl, e) for lbl, _, e in out] == [(Tau(), left), (Tau(), right)]


def test_let_binds_fresh_name(cafe):
    e = Let("x", Return(Lit(UnitVal())), Await(Var("x")))
    [(label, env2, e2)] = step_expr(M, {}, e, cafe, "f#9", "y#3", None, {})
    assert label == Tau()
    assert env2 == {"y#3": UnitVal()}
    assert e2 == Await(Var("y#3"))


def test_step_under_let(cafe):
    e = Let("c", Release(1, Lit(GradedRes("Cf", 1))), Return(Var("c")))
    [(label, _, e2)] = step_expr(M, {}, e, cafe, "f#9", "y#9", None, {})
    assert label == RlsLbl("Cf", 1)
    assert e2 == Let("c", Return(Lit(UnitVal())), Return(Var("c")))


def test_primop_rewrites_resources(cafe):
    assert apply_primop(cafe, "drink", (GradedRes("Cf", 1),)) == GradedRes("DC", 1)
    assert apply_primop(cafe, "washCup", (GradedRes("DC", 1),)) == GradedRes("CC", 1)
    assert apply_primop(cafe, "makeCoffee",
                        (GradedRes("Order", 1), GradedRes("CC", 1))) == GradedRes("Cf", 1)


def test_primop_rejects_wrong_shape(cafe):
    with pytest.raises(Stuck):
        apply_primop(cafe, "drink", (GradedRes("DC", 1),))
    with pytest.raises(Stuck):
        apply_primop(cafe, "drink", (GradedRes("Cf", 0),))
    with pytest.raises(Stuck):
        apply_primop(cafe, "nosuch", ())


def test_awaiting_future_sees_through_lets():
    e = Let("a", Await(Var("y")), Return(Lit(UnitVal())))
    assert awaited(M, Thread({"y": FutRef("f#1")}, e, "f#9", "C")) == "f#1"
    assert awaited(M, Thread({}, Return(Lit(UnitVal())), "f#9", "C")) is None
    assert awaited(M, Thread({}, Hold(1, "CC"), "f#9", "C")) is None


@pytest.mark.parametrize("name", ["cafe", "cafe-nocup", "clearance", "linear-future",
                                  "recursive-unsolvable", "two-cafes"])
def test_the_awaited_cache_agrees_with_awaiting_future(name):
    """Every thread of the explored states awaits what `awaited` says of
    a fresh, uncached thread with the same fields, whether exploring
    cached it or `awaited` computes it now."""
    text = TWO_CAFES if name == "two-cafes" else (EXAMPLES / f"{name}.gract").read_text()
    prog = parse_program(text)
    rep = explore(prog, unfold=2, max_states=1000)
    threads = {id(p): p for cfg in rep.visited for p in cfg.processes if isinstance(p, Thread)}
    assert any(t._awaits is not ... for t in threads.values())
    for t in threads.values():
        fresh = Thread(t.env, t.expr, t.future, t.actor, t.suspended, t.fut)
        assert awaited(prog.monoid, t) == awaited(prog.monoid, fresh)


# ---------------------------------------------------------------------------
# rearrangement

def thread_awaiting(f, actor="A", future="f#8"):
    return Thread({"y": FutRef(f)}, Await(Var("y")), future, actor)


def test_swap_blocked_by_dataflow():
    ff = FulfilledFut("f#1", UnitVal())
    consumer = thread_awaiting("f#1")
    assert not disconnected(ff, consumer)
    assert disconnected(ff, Idle("A"))
    assert disconnected(Idle("A"), Idle("B"))


def test_idle_actor_activates_a_suspended_thread(cafe):
    s = Thread({}, Return(Lit(UnitVal())), "f#1", "A", suspended=True)
    [only] = step_config(config_of({}, [Idle("A"), s]), cafe)
    # activation takes the idle marker to its left, so the fulfilment lands at 0
    assert (only.rule, only.variant, only.actor) == ("return", "act", "A")
    assert only.config.processes == (FulfilledFut("f#1", UnitVal()), Idle("A"))


def test_spawn_reports_its_message_position(cafe):
    """A spawn is listed where its message stands, after a thread that
    stands before the message, though its thread lands in front of it."""
    msg = CallMsg("f#2", "Cn", "pickup", ())
    done = Thread({}, Return(Lit(UnitVal())), "f#1", "A")
    ret, spawn = step_config(config_of({}, [Idle("Cn"), done, msg]), cafe)
    assert (ret.rule, ret.actor) == ("return", "A")
    assert (spawn.rule, spawn.variant, spawn.actor) == ("spawn", "base", "Cn")
    # the idle marker on the left goes, so the thread lands at 1
    assert spawn.config.processes[0] is done
    assert isinstance(spawn.config.processes[1], Thread)
    assert not spawn.config.processes[1].suspended


def test_message_to_an_awaiting_actor_yields(cafe):
    msg = CallMsg("f#2", "Cn", "pickup", ())
    waiting = thread_awaiting("f#1", actor="Cn", future="f#0")
    cfg = config_of({}, [msg, waiting])
    [only] = step_config(cfg, cafe)
    assert (only.rule, only.variant, only.actor) == ("spawn", "yld", "Cn")
    spawned, suspended = only.config.processes
    assert isinstance(spawned, Thread) and not spawned.suspended and spawned.future == "f#2"
    assert isinstance(suspended, Thread) and suspended.suspended and suspended.future == "f#0"


def test_busy_actor_does_not_yield(cafe):
    msg = CallMsg("f#2", "Cn", "pickup", ())
    busy = Thread({}, Hold(1, "Cf"), "f#1", "Cn")
    succ = step_config(config_of({"Cn": {"Cf": 1}}, [msg, busy]), cafe)
    assert [(s.rule, s.variant) for s in succ] == [("hold", "base")]


# ---------------------------------------------------------------------------
# configuration steps on the cafe program

def test_initial_config_shape(cafe):
    cfg = initial_config(cafe)
    kinds = [type(p).__name__ for p in cfg.processes]
    assert kinds == ["CallMsg", "Idle", "Idle", "Idle"]
    msg = cfg.processes[0]
    assert (msg.future, msg.actor, msg.method) == ("f#0", "Cs", "main")
    assert cfg.alpha == (("B", (("CC", 1),)),)
    assert cfg.call_counts == ((("Cs", "main"), 1),)
    assert msg.fut is not None and msg.fut == cafe.signatures["Cs", "main"].fut
    assert not well_formed(cfg.processes)


def test_first_step_is_spawn(cafe):
    cfg = initial_config(cafe)
    [only] = step_config(cfg, cafe)
    assert only.rule == "spawn" and only.actor == "Cs"
    spawned = only.config.processes[0]
    assert isinstance(spawned, Thread) and not spawned.suspended and spawned.actor == "Cs"
    assert not any(isinstance(p, Idle) and p.actor == "Cs" for p in only.config.processes)


def fifo_trace(prog, max_steps=200):
    return run(initial_config(prog), prog, fifo_chooser, max_steps)


def test_fifo_run_terminates_and_restores_resources(cafe):
    tr = fifo_trace(cafe)
    assert tr.status == "terminated"
    assert len(tr.steps) == 41
    assert ctx_of(final_config(tr).alpha)["B"]["CC"] == 1
    assert ctx_of(final_config(tr).alpha)["Cn"]["Cf"] == 0
    assert is_terminated(final_config(tr))
    assert tr.diagnosis == []


def test_fifo_rule_prefix_matches_first_serving(cafe):
    tr = fifo_trace(cafe)
    rules = [s.rule for s in tr.steps[:14]]
    assert rules == ["spawn", "call", "spawn", "hold", "silent", "silent", "silent",
                     "call", "spawn", "rls", "silent", "return", "silent", "get"]
    # barista's cup is held after the hold and restored by the final release
    assert ctx_of(tr.steps[3].config.alpha)["B"]["CC"] == 0
    assert ctx_of(tr.steps[9].config.alpha)["Cn"]["Cf"] == 1


def test_runs_stay_well_formed_and_futures_read_once(cafe):
    for seed in range(12):
        tr = run(initial_config(cafe), cafe, random_chooser(random.Random(seed)), 300)
        assert tr.status == "terminated"
        reads = {}
        for s in tr.steps:
            assert well_formed(s.config.processes) == []
            if s.rule == "get":
                f = s.label.future
                reads[f] = reads.get(f, 0) + 1
        assert all(n == 1 for n in reads.values())


def test_resource_bounds_along_runs(cafe):
    # one cup, one coffee: the graded state never exceeds either
    for seed in range(12):
        tr = run(initial_config(cafe), cafe, random_chooser(random.Random(seed)), 300)
        for s in tr.steps:
            alpha = ctx_of(s.config.alpha)
            assert alpha["B"]["CC"] in (0, 1)
            assert alpha.get("Cn", {}).get("Cf", 0) in (0, 1)


def test_recursive_branch_spawns_against_busy_actor(cafe):
    # take the recursive branch at the choice fork, first successor otherwise
    def chooser(succ, k):
        taus = [i for i, s in enumerate(succ)
                if s.rule == "silent" and s.actor == "Cs"]
        if len(taus) == 2:
            return taus[1]
        return 0

    tr = run(initial_config(cafe), cafe, chooser, 60)
    variants = {s.variant for s in tr.steps}
    assert "yld" in variants or "act" in variants
    assert any(s.rule == "spawn" and s.variant == "yld" for s in tr.steps)


def test_scripted_replay_is_exact(cafe):
    script = [
        {"rule": "spawn", "actor": "Cs"},
        {"rule": "call", "actor": "Cs"},
        {"rule": "spawn", "actor": "B"},
        {"rule": "hold", "actor": "B", "label": "CC^1?"},
    ]
    tr = run(initial_config(cafe), cafe, script_chooser(script), 10)
    assert tr.status == "bound"
    assert [label_str(s.label) for s in tr.steps][3] == "CC^1?"


def test_script_mismatch_raises(cafe):
    with pytest.raises(Stuck) as e:
        run(initial_config(cafe), cafe, script_chooser([{"rule": "get"}]), 5)
    assert e.value.code == "ScriptMismatch"


def test_stuck_without_cup(capsys):
    with open(EXAMPLES / "cafe.gract") as fh:
        src = fh.read().replace("init B: CC^1", "init B: CC^0")
    prog = parse_program(src)
    tr = run(initial_config(prog), prog, fifo_chooser, 50)
    assert tr.status == "stuck"
    codes = {d["code"] for d in tr.diagnosis}
    assert "StuckAtHold" in codes
    hold = next(d for d in tr.diagnosis if d["code"] == "StuckAtHold")
    assert (hold["actor"], hold["res"], hold["grade"]) == ("B", "CC", "1")
    assert any(d["code"] == "AwaitPending" and not d["fulfilled"] for d in tr.diagnosis)


REDEX_FAULTS = [
    ("cafe", Release(1, Lit(GradedRes("Cf", 0))),
     {"code": "ReleaseExceedsGrade", "detail": "release 1 of Cf^0"}),
    ("cafe", Release(1, Lit(UnitVal())),
     {"code": "ReleaseOnNonResource", "detail": "unit"}),
    ("cafe", Await(Lit(UnitVal())), {"code": "AwaitOnNonFuture", "detail": "unit"}),
    ("cafe", Call("B", "takeOrder", (Var("z"),)), {"code": "UnboundVariable", "detail": "z"}),
    ("cafe", Let("x", Return(Var("y")), Return(Var("x"))),
     {"code": "UnboundVariable", "detail": "y"}),
    ("cafe", PrimOp("nosuch", ()), {"code": "UnknownOperation", "detail": "nosuch"}),
    ("cafe", PrimOp("drink", (Lit(GradedRes("DC", 1)),)),
     {"code": "BadPrimOpArgs", "detail": "drink got DC^1 for Cf^1"}),
    ("clearance", Release("public", Lit(GradedRes("Doc", "secret"))),
     {"code": "UnreleasableGrade", "detail": "release public of Doc^secret"}),
    ("cafe", Hold(1, "CC"), {"code": "StuckAtHold", "res": "CC", "grade": "1"}),
    ("cafe", Return(Var("y")), {"code": "UnboundVariable", "detail": "y"}),
]


@pytest.mark.parametrize("name, expr, want", REDEX_FAULTS,
                         ids=[w["code"] + str(i) for i, (_, _, w) in enumerate(REDEX_FAULTS)])
def test_stuck_diagnosis_reports_each_redex_fault(name, expr, want):
    """A lone thread whose redex faults is diagnosed with exactly that
    fault; a blocked hold reads as `StuckAtHold`."""
    prog = parse_program((EXAMPLES / f"{name}.gract").read_text())
    cfg = config_of({"A": {"CC": 0}}, [Thread({}, expr, "f#0", "A")])
    assert step_config(cfg, prog) == []
    assert stuck_diagnosis(cfg, prog) == [{"actor": "A", **want}]


@pytest.mark.parametrize("msg, other, want", [
    (CallMsg("f#0", "B", "nosuch", ()), Idle("B"), ["UnknownMethod"]),
    (CallMsg("f#0", "B", "takeOrder", ()), Idle("B"), ["BadArity"]),
    # B's thread needs a cup B lacks, so B stays busy and the message waits
    (CallMsg("f#0", "B", "clean", (GradedRes("DC", 1),)), Thread({}, Hold(1, "CC"), "f#1", "B"),
     ["MessagePending", "StuckAtHold"]),
], ids=["unknown-method", "bad-arity", "busy-actor"])
def test_stuck_diagnosis_reports_why_a_message_does_not_spawn(cafe, msg, other, want):
    """A message that spawns no thread is diagnosed with the reason its
    step-table entry keeps; one to a busy actor is pending."""
    cfg = config_of({"B": {"CC": 0}}, [msg, other])
    assert step_config(cfg, cafe) == []
    got = stuck_diagnosis(cfg, cafe)
    assert [d["code"] for d in got] == want
    assert got[0] == {"code": want[0], "actor": "B", "method": msg.method}
    reason = cafe.steps[msg]
    assert type(reason) is Thread if want[0] == "MessagePending" else reason == want[0]


def test_get_falls_back_to_moving_the_thread(cafe):
    # a message mentioning f blocks the fulfilment from travelling right,
    # so the consumer travels left instead and lands where the value was
    blocker = CallMsg("f#5", "B", "clean", (FutRef("f#1"),))
    consumer = Thread({"y": FutRef("f#1")}, Await(Var("y")), "f#2", "Cs")
    cfg = config_of({}, [FulfilledFut("f#1", UnitVal()), blocker, consumer, Idle("Cs")],
                    next_future=6)
    # direct swap route is blocked
    assert not disconnected(cfg.processes[0], blocker)
    steps = [s for s in step_config(cfg, cafe) if s.rule == "get"]
    assert len(steps) == 1
    got = steps[0].config.processes
    assert isinstance(got[0], Thread) and not got[0].suspended and got[0].actor == "Cs"
    assert got[1] == blocker
    assert not any(isinstance(p, FulfilledFut) for p in got)


def test_bound_status(cafe):
    tr = run(initial_config(cafe), cafe, fifo_chooser, 3)
    assert tr.status == "bound" and len(tr.steps) == 3


def test_step_config_is_deterministic(cafe):
    cfg = initial_config(cafe)
    for _ in range(10):
        a = step_config(cfg, cafe)
        b = step_config(cfg, cafe)
        assert [(s.rule, label_str(s.label), s.actor, s.variant) for s in a] == \
               [(s.rule, label_str(s.label), s.actor, s.variant) for s in b]
        assert [config_to_json(s.config) for s in a] == [config_to_json(s.config) for s in b]
        cfg = a[0].config


def test_same_seed_same_trace(cafe):
    runs = []
    for _ in range(2):
        tr = run(initial_config(cafe), cafe, random_chooser(random.Random(99)), 300)
        runs.append([(s.rule, label_str(s.label)) for s in tr.steps])
    assert runs[0] == runs[1]


def test_config_json_round_trip_fields(cafe):
    cfg = initial_config(cafe)
    blob = config_to_json(cfg)
    assert blob["actors"] == {"B": {"CC": "1"}}
    assert blob["processes"][0]["kind"] == "msg"
    assert blob["counters"] == {"future": 1, "var": 0}
    assert blob["callCounts"] == {"Cs.main": 1}
    assert blob["registry"]["f#0"]["result"] == "Unit"

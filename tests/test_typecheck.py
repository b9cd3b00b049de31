"""Checker tests: canonical typings, method tables, configurations."""

import json
import random

import pytest

from gract.explorer import check_subject_reduction, explore
from gract.grades import INF, Lin
from gract.parser import parse_program
from gract.semantics import initial_config, run, fifo_chooser, random_chooser
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
    MethodDecl,
    Release,
    ResT,
    Return,
    Thread,
    UnitT,
    UnitVal,
    Var,
    fut_type,
)
from gract.typecheck import (
    CheckError,
    can_absorb,
    check_method_table,
    check_program,
    measure_of_config,
    type_config,
    type_expr,
    type_local_env,
    type_process,
    type_value_expr,
)

from corpus import EXAMPLES, hash_seed_outputs

M = Lin()
UNIT_FUT = fut_type(UnitT(), {})


@pytest.fixture(scope="module")
def cafe():
    with open(EXAMPLES / "cafe.gract") as fh:
        return parse_program(fh.read())


def expr_of(cafe, actor, method):
    return cafe.actors[actor].methods[method].body


# ---------------------------------------------------------------------------
# value expressions

def test_graded_variable_use(cafe):
    ty, uv, uf = type_value_expr(cafe, {"x": ResT("CC", 1)}, {}, GradedVar("x", 1))
    assert ty == ResT("CC", 1)
    assert uv == {"x": ResT("CC", 1)} and uf == set()


def test_future_literal_consumes_sigma(cafe):
    sigma = {"f#1": UNIT_FUT}
    ty, uv, uf = type_value_expr(cafe, {}, sigma, Lit(FutRef("f#1")))
    assert ty == UNIT_FUT and uv == {} and uf == {"f#1"}


def test_unit_literal(cafe):
    ty, uv, uf = type_value_expr(cafe, {}, {}, Lit(UnitVal()))
    assert ty == UnitT() and uv == {} and uf == set()


def test_grade_too_small(cafe):
    with pytest.raises(CheckError) as e:
        type_value_expr(cafe, {"x": ResT("CC", 1)}, {}, GradedVar("x", INF))
    assert e.value.code == "GradeTooSmall"


def test_bare_resource_variable_rejected(cafe):
    with pytest.raises(CheckError) as e:
        type_value_expr(cafe, {"x": ResT("CC", 1)}, {}, Var("x"))
    assert e.value.code == "UngradedResourceUse"


def test_unknown_variable(cafe):
    with pytest.raises(CheckError) as e:
        type_value_expr(cafe, {}, {}, Var("ghost"))
    assert e.value.code == "UnknownVariable"


# ---------------------------------------------------------------------------
# expressions

def test_return_unit_is_free(cafe):
    t = type_expr(cafe, "Cs", {}, {}, Return(Lit(UnitVal())))
    assert (t.ty, t.requires, t.produces, t.measure) == (UnitT(), {}, {}, 0)


def test_hold_requires_resource(cafe):
    t = type_expr(cafe, "B", {}, {}, Hold(1, "CC"))
    assert t.ty == ResT("CC", 1)
    assert t.requires == {"B": {"CC": 1}}
    assert t.produces == {} and t.measure == 1


def test_release_produces(cafe):
    t = type_expr(cafe, "B", {"x": ResT("CC", 1)}, {}, Release(1, GradedVar("x", 1)))
    assert t.produces == {"B": {"CC": 1}}
    assert t.requires == {} and t.ty == UnitT() and t.measure == 1


def test_release_grade_bound(cafe):
    with pytest.raises(CheckError) as e:
        type_expr(cafe, "B", {}, {}, Release(INF, Lit(GradedRes("CC", 1))))
    assert e.value.code == "GradeTooSmall"


def test_await_needs_future(cafe):
    with pytest.raises(CheckError):
        type_expr(cafe, "Cs", {}, {}, Await(Lit(UnitVal())))


def test_await_reports_promised_resources(cafe):
    decl = cafe.method("B", "takeOrder")
    sigma = {"f#1": fut_type(decl.result, decl.produces)}
    t = type_expr(cafe, "Cs", {"y": sigma["f#1"]}, {}, Await(Var("y")))
    assert t.produces == {"Cn": {"Cf": 1}}
    assert t.measure == 1 and t.ty == UnitT()


def test_call_charges_declared_measure(cafe):
    t = type_expr(cafe, "Cs", {}, {}, Call("B", "takeOrder", (Lit(GradedRes("Order", 1)),)))
    assert t.measure == 12 + 3
    assert t.requires == {"B": {"CC": 1}}
    assert t.produces == {}
    decl = cafe.method("B", "takeOrder")
    assert t.ty == fut_type(decl.result, decl.produces)


def test_let_cancels_internal_flow(cafe):
    # releasing then holding the same resource needs nothing from outside
    e = Let("z", Release(1, Lit(GradedRes("CC", 1))),
            Let("c", Hold(1, "CC"), Return(GradedVar("c", 1))))
    t = type_expr(cafe, "B", {}, {}, e)
    assert t.requires == {} and t.produces == {}
    assert t.measure == 4 and t.ty == ResT("CC", 1)


def test_let_threads_contexts_without_cancellation(cafe):
    # hold then release: the hold's requirement survives to the root
    e = Let("z", Hold(1, "CC"), Release(1, GradedVar("z", 1)))
    t = type_expr(cafe, "B", {}, {}, e)
    assert t.requires == {"B": {"CC": 1}}
    assert t.produces == {"B": {"CC": 1}}


def test_choice_pads_the_leaner_branch(cafe):
    # one branch does nothing, the other holds and releases a cup; both
    # judgments meet at requires = produces = one cup
    busy = Let("z", Hold(1, "CC"), Release(1, GradedVar("z", 1)))
    t = type_expr(cafe, "B", {}, {}, Choice(Return(Lit(UnitVal())), busy))
    assert t.requires == {"B": {"CC": 1}}
    assert t.produces == {"B": {"CC": 1}}
    assert t.measure == 1 + 0


def test_choice_branch_type_mismatch(cafe):
    bad = Choice(Return(Lit(UnitVal())), Return(Lit(GradedRes("CC", 1))))
    with pytest.raises(CheckError) as e:
        type_expr(cafe, "B", {}, {}, bad)
    assert e.value.code == "BranchMismatch"


def test_choice_requires_reconcilable_contexts(cafe):
    # hold-only branches of different resources shift by different
    # coordinates, and no single padding aligns them
    bad = Choice(Hold(1, "CC"), Hold(1, "DC"))
    with pytest.raises(CheckError) as e:
        type_expr(cafe, "B", {}, {}, bad)
    assert e.value.code == "BranchMismatch"


# two variables used in one branch each: the first mismatch named must not
# depend on string hashing
_TWO_MISMATCHES = """\
grade lin
A {
  main(): Unit requires A: R^1, A: S^1 produces measure 3 {
    let r = hold 1 R in let s = hold 1 S in (release 1 r^1 (+) release 1 s^1) }
}
init A: R^1, A: S^1;
start A!main()
"""


def test_branch_mismatch_names_the_first_seen_variable_under_any_hash_seed(tmp_path):
    program = tmp_path / "two-mismatches.gract"
    program.write_text(_TWO_MISMATCHES)
    outputs = hash_seed_outputs(["-m", "gract.cli", "check", "--json", str(program)],
                                range(1, 5))
    assert len(outputs) == 1, outputs
    code, out, err = outputs.pop()
    assert code == 1 and err == "", err
    report = json.loads(out)
    assert [(e["code"], e["detail"]) for e in report["errors"]] == [
        ("BranchMismatch", "usage of r: ^1 vs ^0")]


def test_unused_future_binder_rejected(cafe):
    e = Let("f", Call("Cn", "pickup", ()), Return(Lit(UnitVal())))
    with pytest.raises(CheckError) as e_:
        type_expr(cafe, "Cs", {}, {}, e)
    assert e_.value.code == "NonDiscardableLeftover"


def test_unused_linear_resource_rejected(cafe):
    e = Let("x", Return(Lit(GradedRes("CC", 1))), Return(Lit(UnitVal())))
    with pytest.raises(CheckError) as e_:
        type_expr(cafe, "B", {}, {}, e)
    assert e_.value.code == "NonDiscardableLeftover"


def test_unused_unrestricted_resource_dropped_at_leaf(cafe):
    e = Let("x", Return(Lit(GradedRes("CC", INF))), Return(Lit(UnitVal())))
    t = type_expr(cafe, "B", {}, {}, e)
    assert t.measure == 1


def test_hold_scope_has_no_drop_site(cafe):
    # an unused binder cannot be discarded inside a bare hold
    e = Let("x", Return(Lit(UnitVal())), Hold(1, "CC"))
    with pytest.raises(CheckError) as e_:
        type_expr(cafe, "B", {}, {}, e)
    assert e_.value.code == "NonDiscardableLeftover"
    assert not can_absorb(Hold(1, "CC"))


def test_ambient_leftover_at_root(cafe):
    # an untouched linear resource in scope cannot be dropped
    with pytest.raises(CheckError) as e:
        type_expr(cafe, "B", {"spare": ResT("CC", 1)}, {}, Return(Lit(UnitVal())))
    assert e.value.code == "NonDiscardableLeftover"
    # the unrestricted version vanishes at the return's leaf
    t = type_expr(cafe, "B", {"spare": ResT("CC", INF)}, {}, Return(Lit(UnitVal())))
    assert t.measure == 0


EXACT_INF = """\
grade {grade}
use(c: CC^inf): Unit
A {{
  go(): Unit requires A: CC^inf produces measure 3 {{ let c = hold inf CC in use(c^inf) }}
  keep(): Unit requires A: CC^inf produces A: CC^inf measure 3 {{
    let c = hold inf CC in release inf c^inf }}
}}
init A: CC^inf;
start A!go()
"""


@pytest.mark.parametrize("grade", ["natEq", "natLeq"])
def test_an_exact_use_at_inf_leaves_inf(grade):
    """Using `c^inf` of a `c: CC^inf` leaves `minus(inf, inf) == inf`, in
    the machine's environment as in the checker. natLeq drops that
    leftover, so the program checks and every state of its runs types.
    natEq cannot drop it, and a run does reach a thread that holds it
    unused, so the checker must refuse the program."""
    prog = parse_program(EXACT_INF.format(grade=grade))
    report = check_program(prog)
    traces = [run(initial_config(prog), prog, random_chooser(random.Random(seed)), 50)
              for seed in range(4)]
    sr = [check_subject_reduction(prog, tr) for tr in traces]
    if grade == "natEq":
        assert [(e["code"], e["loc"]) for e in report["errors"]] == [
            ("NonDiscardableLeftover", "A.go use argument 0"),
            ("NonDiscardableLeftover", "A.keep")]
        # after the use, the thread holds the leftover it can never drop
        assert all(r["violations"][-1]["errors"] == [{
            "code": "NonDiscardableLeftover", "loc": "thread f#0 of A",
            "detail": "y#0: CC^inf unused"}] for r in sr)
        return
    assert report["ok"], report["errors"]
    assert [r["computed"]["measure"] for r in report["methodReports"]] == [3, 3]
    result = explore(prog, unfold=2)
    assert result.verdict == "FairTerminating"
    assert "untypable" not in result.measure_histogram
    assert all(r["ok"] for r in sr)
    # a finite use of c^inf fits neither `use` nor the binder
    short = parse_program(EXACT_INF.format(grade=grade).replace("use(c^inf)", "use(c^5)"))
    assert [e["code"] for e in check_program(short)["errors"]] == ["GradeTooSmall"]


def test_shadowed_binder_rejected(cafe):
    e = Let("x", Return(Lit(UnitVal())), Return(Var("x")))
    with pytest.raises(CheckError) as e_:
        type_expr(cafe, "B", {"x": UnitT()}, {}, e)
    assert e_.value.code == "ShadowedBinder"


# `e1; e2` binds a fresh `_sN`; the body below sequences inside a `let`
# whose binder the text names
SPELLED_BINDER = """\
grade lin
A {
  m(): Unit requires A: R^1 produces A: R^1 measure 4 {
    let NAME = hold 1 R in (return unit; TAIL) }
}
init A: R^1;
start A!m()
"""


@pytest.mark.parametrize("tail", ["release 1 NAME^1", "return unit", "release 1 NAME"])
def test_a_sequencing_binder_never_captures_a_spelled_name(tail):
    """`_s0` and `_s1` are legal names: a text that spells them gets the
    error codes that the same text with `c` gets, and no ShadowedBinder."""
    codes = {}
    for name in ("c", "_s0", "_s1"):
        text = SPELLED_BINDER.replace("TAIL", tail).replace("NAME", name)
        codes[name] = [e["code"] for e in check_program(parse_program(text))["errors"]]
    assert codes["_s0"] == codes["_s1"] == codes["c"], codes
    assert "ShadowedBinder" not in codes["c"]


def test_weakening_by_droppable_context(cafe):
    # adding variables the expression can drop at a leaf never breaks it
    rng = random.Random(5)
    bodies = [expr_of(cafe, a, m) for a, m in
              [("B", "takeOrder"), ("B", "clean"), ("Cs", "main"), ("Cn", "place")]]
    declsof = {id(expr_of(cafe, a, m)): (a, m) for a, m in
               [("B", "takeOrder"), ("B", "clean"), ("Cs", "main"), ("Cn", "place")]}
    for body in bodies:
        actor, method = declsof[id(body)]
        decl = cafe.method(actor, method)
        gamma = {x: t for x, t in decl.params}
        base = type_expr(cafe, actor, gamma, {}, body)
        for _ in range(4):
            extra = dict(gamma)
            extra[f"w{rng.randrange(100)}"] = rng.choice(
                [UnitT(), ResT("CC", 0), ResT("DC", INF)])
            t = type_expr(cafe, actor, extra, {}, body)
            assert (t.requires, t.produces, t.measure) == \
                   (base.requires, base.produces, base.measure)


def test_measure_is_sum_of_rule_constants(cafe):
    # per rule: return 0, hold/release/op/await 1, call k+3, let 1+both,
    # choice 1+min; spot-check a nested shape against the closed form
    e = Let("a", Hold(1, "CC"),
            Let("b", Release(1, GradedVar("a", 1)),
                Return(Lit(UnitVal()))))
    t = type_expr(cafe, "B", {}, {}, e)
    assert t.measure == 1 + 1 + (1 + 1 + 0)


# ---------------------------------------------------------------------------
# environments and processes

def test_type_local_env(cafe):
    gamma, futs = type_local_env(cafe, {}, {})
    assert gamma == {} and futs == set()
    gamma, futs = type_local_env(cafe, {"x": GradedRes("CC", 1)}, {})
    assert gamma == {"x": ResT("CC", 1)} and futs == set()
    sigma = {"f#1": UNIT_FUT}
    gamma, futs = type_local_env(cafe, {"y": FutRef("f#1")}, sigma)
    assert gamma == {"y": UNIT_FUT} and futs == {"f#1"}


def test_idle_types_empty(cafe):
    pt = type_process(cafe, [Idle("B")])
    assert (pt.requires, pt.measure, pt.produced, pt.marked) == ({}, 0, {}, set())


def test_fulfilled_future_claims_its_promise(cafe):
    fut = fut_type(UnitT(), {"Cn": {"Cf": 1}})
    pt = type_process(cafe, [FulfilledFut("f#1", UnitVal(), fut)])
    assert pt.requires == {"Cn": {"Cf": 1}}
    assert pt.measure == 0
    assert pt.produced == {"f#1": fut_type(UnitT(), {"Cn": {"Cf": 1}})}


def test_message_charges_two_extra(cafe):
    pt = type_process(cafe, [CallMsg("f#0", "Cs", "main", ())])
    assert pt.measure == 39 + 2
    assert pt.requires == {"B": {"CC": 1}}


def test_fulfilment_right_of_consumer_rejected(cafe):
    consumer = Thread({"y": FutRef("f#1")}, Await(Var("y")), "f#2", "Cs", fut=UNIT_FUT)
    ff = FulfilledFut("f#1", UnitVal(), UNIT_FUT)
    with pytest.raises(CheckError) as e:
        type_process(cafe, [consumer, ff, Idle("B")])
    assert e.value.code == "FutureConsumedBeforeProduced"
    # reversed order composes
    pt = type_process(cafe, [ff, consumer, Idle("B")])
    assert pt.marked == {"f#1"}


def test_double_produce_rejected(cafe):
    with pytest.raises(CheckError) as e:
        type_process(cafe, [FulfilledFut("f#1", UnitVal()), FulfilledFut("f#1", UnitVal())])
    assert e.value.code == "DoubleProduce"


def test_marked_reuse_rejected(cafe):
    ff = FulfilledFut("f#1", UnitVal(), UNIT_FUT)
    r1 = Thread({"y": FutRef("f#1")}, Await(Var("y")), "f#2", "Cs", fut=UNIT_FUT)
    r2 = Thread({"z": FutRef("f#1")}, Await(Var("z")), "f#3", "B", fut=UNIT_FUT)
    with pytest.raises(CheckError) as e:
        type_process(cafe, [ff, r1, r2])
    assert e.value.code == "MarkedReuse"


# ---------------------------------------------------------------------------
# configurations and programs

def test_cafe_method_table_measures(cafe):
    report = check_method_table(cafe)
    assert report["ok"]
    measures = {f"{r['actor']}.{r['method']}": r["computed"]["measure"]
                for r in report["methodReports"]}
    assert measures == {"B.takeOrder": 12, "B.clean": 4, "Cs.main": 39,
                        "Cn.place": 2, "Cn.pickup": 2}


def test_cafe_initial_config_accepted(cafe):
    report = type_config(cafe, initial_config(cafe))
    assert report["ok"]
    assert report["measure"] == 41
    assert report["requires"] == {"B": {"CC": "1"}}


def test_missing_cup_rejected_statically():
    with open(EXAMPLES / "cafe.gract") as fh:
        src = fh.read().replace("init B: CC^1", "init B: CC^0")
    prog = parse_program(src)
    report = type_config(prog, initial_config(prog))
    assert not report["ok"]
    err = report["errors"][0]
    assert err["code"] == "InsufficientInitialResources"
    assert err["loc"] == "init B.CC"


def test_clearance_program_and_its_escalation():
    with open(EXAMPLES / "clearance.gract") as fh:
        src = fh.read()
    assert check_program(parse_program(src))["ok"]
    # calling the secret method with a matching declaration outruns the
    # initial clearance
    escalated = parse_program(
        src.replace("Db!audit()", "Db!leak()")
           .replace("main(): Unit requires Db: Doc^internal",
                    "main(): Unit requires Db: Doc^secret"))
    v = check_program(escalated)
    assert not v["ok"]
    assert any(e["code"] == "InsufficientInitialResources" and e["loc"] == "init Db.Doc"
               for e in v["errors"])


def test_double_read_rejected_statically():
    with open(EXAMPLES / "linear-future.gract") as fh:
        prog = parse_program(fh.read())
    v = check_program(prog)
    assert not v["ok"]
    assert any(e["code"] == "NonLinearFuture" for e in v["errors"])


def test_unsolvable_recursive_measure():
    with open(EXAMPLES / "recursive-unsolvable.gract") as fh:
        prog = parse_program(fh.read())
    v = check_method_table(prog)
    assert not v["ok"]
    [report] = v["methodReports"]
    assert [e["code"] for e in report["errors"]] == ["UnsolvableRecursiveMeasure"]


def test_checking_assigns_to_no_method_declaration(monkeypatch):
    with open(EXAMPLES / "recursive-unsolvable.gract") as fh:
        prog = parse_program(fh.read())
    writes = []

    def spy(self, name, value):
        # assignments while a declaration is constructed set new attributes
        if name in self.__dict__:
            writes.append((self.name, name, value))
        object.__setattr__(self, name, value)

    monkeypatch.setattr(MethodDecl, "__setattr__", spy)
    v = check_program(prog)
    assert "UnsolvableRecursiveMeasure" in {e["code"] for e in v["errors"]}
    assert writes == []


def test_plain_measure_mismatch():
    prog = parse_program("""
grade lin
A {
  m(): Unit requires produces measure 9 { return unit }
}
init ;
start A!m()
""")
    v = check_method_table(prog)
    [report] = v["methodReports"]
    assert [e["code"] for e in report["errors"]] == ["MeasureMismatch"]


def test_declared_context_mismatch():
    prog = parse_program("""
grade lin
A {
  m(): Unit requires produces A: R^1 measure 0 { return unit }
}
init ;
start A!m()
""")
    v = check_method_table(prog)
    [report] = v["methodReports"]
    assert [e["code"] for e in report["errors"]] == ["ContextMismatch"]


def test_declarations_padded_alike_accepted():
    # requires and produces both one above the body's computed contexts
    prog = parse_program("""
grade lin
A {
  m(): Unit requires A: R^1 produces A: R^1 measure 0 { return unit }
}
init A: R^1;
start A!m()
""")
    assert check_program(prog)["ok"]


# ---------------------------------------------------------------------------
# subject reduction along a run

def test_every_step_stays_typable_with_descending_measure(cafe):
    tr = run(initial_config(cafe), cafe, fifo_chooser, 200)
    assert tr.status == "terminated"
    mu = measure_of_config(cafe, tr.initial)
    assert mu == 41
    seen = [mu]
    for k, s in enumerate(tr.steps):
        report = type_config(cafe, s.config)
        assert report["ok"], (k, report["errors"])
        seen.append(report["measure"])
    assert seen == list(range(41, -1, -1))

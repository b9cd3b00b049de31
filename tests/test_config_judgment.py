"""`type_config` checks each required resource against its stored entry in
`config.alpha`, and `measure_of_config` composes without summing
`requires`. Both must answer as the conversion-based judgment did: the
resources turned into nested dicts (`ctx_of`), a `ctx_leq` pre-pass, then
one loop over `requires`. That judgment is kept here as the reference,
with its own copies of `ctx_leq` and `env_leq`, which the program no
longer has.
"""

import json
from functools import partial

import pytest

from gract.explorer import explore
from gract.grades import format_grade
from gract.parser import parse_program
from gract.terms import (
    CallMsg,
    FulfilledFut,
    GradedRes,
    Idle,
    Lit,
    Return,
    Thread,
    UnitVal,
    ctx_of,
    well_formed,
)
from gract.typecheck import CheckError, measure_of_config, type_config, type_process

from corpus import EXAMPLES, KCAFE1, NATEQ_BARISTA, hash_seed_outputs, planted_barista
from term_helpers import config_of

SOURCES = {p.name: p.read_text() for p in sorted(EXAMPLES.glob("*.gract"))}
SOURCES["kcafe(1)"] = KCAFE1
# each builds a fresh program; the barista is the planted one, which gets stuck
PROGRAMS = {name: partial(parse_program, src) for name, src in SOURCES.items()}
PROGRAMS["NATEQ_BARISTA"] = planted_barista

LEVELS = """\
grade levels { public, internal, secret; public <= internal, internal <= secret }
Db {
  leak(): Unit requires Db: Doc^secret produces Db: Doc^secret measure 4 {
    let d = hold secret Doc in release secret d^secret; return unit }
}
Vault {
  open(): Unit requires Vault: Key^internal produces Vault: Key^internal measure 4 {
    let k = hold internal Key in release internal k^internal; return unit }
}
init Db: Doc^internal;
start Db!leak()
"""


def env_leq(m, a, b) -> bool:
    z = m.zero()
    return all(m.leq(a.get(r, z), b.get(r, z)) for r in a.keys() | b.keys())


def ctx_leq(m, a, b) -> bool:
    return all(env_leq(m, a.get(actor, {}), b.get(actor, {})) for actor in a.keys() | b.keys())


def reference_type_config(prog, config) -> dict:
    """The judgment as it was: ctx_of, then ctx_leq, then the loop."""
    m = prog.monoid
    errors = []
    for problem in well_formed(config.processes):
        errors.append({"code": "IllFormed", "loc": "", "detail": problem})
    requires, measure = {}, 0
    if not errors:
        try:
            pt = type_process(prog, config.processes)
            requires, measure = pt.requires, pt.measure
            alpha = ctx_of(config.alpha)
            if not ctx_leq(m, requires, alpha):
                for actor, env in requires.items():
                    have = alpha.get(actor, {})
                    for r, g in env.items():
                        if not m.leq(g, have.get(r, m.zero())):
                            errors.append({
                                "code": "InsufficientInitialResources",
                                "loc": f"init {actor}.{r}",
                                "detail": f"requires {format_grade(g)}, "
                                          f"holds {format_grade(have.get(r, m.zero()))}",
                            })
        except CheckError as e:
            errors.append(e.to_json())
    return {"ok": not errors,
            "requires": {a: {r: format_grade(g) for r, g in env.items()}
                         for a, env in requires.items()},
            "measure": measure, "errors": errors}


def reference_measure(prog, config):
    try:
        return type_process(prog, config.processes).measure
    except CheckError:
        return None


def _same(prog, config) -> dict:
    got = type_config(prog, config)
    want = reference_type_config(prog, config)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    return got


# states at unfold 2, well-typed ones, and ones whose processes do not type
EXPLORED = {
    "NATEQ_BARISTA": (78, 78, 0),
    "cafe-nocup.gract": (6, 0, 0),  # every state lacks the cup
    "cafe.gract": (153, 153, 0),
    "clearance.gract": (19, 19, 0),
    "kcafe(1)": (149, 149, 0),
    "linear-future.gract": (8, 1, 7),
    "recursive-unsolvable.gract": (5, 5, 0),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_explored_state_is_judged_alike(name):
    prog = PROGRAMS[name]()
    states = explore(prog, unfold=2).visited
    verdicts = [_same(prog, cfg)["ok"] for cfg in states]
    measures = [measure_of_config(prog, cfg) for cfg in states]
    assert measures == [reference_measure(prog, cfg) for cfg in states]
    assert (len(states), sum(verdicts), measures.count(None)) == EXPLORED[name]


@pytest.fixture(scope="module")
def cafe():
    return parse_program(SOURCES["cafe.gract"])


def _orders():
    """Two cafe messages, whose requires sum to Cn's cup before B's."""
    order = (GradedRes("Order", 1),)
    return [CallMsg("f#1", "Cn", "pickup", ()), CallMsg("f#2", "B", "takeOrder", order),
            Idle("B"), Idle("Cs"), Idle("Cn")]


def _insufficient(actor, r, need, held):
    return {"code": "InsufficientInitialResources", "loc": f"init {actor}.{r}",
            "detail": f"requires {need}, holds {held}"}


def test_an_actor_missing_from_alpha_holds_nothing(cafe):
    report = _same(cafe, config_of({"Cn": {"Cf": 1}}, _orders()))
    assert report["errors"] == [_insufficient("B", "CC", "1", "0")]


def test_zero_grade_entries_hold_nothing_and_ask_for_nothing(cafe):
    # a hold that empties a resource leaves its zero entry in alpha
    short = _same(cafe, config_of({"B": {"CC": 0}, "Cn": {"Cf": 1}}, _orders()))
    assert short["errors"] == [_insufficient("B", "CC", "1", "0")]
    idle = [Idle("B"), Idle("Cs"), Idle("Cn")]
    assert _same(cafe, config_of({"B": {"CC": 0}, "Cn": {"Cf": 0}}, idle))["ok"]


def test_lin_shortfalls_come_in_requires_order(cafe):
    # requires is summed in process order: Cn before B, not sorted
    report = _same(cafe, config_of({}, _orders()))
    assert list(report["requires"]) == ["Cn", "B"]
    assert report["errors"] == [_insufficient("Cn", "Cf", "1", "0"),
                                _insufficient("B", "CC", "1", "0")]
    flipped = _orders()
    flipped[:2] = flipped[1::-1]
    assert [e["loc"] for e in _same(cafe, config_of({}, flipped))["errors"]] == [
        "init B.CC", "init Cn.Cf"]


def test_levels_shortfalls_come_in_requires_order():
    prog = parse_program(LEVELS)
    msgs = [CallMsg("f#1", "Vault", "open", ()), CallMsg("f#2", "Db", "leak", ()),
            Idle("Db"), Idle("Vault")]
    report = _same(prog, config_of({"Db": {"Doc": "internal"}, "Vault": {"Key": "public"}},
                                   msgs))
    assert report["errors"] == [_insufficient("Vault", "Key", "internal", "public"),
                                _insufficient("Db", "Doc", "secret", "internal")]
    # a level above the one required is enough
    assert _same(prog, config_of({"Db": {"Doc": "secret"}, "Vault": {"Key": "secret"}},
                                 msgs))["ok"]


def test_a_surplus_nothing_requires_is_never_reported():
    barista = parse_program(NATEQ_BARISTA)
    start = explore(barista, unfold=0, max_states=1).visited[0]
    alpha = {**ctx_of(start.alpha), "Z": {"R": 2}}
    config = start.copy(alpha=config_of(alpha, ()).alpha)
    # under exact usage 0 is not below 2, so the pre-pass fails ...
    assert not ctx_leq(barista.monoid, type_process(barista, config.processes).requires,
                       ctx_of(config.alpha))
    # ... and still no error is reported
    report = _same(barista, config)
    assert report["ok"] and report["measure"] == 88


def test_a_lin_surplus_nothing_requires_is_never_reported(cafe):
    # 0 and 1 are unrelated under lin, so the pre-pass fails here too
    config = config_of({"B": {"CC": 1}, "Cn": {"Cf": 1}, "Z": {"R": 1}}, _orders())
    assert _same(cafe, config)["ok"]


U = Lit(UnitVal())


@pytest.mark.parametrize("processes, detail", [
    ([Thread({}, Return(U), "f", "a"), Thread({}, Return(U), "g", "a")],
     "actor a has 2 active threads and 0 idle markers"),
    ([Idle("a"), Thread({}, Return(U), "f", "a")],
     "actor a has 1 active threads and 1 idle markers"),
    ([Idle("a"), Idle("a")], "actor a has 0 active threads and 2 idle markers"),
    ([Thread({}, Return(U), "f", "a", suspended=True)],
     "actor a has 0 active threads and 0 idle markers"),
    ([FulfilledFut("f", UnitVal()), FulfilledFut("f", UnitVal()), Idle("a")],
     "future f produced twice"),
])
def test_an_ill_formed_configuration_is_reported_before_typing(cafe, processes, detail):
    report = _same(cafe, config_of({}, processes))
    assert report == {"ok": False, "requires": {}, "measure": 0,
                      "errors": [{"code": "IllFormed", "loc": "", "detail": detail}]}


def test_a_rejected_sequence_reports_no_requires(cafe):
    msgs = [CallMsg("f#1", "B", "nosuch", ()), Idle("B")]
    report = _same(cafe, config_of({"B": {"CC": 1}}, msgs))
    assert report["requires"] == {} and report["measure"] == 0
    assert [e["code"] for e in report["errors"]] == ["UnknownMethod"]
    assert measure_of_config(cafe, config_of({}, msgs)) is None


# types three actors with two idle markers each, listed a, a, b, b, c, c
_IDLE_TWICE = """\
import json, sys
from gract.parser import parse_program
from gract.terms import Configuration, Idle
from gract.typecheck import type_config
prog = parse_program(open(sys.argv[1]).read())
print(json.dumps(type_config(prog, Configuration((), tuple(map(Idle, "aabbcc"))))))
"""


def test_ill_formed_actors_are_reported_in_first_seen_order_under_any_hash_seed():
    outputs = hash_seed_outputs(["-c", _IDLE_TWICE, str(EXAMPLES / "cafe.gract")], range(1, 6))
    assert len(outputs) == 1, outputs
    code, out, err = outputs.pop()
    assert code == 0 and err == "", err
    report = json.loads(out)
    assert [e["detail"] for e in report["errors"]] == [
        f"actor {a} has 0 active threads and 2 idle markers" for a in "abc"]

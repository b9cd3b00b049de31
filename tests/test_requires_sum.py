"""`type_process` sums the processes' `requires`; the result, dict key
order included, must be the left-to-right `ctx_plus` fold of the same
contexts."""

from gract import typecheck
from gract.explorer import explore
from gract.grades import INF, ctx_norm, ctx_plus
from gract.parser import parse_program
from gract.terms import CallMsg, GradedRes
from gract.typecheck import type_process

from corpus import EXAMPLES, TWO_CAFES

PROGRAMS = [
    ((EXAMPLES / "cafe.gract").read_text(), {"unfold": 2}),
    ((EXAMPLES / "clearance.gract").read_text(), {"unfold": 2}),
    (TWO_CAFES, {"unfold": 2, "max_states": 1000}),
]


def _ordered(ctx):
    return [(actor, list(env.items())) for actor, env in ctx.items()]


def test_requires_equal_the_ctx_plus_fold(monkeypatch):
    seen = []
    real = typecheck._type_atomic

    def recording(*args):
        out = real(*args)
        seen.append(out[0])
        return out

    actors = shared = 0
    for source, bounds in PROGRAMS:
        prog = parse_program(source)
        m = prog.monoid
        # states that differ only outside their processes share a sequence
        sequences = dict.fromkeys(tuple(cfg.processes)
                                  for cfg in explore(prog, **bounds).visited)
        with monkeypatch.context() as mp:
            mp.setattr(typecheck, "_type_atomic", recording)
            for processes in sequences:
                seen.clear()
                # against an empty table every process is typed, and recorded, afresh
                prog.typings = {}
                got = type_process(prog, processes).requires
                want: dict = {}
                for req in seen:
                    want = ctx_plus(m, want, req)
                assert _ordered(got) == _ordered(ctx_norm(m, want))
                pairs = [(a, r) for req in seen for a, env in req.items() for r in env]
                actors += len({a for a, _ in pairs}) > 1
                shared += len(set(pairs)) < len(pairs)
    # the sums cover several actors (key order) and grades added together
    assert actors > 0 and shared > 0


def test_requires_of_one_resource_add_up():
    cafe = parse_program(PROGRAMS[0][0])
    order = (GradedRes("Order", 1),)
    msgs = [CallMsg("f#1", "B", "takeOrder", order), CallMsg("f#2", "Cn", "pickup", ()),
            CallMsg("f#3", "B", "takeOrder", order)]
    for _ in range(2):
        # two linear obligations on one cup add up to unrestricted use
        got = type_process(cafe, msgs).requires
        assert _ordered(got) == [("B", [("CC", INF)]), ("Cn", [("Cf", 1)])]
        # the sum is not written into the contexts the program's table holds
        assert type_process(cafe, msgs[:1]).requires == {"B": {"CC": 1}}
        assert cafe.typings[msgs[0]][0][0] == {"B": {"CC": 1}}

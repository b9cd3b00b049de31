"""A choice step names the branch it took (`StepResult.branch`), recorded
by the step table when it builds the step, and a process keeps the
futures it consumes, which `disconnected` reads. Each must equal what was
worked out afresh before: the branch from the parent's redex and the
step's rank among its siblings (`_is_choice_step` and `_choice_index`,
kept here as the reference), and the consumed futures from a walk of the
process.
"""

import pytest

from gract.explorer import bounded_successors, explore
from gract.parser import parse_program
from gract.semantics import CallLbl, disconnected, redex, step_config
from gract.terms import (
    Await,
    CallMsg,
    Choice,
    FulfilledFut,
    FutRef,
    Idle,
    Thread,
    Var,
    calls_in,
    entry,
    futures_consumed_one,
    futures_in_expr,
    futures_in_value,
)

from corpus import EXAMPLES, KCAFE1, NATEQ_BARISTA, TWO_CAFES
from term_helpers import active_thread, futures_produced_one

SOURCES = {p.name: p.read_text() for p in sorted(EXAMPLES.glob("*.gract"))}
SOURCES.update(TWO_CAFES=TWO_CAFES, KCAFE1=KCAFE1, NATEQ_BARISTA=NATEQ_BARISTA)
# the cafe with its choice inside a let and the recursive branch on the left
SOURCES["nested-choice"] = SOURCES["cafe.gract"].replace(
    "(return unit (+) let r = Cs!main() in r?; return unit) }",
    "let z = (let r = Cs!main() in r? (+) return unit) in return z }")
# TWO_CAFES explores 10,661 states at unfold 1 to 3; the first 2,000 do here
MAX_STATES = 2000


def _is_choice_step(pre, s) -> bool:
    # only an active thread's redex is a choice, so a choice step is `base`
    if s.rule != "silent" or s.variant != "base":
        return False
    return isinstance(redex(active_thread(pre, s.actor).expr), Choice)


def _choice_index(config, succ, s):
    # a silent step resolving a choice redex; returns (redex, branch index)
    if not _is_choice_step(config, s):
        return None
    siblings = [t for t in succ
                if t.actor == s.actor and t.rule == "silent" and t.variant == s.variant]
    return redex(active_thread(config, s.actor).expr), siblings.index(s)


def reference_branch(config, succ, s):
    ch = _choice_index(config, succ, s)
    if ch is None:
        return None
    r, idx = ch
    return (r.left, r.right)[idx]


def reference_bounded(prog, config, unfold):
    """`bounded_successors` as it was: kept steps, pruned calls and choices."""
    raw = step_config(config, prog)
    kept, pruned_calls, pruned_choices = [], 0, 0
    for s in raw:
        if s.rule == "call" and isinstance(s.label, CallLbl):
            if entry(s.config.call_counts, (s.label.actor, s.label.method), 0) > unfold:
                pruned_calls += 1
                continue
        branch = reference_branch(config, raw, s)
        if branch is not None and any(entry(config.call_counts, k, 0) >= unfold
                                      for k in calls_in(branch)):
            pruned_choices += 1
            continue
        kept.append(s)
    return kept, pruned_calls, pruned_choices


def _explored(name, unfold):
    prog = parse_program(SOURCES[name])
    return prog, explore(prog, unfold=unfold, max_states=MAX_STATES).visited


@pytest.mark.parametrize("unfold", range(4))
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_a_step_names_the_branch_its_parents_redex_gives(name, unfold):
    prog, states = _explored(name, unfold)
    taken = []
    for cfg in states:
        raw = step_config(cfg, prog)
        for s in raw:
            assert s.branch == reference_branch(cfg, raw, s)
        taken += [s.branch for s in raw if s.branch is not None]
        succ = bounded_successors(prog, cfg, unfold)
        assert (succ.kept, succ.pruned_calls, succ.pruned_choices) == reference_bounded(
            prog, cfg, unfold)
    if unfold and name in ("cafe.gract", "nested-choice"):
        assert len(set(taken)) == 2  # both branches of the choice are taken


def _walk(p) -> set:
    """The futures `p` consumes, walked afresh."""
    match p:
        case Thread():
            return set().union(*map(futures_in_value, p.env.values()), futures_in_expr(p.expr))
        case CallMsg():
            return set().union(*map(futures_in_value, p.args))
        case FulfilledFut():
            return futures_in_value(p.value)
        case Idle():
            return set()
    raise TypeError(p)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_a_process_keeps_the_futures_a_walk_finds(name):
    prog, states = _explored(name, 2)
    configs = states + [s.config for cfg in states for s in step_config(cfg, prog)]
    procs = {id(p): p for cfg in configs for p in cfg.processes}
    walks = {k: _walk(p) for k, p in procs.items()}
    cached = [k for k, p in procs.items() if p._consumed is not None]
    assert cached
    for k in cached:
        assert procs[k]._consumed == walks[k]
    threads = [p for p in procs.values() if type(p) is Thread]
    for p in [*procs.values(), *(t.twin(not t.suspended) for t in threads)]:
        assert futures_consumed_one(p) == _walk(p)
    # the swap test against walks, on every pair of processes in a state
    pairs = {(id(p), id(q)) for cfg in states for p in cfg.processes for q in cfg.processes}
    for i, j in pairs:
        want = not (futures_produced_one(procs[i]) & walks[j]
                    or futures_produced_one(procs[j]) & walks[i])
        assert disconnected(procs[i], procs[j]) == want


def test_a_twin_takes_the_futures_its_thread_keeps():
    t = Thread({"y": FutRef("f#1")}, Await(Var("y")), "f#2", "A")
    kept = futures_consumed_one(t)
    assert kept == {"f#1"}
    assert t.twin(suspended=True)._consumed is kept
    fresh = Thread({"y": FutRef("f#1")}, Await(Var("y")), "f#3", "A")
    assert futures_consumed_one(fresh.twin(suspended=True)) == {"f#1"}

"""Bounded state-space exploration and dynamic checking of the soundness laws.

The explorer walks every interleaving of a program up to three bounds: a
per-method call budget (the unfold limit), a depth limit, and a state limit.
States are stored once per canonical key, which forgets fresh-name spelling
and the order of neighbours that may swap.  On top of the reachable set it
evaluates two dynamic laws: every step of a run preserves typability with a
controlled measure drop, and every live typable state offers at least one
measure-decreasing successor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .semantics import (
    CallLbl,
    HoldLbl,
    RlsLbl,
    StepResult,
    Trace,
    config_to_json,
    disconnected,
    initial_config,
    is_terminated,
    iter_successors,
    label_str,
    step_config,
    stuck_diagnosis,
)
from .terms import (CallMsg, Configuration, FulfilledFut, Idle, Process, Program, Thread,
                    calls_in, entry)
from .typecheck import measure_of_config, type_config, type_process


# ---------------------------------------------------------------------------
# Canonical state keys

# a fresh future or let-variable name; the group is the whole name
_FRESH = re.compile(r"(?<![A-Za-z0-9_])([fy]#\d+)")


def _key_pieces(p: Process) -> tuple:
    """What canonical_key reads of one process, once per distinct process:
    its template, each field (a thread's environment in binding order) as
    the count of its fresh names and the text around them, and the names in
    order. The two spell the process back; the template spells no name."""
    match p:
        case Thread(env, expr, future, actor, suspended):
            fields = ("suspended" if suspended else "active", actor, future,
                      *(s for x, v in env.items() for s in (x, str(v))), str(expr))
        case Idle(actor):
            fields = ("idle", actor)
        case CallMsg(future, actor, method, args):
            fields = ("msg", future, actor, method, *map(str, args))
        case FulfilledFut(future, value):
            fields = ("fulfilled", future, str(value))
    template, names = [], []
    for text in fields:
        parts = _FRESH.split(text)
        template += (len(parts) // 2, *parts[0::2])
        names += parts[1::2]
    return tuple(template), names


def canonical_key(config: Configuration, memo: dict) -> tuple:
    """A name for the state that ignores process order (where swapping is
    legal), fresh-name spelling, and the freshness counters.

    Adjacent processes are bubble-sorted by their templates (ties keep
    their order) whenever `semantics.disconnected` lets them swap.  The key
    is each process's template and the declared type of the future it
    produces, followed by codes for its fresh names (n for the n-th
    future, ~n for the n-th let-variable, by first occurrence), then the
    resources and the call budget, whose sorted tuples the configuration
    holds.  Only states that a renaming and legal swaps map onto each
    other share a key; other equivalent states may not, which costs extra
    visits, never a wrong merge.

    `memo`, owned by the caller, maps each process (a value, so equal
    processes share an entry) to its pieces, so configurations cut each
    distinct process once.
    """
    pieces = []
    for p in config.processes:
        pc = memo.get(p)
        if pc is None:
            tpl, names = _key_pieces(p)
            pc = memo[p] = tpl, names, p, (tpl, getattr(p, "fut", None))
        pieces.append(pc)
    changed = True
    while changed:
        changed = False
        for i in range(len(pieces) - 1):
            a, b = pieces[i], pieces[i + 1]
            if b[0] < a[0] and disconnected(a[2], b[2]):
                pieces[i], pieces[i + 1] = b, a
                changed = True

    mapping: dict[str, int] = {}
    futures = variables = 0
    body: list = []
    for pc in pieces:
        body.append(pc[3])
        for name in pc[1]:
            code = mapping.get(name)
            if code is None:
                if name[0] == "f":
                    code, futures = futures, futures + 1
                else:
                    code, variables = ~variables, variables + 1
                mapping[name] = code
            body.append(code)
    return tuple(body), config.alpha, config.call_counts


# ---------------------------------------------------------------------------
# Successor filtering under the unfold budget

@dataclass
class Successors:
    kept: list[StepResult]
    pruned_calls: int
    pruned_choices: int
    raw_count: int


def bounded_successors(prog: Program, config: Configuration, unfold: int) -> Successors:
    """All one-step successors, minus those the call budget rules out.

    A call that would push its method past the budget is dropped.  A choice
    step whose branch (`StepResult.branch`) syntactically mentions a call
    to an already-exhausted method is dropped too: taking it could only end
    at the budget wall, and cutting it here models the fair scheduler that
    eventually picks the other branch.
    """
    raw = step_config(config, prog)
    kept: list[StepResult] = []
    pruned_calls = pruned_choices = 0
    for s in raw:
        if s.rule == "call" and isinstance(s.label, CallLbl):
            key = (s.label.actor, s.label.method)
            if entry(s.config.call_counts, key, 0) > unfold:
                pruned_calls += 1
                continue
        if s.branch is not None and any(entry(config.call_counts, k, 0) >= unfold
                                        for k in calls_in(s.branch)):
            pruned_choices += 1
            continue
        kept.append(s)
    return Successors(kept, pruned_calls, pruned_choices, len(raw))


# ---------------------------------------------------------------------------
# Breadth-first exploration

@dataclass
class ExploreReport:
    verdict: str  # FairTerminating | WeaklyTerminatingWitness | StuckFound | BoundExhausted
    states_visited: int
    max_depth: int
    measure_histogram: dict[str, int]
    pruned_calls: int
    pruned_choices: int
    bound_hit: bool
    witness_trace: Optional[list[dict]] = None
    stuck_state: Optional[dict] = None
    visited: list[Configuration] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        out = {
            "schema": "gract/1",
            "verdict": self.verdict,
            "statesVisited": self.states_visited,
            "maxDepth": self.max_depth,
            "measureHistogram": self.measure_histogram,
            "prunedCalls": self.pruned_calls,
            "prunedChoices": self.pruned_choices,
            "boundHit": self.bound_hit,
        }
        if self.witness_trace is not None:
            out["witnessTrace"] = self.witness_trace
        if self.stuck_state is not None:
            out["stuckState"] = self.stuck_state
        return out


def _step_brief(s: StepResult) -> dict:
    return {"rule": s.rule, "label": label_str(s.label),
            "actor": s.actor, "variant": s.variant}


def _trace_to(reached: dict, cfg: Configuration) -> list[dict]:
    steps = []
    while reached[cfg] is not None:
        cfg, s = reached[cfg]
        steps.append(_step_brief(s))
    steps.reverse()
    return steps


def explore(prog: Program, config: Optional[Configuration] = None, *,
            unfold: int = 2, max_depth: int = 500, max_states: int = 100000) -> ExploreReport:
    """Breadth-first search over canonical states.

    FairTerminating: every explored maximal path ends terminated and no
    behaviour was cut except fair choice pruning.  A reachable stuck state
    wins over everything and comes with a witness trace.  When a call had to
    be pruned or a bound was hit, the best remaining claims are a witness of
    termination or plain bound exhaustion.

    The start state has depth 0. A level at `max_depth` is stepped like any
    other, so a stuck or terminated state there is judged, but none of its
    successors is stored. A StuckFound report's `max_depth` is the stuck
    state's depth plus one. At most `max_states` states are stored, the
    start state among them, so it must be at least 1. One table maps each
    stored state to its parent and the step that reached it; canonical keys
    only drop duplicates, and a successor equal to a stored state is dropped
    unkeyed. Only the steps on the witness's path are formatted.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, not {max_states}")
    start = config if config is not None else initial_config(prog)
    key_memo: dict = {}
    keys = {canonical_key(start, key_memo)}
    reached: dict[Configuration, Optional[tuple[Configuration, StepResult]]] = {start: None}
    histogram: dict[str, int] = {}
    pruned_calls = pruned_choices = 0
    bound_hit = False
    hard_truncated = False
    terminal: Optional[Configuration] = None
    stuck: Optional[Configuration] = None
    depth = 0

    def note_measure(cfg: Configuration) -> None:
        mu = measure_of_config(prog, cfg)
        k = "untypable" if mu is None else str(mu)
        histogram[k] = histogram.get(k, 0) + 1

    note_measure(start)
    level = [start]

    while level:
        at_cap = depth >= max_depth
        nxt: list[Configuration] = []
        for cfg in level:
            succ = bounded_successors(prog, cfg, unfold)
            pruned_calls += succ.pruned_calls
            pruned_choices += succ.pruned_choices
            if succ.raw_count == 0:
                if not is_terminated(cfg):
                    stuck = cfg
                    break
                if terminal is None:
                    terminal = cfg
                continue
            if succ.pruned_calls or not succ.kept:
                hard_truncated = True
            for s in succ.kept:
                full = at_cap or len(reached) >= max_states
                if bound_hit and full:
                    break  # no successor can be stored any more
                if s.config in reached:
                    continue
                k2 = canonical_key(s.config, key_memo)
                if k2 in keys:
                    continue
                if full:
                    bound_hit = True
                    continue
                keys.add(k2)
                reached[s.config] = (cfg, s)
                note_measure(s.config)
                nxt.append(s.config)
        if stuck is not None:
            break
        level = nxt
        if nxt:
            depth += 1

    end = terminal
    if stuck is not None:
        verdict, depth, end = "StuckFound", depth + 1, stuck
    elif not (bound_hit or hard_truncated):
        verdict = "FairTerminating"
    elif terminal is not None:
        verdict = "WeaklyTerminatingWitness"
    else:
        verdict = "BoundExhausted"
    return ExploreReport(
        verdict, len(reached), depth, histogram, pruned_calls, pruned_choices, bound_hit,
        witness_trace=None if end is None else _trace_to(reached, end),
        stuck_state=None if stuck is None else {
            "config": config_to_json(stuck),
            "diagnosis": stuck_diagnosis(stuck, prog)},
        visited=list(reached))


# ---------------------------------------------------------------------------
# The helpful direction: some successor always shrinks the measure

def helpful_chooser(prog: Program) -> Callable[[list[StepResult], int], int]:
    """Pick the successor with the smallest measure, earliest on ties."""
    def choose(succ: list[StepResult], _k: int) -> int:
        best, best_mu = 0, None
        for i, s in enumerate(succ):
            mu = measure_of_config(prog, s.config)
            if mu is not None and (best_mu is None or mu < best_mu):
                best, best_mu = i, mu
        return best
    return choose


def check_helpful(prog: Program, configs: list[Configuration]) -> dict:
    """Every typable state that can still move must have a successor with a
    strictly smaller measure, and a typable state (resources included)
    with no successor must have terminated. Successors are built in
    process order until one is helpful; pruning never hides one here."""
    violations = []
    checked = 0
    for cfg in configs:
        mu = measure_of_config(prog, cfg)
        if mu is None:
            continue
        moved = False
        for s in iter_successors(cfg, prog):
            moved = True
            v = measure_of_config(prog, s.config)
            if v is not None and v < mu:
                break
        else:  # no successor is helpful
            if not moved and (is_terminated(cfg) or not type_config(prog, cfg)["ok"]):
                continue
            violations.append({"code": "NoHelpfulSuccessor" if moved else "StuckState",
                               "measure": mu, "config": config_to_json(cfg)})
        checked += 1
    return {"ok": not violations, "checked": checked, "violations": violations}


# ---------------------------------------------------------------------------
# Dynamic subject reduction along a trace

def _graded(m, alpha) -> dict:
    """The stored resource entries by (actor, resource), zero grades left out."""
    return {(a, r): g for a, env in alpha for r, g in env if g != m.zero()}


def _expected_alpha(m, alpha, s: StepResult) -> Optional[dict]:
    """`_graded` of `alpha` after step `s`, None if a hold takes more than is held."""
    want = _graded(m, alpha)
    if isinstance(s.label, (HoldLbl, RlsLbl)):
        key, g = (s.actor, s.label.res), s.label.grade
        have = want.pop(key, m.zero())
        left = m.minus(have, g) if type(s.label) is HoldLbl else m.plus(have, g)
        if left is None:
            return None
        if left != m.zero():
            want[key] = left
    return want


def check_subject_reduction(prog: Program, trace: Trace) -> dict:
    """Check the preservation laws along one run.

    Per step: the configuration stays typable; the set of fulfilled-but-
    unread futures visible at the top level never changes (it is exactly the
    start future); the read-tracking marks gain exactly the fresh future of
    a call and lose exactly the future consumed by a get; the measure drops
    by exactly one except when resolving a choice, which may pick a dearer
    branch; and the graded state moves by exactly what the step's label
    says. A run that ends stuck in a typable state breaks progress: a
    typable state that has not terminated can always step.
    """
    m = prog.monoid
    violations: list[dict] = []
    measures: list[Optional[int]] = []

    def snap(cfg, where):
        report = type_config(prog, cfg)
        if not report["ok"]:
            violations.append({"step": where, "code": "Untypable",
                               "errors": report["errors"]})
            measures.append(None)
            return None
        measures.append(report["measure"])
        return type_process(prog, cfg.processes)

    pre = trace.initial
    pt = snap(pre, -1)
    unread0 = None if pt is None else pt.unread
    for k, s in enumerate(trace.steps):
        post = s.config
        pt2 = snap(post, k)
        if pt is not None and pt2 is not None:
            if unread0 is not None and pt2.unread != unread0:
                violations.append({"step": k, "code": "UnreadSetChanged",
                                   "was": sorted(unread0), "now": sorted(pt2.unread)})
            # the call label carries the fresh future, the get label the consumed one
            want = set(pt.marked)
            match s.rule, s.label:
                case "call", CallLbl(fresh, _, _, _):
                    want.add(fresh)
                case "get", lbl:
                    want.discard(lbl.future)
                case _:
                    pass
            if pt2.marked != want:
                violations.append({"step": k, "code": "MarkLawBroken",
                                   "expected": sorted(want), "got": sorted(pt2.marked)})
        mu0, mu1 = measures[-2], measures[-1]
        if mu0 is not None and mu1 is not None:
            if s.branch is not None:
                if mu1 < mu0 - 1:
                    violations.append({"step": k, "code": "MeasureDroppedTooFar",
                                       "from": mu0, "to": mu1})
            elif mu1 != mu0 - 1:
                violations.append({"step": k, "code": "MeasureNotDecrementing",
                                   "from": mu0, "to": mu1})
        # only a hold or a release may move the resources
        if post.alpha != pre.alpha or isinstance(s.label, (HoldLbl, RlsLbl)):
            if _expected_alpha(m, pre.alpha, s) != _graded(m, post.alpha):
                violations.append({"step": k, "code": "GradedStateMismatch",
                                   "label": label_str(s.label)})
        pre, pt = post, pt2
    if trace.status == "stuck" and measures[-1] is not None:
        violations.append({"step": len(trace.steps) - 1, "code": "StuckState",
                           "measure": measures[-1]})
    return {"ok": not violations, "steps": len(trace.steps),
            "violations": violations, "measures": measures}

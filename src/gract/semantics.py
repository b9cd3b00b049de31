"""Labelled small-step semantics for configurations of active objects.

Three layers. Value expressions reduce against a thread's local environment,
consuming grades deterministically (a graded variable subtracts from the
stored resource; reading a future removes it, keeping futures one-shot).
Expressions take labelled steps: holds and future reads are inputs fed by
the surrounding configuration, releases and calls are outputs, everything
else is silent. Configurations reduce by pairing those labels with the
global state: a hold subtracts from the actor's resources and is simply not
enabled when the subtraction is undefined, a call inserts a message to the
left of the caller, a message plus an idle actor spawns a thread, a
fulfilled future to the left of its awaiting thread is consumed, and a
thread at a return becomes a fulfilled future next to an idle marker.

Rearrangement (swapping disconnected neighbours, activating a queued
thread on an idle actor, suspending a thread that is awaiting) is folded
into successor enumeration rather than exposed as separate transitions, so
the successor set of a state already accounts for every bureaucratic move
that could enable a rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterator, Optional

from .grades import GradeMonoid, ResourceEnv, format_grade
from .terms import (
    Await,
    Call,
    CallMsg,
    Choice,
    Configuration,
    Expr,
    FulfilledFut,
    FutRef,
    GradedRes,
    GradedVar,
    Hold,
    Idle,
    Let,
    Lit,
    LocalEnv,
    PrimOp,
    Process,
    Program,
    Release,
    ResT,
    Return,
    Thread,
    UnitT,
    UnitVal,
    Value,
    ValueExpr,
    Var,
    ctx_key,
    entry,
    futures_consumed_one,
    rename_var,
    with_entry,
)


# ---------------------------------------------------------------------------
# Labels

class Label:
    pass


@dataclass(frozen=True)
class Tau(Label):
    pass


@dataclass(frozen=True)
class HoldLbl(Label):
    res: str
    grade: object


@dataclass(frozen=True)
class RlsLbl(Label):
    res: str
    grade: object


@dataclass(frozen=True)
class CallLbl(Label):
    future: str
    actor: str
    method: str
    args: tuple[Value, ...]


@dataclass(frozen=True)
class FutLbl(Label):
    future: str
    value: Value


def label_str(label: Label) -> str:
    match label:
        case Tau():
            return "tau"
        case HoldLbl(res, grade):
            return f"{res}^{format_grade(grade)}?"
        case RlsLbl(res, grade):
            return f"{res}^{format_grade(grade)}!"
        case CallLbl(future, actor, method, args):
            return f"{future}<={actor}!{method}({', '.join(map(str, args))})"
        case FutLbl(future, value):
            return f"{future}<-{value}"
    raise TypeError(f"not a label: {label!r}")


# ---------------------------------------------------------------------------
# Stuckness

class Stuck(Exception):
    """A definitely stuck redex, with a stable code for diagnosis."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


# ---------------------------------------------------------------------------
# Value expressions

def eval_value_expr(m: GradeMonoid, env: LocalEnv, ve: ValueExpr) -> tuple[LocalEnv, Value]:
    """Reduce a value expression; never mutates the given environment."""
    match ve:
        case Lit(v):
            return env, v
        case GradedVar(x, g):
            if x not in env:
                raise Stuck("UnboundVariable", x)
            v = env[x]
            if not isinstance(v, GradedRes):
                raise Stuck("GradedNonResource", f"{x} holds {v}")
            left = m.minus(v.grade, g)
            if left is None or (not m.releasable(g, v.grade) and m.leq(g, v.grade)):
                raise Stuck(
                    "InsufficientGrade" if left is None else "UnreleasableGrade",
                    f"{x} holds {v.res}^{format_grade(v.grade)}, needs {format_grade(g)}",
                )
            env2 = dict(env)
            env2[x] = GradedRes(v.res, left)
            return env2, GradedRes(v.res, g)
        case Var(x):
            if x not in env:
                raise Stuck("UnboundVariable", x)
            v = env[x]
            if isinstance(v, FutRef):
                env2 = dict(env)
                del env2[x]  # futures are read once
                return env2, v
            if isinstance(v, GradedRes):
                raise Stuck("UngradedResourceVar", f"{x} holds {v}")
            return env, v
    raise TypeError(f"not a value expression: {ve!r}")


def eval_value_list(m: GradeMonoid, env: LocalEnv,
                    ves: tuple[ValueExpr, ...]) -> tuple[LocalEnv, tuple[Value, ...]]:
    vals = []
    for ve in ves:
        env, v = eval_value_expr(m, env, ve)
        vals.append(v)
    return env, tuple(vals)


# ---------------------------------------------------------------------------
# Primitive operations

def apply_primop(prog: Program, op: str, args: tuple[Value, ...]) -> Value:
    """Resource-rewriting semantics read off the declared signature.

    Arguments must cover the declared shapes (same resource, grade at or
    above the declared one); the result is a fresh value of the declared
    result type. Reachable faults here mean the program was not checked.
    """
    sig = prog.op_sigs.get(op)
    if sig is None:
        raise Stuck("UnknownOperation", op)
    if len(args) != len(sig.params):
        raise Stuck("BadPrimOpArgs", f"{op} expects {len(sig.params)} arguments")
    m = prog.monoid
    for v, ty in zip(args, sig.params):
        match (v, ty):
            case (UnitVal(), UnitT()):
                pass
            case (GradedRes(res, h), ResT(res2, g)) if res == res2 and m.leq(g, h):
                pass
            case _:
                raise Stuck("BadPrimOpArgs", f"{op} got {v} for {ty}")
    match sig.result:
        case UnitT():
            return UnitVal()
        case ResT(res, g):
            return GradedRes(res, g)
    raise Stuck("BadPrimOpResult", f"{op} declares a future result")


# ---------------------------------------------------------------------------
# Expression steps

def step_expr(m: GradeMonoid, env: LocalEnv, e: Expr, prog: Program, fresh_future: str,
              fresh_var: str, offered: Optional[tuple[str, Value]],
              alpha: ResourceEnv) -> list[tuple[Label, LocalEnv, Expr]]:
    """The labelled steps of (env, e), or the `Stuck` its one redex raises;
    only a choice there has two steps. A return, or an await whose future
    is not `offered`'s (future, value), has none. A hold needs its grade
    in `alpha`, the actor's resources."""
    lets = []  # the lets around the redex, outermost first
    while isinstance(e, Let) and not isinstance(e.bound, Return):
        lets.append(e)
        e = e.bound
    match e:
        case Return(_):
            steps = []  # consumed by the configuration-level return rule
        case Let(x, Return(value), body):
            env2, v = eval_value_expr(m, env, value)
            steps = [(Tau(), {**env2, fresh_var: v}, rename_var(body, x, fresh_var))]
        case Call(actor, method, args):
            env2, vals = eval_value_list(m, env, args)
            label = CallLbl(fresh_future, actor, method, vals)
            steps = [(label, env2, Return(Lit(FutRef(fresh_future))))]
        case Await(target):
            env2, v = eval_value_expr(m, env, target)
            if not isinstance(v, FutRef):
                raise Stuck("AwaitOnNonFuture", str(v))
            hit = offered is not None and offered[0] == v.name
            steps = [(FutLbl(v.name, offered[1]), env2, Return(Lit(offered[1])))] if hit else []
        case Hold(g, r):
            if m.minus(alpha.get(r, m.zero()), g) is None:
                raise Stuck("HoldBlocked", f"{r}^{format_grade(g)}")
            steps = [(HoldLbl(r, g), env, Return(Lit(GradedRes(r, g))))]
        case Release(g, target):
            env2, v = eval_value_expr(m, env, target)
            if not isinstance(v, GradedRes):
                raise Stuck("ReleaseOnNonResource", str(v))
            if not m.releasable(g, v.grade):
                raise Stuck("ReleaseExceedsGrade" if not m.leq(g, v.grade) else "UnreleasableGrade",
                            f"release {format_grade(g)} of {v.res}^{format_grade(v.grade)}")
            steps = [(RlsLbl(v.res, g), env2, Return(Lit(UnitVal())))]
        case PrimOp(op, args):
            env2, vals = eval_value_list(m, env, args)
            result = apply_primop(prog, op, vals)
            steps = [(Tau(), env2, Return(Lit(result)))]
        case Choice(left, right):
            steps = [(Tau(), env, left), (Tau(), env, right)]
        case _:
            raise TypeError(f"not an expression: {e!r}")
    for let in reversed(lets):
        steps = [(label, env2, Let(let.var, e2, let.body)) for label, env2, e2 in steps]
    return steps


def redex(e: Expr) -> Expr:
    while isinstance(e, Let) and not isinstance(e.bound, Return):
        e = e.bound
    return e


def awaited(m: GradeMonoid, thread: Thread) -> Optional[str]:
    """The future the thread's redex waits for, if it is an await;
    computed once and kept on the thread."""
    if thread._awaits is ...:
        r = redex(thread.expr)
        try:
            v = eval_value_expr(m, thread.env, r.target)[1] if type(r) is Await else None
        except Stuck:
            v = None
        object.__setattr__(thread, "_awaits", v.name if isinstance(v, FutRef) else None)
    return thread._awaits


# ---------------------------------------------------------------------------
# Rearrangement

def disconnected(p: Process, q: Process) -> bool:
    """Adjacent processes may swap only when neither consumes the future
    the other produces (an idle marker produces none). The one swap test,
    it reads the futures each process keeps (`futures_consumed_one`)."""
    return ((type(p) is Idle or p.future not in futures_consumed_one(q))
            and (type(q) is Idle or q.future not in futures_consumed_one(p)))


# ---------------------------------------------------------------------------
# Configuration steps

@dataclass(slots=True)
class StepResult:
    """One successor: the rule taken, its label, the new configuration, the
    acting actor, and how it acted: the variant, and the branch a choice
    step took (None for every other step; it is not serialized).

    `successors` links to `config`'s list in the program's `successors`
    table, so that a run that takes the step again need not look `config`
    up. `run` sets it once, on the first arrival through the step, and
    nothing else does; it takes no part in equality or `repr`, and
    `dataclasses.replace` does not copy it.
    """

    rule: str
    label: Label
    config: Configuration
    actor: Optional[str]
    variant: str = "base"  # base | act | yld (scheduling move folded in)
    branch: Optional[Expr] = None
    successors: Optional[list[StepResult]] = field(default=None, init=False, compare=False,
                                                   repr=False)


def is_terminated(config: Configuration) -> bool:
    return all(isinstance(p, (Idle, FulfilledFut)) for p in config.processes)


def _offered_future(procs: tuple[Process, ...], m: GradeMonoid,
                    thread: Thread, i: int) -> Optional[tuple[str, Value, int, str]]:
    """The fulfilment this thread could consume.

    It must sit to the left of the thread and reach it by legal swaps:
    either the fulfilment travels right past everything in between, or the
    thread travels left. Returns (future, value, position, route) where
    route records which side moved, since the two give different layouts.
    """
    f = awaited(m, thread)
    if f is None:
        return None
    for j, p in enumerate(procs[:i]):
        if isinstance(p, FulfilledFut) and p.future == f:
            between = procs[j + 1: i]
            if all(disconnected(p, q) for q in between):
                return (f, p.value, j, "ff")
            if all(disconnected(q, thread) for q in between):
                return (f, p.value, j, "thread")
            return None
    return None


# the rule a thread step takes, by the type of its label
_RULE = {Tau: "silent", HoldLbl: "hold", RlsLbl: "rls", CallLbl: "call", FutLbl: "get"}


def _thread_steps(config: Configuration, prog: Program, thread: Thread, i: int,
                  variant: str) -> Iterator[StepResult]:
    """Steps of the active `thread` at position i of `config`, which
    reflects the variant: a thread activated by `act` or `yld` steps as
    its active twin does. They come from the thread's step-table entry
    (`_step_entry`), none from a fault. Each successor is one
    `config.copy` naming the fields its rule changes."""
    procs = config.processes
    rx = redex(thread.expr)
    reachable = _offered_future(procs, prog.monoid, thread, i) if type(rx) is Await else None
    steps = _step_entry(config, prog, thread, rx, reachable and reachable[:2])
    if type(steps) is Stuck:
        return

    m = prog.monoid
    a = thread.actor
    head, tail = procs[:i], procs[i + 1:]
    for rule, label, built, branch in steps:
        match label:
            case HoldLbl(r, g) | RlsLbl(r, g):
                env_a = entry(config.alpha, a)
                have = entry(env_a, r, m.zero())
                # defined: step_expr only lets a hold step when env_a, in the key, covers it
                left = m.minus(have, g) if rule == "hold" else m.plus(have, g)
                c = config.copy(head + built + tail,
                                alpha=with_entry(config.alpha, a, with_entry(env_a, r, left)))
            case CallLbl(_, b, meth):
                calls = entry(config.call_counts, (b, meth), 0) + 1
                c = config.copy(head + built + tail, next_future=config.next_future + 1,
                                call_counts=with_entry(config.call_counts, (b, meth), calls))
            case FutLbl():
                _, _, j, route = reachable
                if route == "ff":  # the fulfilment goes; the thread shifts to i-1
                    c = config.copy(procs[:j] + procs[j + 1: i] + built + tail)
                else:  # the thread takes the fulfilment's place
                    c = config.copy(procs[:j] + built + procs[j + 1: i] + tail)
            case _:  # silent or return; a let redex bound the fresh variable
                c = config.copy(head + built + tail,
                                next_var=config.next_var + 1 if type(rx) is Let else None)
        yield StepResult(rule, label, c, a, variant, branch)


def _step_entry(config: Configuration, prog: Program, thread: Thread, rx: Expr,
                offered: Optional[tuple[str, Value]]) -> list | Stuck:
    """The active `thread`'s entry in the program's step table,
    `prog.steps`, in `config` (redex `rx`, offered the given fulfilment),
    built on a miss. Its key is the thread (a value, so equal threads
    share an entry) and the one input its redex reads: a call the fresh
    future, a let binding a returned value the fresh variable, an await
    the fulfilment it is offered, a hold the actor's `alpha` entry, any
    other redex nothing; so an entry serves every run and exploration of
    the program. It holds each step's rule, label, the processes that
    take the thread's place (the updated thread, after a call's message,
    or a return's fulfilled future and idle marker) and choice branch, a
    choice's left first, so equal steps share every process they build;
    or, for a redex that faults, the fault."""
    match rx:
        case Call():
            key = (thread, config.next_future)
        case Let():
            key = (thread, config.next_var)
        case Await():
            key = (thread, offered)
        case Hold():
            key = (thread, entry(config.alpha, thread.actor))
        case _:
            key = (thread, None)
    table = prog.steps
    steps = table.get(key)
    if steps is not None:
        return steps
    m = prog.monoid
    try:
        if isinstance(thread.expr, Return):  # return rule: the thread becomes a fulfilled future
            _, v = eval_value_expr(m, thread.env, thread.expr.value)
            built = (FulfilledFut(thread.future, v, thread.fut), Idle(thread.actor))
            table[key] = [("return", Tau(), built, None)]
            return table[key]
        res = step_expr(m, thread.env, thread.expr, prog, f"f#{config.next_future}",
                        f"y#{config.next_var}", offered, dict(entry(config.alpha, thread.actor)))
    except Stuck as fault:  # a fresh one: the raised one's traceback keeps the stepping frames
        table[key] = Stuck(fault.code, fault.detail)
        return table[key]
    branches = (rx.left, rx.right) if type(rx) is Choice else (None,)
    steps = table[key] = []
    for (label, env2, expr2), branch in zip(res, branches):
        built = (Thread(env2, expr2, thread.future, thread.actor, fut=thread.fut),)
        if type(label) is CallLbl:
            sig = prog.signatures.get((label.actor, label.method))
            built = (CallMsg(label.future, label.actor, label.method, label.args,
                             sig and sig.fut),) + built
        steps.append((_RULE[type(label)], label, built, branch))
    return steps


def _free_actor(procs: tuple[Process, ...], m: GradeMonoid, a: str,
                i: int) -> Optional[tuple[tuple[Process, ...], int, str]]:
    """Make room for a new thread of actor `a` in place of the process at
    i (a message to spawn, or a suspended thread to activate): take a's
    idle marker (variant "act"), or else suspend a's active thread if it
    awaits (variant "yld"). Returns the processes with room made, the
    position where the caller puts the thread, and the variant; None when
    a is busy."""
    k = t = None
    for j, p in enumerate(procs):
        if type(p) is Idle and p.actor == a:
            return procs[:j] + procs[j + 1:], i - 1 if j < i else i, "act"
        if t is None and type(p) is Thread and p.actor == a and not p.suspended:
            k, t = j, p
    if t is None or awaited(m, t) is None:
        return None
    return procs[:k] + (t.twin(suspended=True),) + procs[k + 1:], i, "yld"


def _spawned(prog: Program, msg: CallMsg) -> Thread | str:
    """The thread `msg` spawns, or why it spawns none ("UnknownMethod" or
    "BadArity"), found once per program and kept in its step table."""
    table = prog.steps
    if msg not in table:
        decl = prog.method(msg.actor, msg.method)
        table[msg] = ("UnknownMethod" if decl is None
                      else "BadArity" if len(decl.params) != len(msg.args)
                      else Thread({x: v for (x, _), v in zip(decl.params, msg.args)}, decl.body,
                                  msg.future, msg.actor, fut=msg.fut))
    return table[msg]


def iter_successors(config: Configuration, prog: Program) -> Iterator[StepResult]:
    """Every successor reachable by one rule after folded rearrangement,
    each built when it is asked for; threads step through the program's
    step table (see `_thread_steps`). A thread awaiting a future that no
    fulfilment of `config` produces has no step and is skipped before
    room is made (which adds no fulfilment) or its entry read.

    Successors come in the order of the processes that act, as they stand
    in `config`: a spawn at its message, an activation (`act` or `yld`) at
    its suspended thread, an active thread's steps at the thread; a
    choice's left branch comes first."""
    m = prog.monoid
    fulfilled = {p.future for p in config.processes if type(p) is FulfilledFut}
    for i, p in enumerate(config.processes):
        if type(p) is Thread and (f := awaited(m, p)) is not None and f not in fulfilled:
            continue
        match p:
            case CallMsg():
                spawned = _spawned(prog, p)
                if type(spawned) is str:
                    continue
                freed = _free_actor(config.processes, m, p.actor, i)
                if freed is not None:
                    procs, pos, variant = freed
                    c = config.copy(procs[:pos] + (spawned,) + procs[pos + 1:])
                    # an idle actor is a spawn's base case
                    yield StepResult("spawn", Tau(), c, p.actor,
                                     "base" if variant == "act" else variant)
            case Thread(suspended=False):
                yield from _thread_steps(config, prog, p, i, "base")
            case Thread():
                freed = _free_actor(config.processes, m, p.actor, i)
                if freed is not None:
                    procs, pos, variant = freed
                    active = p.twin(suspended=False)
                    base = config.copy(procs[:pos] + (active,) + procs[pos + 1:])
                    yield from _thread_steps(base, prog, active, pos, variant)


def step_config(config: Configuration, prog: Program) -> list[StepResult]:
    """All of `config`'s successors, as `iter_successors` yields them."""
    return list(iter_successors(config, prog))


def stuck_diagnosis(config: Configuration, prog: Program) -> list[dict]:
    """Why a configuration has no successor, read from the program's step
    table: each thread's fault (a blocked hold is `StuckAtHold`) and the
    future it awaits, and why each message spawns no thread. A suspended
    thread is read through its active twin's entry, offered nothing."""
    m = prog.monoid
    out: list[dict] = []
    fulfilled = {p.future for p in config.processes if isinstance(p, FulfilledFut)}
    for p in config.processes:
        if isinstance(p, Thread):
            rx = redex(p.expr)
            fault = _step_entry(config, prog, p.twin(suspended=False), rx, None)
            if type(fault) is Stuck and fault.code == "HoldBlocked":
                out.append({"code": "StuckAtHold", "actor": p.actor, "res": rx.res,
                            "grade": format_grade(rx.grade)})
            elif type(fault) is Stuck:
                out.append({"code": fault.code, "actor": p.actor, "detail": fault.detail})
            f = awaited(m, p)
            if f is not None:
                out.append({
                    "code": "AwaitPending",
                    "actor": p.actor,
                    "future": f,
                    "fulfilled": f in fulfilled,
                })
        elif isinstance(p, CallMsg):
            reason = _spawned(prog, p)
            out.append({"code": "MessagePending" if type(reason) is Thread else reason,
                        "actor": p.actor, "method": p.method})
    return out


# ---------------------------------------------------------------------------
# Programs to configurations, runs, traces

def initial_config(prog: Program) -> Configuration:
    actor, meth = prog.start_actor, prog.start_method
    sig = prog.signatures.get((actor, meth))
    return Configuration(
        alpha=ctx_key(prog.init_ctx),
        processes=(CallMsg("f#0", actor, meth, prog.start_args, sig and sig.fut),
                   *(Idle(a) for a in prog.actors)),
        next_future=1,
        call_counts=(((actor, meth), 1),),
    )


@dataclass
class Trace:
    """A run: its start, the steps it took (step k reaches `steps[k].config`),
    and how it ended, with a diagnosis when stuck."""

    initial: Configuration
    steps: list[StepResult]
    status: str  # terminated | stuck | bound
    diagnosis: list[dict] = field(default_factory=list)


Chooser = Callable[[list[StepResult], int], Optional[int]]


def run(config: Configuration, prog: Program, chooser: Chooser, max_steps: int) -> Trace:
    """Follow the chooser for at most max_steps steps. The state reached
    is inspected even when the budget is spent, so a run that ends exactly
    on the budget still reports how it ended. Successor lists come from
    the program's `successors` table, so runs of one program step each
    distinct configuration once. The table is read at the start and on a
    step's first arrival, which links the step to its target's list
    (`StepResult.successors`); a later arrival follows the link and hashes
    no configuration."""
    steps: list[StepResult] = []
    current = config
    succ = _successors(current, prog)
    for k in count():
        if not succ:
            status = "terminated" if is_terminated(current) else "stuck"
            return Trace(config, steps, status,
                         [] if status == "terminated" else stuck_diagnosis(current, prog))
        idx = None if k >= max_steps else chooser(succ, k)
        if idx is None:
            return Trace(config, steps, "bound")
        chosen = succ[idx]
        steps.append(chosen)
        current = chosen.config
        succ = chosen.successors
        if succ is None:
            succ = chosen.successors = _successors(current, prog)


def _successors(config: Configuration, prog: Program) -> list[StepResult]:
    """`config`'s list in the program's `successors` table, stepped on a miss."""
    succ = prog.successors.get(config)
    if succ is None:
        succ = prog.successors[config] = step_config(config, prog)
    return succ


def random_chooser(rng: random.Random) -> Chooser:
    def choose(succ: list[StepResult], _k: int) -> int:
        return rng.randrange(len(succ))
    return choose


def fifo_chooser(succ: list[StepResult], _k: int) -> int:
    return 0


# the keys of a script entry that select a successor; an error names only these
_SELECTING = ("rule", "actor", "variant", "label", "pick")


def script_chooser(entries: list[dict]) -> Chooser:
    """Select successors by rule name and optional actor/variant/label.

    Used for scripted replays. Ambiguity is an error so that a script pins
    exactly one run; a "pick" index resolves deliberate forks such as the
    two branches of a choice, which look identical to the other keys, and
    so does a recorded "config" (as `step_to_json` writes it). A pick
    outside the matches is a mismatch. A config that matches none of the
    candidates takes the first, so that a replay comparing configurations
    reports the forgery at its step.
    """

    def choose(succ: list[StepResult], k: int) -> Optional[int]:
        if k >= len(entries):
            return None
        want = entries[k]
        matches = []
        for idx, s in enumerate(succ):
            if s.rule != want.get("rule", s.rule):
                continue
            if "actor" in want and s.actor != want["actor"]:
                continue
            if "variant" in want and s.variant != want["variant"]:
                continue
            if "label" in want and label_str(s.label) != want["label"]:
                continue
            matches.append(idx)
        if "pick" in want:
            if 0 <= want["pick"] < len(matches):
                return matches[want["pick"]]
        elif len(matches) > 1 and "config" in want:
            exact = (i for i in matches if config_to_json(succ[i].config) == want["config"])
            return next(exact, matches[0])
        elif len(matches) == 1:
            return matches[0]
        keys = {key: want[key] for key in _SELECTING if key in want}
        raise Stuck(
            "AmbiguousScript" if matches and "pick" not in want else "ScriptMismatch",
            f"step {k}: {keys} matched {len(matches)} of "
            f"{[(s.rule, s.actor, label_str(s.label)) for s in succ]}",
        )

    return choose


# ---------------------------------------------------------------------------
# Serialization

def process_to_json(p: Process) -> dict:
    match p:
        case Thread(env, expr, future, actor, suspended):
            return {"kind": "suspended" if suspended else "active", "actor": actor,
                    "future": future, "env": {x: str(v) for x, v in env.items()},
                    "expr": str(expr)}
        case Idle(actor):
            return {"kind": "idle", "actor": actor}
        case CallMsg(future, actor, method, args):
            return {"kind": "msg", "future": future, "actor": actor, "method": method,
                    "args": [str(v) for v in args]}
        case FulfilledFut(future, value):
            return {"kind": "fulfilled", "future": future, "value": str(value)}
    raise TypeError(f"not a process: {p!r}")


def config_to_json(config: Configuration) -> dict:
    # "registry" maps each produced future to the declared type its producer carries
    declared = {}
    for p in config.processes:
        if type(p) is not Idle:
            declared[p.future] = None if p.fut is None else {
                "result": str(p.fut.result),
                "produces": {a: {r: format_grade(g) for r, g in env} for a, env in p.fut.produces},
            }
    return {
        "actors": {a: {r: format_grade(g) for r, g in env} for a, env in config.alpha},
        "processes": [process_to_json(p) for p in config.processes],
        "registry": declared,
        "counters": {"future": config.next_future, "var": config.next_var},
        "callCounts": {f"{a}.{m}": n for (a, m), n in config.call_counts},
    }


def step_to_json(index: int, step: StepResult, measure: Optional[int] = None) -> dict:
    out = {
        "schema": "gract/1",
        "step": index,
        "rule": step.rule,
        "label": label_str(step.label),
        "actor": step.actor,
        "variant": step.variant,
        "config": config_to_json(step.config),
    }
    if measure is not None:
        out["measure"] = measure
    return out

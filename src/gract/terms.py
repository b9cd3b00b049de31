"""Abstract syntax: expressions, values, processes, configurations, programs.

Expressions are in fine-grained call-by-value style: every construct takes
value expressions (variables, graded variables, or literal values), and
sequencing happens only through let. A running program is a flat sequence
of atomic processes next to a global resource state; order in the sequence
is significant, rearrangement is a semantic move, not a syntactic identity.

Also here: the grammar's shape (`parts`) and the queries over it (free
variables, futures and calls), the futures each process consumes (which
govern when two processes may swap), configuration well-formedness, and
printers whose output the parser reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .grades import ActorContext, Grade, GradeMonoid, ctx_norm, format_grade


# ---------------------------------------------------------------------------
# Types

class Type:
    pass


@dataclass(frozen=True)
class UnitT(Type):
    def __str__(self) -> str:
        return "Unit"


@dataclass(frozen=True)
class ResT(Type):
    """A resource at a grade, e.g. CleanCup^1."""

    res: str
    grade: Grade

    def __str__(self) -> str:
        return f"{self.res}^{format_grade(self.grade)}"


@dataclass(frozen=True)
class FutT(Type):
    """A future whose fulfilment has the given type and releases `produces`."""

    _hash = None  # see _hash_once; processes carry future types into state keys
    result: Type
    produces: tuple[tuple[str, tuple[tuple[str, Grade], ...]], ...]

    def __str__(self) -> str:
        return f"fut({self.result}, {format_actor_ctx(ctx_of(self.produces))})"


def ctx_key(ctx: ActorContext) -> tuple[tuple[str, tuple[tuple[str, Grade], ...]], ...]:
    """Hashable, order-normalised form of an actor context."""
    return tuple(
        (a, tuple(sorted(ctx[a].items(), key=lambda kv: kv[0])))
        for a in sorted(ctx)
    )


def ctx_of(key: tuple) -> ActorContext:
    return {a: dict(env) for a, env in key}


def fut_type(result: Type, produces: ActorContext) -> FutT:
    return FutT(result, ctx_key(produces))


def format_actor_ctx(ctx: ActorContext) -> str:
    parts = []
    for actor in ctx:
        for res, g in ctx[actor].items():
            parts.append(f"{actor}: {res}^{format_grade(g)}")
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# Values and value expressions

class Value:
    pass


@dataclass(frozen=True)
class UnitVal(Value):
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class GradedRes(Value):
    res: str
    grade: Grade

    def __str__(self) -> str:
        return f"{self.res}^{format_grade(self.grade)}"


@dataclass(frozen=True)
class FutRef(Value):
    name: str

    def __str__(self) -> str:
        return self.name


class ValueExpr:
    _hash = None  # see _hash_once


@dataclass(frozen=True)
class Var(ValueExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class GradedVar(ValueExpr):
    name: str
    grade: Grade

    def __str__(self) -> str:
        return f"{self.name}^{format_grade(self.grade)}"


@dataclass(frozen=True)
class Lit(ValueExpr):
    value: Value

    def __str__(self) -> str:
        return str(self.value)


# ---------------------------------------------------------------------------
# Expressions

class Expr:
    _hash = None  # see _hash_once
    _free = None  # see free_vars


@dataclass(frozen=True)
class Call(Expr):
    actor: str
    method: str
    args: tuple[ValueExpr, ...]

    def __str__(self) -> str:
        return f"{self.actor}!{self.method}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Await(Expr):
    target: ValueExpr

    def __str__(self) -> str:
        return f"{self.target}?"


@dataclass(frozen=True)
class Hold(Expr):
    grade: Grade
    res: str

    def __str__(self) -> str:
        return f"hold {format_grade(self.grade)} {self.res}"


@dataclass(frozen=True)
class Release(Expr):
    grade: Grade
    target: ValueExpr

    def __str__(self) -> str:
        return f"release {format_grade(self.grade)} {self.target}"


@dataclass(frozen=True)
class PrimOp(Expr):
    op: str
    args: tuple[ValueExpr, ...]

    def __str__(self) -> str:
        return f"{self.op}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Choice(Expr):
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} (+) {self.right})"


@dataclass(frozen=True)
class Return(Expr):
    value: ValueExpr

    def __str__(self) -> str:
        return f"return {self.value}"


@dataclass(frozen=True)
class Let(Expr):
    var: str
    bound: Expr
    body: Expr

    def __str__(self) -> str:
        if self.var.startswith("_s") and self.var not in free_vars(self.body):
            return f"{self.bound}; {self.body}"
        return f"let {self.var} = {self.bound} in {self.body}"


def _hash_once(node) -> int:
    """A syntax node's, future type's or process's hash, computed on first
    use and kept outside its fields (equality, repr and str ignore it). It
    is the value the frozen dataclass computes, so hash-ordered iteration
    does not change."""
    h = node._hash
    if h is None:
        h = hash(tuple(getattr(node, f) for f in node.__match_args__))
        object.__setattr__(node, "_hash", h)
    return h


for _node in (FutT, Var, GradedVar, Lit, Call, Await, Hold, Release, PrimOp, Choice, Return, Let):
    _node.__hash__ = _hash_once


def _rename_ve(v: ValueExpr, old: str, new: str) -> ValueExpr:
    if type(v) is Var and v.name == old:
        return Var(new)
    if type(v) is GradedVar and v.name == old:
        return GradedVar(new, v.grade)
    return v


def rename_var(e: Expr, old: str, new: str) -> Expr:
    """Capture-avoiding variable renaming; grades ride along unchanged. A
    node in which `old` is not free is returned as it is, so the result
    shares every subterm the renaming leaves alone and builds only the
    path to `old`'s uses. Dispatches on the node's exact class, as it runs
    on every let step."""
    if old not in free_vars(e):
        return e
    k = type(e)
    if k is Let:
        body = e.body if e.var == old else rename_var(e.body, old, new)
        return Let(e.var, rename_var(e.bound, old, new), body)
    if k is Return:
        return Return(_rename_ve(e.value, old, new))
    if k is Call:
        return Call(e.actor, e.method, tuple(_rename_ve(x, old, new) for x in e.args))
    if k is Await:
        return Await(_rename_ve(e.target, old, new))
    if k is Release:
        return Release(e.grade, _rename_ve(e.target, old, new))
    if k is PrimOp:
        return PrimOp(e.op, tuple(_rename_ve(x, old, new) for x in e.args))
    return Choice(rename_var(e.left, old, new), rename_var(e.right, old, new))


def parts(e: Expr) -> tuple[tuple[Expr, ...], tuple[ValueExpr, ...]]:
    """The sub-expressions and the value expressions directly inside `e`:
    the grammar's shape, which the queries below walk."""
    k = type(e)
    if k is Let:
        return (e.bound, e.body), ()
    if k is Choice:
        return (e.left, e.right), ()
    if k is Call or k is PrimOp:
        return (), e.args
    if k is Await or k is Release:
        return (), (e.target,)
    if k is Return:
        return (), (e.value,)
    if k is Hold:
        return (), ()
    raise TypeError(f"not an expression: {e!r}")


def free_vars(e: Expr) -> frozenset[str]:
    """The variables free in `e`, computed on first use and kept on the
    node, as its hash is (see `_hash_once`)."""
    f = e._free
    if f is None:
        if type(e) is Let:
            f = free_vars(e.bound) | (free_vars(e.body) - {e.var})
        else:
            subs, values = parts(e)
            f = frozenset({v.name for v in values if type(v) is not Lit}).union(
                *map(free_vars, subs))
        object.__setattr__(e, "_free", f)
    return f


def futures_in_value(v: Value) -> set[str]:
    return {v.name} if isinstance(v, FutRef) else set()


def futures_in_expr(e: Expr) -> set[str]:
    subs, values = parts(e)
    out = {v.value.name for v in values if type(v) is Lit and type(v.value) is FutRef}
    return out.union(*map(futures_in_expr, subs))


def calls_in(e: Expr) -> set[tuple[str, str]]:
    """The (actor, method) of every call in `e`."""
    out = {(e.actor, e.method)} if type(e) is Call else set()
    return out.union(*map(calls_in, parts(e)[0]))


# ---------------------------------------------------------------------------
# Processes

LocalEnv = dict[str, Value]


class Process:
    """An atomic process: an immutable value that configurations share.

    A step builds new processes for what it rewrites and keeps every other
    process object as it is, so a process's environment is never written
    after construction. A process hashes by value, computed once (see
    `_hash_once` and `_hash_thread`), so it is its own key in every memo.
    Every process but `Idle` produces its own `future`, and carries that
    future's declared type, `fut`, fixed by the call that created it
    (`None` for a call to an undeclared method).
    """

    _hash = None
    _consumed = None  # see futures_consumed_one


@dataclass(frozen=True)
class Thread(Process):
    """A thread of `actor` running `expr` in `env` for `future`. A
    suspended thread waits at an await until its actor is free again; it
    is otherwise the thread it was, so suspending or activating one
    changes only the flag."""

    _awaits = ...  # the future its redex awaits, once `semantics.awaited` asked
    _twin = None  # the thread with the other flag, once `twin` built it
    env: LocalEnv
    expr: Expr
    future: str
    actor: str
    suspended: bool = False
    fut: Optional[FutT] = None

    def twin(self, suspended: bool) -> "Thread":
        """This thread with the flag set as given. The other twin is built
        once, and the two keep each other. It takes this thread's hash,
        awaited future and consumed futures, which leave the flag out."""
        if suspended == self.suspended:
            return self
        t = self._twin
        if t is None:
            t = Thread(self.env, self.expr, self.future, self.actor, suspended, self.fut)
            object.__setattr__(t, "_hash", hash(self))
            object.__setattr__(t, "_awaits", self._awaits)
            object.__setattr__(t, "_consumed", self._consumed)
            object.__setattr__(t, "_twin", self)
            object.__setattr__(self, "_twin", t)
        return t


@dataclass(frozen=True)
class Idle(Process):
    actor: str


@dataclass(frozen=True)
class CallMsg(Process):
    future: str
    actor: str
    method: str
    args: tuple[Value, ...]
    fut: Optional[FutT] = None


@dataclass(frozen=True)
class FulfilledFut(Process):
    future: str
    value: Value
    fut: Optional[FutT] = None


def _hash_thread(t) -> int:
    """A thread's hash, computed once like `_hash_once`'s; the environment
    hashes by its items in any order, as dict equality compares them. The
    flag is left out, so a suspended thread hashes as its active twin."""
    h = t._hash
    if h is None:
        h = hash((frozenset(t.env.items()), t.expr, t.future, t.actor))
        object.__setattr__(t, "_hash", h)
    return h


Thread.__hash__ = _hash_thread
Idle.__hash__ = CallMsg.__hash__ = FulfilledFut.__hash__ = _hash_once


def futures_consumed_one(p: Process) -> frozenset[str]:
    """The futures `p` consumes: those named in a thread's environment or
    expression, a message's arguments or a fulfilment's value. Computed on
    first use and kept on the process, as its hash is (see `_hash_once`)."""
    c = p._consumed
    if c is None:
        match p:
            case Thread():
                c = set().union(*map(futures_in_value, p.env.values()), futures_in_expr(p.expr))
            case CallMsg():
                c = set().union(*map(futures_in_value, p.args))
            case FulfilledFut():
                c = futures_in_value(p.value)
            case Idle():
                c = ()
            case _:
                raise TypeError(f"not a process: {p!r}")
        c = frozenset(c)
        object.__setattr__(p, "_consumed", c)
    return c


# ---------------------------------------------------------------------------
# Configurations

class Configuration(NamedTuple):
    """Global resource state next to the running process sequence, as an
    immutable, hashable value.

    `alpha` holds each actor's resources in `ctx_key` form; `call_counts`
    holds the calls per (actor, method), bounded exploration's recursion
    budget, as pairs sorted by target. Both keep every entry a step wrote,
    zero grades included. The counters back fresh names. Each future's
    declared type is carried by the process that produces it (`fut`). A
    successor is one `copy` naming the fields its step changed; it shares
    the other fields, and every process it keeps, with its parent.
    """

    alpha: tuple[tuple[str, tuple[tuple[str, Grade], ...]], ...]
    processes: tuple[Process, ...]
    next_future: int = 0
    next_var: int = 0
    call_counts: tuple[tuple[tuple[str, str], int], ...] = ()

    def copy(self, processes=None, alpha=None, next_future=None, next_var=None,
             call_counts=None) -> "Configuration":
        """This configuration with the named fields replaced."""
        a, p, nf, nv, cc = self
        return tuple.__new__(Configuration, (
            a if alpha is None else alpha, p if processes is None else processes,
            nf if next_future is None else next_future, nv if next_var is None else next_var,
            cc if call_counts is None else call_counts))


def entry(pairs: tuple, key, default=()):
    """`key`'s value in (key, value) pairs such as `alpha`, or `default`."""
    for k, v in pairs:
        if k == key:
            return v
    return default


def with_entry(pairs: tuple, key, value) -> tuple:
    """`pairs`, (key, value) pairs sorted by key, with `key` set to `value`:
    one splice at `key`'s place, sharing every other pair."""
    for i, (k, _) in enumerate(pairs):
        if k >= key:
            return pairs[:i] + ((key, value),) + pairs[i + (k == key):]
    return pairs + ((key, value),)


def well_formed(processes: tuple[Process, ...]) -> list[str]:
    """Diagnostics, empty when the processes make a well-formed configuration.

    Each actor that appears at all, as an idle marker or through a thread
    (suspended ones included), has exactly one active thread or is idle
    (never both, never more), and no future is produced twice. Actors
    are reported in first-seen order, not in string-hash order.
    """
    problems = []
    slots: dict[str, list[int]] = {}  # actor -> [active threads, idle markers]
    seen_futures: set[str] = set()
    for p in processes:
        k = type(p)
        if k is Idle:
            slots.setdefault(p.actor, [0, 0])[1] += 1
            continue
        f = p.future
        if f in seen_futures:
            problems.append(f"future {f} produced twice")
        seen_futures.add(f)
        if k is Thread:
            slots.setdefault(p.actor, [0, 0])[0] += not p.suspended
    for actor, (n_active, n_idle) in slots.items():
        if n_active + n_idle != 1:
            problems.append(
                f"actor {actor} has {n_active} active threads and {n_idle} idle markers"
            )
    return problems


# ---------------------------------------------------------------------------
# Programs

@dataclass
class OpSig:
    params: list[Type]
    result: Type


@dataclass
class MethodDecl:
    name: str
    params: list[tuple[str, Type]]
    result: Type
    requires: ActorContext
    produces: ActorContext
    measure: int
    body: Expr


@dataclass
class ActorDecl:
    name: str
    methods: dict[str, MethodDecl]


class MethodSig(NamedTuple):
    """A declaration with its contexts normalized and the type of the
    future a call to it returns."""

    decl: MethodDecl
    requires: ActorContext
    produces: ActorContext
    fut: FutT


@dataclass
class Program:
    """A checked program's declarations are not changed after it is built;
    a variant is a new Program (`dataclasses.replace`), which builds its
    own `signatures`, `typings`, `premises`, `steps` and `successors`.

    Four tables live as long as the program and are shared by everything
    that checks, runs, explores or types it: `typings`, the typing table
    filled by `typecheck.type_process`; `premises`, the typings and
    rejections of compound premises, filled by `typecheck._premise`;
    `steps`, the step table filled by `semantics.step_config`; and
    `successors`, which only `semantics.run` reads and fills, mapping a
    configuration to the list `step_config` returns for it. A key of
    `typings` is either a process, for the typing of one process, or a
    tuple of processes, for the typing of a whole sequence. A key of
    `steps` is either an active thread with the one input its redex reads,
    for its steps or its redex's fault (a suspended thread uses its active
    twin's), or a message, for the thread it spawns or why it spawns none.
    Every entry is read-only, with one exception: each step in a
    `successors` list has a write-once link, `StepResult.successors`,
    which `run` sets to this table's list for the step's target on the
    first arrival through the step. Every process in an entry is built
    once and shared by each step that reads it."""

    monoid: GradeMonoid
    op_sigs: dict[str, OpSig]
    actors: dict[str, ActorDecl]
    init_ctx: ActorContext
    start_actor: str
    start_method: str
    start_args: tuple[Value, ...]

    def __post_init__(self) -> None:
        self.typings: dict[Process | tuple[Process, ...], tuple] = {}
        self.premises: dict[tuple, object] = {}
        self.steps: dict[tuple | CallMsg, list | Exception | Thread | str] = {}
        self.successors: dict[Configuration, list] = {}
        self.signatures: dict[tuple[str, str], MethodSig] = {}
        for actor, adecl in self.actors.items():
            for name, d in adecl.methods.items():
                produces = ctx_norm(self.monoid, d.produces)
                self.signatures[actor, name] = MethodSig(
                    d, ctx_norm(self.monoid, d.requires), produces,
                    fut_type(d.result, produces))

    def method(self, actor: str, method: str) -> Optional[MethodDecl]:
        decl = self.actors.get(actor)
        return decl.methods.get(method) if decl else None

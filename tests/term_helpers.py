"""Helpers that only the tests use: the future a process produces, future
sets of a whole process sequence, configurations built from mappings, a trace's last
configuration, an actor's active thread, fresh future and variable names, a
single parsed expression, and a finite sample of a grade algebra's carrier."""

from gract.grades import INF, Affine, GradeMonoid, Level, Lin, NatExact, NatLeq
from gract.parser import Parser
from gract.semantics import Trace
from gract.terms import Configuration, Idle, Process, Thread, ctx_key, futures_consumed_one


def futures_produced_one(p: Process) -> set[str]:
    return set() if isinstance(p, Idle) else {p.future}


def futures_produced(ps: list[Process]) -> set[str]:
    out: set[str] = set()
    for p in ps:
        out |= futures_produced_one(p)
    return out


def futures_consumed(ps: list[Process]) -> set[str]:
    # left to right: a future produced earlier shadows later references to it
    out: set[str] = set()
    produced: set[str] = set()
    for p in ps:
        out |= futures_consumed_one(p) - produced
        produced |= futures_produced_one(p)
    return out


def config_of(alpha: dict, processes, next_future: int = 0, next_var: int = 0,
              call_counts: dict | None = None) -> Configuration:
    """A configuration whose resources and call budget are given as
    mappings, in the sorted-tuple form that `Configuration` keeps."""
    return Configuration(ctx_key(alpha), tuple(processes), next_future, next_var,
                         tuple(sorted((call_counts or {}).items())))


def final_config(trace: Trace) -> Configuration:
    """The configuration the trace ends in."""
    return trace.steps[-1].config if trace.steps else trace.initial


def active_thread(config: Configuration, actor: str) -> Thread:
    """`actor`'s one active thread in `config`: the process that a step of
    variant `base`, other than a spawn, acts on."""
    return next(p for p in config.processes
                if type(p) is Thread and p.actor == actor and not p.suspended)


def fresh_future(config: Configuration) -> tuple[str, Configuration]:
    """The next fresh future name, and the configuration that has used it."""
    return f"f#{config.next_future}", config.copy(next_future=config.next_future + 1)


def fresh_var(config: Configuration) -> tuple[str, Configuration]:
    """The next fresh variable name, and the configuration that has used it."""
    return f"y#{config.next_var}", config.copy(next_var=config.next_var + 1)


def parse_expr(text: str, monoid: GradeMonoid, bound: frozenset[str] = frozenset()):
    """Parse a single expression."""
    p = Parser(text)
    p.monoid = monoid
    e = p.expr(bound)
    if p.peek():
        raise p.fail(f"trailing input {p.peek()!r}")
    return e


def carrier_sample(m: GradeMonoid) -> list:
    """A finite slice of the algebra's carrier, for law checks and fuzzing."""
    if isinstance(m, Level):
        return list(m.names)
    if isinstance(m, (Lin, Affine)):
        return [0, 1, INF]
    if isinstance(m, (NatExact, NatLeq)):
        return [*range(9), INF]
    raise TypeError(f"no carrier sample for {m.name}")

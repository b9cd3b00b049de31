"""Helpers over processes and configurations that only the tests use:
future sets of a whole process sequence, and fresh future and variable
names."""

from gract.terms import Configuration, Process, futures_consumed_one, futures_produced_one


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


def fresh_future(config: Configuration) -> str:
    name = f"f#{config.next_future}"
    config.next_future += 1
    return name


def fresh_var(config: Configuration) -> str:
    name = f"y#{config.next_var}"
    config.next_var += 1
    return name

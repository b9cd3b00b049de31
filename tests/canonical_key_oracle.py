"""Reference canonical state key, serialized from scratch on every call.

This is the explorer's original `canonical_key`, changed where the
explorer's key stopped reading fresh-name spelling: each process is
serialized with `json.dumps` in the order `process_to_json` builds it, a
thread's environment in binding order, and adjacent processes are ordered
by their serialized fields with the fresh names cut out.  It still tests
each adjacent pair with `disconnected`, renames fresh names with one regex
pass over the joined body, and reads the live futures from the processes
that produce them and the resources and call budget as mappings.  The
explorer's key reuses per-process pieces across configurations and
returns a tuple, not a string; the differential tests require its keys to
partition states the same way as these strings: two states share a key
exactly when they share an oracle string.
"""

from __future__ import annotations

import json
import re

from gract.semantics import disconnected, process_to_json
from gract.terms import Configuration, Idle, ctx_of

_FRESH = re.compile(r"(?<![A-Za-z0-9_])([fy])#\d+")


def _order(d: dict) -> tuple:
    """A serialized process's place in the order: each field, its kind
    first and a mapping's keys and values in turn, as the number of fresh
    names in it and the text around them."""
    out = []
    for v in d.values():
        texts = [t for kv in v.items() for t in kv] if type(v) is dict else \
            v if type(v) is list else [v]
        for text in texts:
            out.append(len(_FRESH.findall(text)))
            out += _FRESH.sub("\0", text).split("\0")
    return tuple(out)


def canonical_key(config: Configuration) -> str:
    procs = list(config.processes)
    dicts = [process_to_json(p) for p in procs]
    orders = [_order(d) for d in dicts]
    changed = True
    while changed:
        changed = False
        for i in range(len(procs) - 1):
            if orders[i + 1] < orders[i] and disconnected(procs[i], procs[i + 1]):
                for xs in (procs, dicts, orders):
                    xs[i], xs[i + 1] = xs[i + 1], xs[i]
                changed = True
    body = json.dumps(dicts)

    mapping: dict[str, str] = {}
    counts = {"f": 0, "y": 0}

    def fresh_name(match: re.Match) -> str:
        name = match.group(0)
        if name not in mapping:
            kind = match.group(1)
            mapping[name] = f"{kind.upper()}{counts[kind]}"
            counts[kind] += 1
        return mapping[name]

    body = _FRESH.sub(fresh_name, body)

    live = {}
    for p in config.processes:
        if not isinstance(p, Idle):
            # every producer's future occurs in its own serialization
            live[mapping[p.future]] = "-" if p.fut is None else f"{p.fut.result}|{p.fut.produces}"

    alpha = json.dumps({a: {r: str(g) for r, g in env.items()}
                        for a, env in sorted(ctx_of(config.alpha).items())}, sort_keys=True)
    budget = json.dumps({f"{a}.{m}": n for (a, m), n in sorted(dict(config.call_counts).items())},
                        sort_keys=True)
    return "|".join([body, alpha, json.dumps(live, sort_keys=True), budget])

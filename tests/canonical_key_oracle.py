"""Reference canonical state key, serialized from scratch on every call.

This is the explorer's original `canonical_key`, kept verbatim but for the
live futures, which it now reads from the processes that produce them, and
the resources and call budget, which it reads as mappings: it
serializes every process of the configuration with `json.dumps`, tests each
adjacent pair with `disconnected`, and renames fresh names with one regex
pass over the joined body.  The explorer's key reuses per-process pieces
across configurations and returns a tuple, not a string; the differential
tests require its keys to partition states the same way as these strings:
two states share a key exactly when they share an oracle string.
"""

from __future__ import annotations

import json
import re

from gract.semantics import disconnected, process_to_json
from gract.terms import Configuration, Idle, ctx_of

_FRESH = re.compile(r"(?<![A-Za-z0-9_])([fy])#\d+")


def _proc_ser(p) -> str:
    return json.dumps(process_to_json(p), sort_keys=True)


def canonical_key(config: Configuration) -> str:
    procs = list(config.processes)
    sers = [_proc_ser(p) for p in procs]
    changed = True
    while changed:
        changed = False
        for i in range(len(procs) - 1):
            if sers[i + 1] < sers[i] and disconnected(procs[i], procs[i + 1]):
                procs[i], procs[i + 1] = procs[i + 1], procs[i]
                sers[i], sers[i + 1] = sers[i + 1], sers[i]
                changed = True
    body = "[" + ",".join(sers) + "]"

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

"""Outside-in tracing of gract's layers.

The tracer replaces listed gract functions with timing wrappers, in every
`gract.*` module namespace that holds them, so a call through an imported
name (`from .semantics import step_config`) is caught as well as a call
through the defining module.  Each wrapped call records a span: its name,
start, end and the span open around it.  Spans stay in memory until the
run ends.  A few cheap, hot functions get call counters instead of spans,
because a span would cost more than the call itself.

A layer's self time is its spans' durations minus the parts their child
spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Optional

# (layer, attribute) pairs wrapped with spans; the span is named
# "<layer>.<attribute>".
SPANS = [
    ("parser", "parse_program"),
    ("typecheck", "check_program"),
    ("typecheck", "type_config"),
    ("typecheck", "measure_of_config"),
    ("typecheck", "type_process"),
    ("typecheck", "type_expr"),
    ("semantics", "step_config"),
    ("semantics", "run"),
    ("explorer", "explore"),
    ("explorer", "bounded_successors"),
    ("explorer", "canonical_key"),
    ("explorer", "check_helpful"),
    ("explorer", "check_subject_reduction"),
]

# (layer, dotted attribute) pairs that only count calls.
COUNTERS = [
    ("terms", "Configuration.copy"),
    ("grades", "ctx_plus"),
    ("grades", "ctx_norm"),
    ("grades", "ctx_minus"),
]


class Tracer:
    """Spans in flat arrays: name index, parent index, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = [f"{layer}.{attr}" for layer, attr in SPANS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {f"{layer}.{attr}": 0 for layer, attr in COUNTERS}
        # canonical keys seen in the current pass, for the dedupe ratio
        self.keys_seen: set = set()
        self.key_repeats = 0
        self.successors_built = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name_id: int, fn: Callable,
              observe: Optional[Callable[[object], None]]) -> Callable:
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observe_key(self, key) -> None:
        if key in self.keys_seen:
            self.key_repeats += 1
        else:
            self.keys_seen.add(key)

    def _observe_successors(self, succ) -> None:
        self.successors_built += len(succ)

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, orig: object, wrapper: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gract" or mod_name.startswith("gract.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self, gract_modules: dict) -> None:
        """Wrap every listed function; `gract_modules` maps a layer name
        to its imported module."""
        observers = {"explorer.canonical_key": self._observe_key,
                     "semantics.step_config": self._observe_successors}
        try:
            for name_id, (layer, attr) in enumerate(SPANS):
                orig = getattr(gract_modules[layer], attr)
                wrapper = self._span(name_id, orig, observers.get(self.names[name_id]))
                self._replace_everywhere(orig, wrapper)
            for layer, dotted in COUNTERS:
                owner = gract_modules[layer]
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapper = self._counter(f"{layer}.{dotted}", orig)
                if path:
                    # a method: patch the class that defines it
                    self._undo.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)
                else:
                    self._replace_everywhere(orig, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- per-pass bookkeeping -----------------------------------------------

    def mark(self) -> dict:
        """Start a pass: reset the per-pass counters and return a mark
        for `since`."""
        self.keys_seen = set()
        self.key_repeats = 0
        self.successors_built = 0
        for name in self.counts:
            self.counts[name] = 0
        return {"span": len(self.span_name)}

    def since(self, mark: dict) -> dict:
        """Calls and self time per span name, counters and observations
        recorded after `mark`."""
        lo, hi = mark["span"], len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.span_parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for i in range(lo, hi):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i - lo] - child[i - lo]
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts),
                "key_repeats": self.key_repeats,
                "successors_built": self.successors_built}

    def write(self, path) -> None:
        """All spans as CSV: id, name, parent id (-1 at a root), start, end."""
        with open(path, "w") as fh:
            fh.write("id,name,parent,start,end\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{i},{names[self.span_name[i]]},{self.span_parent[i]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n")

"""The benchmark's workloads, their set-up and their correctness checks.

Every gract function is looked up on its module at call time
(`g.explorer.explore`, never an imported name), so that the tracer's
wrappers are the functions called.  Every item of work is timed by a
Stopwatch, in units of a reference loop run next to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from types import SimpleNamespace

import programs

clock = time.perf_counter

# Times are reported in nominal seconds, of a host on which one reference
# loop takes exactly this long.
REFERENCE_S = 1e-3


def reference() -> None:
    """A fixed pure-Python loop of dict, tuple and str work, 0.75-1 ms on
    a 2-vCPU Intel Xeon virtual machine.  It is the benchmark's own code,
    the same on every commit of gract."""
    d: dict = {}
    for i in range(3000):
        k = (i % 97, i & 15)
        d[k] = d.get(k, 0) + len(str(i))


class Stopwatch:
    """Times items of work against the reference loop, which it runs
    after every item, so that every item lies between two reference times.

    A shared virtual machine can switch between speeds every few seconds,
    and drift by a quarter over an hour: on a 2-vCPU Intel Xeon one, the
    slow speed took up to 1.9 times as long, and gract's work and the
    reference loop slowed down alike, their ratio moving by 5-10%.  An
    item's time is therefore kept as a multiple of the mean of the
    reference times around it; REFERENCE_S turns multiples into seconds.
    `fastest`, the quickest reference time seen, is reported alongside.
    """

    def __init__(self) -> None:
        self.refs = [self._reference_seconds()]

    @staticmethod
    def _reference_seconds() -> float:
        t0 = clock()
        reference()
        return clock() - t0

    def time(self, fn):
        """Call fn; return its result and its time in reference loops."""
        t0 = clock()
        result = fn()
        dt = clock() - t0
        self.refs.append(self._reference_seconds())
        return result, 2.0 * dt / (self.refs[-2] + self.refs[-1])

    @property
    def fastest(self) -> float:
        return min(self.refs)


@dataclass
class Setup:
    prog: object
    report: dict
    config: object
    inputs: object = None


@dataclass
class PassResult:
    """One pass.  Every pass of a workload repeats the same items, so an
    item's times can be compared across passes."""

    ops: list[tuple[str, bool]]
    times: dict[str, list[float]]    # phase -> reference loops of each item, in order
    work: dict[str, int]             # counts of work done
    output: object = None            # everything observable, for equality tests


class Workload:
    """One workload: a program source, a set-up, and a repeatable pass."""

    name = ""
    default_size: object = None
    # reported rate -> (work count, timed phase); the first is work_per_s
    rates: dict[str, tuple[str, str]] = {}
    # the work count that pass_per_s divides by the whole pass's time
    pass_work = ""
    # prefix of the p50/p90 latency of one item, for workloads that report it
    latency = None

    def __init__(self, g: SimpleNamespace, seed: int, expected: dict, size=None):
        self.g = g
        self.seed = seed
        self.expected = expected
        self.size = self.default_size if size is None else size

    def source(self) -> str:
        raise NotImplementedError

    def inputs(self):
        return None

    def setup(self) -> Setup:
        """Generate the program, then parse, check and build the start
        configuration: what `gract explore` and `gract sr` do before their
        real work.  The workload's inputs are attached as they are."""
        g = self.g
        text = self.source()
        prog = g.parser.parse_program(text)
        report = g.typecheck.check_program(prog)
        config = g.semantics.initial_config(prog)
        return Setup(prog, report, config, self.inputs())

    def check_setup(self, s: Setup) -> bool:
        got = {"ok": s.report["ok"],
               "codes": sorted({e["code"] for e in s.report["errors"]}),
               "measure": s.report["configReport"]["measure"]}
        return got == self.expected["setup"]

    def run_pass(self, s: Setup, watch: Stopwatch) -> PassResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class ExploreKcafe2(Workload):
    """Breadth-first explore(unfold=2) of k-cafe at k=2 up to a state cap,
    then check_helpful over the visited states.  Exhaustive and fixed: the
    seed does not change it."""

    name = "explore-kcafe2"
    default_size = 200  # state cap
    rates = {"explore_states_per_s": ("states", "explore"),
             "helpful_states_per_s": ("helpful_checked", "helpful")}
    pass_work = "states"

    def source(self) -> str:
        return programs.kcafe(2)

    def render(self, rep) -> str:
        """The report as `gract explore --json` prints it."""
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            self.g.cli._emit_json({"command": "explore", "program": "kcafe2.gract",
                                   **rep.to_json()})
        return buf.getvalue()

    def run_pass(self, s: Setup, watch: Stopwatch) -> PassResult:
        ex = self.g.explorer
        rep, explore_t = watch.time(
            lambda: ex.explore(s.prog, s.config, unfold=2, max_states=self.size))
        text, render_t = watch.time(lambda: self.render(rep))
        helpful, helpful_t = watch.time(lambda: ex.check_helpful(s.prog, rep.visited))
        want = self.expected["sizes"][str(self.size)]
        summary = {k: v for k, v in rep.to_json().items() if k != "witnessTrace"}
        sha = hashlib.sha256(text.encode()).hexdigest()
        ok = (summary == want["report"] and sha == want["sha256"]
              and helpful["ok"] and helpful["checked"] == want["helpful_checked"])
        return PassResult(
            [("explore and check_helpful", ok)],
            {"explore": [explore_t], "render": [render_t], "helpful": [helpful_t]},
            {"states": rep.states_visited, "helpful_checked": helpful["checked"]},
            output={"report": text, "helpful": helpful})


class SrCafe(Workload):
    """Random runs of the cafe, all scheduled by one random.Random(seed) as
    `gract sr` does, each re-checked by check_subject_reduction.  Every
    pass repeats the same runs."""

    name = "sr-cafe"
    default_size = 100  # runs per pass
    rates = {"run_steps_per_s": ("run_steps", "run"),
             "sr_steps_per_s": ("run_steps", "sr")}
    pass_work = "run_steps"
    latency = "sr_run"
    steps = 200         # per-run step budget, as in acceptance gate 4

    def source(self) -> str:
        return programs.CAFE

    def run_pass(self, s: Setup, watch: Stopwatch) -> PassResult:
        sem, ex = self.g.semantics, self.g.explorer
        laws = self.expected["laws"]
        rng = random.Random(self.seed)
        ops, out, run_t, sr_t = [], [], [], []
        steps = snapshots = 0
        for k in range(self.size):
            tr, t = watch.time(
                lambda: sem.run(s.config, s.prog, sem.random_chooser(rng), self.steps))
            run_t.append(t)
            law, t = watch.time(lambda: ex.check_subject_reduction(s.prog, tr))
            sr_t.append(t)
            n = len(tr.steps)
            steps += n
            snapshots += n + 1
            mus = law["measures"]
            ok = (law["ok"] and tr.status != "stuck"
                  and mus[0] == laws["initial_measure"]
                  and (tr.status != "terminated" or mus[-1] == laws["terminal_measure"]))
            ops.append((f"run {k}", ok))
            out.append((tr.status, n, law["ok"], mus))
        return PassResult(ops, {"run": run_t, "sr": sr_t},
                          {"run_steps": steps, "snapshots": snapshots}, output=out)


def _ctx_text(grades, ctx: dict) -> str:
    return json.dumps({a: {r: grades.format_grade(g) for r, g in env.items()}
                       for a, env in ctx.items()}, sort_keys=True)


class CheckUniverse(Workload):
    """type_expr over the judgment universe of acceptance gate 8: every
    expression up to depth 3 in each of six contexts.  Exhaustive and
    fixed: the seed does not change it."""

    name = "check-universe"
    default_size = "all"  # or the number of leading expressions to type
    rates = {"check_judgments_per_s": ("judgments", "check")}
    pass_work = "judgments"
    chunk = 1000          # expressions timed as one item

    def __init__(self, g, seed, expected, size=None):
        super().__init__(g, seed, expected, size)
        # built once, outside the timed set-up: it is the benchmark's own
        # input generation, not gract's work
        exprs, contexts = programs.universe(self.g.terms, self.g.grades)
        if self.size != "all":
            exprs = exprs[: int(self.size)]
        self.universe = exprs, contexts

    def source(self) -> str:
        return programs.ORACLE

    def inputs(self):
        return self.universe

    def judge(self, prog, exprs, contexts, first: int, accepted: list) -> int:
        """Type each expression in each context; append (judgment index,
        typing) for those accepted.  Returns the number of judgments."""
        tc = self.g.typecheck
        i = first
        for e in exprs:
            for gamma, sigma in contexts:
                try:
                    accepted.append((i, tc.type_expr(prog, "A", dict(gamma), dict(sigma), e)))
                except tc.CheckError:
                    pass
                i += 1
        return i - first

    def run_pass(self, s: Setup, watch: Stopwatch) -> PassResult:
        exprs, contexts = s.inputs
        accepted, times = [], []
        judged = 0
        for lo in range(0, len(exprs), self.chunk):
            n, t = watch.time(lambda: self.judge(s.prog, exprs[lo: lo + self.chunk], contexts,
                                                 judged, accepted))
            judged += n
            times.append(t)
        h = hashlib.sha256()
        gr = self.g.grades
        for i, t in accepted:
            h.update(f"{i}|{t.ty}|{_ctx_text(gr, t.requires)}|"
                     f"{_ctx_text(gr, t.produces)}|{t.measure}\n".encode())
        got = {"judgments": judged, "accepted": len(accepted), "digest": h.hexdigest()}
        return PassResult([("universe", got == self.expected["sizes"][str(self.size)])],
                          {"check": times}, {"judgments": judged}, output=got)


WORKLOADS = {w.name: w for w in (ExploreKcafe2, SrCafe, CheckUniverse)}


# ---------------------------------------------------------------------------

def setup_gate(g: SimpleNamespace, expected: dict) -> list[str]:
    """The cafe reproduces its pinned behaviour, or nothing is timed."""
    prog = g.parser.parse_program(programs.CAFE)
    report = g.typecheck.check_program(prog)
    problems = []
    if not report["ok"] or report["configReport"]["measure"] != expected["initial_measure"]:
        problems.append(f"cafe check_program: ok={report['ok']}, "
                        f"measure={report['configReport']['measure']}")
    tr = g.semantics.run(g.semantics.initial_config(prog), prog,
                         g.semantics.fifo_chooser, 1000)
    if tr.status != "terminated" or len(tr.steps) != expected["fifo_steps"]:
        problems.append(f"cafe fifo run: {tr.status} after {len(tr.steps)} steps")
    rep = g.explorer.explore(prog, unfold=2)
    if rep.states_visited != expected["states"] or rep.verdict != expected["verdict"]:
        problems.append(f"cafe explore: {rep.verdict}, {rep.states_visited} states")
    return problems

"""Command line front end.

Four commands over a program file: `check` runs the static checker, `run`
executes one scheduled run, `explore` searches the bounded state space, and
`sr` replays random runs while verifying the preservation laws.  All JSON
output is schema-tagged and byte-stable for a fixed command line: same
flags, same seed, same bytes.

Exit codes: 0 success, 1 static type error, 2 parse error (also a bad
command line), 3 file error (also a malformed replay file or a closed
standard output), 4 a stuck state (or failed replay), 5 a broken
preservation law.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional

from .explorer import check_subject_reduction, explore, helpful_chooser
from .parser import ParseError, parse_program
from .semantics import (
    Stuck,
    config_to_json,
    fifo_chooser,
    initial_config,
    label_str,
    random_chooser,
    run,
    script_chooser,
    step_to_json,
)
from .terms import Program
from .typecheck import check_program, measure_of_config

EXIT_OK, EXIT_TYPE, EXIT_PARSE, EXIT_IO, EXIT_STUCK, EXIT_SR = 0, 1, 2, 3, 4, 5

_COLORS = {"red": "31", "green": "32", "yellow": "33", "cyan": "36"}


def _want_color(stream) -> bool:
    env = os.environ.get("GRACT_COLOR", "").lower()
    if env in ("0", "never", "off"):
        return False
    if env in ("1", "always", "force", "on"):
        return True
    return hasattr(stream, "isatty") and stream.isatty()


class Printer:
    def __init__(self, out, quiet: bool):
        self.out = out
        self.quiet = quiet
        self.color = _want_color(out)

    def paint(self, text: str, color: str) -> str:
        if not self.color:
            return text
        return f"\x1b[{_COLORS[color]}m{text}\x1b[0m"

    def line(self, text: str = "") -> None:
        print(text, file=self.out)

    def detail(self, text: str) -> None:
        if not self.quiet:
            print(text, file=self.out)


def _load(path: str) -> Program:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot_read(path, exc)
    try:
        return parse_program(text)
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _cannot_read(path: str, exc: OSError | UnicodeDecodeError) -> SystemExit:
    why = f"not UTF-8 at byte {exc.start}" if isinstance(exc, UnicodeDecodeError) else exc.strerror
    return SystemExit(_fail(f"cannot read {path}: {why}", EXIT_IO))


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _emit(args, command: str, payload: dict) -> None:
    """`payload` under the envelope every `--json` report carries."""
    _emit_json({"schema": "gract/1", "command": command, "program": args.program,
                **payload})


def _report(args, command: str, payload: dict, code: int, text) -> int:
    """Print a command's one report: as JSON under `--json`, else as the
    text that `text(printer, payload)` renders from it. Returns `code`."""
    if args.json:
        _emit(args, command, payload)
    else:
        text(Printer(sys.stdout, args.quiet), payload)
    return code


def _word(pr: Printer, ok: bool, good: str = "ok", bad: str = "VIOLATION") -> str:
    return pr.paint(good, "green") if ok else pr.paint(bad, "red")


def _diagnosis(pr: Printer, diagnosis: list[dict]) -> None:
    for d in diagnosis:
        pr.line("  " + ", ".join(f"{k}={v}" for k, v in d.items()))


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    report = check_program(_load(args.program))
    return _report(args, "check", report, EXIT_OK if report["ok"] else EXIT_TYPE,
                   _check_text)


def _check_text(pr: Printer, report: dict) -> None:
    def word(r: dict) -> str:
        """The word ok, or the error codes, each with its location if it has one."""
        return _word(pr, r["ok"], bad=", ".join(
            f"{e['code']} at {e['loc']}" if e.get("loc") else e["code"] for e in r["errors"]))

    for mr in report["methodReports"]:
        tail = f" (measure {mr['computed']['measure']})" if mr["ok"] else ""
        pr.detail(f"method {mr['actor']}.{mr['method']}: {word(mr)}{tail}")
    cfg = report["configReport"]
    pr.detail(f"configuration: {word(cfg)} (measure {cfg['measure']})")
    pr.line(_word(pr, report["ok"], "PASS", "FAIL"))


# ---------------------------------------------------------------------------
# run

def _step_chooser():
    def choose(succ, k):
        print(f"step {k}:", file=sys.stderr)
        for i, s in enumerate(succ):
            print(f"  [{i}] {s.rule} {label_str(s.label)} @{s.actor} ({s.variant})",
                  file=sys.stderr)
        line = sys.stdin.readline()
        if not line.strip():
            return None
        try:
            idx = int(line)
        except ValueError:
            raise Stuck("ScriptMismatch", f"not an index: {line.strip()!r}") from None
        if not 0 <= idx < len(succ):
            raise Stuck("ScriptMismatch", f"index {idx} out of range")
        return idx
    return choose


def _load_replay(path: str) -> list[dict]:
    """The step entries of a replay file: a list of objects, bare or under
    "steps". A file of any other shape exits with EXIT_IO."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot_read(path, exc)
    except json.JSONDecodeError as exc:
        raise SystemExit(_fail(f"{path}: {exc}", EXIT_IO))
    if isinstance(doc, dict):
        if "steps" not in doc:
            raise SystemExit(_fail(f"{path}: no \"steps\" list", EXIT_IO))
        doc = doc["steps"]
    if not isinstance(doc, list):
        raise SystemExit(_fail(f"{path}: steps must be a list", EXIT_IO))
    for k, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise SystemExit(_fail(f"{path}: step {k} is not an object", EXIT_IO))
        pick = entry.get("pick", 0)
        if not isinstance(pick, int) or isinstance(pick, bool):
            raise SystemExit(_fail(f"{path}: step {k}: pick must be an integer", EXIT_IO))
    return doc


def _chooser_for(args, prog: Program):
    if args.replay:
        return script_chooser(_load_replay(args.replay))
    match args.strategy:
        case "fifo":
            return fifo_chooser
        case "helpful":
            return helpful_chooser(prog)
        case "step":
            return _step_chooser()
        case _:
            return random_chooser(random.Random(args.seed))


def _refuse_illtyped(args, prog: Program, command: str) -> bool:
    """Typecheck up front; report and signal refusal on failure."""
    report = check_program(prog)
    if report["ok"]:
        return False
    if args.json:
        _emit(args, command, {"status": "illtyped", **report})
    else:
        codes = sorted({e["code"] for e in report["errors"]})
        print(f"refusing to {command} an ill-typed program: {', '.join(codes)} "
              f"(use --unsafe to force)", file=sys.stderr)
    return True


def _replay_failed(args, command: str, exc: Stuck) -> int:
    """Report a replay whose script does not fit the run it drives."""
    if args.json:
        _emit(args, command, {"status": "replay-failed",
                              "error": {"code": exc.code, "detail": exc.detail}})
        return EXIT_STUCK
    return _fail(f"replay failed: {exc.code}: {exc.detail}", EXIT_STUCK)


def cmd_run(args) -> int:
    prog = _load(args.program)
    checked = not args.unsafe
    if checked and _refuse_illtyped(args, prog, "run"):
        return EXIT_TYPE
    chooser = _chooser_for(args, prog)
    try:
        tr = run(initial_config(prog), prog, chooser, args.steps)
    except Stuck as exc:
        return _replay_failed(args, "run", exc)

    def mu(c) -> Optional[int]:
        return measure_of_config(prog, c) if checked else None

    payload = {"status": tr.status, "stepCount": len(tr.steps),
               "initialMeasure": mu(tr.initial)}
    if not args.quiet:
        payload["steps"] = [step_to_json(k, s, mu(s.config)) for k, s in enumerate(tr.steps)]
    if tr.status == "stuck":
        payload["diagnosis"] = tr.diagnosis
    return _report(args, "run", payload, EXIT_STUCK if tr.status == "stuck" else EXIT_OK,
                   _run_text)


def _run_text(pr: Printer, report: dict) -> None:
    for s in report.get("steps", ()):
        tail = f"  measure {s['measure']}" if "measure" in s else ""
        pr.detail(f"{s['step']:4d}  {pr.paint(s['rule'], 'cyan'):<6}  "
                  f"{s['label']} @{s['actor']} ({s['variant']}){tail}")
    word = {"terminated": "green", "stuck": "red", "bound": "yellow"}[report["status"]]
    pr.line(f"{pr.paint(report['status'], word)} after {report['stepCount']} steps")
    _diagnosis(pr, report.get("diagnosis", ()))


# ---------------------------------------------------------------------------
# explore

def cmd_explore(args) -> int:
    prog = _load(args.program)
    if not args.unsafe and _refuse_illtyped(args, prog, "explore"):
        return EXIT_TYPE
    rep = explore(prog, unfold=args.unfold, max_depth=args.depth, max_states=args.states)
    payload = rep.to_json()
    if args.quiet:
        payload.pop("witnessTrace", None)
    # only a fair-termination verdict counts as success for scripting
    return _report(args, "explore", payload,
                   EXIT_OK if rep.verdict == "FairTerminating" else EXIT_STUCK, _explore_text)


def _explore_text(pr: Printer, rep: dict) -> None:
    good = rep["verdict"] in ("FairTerminating", "WeaklyTerminatingWitness")
    pr.line(f"verdict: {pr.paint(rep['verdict'], 'green' if good else 'red')}")
    pr.detail(f"states: {rep['statesVisited']}  depth: {rep['maxDepth']}  pruned: "
              f"{rep['prunedChoices']} choice branches, {rep['prunedCalls']} calls")
    _diagnosis(pr, rep.get("stuckState", {}).get("diagnosis", ()))


# ---------------------------------------------------------------------------
# sr

def _sr_replay(args, prog: Program) -> int:
    """Re-check a recorded trace: replay its steps through the engine,
    verify the preservation laws, and compare any recorded configurations
    against the engine's. A forged configuration fails at its step index:
    the replay chooser takes the first candidate there."""
    entries = _load_replay(args.replay)
    try:
        tr = run(initial_config(prog), prog, script_chooser(entries), len(entries))
    except Stuck as exc:
        return _replay_failed(args, "sr", exc)
    law = check_subject_reduction(prog, tr)
    violations = list(law["violations"])
    for k, (s, entry) in enumerate(zip(tr.steps, entries)):
        recorded = entry.get("config")
        if recorded is not None and recorded != config_to_json(s.config):
            violations.append({"step": k, "code": "RecordedConfigMismatch"})
    ok = not violations
    return _report(args, "sr", {"replay": args.replay, "ok": ok, "steps": law["steps"],
                                "violations": violations},
                   EXIT_OK if ok else EXIT_SR, _replay_text)


def _replay_text(pr: Printer, replay: dict) -> None:
    pr.detail(f"replayed {replay['steps']} recorded steps: {_word(pr, replay['ok'])}")
    for v in replay["violations"][:5]:
        pr.detail(f"    {v}")
    pr.line(_word(pr, replay["ok"], "PASS", "FAIL"))


def cmd_sr(args) -> int:
    prog = _load(args.program)
    if args.replay:
        return _sr_replay(args, prog)
    rng = random.Random(args.seed)
    runs = []
    ok = True
    for k in range(args.runs):
        tr = run(initial_config(prog), prog, random_chooser(rng), args.steps)
        law = check_subject_reduction(prog, tr)
        ok = ok and law["ok"]
        runs.append({"run": k, "status": tr.status, "steps": law["steps"],
                     "ok": law["ok"], "violations": law["violations"]})
    return _report(args, "sr", {"ok": ok, "runs": runs}, EXIT_OK if ok else EXIT_SR, _sr_text)


def _sr_text(pr: Printer, sr: dict) -> None:
    for r in sr["runs"]:
        pr.detail(f"run {r['run']}: {r['status']} after {r['steps']} steps, "
                  f"{_word(pr, r['ok'])}")
        for v in r["violations"][:3]:
            pr.detail(f"    {v}")
    pr.line(_word(pr, sr["ok"], "PASS", "FAIL"))


# ---------------------------------------------------------------------------
# argument parsing

def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gract",
        description="Resource-graded active objects: check, run, explore.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("program", help="program file")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--quiet", action="store_true", help="summary only")

    p = sub.add_parser("check", help="static checks: method table and start state")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="execute one run under a schedule")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="random schedule seed")
    p.add_argument("--steps", type=_at_least(0), default=1000, help="step budget")
    p.add_argument("--strategy", choices=("random", "helpful", "fifo", "step"),
                   default="random", help="schedule: random, measure-greedy, "
                   "leftmost, or interactive")
    p.add_argument("--replay", metavar="SCRIPT",
                   help="JSON step script; overrides --strategy")
    p.add_argument("--unsafe", action="store_true",
                   help="run without the static check")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explore", help="bounded search of all schedules")
    common(p)
    p.add_argument("--unfold", type=_at_least(0), default=2, help="per-method call budget")
    p.add_argument("--depth", type=_at_least(0), default=500, help="search depth limit")
    p.add_argument("--states", type=_at_least(1), default=100000, help="state limit")
    p.add_argument("--unsafe", action="store_true",
                   help="explore even if the static checks fail")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("sr", help="verify the preservation laws on random runs")
    common(p)
    p.add_argument("--runs", type=_at_least(0), default=20, help="number of runs")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--steps", type=_at_least(0), default=400, help="per-run step budget")
    p.add_argument("--replay", metavar="TRACE",
                   help="re-check a recorded trace instead of random runs")
    p.set_defaults(fn=cmd_sr)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # flush here, so that a closed pipe is reported below and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so
        # that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())

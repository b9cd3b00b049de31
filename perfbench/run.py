"""Benchmark gract on one workload and print its metrics.

    python3 perfbench/run.py --workload explore-kcafe2 --seed 1 --seconds 30 --trace 0

Run from the root of a gract checkout: the program is imported from its
`src/` directory.  Before any timing, a setup gate replays the cafe's
pinned behaviour.  Then, for --seconds, a burst of set-ups (each
set-up's check_program verdict must match expected.json) precedes each
pass of the workload, whose outputs are checked against the values
pinned in expected.json.  Every set-up and every item of a pass is timed
against a reference loop run next to it (see workloads.Stopwatch); a
time is the median over the run of those multiples, in nominal seconds
of a host on which the reference loop takes REFERENCE_S.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics.  With --trace 1 the run alternates untraced and
traced passes, the JSON holds the per-layer metrics instead, and every
span is written to .perfbench/<workload>-seed<seed>-spans.csv.  The lines
before the JSON name every metric of the workload with its unit and
sample count.  The exit code is 0 when every operation passed its check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import metrics
from tracer import Tracer
from workloads import REFERENCE_S, WORKLOADS, Stopwatch, clock, setup_gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("parser", "typecheck", "semantics", "explorer", "terms", "grades", "cli")
SETUP_BURST_SECONDS = 0.1


def load_gract() -> SimpleNamespace:
    """Import gract's layers from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"gract.{name}") for name in LAYERS}
    for mod in mods.values():
        if src not in Path(mod.__file__).resolve().parents:
            raise ImportError(f"{mod.__name__} comes from {mod.__file__}, not {src}")
    return SimpleNamespace(**mods)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def trace_call(fn, g, tracer=None):
    """Call fn, traced if a tracer is given.  Returns (result, tracer
    summary or None)."""
    if tracer is None:
        return fn(), None
    tracer.install(vars(g))
    mark = tracer.mark()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return result, tracer.since(mark)


class SetupMismatch(Exception):
    pass


def measure(workload, seconds: float, tracer=None):
    """Repeat passes for `seconds`, each after a burst of set-ups that lasts
    SETUP_BURST_SECONDS (at least one set-up), so that set-up samples
    spread over the run as the passes do.  With a tracer, bursts and passes
    alternate between untraced and traced, at least one pass each.
    Returns the stopwatch, the untraced set-up times and passes, and the
    tracer summary of each traced set-up and (summary, result) of each
    traced pass.  Times are in reference loops (see Stopwatch)."""
    watch = Stopwatch()
    setups, plain, traced_setups, traced = [], [], [], []
    start = clock()
    i = 0
    while True:
        on = tracer if i % 2 else None
        burst_start = clock()
        while True:
            (setup, summary), t = watch.time(lambda: trace_call(workload.setup, workload.g, on))
            if not workload.check_setup(setup):
                raise SetupMismatch(f"{workload.name} set-up does not match expected.json")
            if summary is None:
                setups.append(t)
            else:
                traced_setups.append(summary)
            if clock() - burst_start >= SETUP_BURST_SECONDS:
                break
        t0 = clock()
        result, summary = trace_call(lambda: workload.run_pass(setup, watch), workload.g, on)
        dt = clock() - t0
        if summary is None:
            plain.append(result)
        else:
            traced.append((summary, result))
        i += 1
        enough = plain and (traced or tracer is None)
        if enough and clock() - start + dt > seconds:
            return watch, setups, plain, traced_setups, traced


def main(argv=None, *, expected=None, size=None, out=None) -> int:
    """Run one workload.  `expected` and `size` let tests substitute the
    pinned values and shrink the workload."""
    out = out or sys.stdout
    args = parse_args(argv)
    try:
        g = load_gract()
    except ImportError as exc:
        print(f"cannot import gract from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if expected is None:
        expected = json.loads((HERE / "expected.json").read_text())
    problems = setup_gate(g, expected["setup_gate"])
    if problems:
        print("setup gate failed: " + "; ".join(problems), file=sys.stderr)
        return 3

    wl = WORKLOADS[args.workload](g, args.seed, expected[args.workload], size)
    tracer = Tracer() if args.trace else None
    try:
        watch, setups, plain, traced_setups, traced = measure(wl, args.seconds, tracer)
    except SetupMismatch as exc:
        print(exc, file=sys.stderr)
        return 3
    ops = [op for p in plain + [p for _, p in traced] for op in p.ops]
    attempted = len(ops)
    failed = sum(1 for _, ok in ops if not ok)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def line(name, value, unit, n):
        print(f"{name} = {value:.6g} {unit} (n={n})", file=out)

    print(f"workload {wl.name}, seed {args.seed}, size {wl.size}, "
          f"{len(plain)} untraced and {len(traced)} traced passes", file=out)
    line("reference_loop_s", watch.fastest, "s, fastest", len(watch.refs))
    setup_s = REFERENCE_S * statistics.median(setups)
    line("setup_s", setup_s, "s", len(setups))
    work = plain[0].work
    rates = {name: work[count] / metrics.phase_seconds(plain, phase)
             for name, (count, phase) in wl.rates.items()}
    plain_s = metrics.pass_seconds(plain)
    rates["pass_per_s"] = work[wl.pass_work] / plain_s
    for name, value in rates.items():
        line(name, value, "1/s", len(plain))
    if wl.latency:
        lat = metrics.item_latencies_ms(plain)
        line(f"{wl.latency}_p50_ms", metrics.percentile(lat, 0.5), "ms", len(lat))
        line(f"{wl.latency}_p90_ms", metrics.percentile(lat, 0.9), "ms", len(lat))
    line("peak_rss_mb", rss_mb, "MB", 1)
    line("ops_failed_ratio", failed / attempted, "ratio", attempted)
    for name, ok in ops:
        if not ok:
            print(f"FAILED: {name}", file=out)

    if tracer is None:
        e2e = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
               "work_per_s": next(iter(rates.values())), "pass_per_s": rates["pass_per_s"]}
        values = {m["name"]: (e2e[m["name"]], m["unit"]) for m in metrics.END_TO_END}
    else:
        traced_s = metrics.pass_seconds([p for _, p in traced])
        layer = metrics.per_layer_values(traced, traced_setups, traced_s / plain_s - 1.0)
        units = {m["name"]: m["unit"] for m in metrics.PER_LAYER}
        values = {name: (v, units[name]) for name, v in layer.items()}
        for name, (v, unit) in values.items():
            line(name, v, unit, len(traced))
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{wl.name}-seed{args.seed}-spans.csv"
        tracer.write(path)
        print(f"{len(tracer.span_name)} spans written to {path.relative_to(ROOT)}", file=out)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    print(json.dumps(result), file=out)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

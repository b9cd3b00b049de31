"""The metric catalogue and the arithmetic that turns passes into metrics.

Names, units, directions and bounds come from BENCHMARK.json.  ROLES adds
to each per-layer metric the workload-level metrics it should move and
the workloads on which it must be nonzero; the tests hold the tracer to
that.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from workloads import REFERENCE_S

EXPLORE, SR, CHECK = "explore-kcafe2", "sr-cafe", "check-universe"
ALL = (EXPLORE, SR, CHECK)

# per-layer metric -> (metrics it should move, workloads it must fire on)
ROLES = {
    "explorer.canonical_key.calls": (["explore_states_per_s"], [EXPLORE]),
    "explorer.canonical_key.self_s": (["explore_states_per_s"], [EXPLORE]),
    "explorer.dedupe_hit_ratio": (["explore_states_per_s"], [EXPLORE]),
    "explorer.bounded_successors.calls": (["explore_states_per_s"], [EXPLORE]),
    "explorer.bounded_successors.self_s": (["explore_states_per_s"], [EXPLORE]),
    "explorer.states_stored": (["peak_rss_mb"], [EXPLORE]),
    "explorer.explore.self_s": (["explore_states_per_s"], [EXPLORE]),
    "explorer.check_helpful.self_s": (["helpful_states_per_s"], [EXPLORE]),
    "explorer.check_subject_reduction.self_s": (["sr_steps_per_s"], [SR]),
    "typecheck.measure_of_config.calls":
        (["explore_states_per_s", "helpful_states_per_s"], [EXPLORE]),
    "typecheck.measure_of_config.self_s":
        (["explore_states_per_s", "helpful_states_per_s"], [EXPLORE]),
    "typecheck.type_process.calls": (["sr_steps_per_s", "sr_run_p90_ms"], [SR]),
    "typecheck.type_process.self_s": (["sr_steps_per_s", "sr_run_p90_ms"], [SR]),
    "typecheck.type_process_per_snapshot": (["sr_steps_per_s"], [SR]),
    "typecheck.type_config.calls": (["sr_steps_per_s"], [SR]),
    "typecheck.type_config.self_s": (["sr_steps_per_s"], [SR]),
    "typecheck.type_expr.calls": (["check_judgments_per_s"], [CHECK]),
    "typecheck.type_expr.self_s": (["check_judgments_per_s"], [CHECK]),
    "typecheck.check_program.self_s": (["setup_s"], list(ALL)),
    "parser.parse_program.self_s": (["setup_s"], list(ALL)),
    "semantics.step_config.calls":
        (["run_steps_per_s", "explore_states_per_s"], [SR, EXPLORE]),
    "semantics.step_config.self_s":
        (["run_steps_per_s", "explore_states_per_s"], [SR, EXPLORE]),
    "semantics.successors_used_ratio": (["run_steps_per_s"], [SR]),
    "semantics.run.self_s": (["run_steps_per_s"], [SR]),
    "terms.Configuration.copy.calls":
        (["explore_states_per_s", "run_steps_per_s"], [EXPLORE, SR]),
    "grades.ctx_plus.calls": (["check_judgments_per_s", "sr_steps_per_s"], [CHECK, SR]),
    "grades.ctx_norm.calls": (["check_judgments_per_s", "sr_steps_per_s"], [CHECK, SR]),
    "grades.ctx_minus.calls": (["check_judgments_per_s", "sr_steps_per_s"], [CHECK, SR]),
    "cli.render_json_s": (["setup_s", "explore_states_per_s"], [EXPLORE]),
    "tracing.overhead_ratio": ([], []),
}

_DOC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = _DOC["end_to_end"]
PER_LAYER = [{**m, "layer": m["name"].split(".")[0],
              "moves": ROLES[m["name"]][0], "workloads": ROLES[m["name"]][1]}
             for m in _DOC["per_layer"]]

# per-layer metrics read from the traced set-ups rather than the passes
SETUP_SPANS = ("typecheck.check_program", "parser.parse_program")


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def item_medians(passes, phase: str) -> list[float]:
    """Each item of the phase at its median over the passes, in reference
    loops.  Every pass repeats the same items."""
    return [statistics.median(ts) for ts in zip(*(p.times[phase] for p in passes))]


def phase_seconds(passes, phase: str) -> float:
    return REFERENCE_S * sum(item_medians(passes, phase))


def pass_seconds(passes) -> float:
    return sum(phase_seconds(passes, phase) for phase in passes[0].times)


def item_latencies_ms(passes) -> list[float]:
    """Each item's times summed over the phases, in milliseconds."""
    phases = [item_medians(passes, phase) for phase in passes[0].times]
    return [1000.0 * REFERENCE_S * sum(item) for item in zip(*phases)]


def per_layer_values(traced: list, setups: list, overhead: float) -> dict:
    """`traced` holds (tracer summary, PassResult) per traced pass and
    `setups` a tracer summary per traced set-up; each value is the median
    over them."""
    per_pass: dict[str, list[float]] = {}

    def put(name, value):
        per_pass.setdefault(name, []).append(value)

    for summary, p in traced:
        calls, self_s = summary["calls"], summary["self_s"]
        for span in calls:
            if span in SETUP_SPANS:
                continue
            put(f"{span}.calls", calls[span])
            put(f"{span}.self_s", self_s[span])
        for counter, n in summary["counts"].items():
            put(f"{counter}.calls", n)
        keys = calls["explorer.canonical_key"]
        put("explorer.dedupe_hit_ratio", summary["key_repeats"] / keys if keys else 0.0)
        put("explorer.states_stored", p.work.get("states", 0))
        snaps = p.work.get("snapshots", 0)
        put("typecheck.type_process_per_snapshot",
            calls["typecheck.type_process"] / snaps if snaps else 0.0)
        built = summary["successors_built"]
        taken = p.work.get("run_steps", 0)
        put("semantics.successors_used_ratio", taken / built if taken and built else 0.0)
        put("cli.render_json_s", REFERENCE_S * sum(p.times.get("render", [])))
    for span in SETUP_SPANS:
        per_pass[f"{span}.self_s"] = [s["self_s"][span] for s in setups]
    values = {name: statistics.median(xs) for name, xs in per_pass.items()}
    values["tracing.overhead_ratio"] = overhead
    return {m["name"]: values[m["name"]] for m in PER_LAYER}

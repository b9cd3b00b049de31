"""Tests of the benchmark itself, on tiny sizes of each workload.

    python3 -m pytest perfbench

Tracing must leave every output alone, every per-layer metric must fire on
the workloads the catalogue assigns it to (so a renamed function in src/
shows up as a failure, not as a silent zero), and each correctness gate
must be able to fail.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
from tracer import Tracer
from workloads import WORKLOADS, Stopwatch

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
TINY = {"explore-kcafe2": 25, "sr-cafe": 4, "check-universe": "120"}


@pytest.fixture(scope="module")
def g():
    return run.load_gract()


def _main(name: str, trace: int, expected=None) -> tuple[int, list[str]]:
    out = io.StringIO()
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                   "--trace", str(trace)], expected=expected, size=TINY[name], out=out)
    return rc, out.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output(g, name):
    wl = WORKLOADS[name](g, 3, EXPECTED[name], TINY[name])
    s = wl.setup()
    plain = wl.run_pass(s, Stopwatch())
    tracer = Tracer()
    tracer.install(vars(g))
    try:
        traced = wl.run_pass(s, Stopwatch())
    finally:
        tracer.uninstall()
    assert traced.output == plain.output
    assert traced.ops == plain.ops and all(ok for _, ok in plain.ops)
    assert not hasattr(g.explorer.canonical_key, "__wrapped__")
    assert not hasattr(g.terms.Configuration.copy, "__wrapped__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_listed_metric_fires_on_its_workload(name):
    rc, lines = _main(name, trace=1)
    assert rc == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(values) == [m["name"] for m in metrics.PER_LAYER]
    silent = [m["name"] for m in metrics.PER_LAYER
              if name in m["workloads"] and not values[m["name"]] > 0]
    assert silent == []
    if name == "sr-cafe":
        # narrow states: no canonicalization, no dedupe
        assert values["explorer.canonical_key.calls"] == 0
        assert values["typecheck.type_process_per_snapshot"] == 2.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_result_line_holds_the_end_to_end_metrics(name):
    rc, lines = _main(name, trace=0)
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in metrics.END_TO_END]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "ops_failed_ratio = 0 ratio" in "\n".join(lines)


def _wrong(name: str) -> dict:
    exp = copy.deepcopy(EXPECTED)
    if name == "explore-kcafe2":
        exp[name]["sizes"]["25"]["report"]["statesVisited"] = 24
    elif name == "sr-cafe":
        exp[name]["laws"]["initial_measure"] = 40
    else:
        exp[name]["sizes"]["120"]["accepted"] = 100
    return exp


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_expected_value_fails_every_operation(name):
    rc, lines = _main(name, trace=0, expected=_wrong(name))
    assert rc != 0
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "ops_failed_ratio = 1 ratio" in "\n".join(lines)


def test_wrong_setup_expectation_stops_before_timing():
    exp = copy.deepcopy(EXPECTED)
    exp["sr-cafe"]["setup"]["measure"] = 40
    rc, lines = _main("sr-cafe", trace=0, expected=exp)
    assert rc != 0 and not any(line.startswith("{") for line in lines)


def test_setup_gate_stops_before_timing():
    exp = copy.deepcopy(EXPECTED)
    exp["setup_gate"]["states"] = 152
    rc, lines = _main("sr-cafe", trace=0, expected=exp)
    assert rc != 0 and lines == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sr-cafe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


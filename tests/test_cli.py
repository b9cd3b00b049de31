"""Command line tests: exit codes, output contracts, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gract.cli import main

from corpus import EXAMPLES

CAFE = str(EXAMPLES / "cafe.gract")
NOCUP = str(EXAMPLES / "cafe-nocup.gract")
REPLAY = str(EXAMPLES / "cafe-replay.json")
CORRUPTED = str(EXAMPLES / "corrupted-trace.json")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


# ---------------------------------------------------------------------------
# check

def test_check_passes_cafe(capsys):
    assert run_cli(["check", CAFE]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "measure 41" in out


def test_check_fails_nocup(capsys):
    assert run_cli(["check", NOCUP]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_json_envelope(capsys):
    assert run_cli(["check", CAFE, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "gract/1"
    assert doc["command"] == "check" and doc["ok"]
    assert doc["configReport"]["measure"] == 41


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.gract"
    bad.write_text("grade lin actor {")
    assert run_cli(["check", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


def test_missing_file_exits_3(capsys):
    assert run_cli(["check", str("no/such/file.gract")]) == 3
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "{bad}"], ["run", CAFE, "--replay", "{bad}"],
                                  ["sr", CAFE, "--replay", "{bad}"]], ids=["check", "run", "sr"])
def test_a_file_that_is_not_utf8_exits_3(tmp_path, capsys, argv):
    """An undecodable program or replay file is an I/O error reported on
    one line, not a traceback with the type-error code."""
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"steps": []}\xff')
    assert run_cli([arg.format(bad=bad) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err == f"cannot read {bad}: not UTF-8 at byte 13\n"


# ---------------------------------------------------------------------------
# run

def test_run_fifo_terminates(capsys):
    assert run_cli(["run", CAFE, "--strategy", "fifo", "--quiet"]) == 0
    assert "terminated after 41 steps" in capsys.readouterr().out


def test_run_refuses_illtyped(capsys):
    assert run_cli(["run", NOCUP, "--quiet"]) == 1
    assert "refusing" in capsys.readouterr().err


def test_run_unsafe_reaches_stuck(capsys):
    assert run_cli(["run", NOCUP, "--unsafe", "--quiet"]) == 4
    out = capsys.readouterr().out
    assert "stuck" in out and "StuckAtHold" in out


def test_run_json_is_deterministic(capsys):
    assert run_cli(["run", CAFE, "--json", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["run", CAFE, "--json", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["status"] == "terminated"
    assert doc["initialMeasure"] == 41
    assert doc["steps"][0]["schema"] == "gract/1"


def test_run_helpful_terminates(capsys):
    """The README's quick tour: the helpful scheduler takes the successor
    of smallest measure at each step."""
    assert run_cli(["run", CAFE, "--strategy", "helpful", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "terminated"
    assert doc["initialMeasure"] == 41
    # as recorded at 2c81492
    assert doc["stepCount"] == 41


def test_run_replay_follows_script(capsys):
    assert run_cli(["run", CAFE, "--replay", REPLAY, "--steps", "14", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stepCount"] == 14
    rules = [s["rule"] for s in doc["steps"]]
    assert rules == ["spawn", "call", "spawn", "hold", "silent", "silent", "silent",
                     "call", "spawn", "rls", "silent", "return", "silent", "get"]


def test_run_replay_mismatch_fails(tmp_path, capsys):
    script = tmp_path / "wrong.json"
    script.write_text(json.dumps([{"rule": "get"}]))
    assert run_cli(["run", CAFE, "--replay", str(script), "--quiet"]) == 4
    assert "replay failed" in capsys.readouterr().err


def _replay_file(tmp_path, doc) -> str:
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sr_replay_without_steps_exits_3(tmp_path, capsys):
    script = _replay_file(tmp_path, {"nosteps": 1})
    assert run_cli(["sr", CAFE, "--replay", script]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "steps" in err


def test_replay_steps_not_a_list_exits_3(tmp_path, capsys):
    script = _replay_file(tmp_path, {"steps": 3})
    assert run_cli(["sr", CAFE, "--replay", script]) == 3
    assert run_cli(["run", CAFE, "--replay", script]) == 3
    assert "must be a list" in capsys.readouterr().err


def test_replay_entry_not_an_object_exits_3(tmp_path, capsys):
    script = _replay_file(tmp_path, {"steps": [{"rule": "spawn"}, "call"]})
    assert run_cli(["sr", CAFE, "--replay", script]) == 3
    assert run_cli(["run", CAFE, "--replay", script]) == 3
    assert "step 1 is not an object" in capsys.readouterr().err


def test_run_replay_non_integer_pick_exits_3(tmp_path, capsys):
    script = _replay_file(tmp_path, [{"rule": "spawn", "pick": "x"}])
    assert run_cli(["run", CAFE, "--replay", script]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "pick must be an integer" in err


@pytest.mark.parametrize("pick", [7, -1])
def test_run_replay_pick_out_of_range_exits_4(tmp_path, capsys, pick):
    # the cafe's first step has one successor, which a bad pick must not take
    script = _replay_file(tmp_path, [{"rule": "spawn", "pick": pick}])
    assert run_cli(["run", CAFE, "--replay", script]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ScriptMismatch" in err
    assert f"'pick': {pick}}} matched 1 of" in err


def test_run_step_strategy_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n0\n\n"))
    assert run_cli(["run", CAFE, "--strategy", "step", "--quiet"]) == 0
    assert "bound after 2 steps" in capsys.readouterr().out


def test_run_step_strategy_rejects_a_non_integer(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x\n"))
    assert run_cli(["run", CAFE, "--strategy", "step"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "replay failed: ScriptMismatch: not an index: 'x'"


@pytest.mark.parametrize("argv", [
    ["run", CAFE, "--steps", "-5"],
    ["sr", CAFE, "--steps", "-5"],
    ["sr", CAFE, "--runs", "-3"],
    ["explore", CAFE, "--unfold", "-1"],
    ["explore", CAFE, "--depth", "-1"],
    ["explore", CAFE, "--states", "-1"],
    # a state cap of 0 would still store the start state
    ["explore", CAFE, "--states", "0"],
], ids=lambda argv: f"{argv[0]}{argv[2]}={argv[3]}")
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    low = 1 if argv[2] == "--states" else 0
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: gract {argv[0]}")
    assert err.splitlines()[-1].endswith(
        f"error: argument {argv[2]}: must be at least {low}, got {argv[3]}")


def test_jobs_is_an_unrecognized_argument(capsys):
    assert run_cli(["explore", CAFE, "--jobs", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --jobs 2")


def test_closed_stdout_exits_3_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gract.cli", "run", CAFE, "--strategy", "fifo"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert done.stderr == b""


# ---------------------------------------------------------------------------
# explore

def test_explore_cafe(capsys):
    assert run_cli(["explore", CAFE, "--quiet"]) == 0
    assert "FairTerminating" in capsys.readouterr().out


def test_explore_refuses_illtyped(capsys):
    assert run_cli(["explore", NOCUP]) == 1
    assert "refusing" in capsys.readouterr().err


def test_explore_nocup_unsafe_exits_4(capsys):
    assert run_cli(["explore", NOCUP, "--unsafe"]) == 4
    out = capsys.readouterr().out
    assert "StuckFound" in out and "StuckAtHold" in out


def test_explore_depth_zero_is_inconclusive(capsys):
    assert run_cli(["explore", CAFE, "--depth", "0", "--quiet"]) == 4
    assert "BoundExhausted" in capsys.readouterr().out


def test_explore_json_state_count(capsys):
    assert run_cli(["explore", CAFE, "--json", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["statesVisited"] == 153
    assert doc["verdict"] == "FairTerminating"
    assert doc["schema"] == "gract/1"


# ---------------------------------------------------------------------------
# sr

def test_sr_passes(capsys):
    assert run_cli(["sr", CAFE, "--runs", "5", "--quiet"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_sr_json(capsys):
    assert run_cli(["sr", CAFE, "--runs", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and len(doc["runs"]) == 3


def test_sr_replay_accepts_recorded_run(tmp_path, capsys):
    assert run_cli(["run", CAFE, "--strategy", "fifo", "--json"]) == 0
    record = tmp_path / "trace.json"
    record.write_text(capsys.readouterr().out)
    assert run_cli(["sr", CAFE, "--replay", str(record), "--quiet"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_sr_replay_flags_corrupted_trace(capsys):
    assert run_cli(["sr", CAFE, "--replay", CORRUPTED, "--json"]) == 5
    doc = json.loads(capsys.readouterr().out)
    assert not doc["ok"]
    assert doc["violations"] == [{"step": 5, "code": "RecordedConfigMismatch"}]


def test_sr_replay_accepts_choice_script(capsys):
    assert run_cli(["sr", CAFE, "--replay", REPLAY, "--quiet"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_run_replay_reproduces_a_recorded_run(tmp_path, capsys):
    """The recorded configurations settle the choice at step 39, whose two
    branches match the same rule, actor and label."""
    assert run_cli(["run", CAFE, "--strategy", "fifo", "--json"]) == 0
    recorded = capsys.readouterr().out
    record = tmp_path / "trace.json"
    record.write_text(recorded)
    assert run_cli(["run", CAFE, "--replay", str(record), "--json"]) == 0
    assert capsys.readouterr().out == recorded


def test_replay_error_names_the_selecting_keys_only(tmp_path, capsys):
    """A failed replay of a record does not print the step's recorded
    configuration."""
    assert run_cli(["run", CAFE, "--strategy", "fifo", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["steps"][5]["rule"] = "get"
    path = _replay_file(tmp_path, doc)
    assert run_cli(["run", CAFE, "--replay", path]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("replay failed: ScriptMismatch: step 5: ")
    assert "'rule': 'get'" in err[0] and "processes" not in err[0]


def _fifo_script(capsys, upto: int) -> list[dict]:
    """The fifo run's first `upto` steps, without their configurations."""
    assert run_cli(["run", CAFE, "--strategy", "fifo", "--json"]) == 0
    steps = json.loads(capsys.readouterr().out)["steps"][:upto]
    return [{k: st[k] for k in ("rule", "actor", "label", "variant")} for st in steps]


def test_sr_replay_honours_pick(tmp_path, capsys):
    # branch 1 at the choice recurses, so the next step is the call
    script = _fifo_script(capsys, 39) + [{"rule": "silent", "actor": "Cs", "pick": 1},
                                         {"rule": "call", "actor": "Cs"}]
    path = _replay_file(tmp_path, script)
    assert run_cli(["sr", CAFE, "--replay", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 41


def test_sr_replay_without_config_or_pick_is_ambiguous(tmp_path, capsys):
    path = _replay_file(tmp_path, _fifo_script(capsys, 40))
    assert run_cli(["sr", CAFE, "--replay", path, "--json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "replay-failed"
    assert doc["error"]["code"] == "AmbiguousScript"
    assert doc["error"]["detail"].startswith("step 39: ")


# ---------------------------------------------------------------------------
# color control

def test_color_disabled_by_env(capsys, monkeypatch):
    monkeypatch.setenv("GRACT_COLOR", "0")
    assert run_cli(["check", CAFE, "--quiet"]) == 0
    assert "\x1b[" not in capsys.readouterr().out


def test_color_forced_by_env(capsys, monkeypatch):
    monkeypatch.setenv("GRACT_COLOR", "1")
    assert run_cli(["check", CAFE, "--quiet"]) == 0
    assert "\x1b[32m" in capsys.readouterr().out

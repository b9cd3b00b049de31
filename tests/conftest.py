"""Fixtures that several test modules share."""

import random
from types import SimpleNamespace

import pytest

from gract.explorer import check_subject_reduction
from gract.parser import parse_program
from gract.semantics import initial_config, random_chooser, run

from corpus import EXAMPLES, TWO_CAFES, cli_output

CAFE = EXAMPLES / "cafe.gract"


@pytest.fixture(scope="session")
def seed4_runs(tmp_path_factory):
    """The cafe's 100 seed-4 random runs, SR-checked, and the CLI outputs
    that the table differential tests compare against, all built once with
    the program's tables. Each differential test builds its own side with
    one table switched off.

    `prog` is the program the traces ran in; `runs` is what
    `gract sr CAFE --runs 100 --seed 4 --json` reports for them, and
    `outputs` maps each name in `commands` to its exit code and output."""
    cafe = parse_program(CAFE.read_text())
    rng = random.Random(4)
    # `gract sr`'s default step budget, so its seed-4 runs are these traces
    traces = [run(initial_config(cafe), cafe, random_chooser(rng), 400) for _ in range(100)]
    laws = [check_subject_reduction(cafe, tr) for tr in traces]
    runs = [{"run": k, "status": tr.status, "steps": law["steps"], "ok": law["ok"],
             "violations": law["violations"]} for k, (tr, law) in enumerate(zip(traces, laws))]
    two_cafes = tmp_path_factory.mktemp("programs") / "two-cafes.gract"
    two_cafes.write_text(TWO_CAFES)
    commands = {
        "sr": ["sr", str(CAFE), "--runs", "100", "--seed", "4", "--json"],
        "sr-replay": ["sr", str(CAFE), "--replay", str(EXAMPLES / "corrupted-trace.json"),
                      "--json"],
        "helpful": ["run", str(CAFE), "--strategy", "helpful", "--json"],
        "run-replay": ["run", str(CAFE), "--replay", str(EXAMPLES / "cafe-replay.json"),
                       "--json"],
        "explore": ["explore", str(two_cafes), "--states", "200", "--json"],
    }
    outputs = {name: cli_output(argv) for name, argv in commands.items()}
    return SimpleNamespace(prog=cafe, traces=traces, laws=laws, runs=runs,
                           commands=commands, outputs=outputs)

"""A future's declared type is fixed by the call that creates it, and the
process that produces the future carries it. A method may declare a zero
release grade; its future type is the normalized one, wherever it is
spelled, and the machine's typings agree with the checker's."""

import io
import json
from contextlib import redirect_stdout

from gract.cli import main
from gract.explorer import check_helpful, explore
from gract.parser import parse_program

# `noop` declares a zero release that `use`'s parameter type leaves out
ZERO_PRODUCES = """\
grade lin
C {
  main(): Unit requires produces measure 12 {
    let f = C!noop() in let g = C!use(f) in g?; return unit }
  noop(): Unit requires produces C: R^0 measure 0 { return unit }
  use(h: fut(Unit, )): Unit requires produces measure 2 { h?; return unit }
}
init ;
start C!main()
"""


def _cli(argv) -> tuple[int, dict]:
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, json.loads(out.getvalue())


def test_both_spellings_of_a_zero_release_check_alike(tmp_path):
    reports = []
    for name, param in (("plain", "fut(Unit, )"), ("zero", "fut(Unit, C: R^0)")):
        path = tmp_path / f"{name}.gract"
        path.write_text(ZERO_PRODUCES.replace("h: fut(Unit, )", f"h: {param}"))
        code, report = _cli(["check", str(path), "--json"])
        del report["program"]
        reports.append((code, report))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and reports[0][1]["ok"]


def test_a_zero_release_future_stays_typable(tmp_path):
    path = tmp_path / "zero.gract"
    path.write_text(ZERO_PRODUCES)
    code, report = _cli(["sr", str(path), "--runs", "20", "--json"])
    assert code == 0 and all(r["ok"] for r in report["runs"])
    prog = parse_program(ZERO_PRODUCES)
    rep = explore(prog)
    assert rep.verdict == "FairTerminating"
    assert "untypable" not in rep.measure_histogram
    assert check_helpful(prog, rep.visited)["ok"]

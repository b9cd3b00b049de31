"""Where the bundled example corpus lives, and programs and helpers the
tests share.

Tests resolve fixtures through `EXAMPLES`, which is found from this file,
so the suite runs from any working directory.
"""

import dataclasses
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import gract
from gract.cli import main
from gract.grades import INF, NatExact
from gract.parser import parse_program

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# One barista / customer / counter triple; "@" is the triple's number.
_TRIPLE = """\
B@ {
  takeOrder(o: Order^1): Unit requires B@: CC^1 produces Cn@: Cf^1 measure 12 {
    let c = hold 1 CC in let cf = makeCoffee(o^1, c^1) in
    let f = Cn@!place(cf^1) in f?; return unit }
  clean(d: DC^1): Unit requires produces B@: CC^1 measure 4 {
    let c = washCup(d^1) in release 1 c^1; return unit }
}
Cs@ {
  main(): Unit requires B@: CC^1 produces B@: CC^1 measure 37 {
    let f = B@!takeOrder(Order^1) in f?; let g = Cn@!pickup() in let c = g? in
    let d = drink(c^1) in let h = B@!clean(d^1) in h? }
}
Cn@ {
  place(c: Cf^1): Unit requires produces Cn@: Cf^1 measure 2 { release 1 c^1; return unit }
  pickup(): Cf^1 requires Cn@: Cf^1 produces measure 2 { let c = hold 1 Cf in return c^1 }
}
"""

# Two independent cafes under one host: wide states of many processes.
TWO_CAFES = f"""\
grade lin
makeCoffee(o: Order^1, c: CC^1): Cf^1
drink(c: Cf^1): DC^1
washCup(d: DC^1): CC^1
{_TRIPLE.replace("@", "1")}{_TRIPLE.replace("@", "2")}H {{
  main(): Unit requires B1: CC^1, B2: CC^1 produces B1: CC^1, B2: CC^1 measure 86 {{
    let f1 = Cs1!main() in let f2 = Cs2!main() in f1?; f2?; return unit }}
}}
init B1: CC^1, B2: CC^1;
start H!main()
"""

# One triple under a host: the text of perfbench's `kcafe(1)`, up to layout.
KCAFE1 = f"""\
grade lin
makeCoffee(o: Order^1, c: CC^1): Cf^1
drink(c: Cf^1): DC^1
washCup(d: DC^1): CC^1
{_TRIPLE.replace("@", "1")}H {{
  main(): Unit requires B1: CC^1 produces B1: CC^1 measure 43 {{
    let f1 = Cs1!main() in f1?; return unit }}
}}
init B1: CC^1;
start H!main()
"""

# Two customers share one barista and one counter under exact naturals.
# `check` accepts it (measure 88): it splits the host's `B: CC^2` into two
# concurrent `B: CC^1`, and each `hold 1 CC` takes its share back by
# cancellation, `NatExact.minus(2, 1) == 1`. `explore` at unfold 2 finds it
# `FairTerminating` in 8,929 states, depth 88.
NATEQ_BARISTA = """\
grade natEq
makeCoffee(o: Order^1, c: CC^1): Cf^1
drink(c: Cf^1): DC^1
washCup(d: DC^1): CC^1
B {
  takeOrder(o: Order^1): Unit requires B: CC^1 produces Cn: Cf^1 measure 12 {
    let c = hold 1 CC in let cf = makeCoffee(o^1, c^1) in
    let f = Cn!place(cf^1) in f?; return unit }
  clean(d: DC^1): Unit requires produces B: CC^1 measure 4 {
    let c = washCup(d^1) in release 1 c^1; return unit }
}
Cn {
  place(c: Cf^1): Unit requires produces Cn: Cf^1 measure 2 { release 1 c^1; return unit }
  pickup(): Cf^1 requires Cn: Cf^1 produces measure 2 { let c = hold 1 Cf in return c^1 }
}
Cs1 {
  main(): Unit requires B: CC^1 produces B: CC^1 measure 37 {
    let f = B!takeOrder(Order^1) in f?; let g = Cn!pickup() in let c = g? in
    let d = drink(c^1) in let h = B!clean(d^1) in h? }
}
Cs2 {
  main(): Unit requires B: CC^1 produces B: CC^1 measure 37 {
    let f = B!takeOrder(Order^1) in f?; let g = Cn!pickup() in let c = g? in
    let d = drink(c^1) in let h = B!clean(d^1) in h? }
}
H {
  main(): Unit requires B: CC^2 produces B: CC^2 measure 86 {
    let f1 = Cs1!main() in let f2 = Cs2!main() in f1?; f2?; return unit }
}
init B: CC^2;
start H!main()
"""


class PlantedNatExact(NatExact):
    """natEq with the subtraction it once had, defined only when the two
    grades are equal or the total is inf. It cannot take back a share that
    `plus` split off (`minus(2, 1)` is undefined), so it breaks "split then
    hold": a planted fault that the law checks must catch."""

    def minus(self, total, used):
        if total == INF:
            return INF
        return 0 if total == used else None


def planted_barista():
    """`NATEQ_BARISTA` under `PlantedNatExact`. `check` still accepts it
    (measure 88), and every run gets stuck with B holding `CC^2`: `explore`
    at unfold 2 ends `StuckFound` in 78 states, depth 13."""
    return dataclasses.replace(parse_program(NATEQ_BARISTA), monoid=PlantedNatExact())


def cli_output(argv) -> tuple[int, str]:
    """`gract`'s exit code and standard output for one command line."""
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


def hash_seed_outputs(args, seeds) -> set[tuple[int, str, str]]:
    """The exit code, standard output and standard error of `python *args`
    in a subprocess under each `PYTHONHASHSEED` in `seeds`, with this
    checkout's `gract` importable. Output that follows string hashing
    gives more than one triple."""
    path = [str(Path(gract.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    outputs = set()
    for seed in seeds:
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
        outputs.add((done.returncode, done.stdout, done.stderr))
    return outputs

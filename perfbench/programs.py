"""Program sources and inputs the benchmark generates for itself.

The benchmark needs no file outside its own directory: the cafe program,
the k-cafe generator and the judgment universe of acceptance gate 8 are
all built here.
"""

from __future__ import annotations

# The cafe workflow: one clean cup moves between a barista, a customer and
# a counter.  The `; return unit` after `r?` in the recursive branch gives
# the pinned 153 states at unfold 2; the actor order B, Cs, Cn is the one
# the parser tests pin.
CAFE = """\
grade lin
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
Cs {
  main(): Unit requires B: CC^1 produces B: CC^1 measure 39 {
    let f = B!takeOrder(Order^1) in f?; let g = Cn!pickup() in let c = g? in
    let d = drink(c^1) in let h = B!clean(d^1) in h?;
    (return unit (+) let r = Cs!main() in r?; return unit) }
}
Cn {
  place(c: Cf^1): Unit requires produces Cn: Cf^1 measure 2 { release 1 c^1; return unit }
  pickup(): Cf^1 requires Cn: Cf^1 produces measure 2 { let c = hold 1 Cf in return c^1 }
}
init B: CC^1;
start Cs!main()
"""

# A customer's main is the cafe's without the recursive choice.
CUSTOMER_MEASURE = 37
# Per triple the host body pays a call (the customer's measure plus 3) and
# an await, each under one let step: 37 + 3 + 1 + 1 + 1.  The closing
# `return unit` costs nothing, so the host measure is 43k.
HOST_MEASURE_PER_TRIPLE = 43


def kcafe(k: int) -> str:
    """k independent barista/customer/counter triples under one host.

    Host `H.main` calls every `Cs{i}!main()`, then awaits each future in
    order and returns unit.
    """
    lines = [
        "grade lin",
        "makeCoffee(o: Order^1, c: CC^1): Cf^1",
        "drink(c: Cf^1): DC^1",
        "washCup(d: DC^1): CC^1",
    ]
    for i in range(1, k + 1):
        b, cs, cn = f"B{i}", f"Cs{i}", f"Cn{i}"
        lines += [
            f"{b} {{",
            f"  takeOrder(o: Order^1): Unit requires {b}: CC^1 produces {cn}: Cf^1 measure 12 {{",
            f"    let c = hold 1 CC in let cf = makeCoffee(o^1, c^1) in",
            f"    let f = {cn}!place(cf^1) in f?; return unit }}",
            f"  clean(d: DC^1): Unit requires produces {b}: CC^1 measure 4 {{",
            f"    let c = washCup(d^1) in release 1 c^1; return unit }}",
            "}",
            f"{cs} {{",
            f"  main(): Unit requires {b}: CC^1 produces {b}: CC^1 "
            f"measure {CUSTOMER_MEASURE} {{",
            f"    let f = {b}!takeOrder(Order^1) in f?; let g = {cn}!pickup() in "
            f"let c = g? in",
            f"    let d = drink(c^1) in let h = {b}!clean(d^1) in h? }}",
            "}",
            f"{cn} {{",
            f"  place(c: Cf^1): Unit requires produces {cn}: Cf^1 measure 2 "
            f"{{ release 1 c^1; return unit }}",
            f"  pickup(): Cf^1 requires {cn}: Cf^1 produces measure 2 "
            f"{{ let c = hold 1 Cf in return c^1 }}",
            "}",
        ]
    cups = ", ".join(f"B{i}: CC^1" for i in range(1, k + 1))
    calls = " in ".join(f"let f{i} = Cs{i}!main()" for i in range(1, k + 1))
    awaits = "; ".join(f"f{i}?" for i in range(1, k + 1))
    lines += [
        "H {",
        f"  main(): Unit requires {cups} produces {cups} "
        f"measure {HOST_MEASURE_PER_TRIPLE * k} {{",
        f"    {calls} in {awaits}; return unit }}",
        "}",
        f"init {cups};",
        "start H!main()",
    ]
    return "\n".join(lines) + "\n"


# The signature table of acceptance gate 8.  Its method bodies are stubs,
# so `check_program` rejects the table (ContextMismatch, MeasureMismatch,
# NonDiscardableLeftover); `type_expr` reads only the declarations, which
# is all the universe needs.
ORACLE = """\
grade lin
brew(x: R^1): S^1
A {
}
B {
  m0(): Unit requires B: R^1 produces measure 2 { return unit }
  m1(z0: R^1): Unit requires produces B: S^1 measure 1 { return unit }
}
init B: R^1;
start B!m0()
"""


def universe(terms, grades):
    """The 49,079 expressions of gate 8 and its six typing contexts.

    `terms` and `grades` are the `gract.terms` and `gract.grades` modules;
    passing them in keeps this module importable without gract.
    Returns (expressions, [(gamma, sigma), ...]).
    """
    t, INF = terms, grades.INF
    unit = t.UnitT()

    def atoms():
        return [
            t.Return(t.Lit(t.UnitVal())),
            t.Return(t.Var("u")),
            t.Return(t.GradedVar("x", 1)),
            t.Return(t.Lit(t.GradedRes("R", 1))),
            t.Return(t.Var("y")),
            t.Hold(1, "R"),
            t.Hold(INF, "R"),
            t.Hold(1, "S"),
            t.Release(1, t.Lit(t.GradedRes("R", 1))),
            t.Release(1, t.GradedVar("x", 1)),
            t.Await(t.Var("y")),
            t.Await(t.Lit(t.FutRef("f"))),
            t.Call("B", "m0", ()),
            t.Call("B", "m1", (t.GradedVar("x", 1),)),
            t.Call("B", "m1", (t.Lit(t.GradedRes("R", 1)),)),
            t.PrimOp("brew", (t.Lit(t.GradedRes("R", 1)),)),
            t.PrimOp("brew", (t.GradedVar("x", 1),)),
        ]

    def binder_uses(name):
        return [
            t.Return(t.Var(name)),
            t.Return(t.GradedVar(name, 1)),
            t.Release(1, t.GradedVar(name, 1)),
            t.Await(t.Var(name)),
            t.PrimOp("brew", (t.GradedVar(name, 1),)),
        ]

    d1 = atoms()
    d2 = [t.Let("z", a, b) for a in d1 for b in d1 + binder_uses("z")] + \
         [t.Choice(a, b) for a in d1 for b in d1]
    d3 = [t.Let("w", a, b) for a in d2 for b in d1 + binder_uses("w")] + \
         [t.Let("w", a, b) for a in d1 for b in d2] + \
         [t.Choice(a, b) for a in d2 for b in d1] + \
         [t.Choice(a, b) for a in d1 for b in d2]
    contexts = [
        ({}, {}),
        ({"x": t.ResT("R", 1)}, {}),
        ({"x": t.ResT("R", INF)}, {}),
        ({"u": unit}, {}),
        ({"y": t.fut_type(unit, {"B": {"S": 1}})}, {}),
        ({}, {"f": t.fut_type(unit, {})}),
    ]
    return d1 + d2 + d3, contexts

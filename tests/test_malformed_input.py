"""Malformed input ends in a diagnosis, never in a traceback.

The lexer's classes agree with Python's own character predicates on
every code point, `gract check` answers every token-level mutant of the
corpus with exit code 0, 1 or 2, and an expression nested deeper than
`MAX_NESTING` is a parse error (exit 2), while one nested exactly that
deep is checked, run, explored and law-checked.
"""

import json
import random
import re
import sys
import unicodedata

import pytest

from gract import terms
from gract.cli import main
from gract.grades import GradeParseError, NatExact, NatLeq
from gract.parser import MAX_NESTING, ParseError, lex, parse_program, positions
from gract.terms import parts

from corpus import EXAMPLES, hash_seed_outputs

SKIP = " \t\r\n"
PUNCT = "{}(),:;=!?^⊕"


def _kind(c: str):
    if c in SKIP:
        return "skip"
    if c.isalpha() or c == "_":
        return "IDENT"
    if c.isdecimal():
        return "NAT"
    if c in PUNCT:
        return "PUNCT"
    return None


def _alone(c: str):
    """The tokens of `c` alone as (kind, text) pairs, None for a stray."""
    kind = _kind(c)
    if kind is None:
        return None
    return [] if kind == "skip" else [(kind, "(+)" if c == "⊕" else c)]


def _then(first, c: str):
    rest = _alone(c)
    return None if rest is None else [first, *rest]


def predicted(c: str) -> dict:
    """For each of c, "a"+c, c+"a" and "1"+c: its (kind, text) tokens as
    str.isalpha, isalnum and isdecimal predict them, or None where the
    lexer must report a stray character."""
    kind = _kind(c)
    if kind == "IDENT":
        before_a = [("IDENT", c + "a")]
    elif kind is None:
        before_a = None
    else:
        before_a = [*_alone(c), ("IDENT", "a")]
    return {
        c: _alone(c),
        "a" + c: [("IDENT", "a" + c)] if c.isalnum() or c == "_" else _then(("IDENT", "a"), c),
        c + "a": before_a,
        "1" + c: [("NAT", "1" + c)] if c.isdecimal() else _then(("NAT", "1"), c),
    }


def _pairs(text: str):
    toks, kinds = lex(text)
    return list(zip(kinds, toks))


def _assert_stray(text: str, c: str):
    with pytest.raises(ParseError) as err:
        lex(text)
    assert err.value.message == f"stray character {c!r}"
    assert (err.value.line, err.value.col) == (1, text.index(c) + 1)


def test_tokens_follow_the_character_predicates_on_every_code_point():
    """Every text predicted to lex is checked, in batches joined by
    spaces. Each stray is checked alone, since the lexer stops at its
    first one. Every assigned code point is checked, and every 61st of the
    unassigned, private-use and surrogate ones: no predicate holds for
    any of these, so each is a stray four times over, and a stray costs a
    few microseconds."""
    batch, want = [], []
    strays = []
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        if unicodedata.category(c) in ("Cn", "Co", "Cs"):
            assert not c.isalnum()
            if cp % 61:
                continue
        for text, tokens in predicted(c).items():
            if tokens is None:
                strays.append((text, c))
            else:
                batch.append(text)
                want.extend(tokens)
    assert _pairs(" ".join(batch)) == want
    wrong = []
    for text, c in strays:
        try:
            lex(text)
        except ParseError as err:
            if err.message == f"stray character {c!r}" and err.col == text.index(c) + 1:
                continue
        wrong.append(text)
    assert not wrong


def test_non_decimal_digits_are_stray_characters():
    _assert_stray("1²", "²")
    _assert_stray("x ¹²", "¹")
    assert _pairs("a² ٣") == [("IDENT", "a²"), ("NAT", "٣")]


@pytest.mark.parametrize("monoid", [NatLeq(), NatExact()])
def test_nat_grades_are_decimal(monoid):
    assert monoid.parse("12") == 12
    for text in ("²", "1²", "¹²"):
        with pytest.raises(GradeParseError):
            monoid.parse(text)


NATLEQ = """\
grade natLeq
A {
  m(): Unit requires A: R^3 produces measure 1 { hold 2 R; return unit }
}
init A: R^3;
start A!m()
"""


def _check(path) -> int:
    try:
        return main(["check", "--json", str(path)])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("old, new, where", [
    ("hold 2 R", "hold ³ R", "3:55: stray character '³'"),
    ("measure 1 ", "measure ¹² ", "3:46: stray character '¹'"),
])
def test_check_reports_a_non_decimal_digit_as_a_parse_error(tmp_path, capsys, old, new, where):
    path = tmp_path / "digit.gract"
    path.write_text(NATLEQ.replace(old, new))
    assert _check(path) == 2
    assert capsys.readouterr().err == f"{path}:{where}\n"


# Inserted tokens: the corpus's own, and texts the lexer must handle
# with care: a non-decimal digit, the circled plus, a comment, a stray.
EXTRA = ["²", "¹²", "⊕", "//", "#", "(+)", "<=", "0", "inf", "9"]


def _token_lines(text: str) -> list[list[str]]:
    lines: list[list[str]] = [[] for _ in text.splitlines()]
    # lex reads `⊕` as `(+)`
    for t, (line, _) in zip(lex(text)[0], positions(text)):
        lines[line - 1].append(t)
    return lines


def _draw(rng: random.Random, pool: list[str]) -> str:
    return rng.choice(EXTRA if rng.random() < 0.5 else pool)


def _mutate(rng: random.Random, lines: list[list[str]], pool: list[str]) -> str:
    """One to three edits: insert a pool token, delete a token, swap two
    tokens, or replace one by a pool token. Half the pool tokens drawn are
    from EXTRA."""
    lines = [list(line) for line in lines]
    spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("insert", "delete", "swap", "replace"))
        i, j = rng.choice(spots)
        if op == "insert":
            lines[i].insert(rng.randint(0, len(lines[i])), _draw(rng, pool))
        elif j < len(lines[i]):
            if op == "delete":
                del lines[i][j]
            elif op == "replace":
                lines[i][j] = _draw(rng, pool)
            else:
                k, m = rng.choice(spots)
                if m < len(lines[k]):
                    lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def test_check_never_raises_on_corpus_mutants(tmp_path, capsys):
    rng = random.Random(18)
    corpus = {p.name: _token_lines(p.read_text()) for p in sorted(EXAMPLES.glob("*.gract"))}
    pool = sorted({t for lines in corpus.values() for line in lines for t in line})
    path = tmp_path / "mutant.gract"
    codes = set()
    for name, lines in corpus.items():
        for _ in range(100):
            text = _mutate(rng, lines, pool)
            path.write_text(text)
            code = _check(path)
            assert code in (0, 1, 2), (name, text)
            codes.add(code)
        capsys.readouterr()
    # the mutants reach the parser's errors and the checker's verdicts
    assert {1, 2} <= codes


def _nested(shape: str, n: int) -> tuple[str, int]:
    """A method body of the given shape nested `n` levels deep, and the
    measure the checker computes for it."""
    match shape:
        case "parentheses":
            return "(" * n + "return unit" + ")" * n, 0
        case "choices":
            return "(return unit (+) " * n + "return unit" + ")" * n, 1
        case "let-bounds":
            return ("".join(f"let x{k} = " for k in range(n)) + "return unit"
                    + "".join(f" in return x{k}" for k in reversed(range(n))), n)
        case "let-bodies":
            return "".join(f"let x{k} = return unit in " for k in range(n)) + "return unit", n
        case "sequence":
            return "; ".join(["return unit"] * (n + 1)), n
    raise ValueError(shape)


def _deep_program(tmp_path, shape: str, n: int):
    body, measure = _nested(shape, n)
    path = tmp_path / f"{shape}-{n}.gract"
    path.write_text(f"grade lin\nA {{\n  m(): Unit requires produces measure {measure} {{\n"
                    f"    {body} }}\n}}\ninit ;\nstart A!m()\n")
    return path


SHAPES = ("parentheses", "choices", "let-bounds", "let-bodies", "sequence")


@pytest.mark.parametrize("shape", SHAPES)
def test_the_deepest_nesting_checks_runs_and_explores(tmp_path, capsys, shape):
    """At Python's default recursion limit, inside the test runner's own
    frames, which a command run from the shell does not have."""
    path = str(_deep_program(tmp_path, shape, MAX_NESTING))
    for argv in (["check"], ["run", "--unsafe"], ["explore", "--unsafe"], ["sr", "--runs", "2"]):
        assert main([argv[0], path, "--quiet", *argv[1:]]) == 0, argv
    assert capsys.readouterr().err == ""


def test_a_deep_sequence_explores_computing_each_nodes_free_variables_once(
        tmp_path, capsys, monkeypatch):
    """A `;` binder prints as `;` when its variable is not free in the
    body, and exploring prints every distinct thread; each node keeps its
    free variables, and a `let` step shares the body it does not rename,
    so the exploration computes free variables at most once per node of
    the method body (256 lets and 257 returns)."""
    path = _deep_program(tmp_path, "sequence", MAX_NESTING)
    [decl] = parse_program(path.read_text()).actors["A"].methods.values()
    nodes = 0
    todo = [decl.body]
    while todo:
        nodes += 1
        todo += parts(todo.pop())[0]
    computed = 0
    free_vars = terms.free_vars

    def counting(e):
        nonlocal computed
        computed += getattr(e, "_free", None) is None
        return free_vars(e)

    monkeypatch.setattr(terms, "free_vars", counting)
    assert main(["explore", str(path), "--unsafe", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["statesVisited"]) == ("FairTerminating", 259)
    assert nodes == 2 * MAX_NESTING + 1 and computed <= nodes, (computed, nodes)


@pytest.mark.parametrize("shape", SHAPES)
def test_one_level_deeper_is_a_located_parse_error(tmp_path, shape):
    """Run as a command, so that a traceback would reach stderr."""
    path = str(_deep_program(tmp_path, shape, MAX_NESTING + 1))
    [(code, out, err)] = hash_seed_outputs(["-m", "gract.cli", "check", path], [0])
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"{re.escape(path)}:4:\d+: expression nests deeper than {MAX_NESTING}\n",
                        err), err


def _deep_type_program(tmp_path, n: int) -> str:
    """A program whose operation parameter, and a method's parameter and
    result, have a type of `n` nested `fut(`."""
    ty = "fut(" * n + "Unit" + ", )" * n
    path = tmp_path / f"fut-{n}.gract"
    path.write_text(f"grade lin\nuse(x: {ty}): Unit\nA {{\n"
                    f"  m(): Unit requires produces measure 0 {{ return unit }}\n"
                    f"  g(x: {ty}): {ty} requires produces measure 0 {{ return x }}\n"
                    f"}}\ninit ;\nstart A!m()\n")
    return str(path)


def test_the_deepest_type_checks_runs_and_explores(tmp_path, capsys):
    path = _deep_type_program(tmp_path, MAX_NESTING)
    for argv in (["check"], ["run", "--unsafe"], ["explore", "--unsafe"], ["sr", "--runs", "2"]):
        assert main([argv[0], path, "--quiet", *argv[1:]]) == 0, argv
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", [MAX_NESTING + 1, 1200])
def test_a_type_nested_deeper_is_a_located_parse_error(tmp_path, n):
    """Located at the first type past the limit, on the operation's line."""
    path = _deep_type_program(tmp_path, n)
    [(code, out, err)] = hash_seed_outputs(["-m", "gract.cli", "check", path], [0])
    col = len("use(x: ") + len("fut(") * (MAX_NESTING + 1) + 1
    assert (code, out, err) == (2, "", f"{path}:2:{col}: type nests deeper than {MAX_NESTING}\n")

"""The lexer reads the tokens the line-tracking tokenizer it replaced read,
and locates each one where that tokenizer did.

`reference_tokenize` is that tokenizer: one `finditer` over a pattern
with a named group per token kind, tracking the line and column of every
token as it goes. `parser.lex` scans with `findall` and locates nothing;
`parser.locate` rescans when a position is wanted. On every text both give
the same (kind, text) tokens and each token the same (line, col), or both
raise the same ParseError.
"""

import re

from hypothesis import given, settings, strategies as st

from gract.parser import ParseError, lex, locate

from corpus import EXAMPLES, KCAFE1, NATEQ_BARISTA, TWO_CAFES

_REFERENCE_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*)"
    r"|(?P<IDENT>[^\W\d]\w*)"
    r"|(?P<NAT>\d+)"
    r"|(?P<PUNCT>\(\+\)|⊕|<=|[{}(),:;=!?^])"
    r"|(?P<stray>.)",
    re.DOTALL,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each token, ending in EOF."""
    toks = []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in tok:
                line += tok.count("\n")
                line_start = m.start() + tok.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "stray" or kind == "IDENT" and not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"stray character {tok[0]!r}", line, col)
        toks.append((kind, "(+)" if tok == "⊕" else tok, line, col))
    toks.append(("EOF", "", line, len(text) - line_start + 1))
    return toks


def lexed(text: str) -> list[tuple[str, str, int, int]]:
    """`lex`'s tokens and EOF, each located by `locate`."""
    toks, kinds = lex(text)
    return [(k, t, *locate(text, i))
            for i, (k, t) in enumerate(zip(kinds + ["EOF"], toks + [""]))]


def outcome(tokenizer, text: str):
    try:
        return tokenizer(text)
    except ParseError as err:
        return err.message, err.line, err.col, err.expected


def assert_same(text: str):
    want = outcome(reference_tokenize, text)
    assert outcome(lexed, text) == want, text


CORPUS = [p.read_text() for p in sorted(EXAMPLES.glob("*.gract"))] + [KCAFE1, NATEQ_BARISTA, TWO_CAFES]


def test_the_corpus_lexes_as_the_reference_tokenizes():
    for text in CORPUS:
        # the texts, with Windows line ends, and with a last line that is a
        # comment with no newline after it
        for variant in (text, text.replace("\n", "\r\n"), text + "// end"):
            assert_same(variant)
    assert len(lexed(TWO_CAFES)) == len(reference_tokenize(TWO_CAFES)) > 500


# Texts at the edges of the skips and of the multi-character marks.
EDGES = [
    "", " ", "\n", "\n\n ", "//", "// a\rb\nc", "a//b\n c", "a\r\n\r\nb", "\t\tx\t",
    "<", "<<=", "<=<", "(+", "(+)(", "((+))", "(⊕)", "⊕⊕", "x⊕// ⊕\n⊕", "a²b", "²",
    "1²", "٣٣x", "_", "__s0_", "x\x0by", "x\u00a0y", "// é\né",
]


def test_edge_texts_lex_as_the_reference_tokenizes():
    for text in EDGES:
        assert_same(text)


# Token pieces; skips; the circled plus; a non-decimal digit and numerals
# of other scripts; letters beyond ASCII; and strays, a no-break space and
# a line separator among them.
PIECES = [
    "grade", "lin", "let", "x", "_s0", "in", "return", "unit", "A", "m", "0", "12",
    "(", ")", "{", "}", ",", ":", ";", "=", "!", "?", "^", "(+)", "<=",
    " ", "  ", "\t", "\n", "\r\n", "\r", "// note", "//", "// a // b",
    "⊕", "²", "a²", "٣", "é", "λx", "ß", "Ж", "𝔸",
    "<", "+", "/", "#", "$", "-", "\u00a0", "\u2028", "\x0b",
]

texts = st.tuples(
    st.lists(st.one_of(st.sampled_from(PIECES), st.characters()), max_size=30),
    st.sampled_from(["", "//", "// end", "\n// end", " "]),
).map(lambda parts: "".join(parts[0]) + parts[1])


@settings(max_examples=500, deadline=None)
@given(texts)
def test_generated_texts_lex_as_the_reference_tokenizes(text):
    assert_same(text)

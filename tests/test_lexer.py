"""The one-regex lexer against the character-at-a-time reference.

`dsl._tokenize` gives each token's offset and works out line and column only
for a diagnostic; `helpers.tokenize_reference` counts them as it goes.  Both
must give the same tokens, positions and `ParseError` text on any input,
non-ASCII letters, digits and blanks included.
"""

import re
from importlib import resources

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ehatp.dsl import (
    ParseError,
    _TOKEN,
    _lex,
    _position,
    _tokenize,
    load_shipped,
    parse_domain,
    parse_problem,
)
from helpers import tokenize_reference

CASES = settings(max_examples=1000, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

SHIPPED = sorted(p for p in (resources.files("ehatp") / "data").iterdir()
                 if p.name.endswith(".ehatp"))
DOMAINS = {name: parse_domain(load_shipped(name)) for name in ("cube_org", "cooking")}

# Single characters, the ones the ASCII fast path must hand over included
# (a superscript and an Arabic-Indic digit, a vulgar fraction, an accented
# letter, form feed, vertical tab and no-break space), and whole pieces of
# the language: keywords, variables, negative numbers, a `-` before a
# letter, and comments that may end the text with no newline after them.
ALPHABET = list("aZ_x09{}(),: \t\r\n#-") + ["é", "²", "½", "٣", "\f", "\v", "\xa0", "@"]
PIECES = ALPHABET + ["domain", "predicate", "Var", "-12", "-x", "3é", "é3", "a²", "²a",
                     "-٣", "1½", "# note", "#", "not", "c_r", "at(R, mt)", "\n  "]


def _lexed(text: str) -> list[tuple[str, str, int, int]] | str:
    try:
        return [(kind, s, *_position(text, i))
                for kind, s, i in _tokenize(text, _lex(text, "f"))]
    except ParseError as e:
        return str(e)


def _reference(text: str) -> list[tuple[str, str, int, int]] | str:
    try:
        return tokenize_reference(text, "f")
    except ParseError as e:
        return str(e)


@CASES
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_lexer_matches_the_reference(text):
    assert _lexed(text) == _reference(text)


P3 = next(p for p in SHIPPED if p.name == "p3.ehatp")


@CASES
@given(st.sampled_from(SHIPPED), st.integers(min_value=0),
       st.lists(st.sampled_from(PIECES), min_size=1, max_size=4).map("".join))
@example(path=P3, at=P3.read_text(encoding="utf-8").index("k 2") + 2, piece="²a")
def test_spliced_files_lex_and_report_as_the_reference(path, at, piece):
    """An edit anywhere in a shipped file lexes as the reference does, and a
    syntax error it causes points at the start of a reference token."""
    text = path.read_text(encoding="utf-8")
    domain = re.search(r"^problem.*?\bdomain (\w+)", text, re.S | re.M)
    at %= len(text) + 1
    text = text[:at] + piece + text[at:]
    expected = _reference(text)
    assert _lexed(text) == expected
    if isinstance(expected, str):
        return
    starts = {(line, col) for _, _, line, col in expected}
    try:
        if domain is None:
            parse_domain(text, "f")
        else:
            parse_problem(text, DOMAINS[domain.group(1)], "f")
    except ParseError as e:
        d = e.diagnostic
        assert (d.line, d.col) in starts, str(e)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_files_lex_as_the_reference(path):
    text = path.read_text(encoding="utf-8")
    assert _lexed(text) == tokenize_reference(text, "f")


def test_an_unexpected_character_is_reported_before_a_syntax_error():
    text = "domain d {\n  ) }\n  type @\n"
    with pytest.raises(ParseError) as e:
        parse_domain(text, "f")
    assert str(e.value) == "f:3:8: error: unexpected character '@'"


def test_token_pattern_uses_no_syntax_newer_than_python_3_10():
    """Atomic groups and possessive quantifiers arrived in Python 3.11."""
    assert "(?>" not in _TOKEN.pattern
    assert re.search(r"(?<!\\)[*+?}]\+", _TOKEN.pattern) is None

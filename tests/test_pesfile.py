"""Text format: parsing, canonical formatting, and error positions."""

from __future__ import annotations

import pytest

from pesbisim import ParseError, ValidationError, parse_pes
from pesbisim.pesfile import format_document, parse_document

from conftest import (
    FIXTURE_DIR,
    ch,
    chain,
    choice3,
    halt_early,
    p0,
    pa,
    pa_noterm,
    pa_tau,
    par,
    seq,
    tau,
)

CONSTRUCTORS = {
    "p0.pes": p0,
    "pa.pes": pa,
    "par.pes": par,
    "seq.pes": seq,
    "ch.pes": ch,
    "tau.pes": tau,
    "choice3.pes": choice3,
    "chain.pes": chain,
    "pa_noterm.pes": pa_noterm,
    "pa_tau.pes": pa_tau,
    "halt_early.pes": halt_early,
}


def same_structure(x, y) -> bool:
    if x.events != y.events:
        return False
    if x.labels != y.labels:
        return False
    for a in x.events:
        for b in x.events:
            if x.leq(a, b) != y.leq(a, b) or x.in_conflict(a, b) != y.in_conflict(a, b):
                return False
    if x.configuration_masks() != y.configuration_masks():
        return False
    return all(x.terminates_mask(m) == y.terminates_mask(m) for m in x.configuration_masks())


@pytest.mark.parametrize("filename", sorted(CONSTRUCTORS))
def test_fixture_files_match_constructors(filename):
    text = (FIXTURE_DIR / filename).read_text()
    assert same_structure(parse_pes(text), CONSTRUCTORS[filename]())


@pytest.mark.parametrize("filename", sorted(CONSTRUCTORS))
def test_canonical_form_round_trips(filename):
    doc = parse_document((FIXTURE_DIR / filename).read_text())
    assert parse_document(format_document(doc)) == doc


def test_comments_and_blank_lines():
    text = """
# leading comment
pes X   # trailing comment
event a : a
  # indented comment
event b : b
conflict a # b   # the operator '#' is not a comment here
"""
    es = parse_pes(text)
    assert es.events == ("a", "b")
    assert es.in_conflict("a", "b")
    # a Unicode line separator does not end the line, nor the comment on it
    es = parse_pes("pes X\nevent a : a # note\u2028 stray words\n")
    assert es.events == ("a",)


def test_leading_byte_order_mark_is_ignored():
    text = (FIXTURE_DIR / "par.pes").read_text(encoding="utf-8")
    assert parse_document("\ufeff" + text) == parse_document(text)


def test_conflict_symbol_form():
    es = parse_pes("pes X\nevent a : a\nevent b : b\nconflict a ♯ b\n")
    assert es.in_conflict("a", "b")


def test_conflict_operator_needs_its_own_token():
    # '#b' glued together reads as a comment, leaving the statement short
    with pytest.raises(ParseError) as err:
        parse_document("pes X\nevent a : a\nevent b : b\nconflict a #b\n")
    assert err.value.line == 4
    assert "expected 'conflict <id> # <id>'" in str(err.value)


def test_hash_inside_a_token_is_not_a_comment():
    with pytest.raises(ParseError) as err:
        parse_document("pes X\nevent a#b : a\n")
    assert (err.value.line, err.value.column) == (2, 7)
    assert "invalid event name" in str(err.value)


def test_terminating_forms():
    base = "pes X\nevent a : a\nevent b : b\ncause a < b\n"
    maximal = parse_pes(base)
    assert maximal.terminates_mask(maximal.mask_of(["a", "b"]))
    assert not maximal.terminates_mask(maximal.mask_of(["a"]))
    none = parse_pes(base + "terminating none\n")
    assert not any(none.terminates_mask(m) for m in none.configuration_masks())
    explicit = parse_pes(base + "terminating { {a} {a,b} }\n")
    assert explicit.terminates_mask(explicit.mask_of(["a"]))
    assert explicit.terminates_mask(explicit.mask_of(["a", "b"]))
    assert not explicit.terminates_mask(0)
    empty = parse_pes("pes X\nterminating { }\n")
    assert not empty.terminates_mask(0)


@pytest.mark.parametrize(
    "text,line,column,fragment",
    [
        ("", 1, 1, "empty document"),
        ("event a : a\n", 1, 1, "expected 'pes <name>' first"),
        ("pes X Y\n", 1, 1, "expected 'pes <name>'"),
        ("pes X\npes Y\n", 2, 1, "duplicate 'pes' statement"),
        ("pes X\nevent a\n", 2, 1, "expected 'event <id> : <label>'"),
        ("pes 9bad\n", 1, 5, "invalid structure name"),
        ("pes X\nevent a : a\nevent a : b\n", 3, 7, "duplicate event 'a'"),
        ("pes X\nevent a : a\ncause a < b\n", 3, 11, "undeclared event 'b'"),
        # a form feed is whitespace on its own line, not a line end
        ("pes A\n\f\nevent a : a\ncause a < b\n", 4, 11, "undeclared event 'b'"),
        ("pes X\nevent a : a\nevent b : b\ncause a b\n", 4, 1, "expected 'cause <id> < <id>'"),
        ("pes X\nevent a : a\nconflict a ! a\n", 3, 1, "expected 'conflict <id> # <id>'"),
        ("pes X\nterminating none\nterminating none\n", 3, 1, "duplicate 'terminating'"),
        ("pes X\nfrob a\n", 2, 1, "unknown statement 'frob'"),
        ("pes X\nterminating ,\n", 2, 1, "expected 'terminating maximal|none|"),
        ("pes X\nevent a : a\nterminating { {a,b} }\n", 3, 18, "undeclared event 'b'"),
        ("pes X\nterminating { { {x} } }\n", 2, 17, "sets nest at most one level"),
        ("pes X\nevent a : a\nterminating { a }\n", 3, 15, "event name outside a set"),
        ("pes X\nevent a : a\nterminating { {a}\n", 3, 17, "unbalanced '{'"),
        ("pes X\nterminating { } }\n", 2, 17, "unbalanced '}'"),
        # the sets sit in one outer pair of braces
        ("pes X\nevent a : a\nevent b : b\nterminating { {a} } { {b} }\n", 4, 21, "one outer"),
        ("pes X\nterminating {}{}\n", 2, 15, "only one outer '{ }' pair allowed"),
        # a brace in a comment, and a keyword before the sets, are no sets
        ("pes X\nevent a : a\nterminating # { {a} }\n", 3, 1, "expected 'terminating"),
        ("pes X\nevent a : a\nterminating maximal { {a} }\n", 3, 1, "expected 'terminating"),
        ("pes X\nterminating none { }\n", 2, 1, "expected 'terminating maximal|none|"),
        # only one leading byte-order mark is dropped; any other is text
        ("\ufeff\ufeffpes X\n", 1, 1, "expected 'pes <name>' first"),
        ("pes X\n\ufeffevent a : a\n", 2, 1, "unknown statement '\\ufeffevent'"),
    ],
)
def test_parse_error_positions(text, line, column, fragment):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert fragment in str(err.value)


def test_semantic_errors_surface_as_validation():
    text = "pes X\nevent a : a\nevent b : b\ncause a < b\nconflict a # b\n"
    with pytest.raises(ValidationError):
        parse_pes(text)

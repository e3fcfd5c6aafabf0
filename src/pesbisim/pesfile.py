"""Line-oriented text format for event structures.

Grammar (one statement per line, any amount of surrounding whitespace):

    pes <name>
    event <id> : <label>
    cause <id> < <id>
    conflict <id> # <id>          (the symbol form "♯" also works)
    terminating maximal
    terminating none
    terminating { {<id>,...} ... }

The first statement must be ``pes``.  Events must be declared before they
are referenced; at most one ``terminating`` statement is allowed, and the
policy defaults to ``maximal``.  The label ``tau`` marks silent events.
Lines end at LF, CRLF or CR only; other line breaks are whitespace.
One leading byte-order mark (U+FEFF) is ignored; one anywhere else is not.
A ``#`` at the start of a line or after whitespace begins a comment, also
inside the sets of ``terminating``, with one exception: the operator slot
of a ``conflict`` statement.  Nothing but the sets may follow
``terminating`` when it does not read ``maximal`` or ``none``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError
from .pes import Caps, EventStructure

_TOKEN = re.compile(r"\S+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.'-]*\Z")
_PIECE = re.compile(r"[{},]|[^{},]+")
_CONFLICT_OPS = ("#", "♯")


@dataclass(frozen=True)
class PesDocument:
    """The parsed declarations, in source order, before validation."""

    name: str
    events: tuple[tuple[str, str], ...]
    causes: tuple[tuple[str, str], ...]
    conflicts: tuple[tuple[str, str], ...]
    termination: str | tuple[tuple[str, ...], ...]

    def to_event_structure(self, caps: Caps | None = None) -> EventStructure:
        return EventStructure(
            self.name, self.events, self.causes, self.conflicts, self.termination, caps
        )


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Whitespace tokens with 1-based columns, truncated at a comment.

    This is the one place that decides where a comment starts: at a token
    that begins with '#', unless it is the '#' operator (third token) of a
    conflict statement."""
    out: list[tuple[str, int]] = []
    for m in _TOKEN.finditer(line):
        tok = m.group()
        if tok.startswith("#") and not (len(out) == 2 and tok == "#" and out[0][0] == "conflict"):
            break
        out.append((tok, m.start() + 1))
    return out


def _ident(tok: str, col: int, lineno: int, what: str) -> str:
    if not _IDENT.match(tok):
        raise ParseError(lineno, col, f"invalid {what} {tok!r}")
    return tok


def _terminating_sets(
    body: list[tuple[str, int]], lineno: int, need_declared: Callable[[str, int, int], str]
) -> tuple[tuple[str, ...], ...]:
    """Parse the tokens of '{ {a,b} {c} }', split at braces and commas,
    into a tuple of declared event-name tuples."""
    groups: list[tuple[str, ...]] = []
    current: list[str] | None = None
    depth = 0
    for tok, col in body:
        for m in _PIECE.finditer(tok):
            piece, at = m.group(), col + m.start()
            if piece == "{":
                if not depth and at > body[0][1]:
                    raise ParseError(lineno, at, "only one outer '{ }' pair allowed")
                depth += 1
                if depth == 2:
                    current = []
                elif depth > 2:
                    raise ParseError(lineno, at, "sets nest at most one level")
            elif piece == "}":
                if depth == 2:
                    assert current is not None
                    groups.append(tuple(current))
                    current = None
                elif depth != 1:
                    raise ParseError(lineno, at, "unbalanced '}'")
                depth -= 1
            elif current is None:
                what = "','" if piece == "," else "event name"
                raise ParseError(lineno, at, f"{what} outside a set")
            elif piece != ",":
                current.append(need_declared(_ident(piece, at, lineno, "event name"), at, lineno))
    if depth:
        tok, col = body[-1]
        raise ParseError(lineno, col + len(tok) - 1, "unbalanced '{'")
    return tuple(groups)


def parse_document(text: str) -> PesDocument:
    name: str | None = None
    events: list[tuple[str, str]] = []
    declared: set[str] = set()
    causes: list[tuple[str, str]] = []
    conflicts: list[tuple[str, str]] = []
    termination: str | tuple[tuple[str, ...], ...] | None = None

    def need_declared(tok: str, col: int, lineno: int) -> str:
        if tok not in declared:
            raise ParseError(lineno, col, f"undeclared event {tok!r}")
        return tok

    text = text.removeprefix("\ufeff")
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        keyword, at = tokens[0]
        if name is None and keyword != "pes":
            raise ParseError(lineno, at, "expected 'pes <name>' first")
        if keyword == "pes":
            if name is not None:
                raise ParseError(lineno, at, "duplicate 'pes' statement")
            if len(tokens) != 2:
                raise ParseError(lineno, at, "expected 'pes <name>'")
            name = _ident(tokens[1][0], tokens[1][1], lineno, "structure name")
        elif keyword == "event":
            if len(tokens) != 4 or tokens[2][0] != ":":
                raise ParseError(lineno, at, "expected 'event <id> : <label>'")
            ev = _ident(tokens[1][0], tokens[1][1], lineno, "event name")
            lbl = _ident(tokens[3][0], tokens[3][1], lineno, "label")
            if ev in declared:
                raise ParseError(lineno, tokens[1][1], f"duplicate event {ev!r}")
            declared.add(ev)
            events.append((ev, lbl))
        elif keyword == "cause":
            if len(tokens) != 4 or tokens[2][0] != "<":
                raise ParseError(lineno, at, "expected 'cause <id> < <id>'")
            a = need_declared(tokens[1][0], tokens[1][1], lineno)
            b = need_declared(tokens[3][0], tokens[3][1], lineno)
            causes.append((a, b))
        elif keyword == "conflict":
            if len(tokens) != 4 or tokens[2][0] not in _CONFLICT_OPS:
                raise ParseError(lineno, at, "expected 'conflict <id> # <id>'")
            a = need_declared(tokens[1][0], tokens[1][1], lineno)
            b = need_declared(tokens[3][0], tokens[3][1], lineno)
            conflicts.append((a, b))
        elif keyword == "terminating":
            if termination is not None:
                raise ParseError(lineno, at, "duplicate 'terminating' statement")
            body = tokens[1:]
            if len(body) == 1 and body[0][0] in ("maximal", "none"):
                termination = body[0][0]
            elif not body or not body[0][0].startswith("{"):
                raise ParseError(
                    lineno, at, "expected 'terminating maximal|none|{ {...} ... }'"
                )
            else:
                termination = _terminating_sets(body, lineno, need_declared)
        else:
            raise ParseError(lineno, at, f"unknown statement {keyword!r}")
    if name is None:
        raise ParseError(1, 1, "empty document: expected 'pes <name>'")
    return PesDocument(
        name,
        tuple(events),
        tuple(causes),
        tuple(conflicts),
        "maximal" if termination is None else termination,
    )


def format_document(doc: PesDocument) -> str:
    """Canonical text form; parsing it back yields an equal document."""
    lines = [f"pes {doc.name}"]
    lines.extend(f"event {e} : {lbl}" for e, lbl in doc.events)
    lines.extend(f"cause {a} < {b}" for a, b in doc.causes)
    lines.extend(f"conflict {a} # {b}" for a, b in doc.conflicts)
    if isinstance(doc.termination, str):
        lines.append(f"terminating {doc.termination}")
    else:
        sets = " ".join("{" + ",".join(group) + "}" for group in doc.termination)
        lines.append(("terminating { " + sets + " }") if sets else "terminating { }")
    return "\n".join(lines) + "\n"


def parse_pes(text: str, caps: Caps | None = None) -> EventStructure:
    """Parse and validate a .pes document in one go."""
    return parse_document(text).to_event_structure(caps)

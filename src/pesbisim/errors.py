"""Exception types shared across the package.

The CLI maps these onto process exit codes, so parse, validation and
cap failures must stay distinguishable.
"""

from __future__ import annotations


class PesBisimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PesBisimError):
    """An event structure declaration or another input violates a rule."""


class CapExceededError(PesBisimError):
    """An instance-size cap was hit; the input is too large to process."""

    def __init__(self, cap: str, limit: int, actual: int):
        self.cap = cap
        self.limit = limit
        self.actual = actual
        super().__init__(f"cap exceeded: {cap} limit is {limit}, needed {actual}")


class ParseError(PesBisimError):
    """A .pes document is syntactically or referentially ill-formed."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class MalformedWitnessError(PesBisimError):
    """A witness handed to verify_witness holds a malformed key, or is a
    Relation of another structure pair."""


class ArenaCycleError(PesBisimError):
    """A move does not lead to a position that the solver's sweep has
    already decided, which every cycle in a game arena causes; arenas are
    acyclic by construction, so this signals an internal bug rather than
    bad input."""

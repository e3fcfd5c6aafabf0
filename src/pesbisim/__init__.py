"""Truly concurrent bisimilarity checking on prime event structures.

Decides strong and branching pomset, step, history-preserving and
hereditary history-preserving bisimilarity, both by greatest-fixpoint
relation computation and by solving Spoiler/Duplicator games.
"""

from .errors import (
    ArenaCycleError,
    CapExceededError,
    MalformedWitnessError,
    ParseError,
    PesBisimError,
    ValidationError,
)
from .games import (
    Arena,
    Decision,
    GameVerdict,
    Role,
    build_arena,
    decide,
    game_check,
    solve,
    solve_hereditary,
)
from .kinds import ALL_KINDS, BisimulationKind, Flavor, Mode
from .oracle import Relation, Verdict, check, greatest_bisimulation, verify_witness
from .pes import Caps, EventStructure, SILENT_LABEL
from .pesfile import PesDocument, format_document, parse_document, parse_pes
from .pomsets import enumerate_matchings

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "Arena",
    "ArenaCycleError",
    "BisimulationKind",
    "CapExceededError",
    "Caps",
    "Decision",
    "EventStructure",
    "Flavor",
    "GameVerdict",
    "MalformedWitnessError",
    "Mode",
    "ParseError",
    "PesBisimError",
    "PesDocument",
    "Relation",
    "Role",
    "SILENT_LABEL",
    "ValidationError",
    "Verdict",
    "build_arena",
    "check",
    "decide",
    "enumerate_matchings",
    "format_document",
    "game_check",
    "greatest_bisimulation",
    "parse_document",
    "parse_pes",
    "solve",
    "solve_hereditary",
    "verify_witness",
]

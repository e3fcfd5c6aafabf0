"""Spoiler/Duplicator games deciding the eight bisimilarities.

Positions carry an oriented pair of configurations (plus a matching for
the history-preserving flavors) and, on Duplicator's turns, the pending
challenge.  Spoiler challenges a transition of either side; challenging
the right side swaps the orientation so the challenged configuration is
always first.  Duplicator answers a challenge by matching it with an
isomorphic transition; in branching mode it may instead absorb an
all-silent challenge, defer by one silent step of the answering side
(dropping the challenge), or, for a termination challenge, move the
answering side through silent events to a terminating configuration.
Configurations only ever grow, so arenas are finite DAGs; a player with
no move loses, which makes backward induction the solver.  The hereditary
flavors judge games started at every matching, so their arenas seed a
position per valid matching; the solver then demotes Duplicator-won
positions whose matching has a synchronized shrinking with no
Duplicator-won counterpart, re-solving with demoted positions as
Spoiler-won sinks until a fixpoint.  A play reaching a demoted position
ends there; ``play_turn`` decides, for ``replay`` and the interactive
``play`` command alike, when a play ends, who wins and what the machine
plays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from typing import Sequence

from .errors import ArenaCycleError, CapExceededError, IllegalMoveError, ValidationError
from .kinds import BisimulationKind, Flavor
from .oracle import Engine, hereditary_ok, triple_universe
from .pes import Caps, EventStructure
from .pomsets import Pairs


class Role(Enum):
    SPOILER = "spoiler"
    DUPLICATOR = "duplicator"

    def other(self) -> Role:
        return Role.DUPLICATOR if self is Role.SPOILER else Role.SPOILER


@dataclass(frozen=True)
class Challenge:
    """A pending obligation: either a challenged transition of the left
    side (added events plus resulting configuration) or a termination
    claim."""

    kind: str  # "transition" | "termination"
    x_mask: int = 0
    target_mask: int = 0


@dataclass(frozen=True)
class GamePosition:
    """left/right are configuration masks; swapped records whether left
    belongs to the second structure.  pairs is the normalized matching
    (first-structure index, second-structure index) for hp/hhp, None
    otherwise.  Spoiler owns positions without a challenge."""

    swapped: bool
    left: int
    right: int
    pairs: Pairs | None
    challenge: Challenge | None

    @property
    def owner(self) -> Role:
        return Role.SPOILER if self.challenge is None else Role.DUPLICATOR


@dataclass(frozen=True)
class Move:
    rule: str
    target: GamePosition


class Arena:
    """All positions reachable from the initial one, with their moves."""

    def __init__(
        self,
        es1: EventStructure,
        es2: EventStructure,
        kind: BisimulationKind,
        strong_tau_erasure: bool,
        positions: tuple[GamePosition, ...],
        moves: dict[GamePosition, tuple[Move, ...]],
    ):
        self.es1 = es1
        self.es2 = es2
        self.kind = kind
        self.strong_tau_erasure = strong_tau_erasure
        self.positions = positions
        self.moves = moves
        self.index = {p: i for i, p in enumerate(positions)}

    @property
    def initial(self) -> GamePosition:
        return self.positions[0]

    def sides(self, pos: GamePosition) -> tuple[EventStructure, EventStructure]:
        return (self.es2, self.es1) if pos.swapped else (self.es1, self.es2)

    def underlying_triple(self, pos: GamePosition) -> tuple[int, Pairs, int]:
        """The matching as (first-structure mask, pairs, second-structure
        mask), independent of orientation."""
        assert pos.pairs is not None
        if pos.swapped:
            return (pos.right, pos.pairs, pos.left)
        return (pos.left, pos.pairs, pos.right)

    def describe(self, pos: GamePosition) -> str:
        es_l, es_r = self.sides(pos)
        body = f"({es_l.format_mask(pos.left)}, {es_r.format_mask(pos.right)})"
        if pos.pairs is not None:
            fes1, fes2 = (self.es1, self.es2)
            inner = ",".join(f"{fes1.events[i]}->{fes2.events[j]}" for i, j in pos.pairs)
            body += f" match {{{inner}}}"
        if pos.swapped:
            body += " [sides swapped]"
        if pos.challenge is None:
            return f"[{body}]"
        ch = pos.challenge
        if ch.kind == "termination":
            return f"<{body} ? left side terminated>"
        return f"<{body} ? X={es_l.format_mask(ch.x_mask)}>"

    def describe_move(self, source: GamePosition, move: Move) -> str:
        es_l, es_r = self.sides(source)
        t = move.target
        if move.rule == "spoiler-challenge-left":
            assert t.challenge is not None
            return f"challenge left X={es_l.format_mask(t.challenge.x_mask)}"
        if move.rule == "spoiler-challenge-right":
            assert t.challenge is not None
            return f"challenge right X={es_r.format_mask(t.challenge.x_mask)}"
        if move.rule == "spoiler-termination-challenge":
            side = "left" if t.swapped == source.swapped else "right"
            return f"challenge termination of the {side} side"
        if move.rule == "duplicator-absorb-tau":
            return "absorb the silent challenge"
        if move.rule == "duplicator-tau-step":
            added = t.right & ~source.right
            return f"silent step {es_r.format_mask(added)}, dropping the challenge"
        assert source.challenge is not None
        if source.challenge.kind == "termination":
            return f"reach terminating {es_r.format_mask(t.right)} by silent moves"
        added = t.right & ~source.right
        return f"answer with Y={es_r.format_mask(added)}"


@dataclass
class Solution:
    """Backward-induction result: winner per position, the winner's
    canonical move (lowest-index winning move) where they win, and the
    positions demoted by hereditary pruning."""

    winner: dict[GamePosition, Role]
    strategy: dict[GamePosition, Move]
    demoted: frozenset[GamePosition] = frozenset()


def build_arena(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
    caps: Caps | None = None,
) -> Arena:
    """Breadth-first arena construction from the empty-configurations
    position, with deterministic move order."""
    eng = Engine(es1, es2, kind, strong_tau_erasure, caps)
    posetal = kind.posetal
    initial = GamePosition(False, 0, 0, () if posetal else None, None)
    index: dict[GamePosition, int] = {initial: 0}
    order: list[GamePosition] = [initial]
    moves: dict[GamePosition, tuple[Move, ...]] = {}
    queue: deque[GamePosition] = deque([initial])
    limit = eng.caps.max_positions

    def note(pos: GamePosition) -> None:
        if pos not in index:
            if len(index) >= limit:
                raise CapExceededError("positions", limit, len(index) + 1)
            index[pos] = len(order)
            order.append(pos)
            queue.append(pos)

    # The hereditary flavors judge games started at every matching, not just
    # those reachable from the empty one, so each valid triple is a position.
    if kind.flavor is Flavor.HHP:
        for m1, prs, m2 in triple_universe(eng):
            note(GamePosition(False, m1, m2, prs, None))

    while queue:
        pos = queue.popleft()
        out = (
            _duplicator_moves(eng, pos) if pos.challenge is not None else _spoiler_moves(eng, pos)
        )
        moves[pos] = out
        for mv in out:
            note(mv.target)
    return Arena(es1, es2, kind, strong_tau_erasure, tuple(order), moves)


def _side_ids(pos: GamePosition) -> tuple[int, int]:
    """Engine side numbers (1 = first structure) for (left, right)."""
    return (2, 1) if pos.swapped else (1, 2)


def _spoiler_moves(eng: Engine, pos: GamePosition) -> tuple[Move, ...]:
    sl, sr = _side_ids(pos)
    out: list[Move] = []
    if eng.kind.posetal:
        left_trans = [(1 << e, pos.left | 1 << e) for e in eng.singles(sl, pos.left)]
        right_trans = [(1 << e, pos.right | 1 << e) for e in eng.singles(sr, pos.right)]
    else:
        left_trans = list(eng.trans(sl, pos.left))
        right_trans = list(eng.trans(sr, pos.right))
    for x, t in left_trans:
        out.append(
            Move(
                "spoiler-challenge-left",
                GamePosition(pos.swapped, pos.left, pos.right, pos.pairs, Challenge("transition", x, t)),
            )
        )
    for y, t in right_trans:
        out.append(
            Move(
                "spoiler-challenge-right",
                GamePosition(not pos.swapped, pos.right, pos.left, pos.pairs, Challenge("transition", y, t)),
            )
        )
    if eng.branching:
        if eng.terminates(sl, pos.left) and not eng.terminates(sr, pos.right):
            out.append(
                Move(
                    "spoiler-termination-challenge",
                    GamePosition(pos.swapped, pos.left, pos.right, pos.pairs, Challenge("termination")),
                )
            )
        if eng.terminates(sr, pos.right) and not eng.terminates(sl, pos.left):
            out.append(
                Move(
                    "spoiler-termination-challenge",
                    GamePosition(not pos.swapped, pos.right, pos.left, pos.pairs, Challenge("termination")),
                )
            )
    return tuple(out)


def _normalized_pair(pos: GamePosition, e_left: int, e_right: int) -> tuple[int, int]:
    return (e_right, e_left) if pos.swapped else (e_left, e_right)


def _duplicator_moves(eng: Engine, pos: GamePosition) -> tuple[Move, ...]:
    assert pos.challenge is not None
    sl, sr = _side_ids(pos)
    es_l = eng.es1 if sl == 1 else eng.es2
    es_r = eng.es1 if sr == 1 else eng.es2
    ch = pos.challenge
    out: list[Move] = []
    if ch.kind == "termination":
        for m0 in eng.tau_reach(sr, pos.right):
            if m0 != pos.right and eng.terminates(sr, m0):
                out.append(
                    Move("duplicator-match", GamePosition(pos.swapped, pos.left, m0, pos.pairs, None))
                )
        return tuple(out)
    if eng.branching and not ch.x_mask & ~es_l.silent_mask:
        out.append(
            Move(
                "duplicator-absorb-tau",
                GamePosition(pos.swapped, ch.target_mask, pos.right, pos.pairs, None),
            )
        )
    if eng.kind.posetal:
        assert pos.pairs is not None
        e1 = ch.x_mask.bit_length() - 1
        challenge_silent = bool(es_l.silent_mask >> e1 & 1)
        for e2 in eng.singles(sr, pos.right):
            if eng.branching and challenge_silent:
                # Weak matchings leave silent events unmatched, so a silent
                # answer grows both sides without touching the bijection.
                if not es_r.silent_mask >> e2 & 1:
                    continue
                new_pairs = pos.pairs
            else:
                n1, n2 = _normalized_pair(pos, e1, e2)
                if not eng.ext_ok(pos.pairs, n1, n2):
                    continue
                new_pairs = tuple(sorted(pos.pairs + ((n1, n2),)))
            out.append(
                Move(
                    "duplicator-match",
                    GamePosition(
                        pos.swapped, ch.target_mask, pos.right | 1 << e2, new_pairs, None
                    ),
                )
            )
    else:
        for y, t in eng.trans(sr, pos.right):
            x_cmp, y_cmp = (y, ch.x_mask) if pos.swapped else (ch.x_mask, y)
            if eng.iso(x_cmp, y_cmp):
                out.append(
                    Move(
                        "duplicator-match",
                        GamePosition(pos.swapped, ch.target_mask, t, pos.pairs, None),
                    )
                )
    if eng.branching:
        for e in eng.singles(sr, pos.right):
            if es_r.silent_mask >> e & 1:
                out.append(
                    Move(
                        "duplicator-tau-step",
                        GamePosition(pos.swapped, pos.left, pos.right | 1 << e, pos.pairs, None),
                    )
                )
    return tuple(out)


def _induct(arena: Arena, demoted: frozenset[GamePosition]) -> Solution:
    deps = {p: {m.target for m in arena.moves[p]} for p in arena.positions}
    try:
        order = list(TopologicalSorter(deps).static_order())
    except CycleError as exc:  # pragma: no cover - arenas are DAGs by construction
        raise ArenaCycleError("cycle detected in game arena") from exc
    winner: dict[GamePosition, Role] = {}
    strategy: dict[GamePosition, Move] = {}
    for pos in order:
        if pos in demoted:
            winner[pos] = Role.SPOILER
            continue
        out = arena.moves[pos]
        if pos.owner is Role.SPOILER:
            if all(winner[m.target] is Role.DUPLICATOR for m in out):
                winner[pos] = Role.DUPLICATOR
            else:
                winner[pos] = Role.SPOILER
                strategy[pos] = next(m for m in out if winner[m.target] is Role.SPOILER)
        else:
            if any(winner[m.target] is Role.DUPLICATOR for m in out):
                winner[pos] = Role.DUPLICATOR
                strategy[pos] = next(m for m in out if winner[m.target] is Role.DUPLICATOR)
            else:
                winner[pos] = Role.SPOILER
    return Solution(winner, strategy, demoted)


def solve(arena: Arena) -> Solution:
    """Backward induction over the acyclic arena: a stuck player loses."""
    return _induct(arena, frozenset())


def solve_hereditary(arena: Arena) -> Solution:
    """Backward induction refined by hereditary closure: a Duplicator-won
    triple position whose matching has a synchronized shrinking with no
    Duplicator-won counterpart is demoted to a Spoiler-won sink, and the
    arena re-solved, until no demotion fires."""
    if not arena.kind.posetal:
        raise ValidationError("hereditary solving needs matching-carrying positions")
    eng = Engine(arena.es1, arena.es2, arena.kind, arena.strong_tau_erasure)
    solution = solve(arena)
    demoted: set[GamePosition] = set()
    spoiler_positions = [p for p in arena.positions if p.challenge is None]
    triples = {p: arena.underlying_triple(p) for p in spoiler_positions}
    while True:
        alive = {
            triples[p]
            for p in spoiler_positions
            if solution.winner[p] is Role.DUPLICATOR
        }
        newly = [
            p
            for p in spoiler_positions
            if solution.winner[p] is Role.DUPLICATOR
            and not hereditary_ok(eng, triples[p], alive)
        ]
        if not newly:
            return solution
        demoted.update(newly)
        solution = _induct(arena, frozenset(demoted))


@dataclass
class GameVerdict:
    """Game answer with the solved arena attached; the winner's canonical
    strategy serves as the checkable evidence."""

    kind: BisimulationKind
    arena: Arena
    solution: Solution

    @property
    def winner(self) -> Role:
        return self.solution.winner[self.arena.initial]

    @property
    def equivalent(self) -> bool:
        return self.winner is Role.DUPLICATOR

    def strategy_moves(self) -> list[tuple[GamePosition, Move]]:
        """The winner's chosen moves, in arena position order."""
        win = self.winner
        out = []
        for pos in self.arena.positions:
            if pos.owner is win and self.solution.winner.get(pos) is win:
                mv = self.solution.strategy.get(pos)
                if mv is not None:
                    out.append((pos, mv))
        return out


def game_check(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
    caps: Caps | None = None,
) -> GameVerdict:
    """Decide equivalence by building and solving the game arena."""
    arena = build_arena(es1, es2, kind, strong_tau_erasure=strong_tau_erasure, caps=caps)
    solution = solve_hereditary(arena) if kind.flavor is Flavor.HHP else solve(arena)
    return GameVerdict(kind, arena, solution)


ENDINGS = {
    "spoiler-stuck": "Spoiler stuck; Duplicator wins",
    "duplicator-stuck": "Duplicator stuck; Spoiler wins",
    "hereditary-closure-violation": "hereditary closure violated; Spoiler wins",
}
"""The rules that end a play, with the line announcing each."""


@dataclass(frozen=True)
class Turn:
    """What happens at one position of a play.  Either the play ends
    there (ending is a key of ENDINGS, winner the player who won), or its
    owner picks one of the legal moves: machine_move is the machine's
    pick, None when the owner is the external player."""

    legal: tuple[Move, ...] = ()
    machine_move: Move | None = None
    ending: str | None = None
    winner: Role | None = None


def play_turn(arena: Arena, solution: Solution, pos: GamePosition, as_role: Role) -> Turn:
    """The turn at pos in a play where the external player takes as_role
    and the machine answers with its canonical strategy move where it wins
    and its lowest-index move otherwise."""
    if pos.challenge is None and pos in solution.demoted:
        return Turn(ending="hereditary-closure-violation", winner=Role.SPOILER)
    legal = arena.moves[pos]
    owner = pos.owner
    if not legal:
        ending = "spoiler-stuck" if owner is Role.SPOILER else "duplicator-stuck"
        return Turn(ending=ending, winner=owner.other())
    if owner is as_role:
        return Turn(legal)
    return Turn(legal, solution.strategy.get(pos, legal[0]))


@dataclass(frozen=True)
class TranscriptStep:
    position: GamePosition
    actor: Role
    move: Move


@dataclass(frozen=True)
class Transcript:
    """A finished play: the moves taken, the final position, the winner
    and the rule that ended play (a key of ENDINGS)."""

    steps: tuple[TranscriptStep, ...]
    final: GamePosition
    winner: Role
    ending: str

    def render(self, arena: Arena) -> str:
        lines = [
            f"{step.actor.value}: {arena.describe_move(step.position, step.move)}"
            f"  [{step.move.rule}]"
            for step in self.steps
        ]
        lines.append(ENDINGS[self.ending])
        return "\n".join(lines)


def replay(
    arena: Arena,
    solution: Solution,
    as_role: Role,
    moves: Sequence[int],
) -> Transcript:
    """Play the external player's numbered moves for one role against the
    machine (see play_turn).  Raises IllegalMoveError on an out-of-range
    index or when the move list runs out mid-play."""
    pos = arena.initial
    steps: list[TranscriptStep] = []
    supplied = iter(moves)
    while (turn := play_turn(arena, solution, pos, as_role)).ending is None:
        mv = turn.machine_move
        if mv is None:
            k = next(supplied, None)
            if k is None:
                raise IllegalMoveError("move list exhausted before the play ended")
            if not 0 <= k < len(turn.legal):
                raise IllegalMoveError(
                    f"no move {k} at {arena.describe(pos)}: {len(turn.legal)} moves available"
                )
            mv = turn.legal[k]
        steps.append(TranscriptStep(pos, pos.owner, mv))
        pos = mv.target
    return Transcript(tuple(steps), pos, turn.winner, turn.ending)

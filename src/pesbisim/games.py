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
no move loses.  The arena numbers its positions as it finds them, and
the solver works on those ids alone, by retrograde counting (the
attractor construction): starting from the stuck positions, a decided
position decides each predecessor whose owner it favours, and counts
down the undecided successors of the others, which their owner loses
once none are left.  The hereditary flavors judge games started at
every matching, so their arenas seed a position per valid matching; the
solver then demotes Duplicator-won positions whose matching has a
synchronized shrinking with no Duplicator-won counterpart to
Spoiler-won sinks, and propagates only the Duplicator-to-Spoiler flips
each demotion causes, with the same counters, until no demotion fires.
Wins only ever move from Duplicator to Spoiler, so this gives what
solving again from scratch would.  A play reaching a demoted position
ends there; ``play_turn`` decides, for ``replay`` and the interactive
``play`` command alike, when a play ends, who wins and what the machine
plays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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
    """All positions reachable from the initial one, with their moves.

    index gives each position its id, 0 to n-1 in insertion order, and
    positions lists them by id.  succ[i] holds the ids of the targets of
    positions[i]'s moves, in move order; the solver walks the arena
    through these ids."""

    def __init__(
        self,
        es1: EventStructure,
        es2: EventStructure,
        kind: BisimulationKind,
        strong_tau_erasure: bool,
        index: dict[GamePosition, int],
        moves: dict[GamePosition, tuple[Move, ...]],
        succ: Sequence[Sequence[int]],
    ):
        self.es1 = es1
        self.es2 = es2
        self.kind = kind
        self.strong_tau_erasure = strong_tau_erasure
        self.index = index
        self.positions = tuple(index)
        self.moves = moves
        self.succ = succ

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
    """Solved arena: winner per position, the winner's canonical move
    (lowest-index winning move) where they win, and the positions
    demoted by hereditary pruning.  Both dicts list positions in arena
    order."""

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
    seeds = [GamePosition(False, 0, 0, () if kind.posetal else None, None)]
    # The hereditary flavors judge games started at every matching, not just
    # those reachable from the empty one, so each valid triple is a position.
    # triple_universe enforces the positions cap on these.
    if kind.flavor is Flavor.HHP:
        seeds += [GamePosition(False, m1, m2, prs, None) for m1, prs, m2 in triple_universe(eng)]
    index = {pos: i for i, pos in enumerate(dict.fromkeys(seeds))}
    order = list(index)
    moves: dict[GamePosition, tuple[Move, ...]] = {}
    succ: list[tuple[int, ...]] = []
    limit = eng.caps.max_positions
    # order is the queue: the loop also visits the positions appended to it
    for pos in order:
        out = (
            _duplicator_moves(eng, pos) if pos.challenge is not None else _spoiler_moves(eng, pos)
        )
        moves[pos] = out
        ids = []
        for mv in out:
            i = index.get(mv.target)
            if i is None:
                i = len(order)
                if i >= limit:
                    raise CapExceededError("positions", limit, i + 1)
                index[mv.target] = i
                order.append(mv.target)
            ids.append(i)
        succ.append(tuple(ids))
    return Arena(es1, es2, kind, strong_tau_erasure, index, moves, succ)


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


def _retrograde(arena: Arena) -> tuple[list[Role], list[Role], list[int], list[list[int]]]:
    """Retrograde counting over the acyclic arena, by position id.

    Returns the owner and the winner of each position, the predecessor
    ids of each, and for each the number of its successors not won
    against its owner.  That count is what the owner still has to play
    for: while it stays above 0 an undecided position may yet be won by
    its owner, and once everything is decided it is, for a Duplicator
    position, the number of its Duplicator-won successors."""
    succ = arena.succ
    spoiler, duplicator = Role.SPOILER, Role.DUPLICATOR
    owner = [spoiler if p.challenge is None else duplicator for p in arena.positions]
    pred: list[list[int]] = [[] for _ in succ]
    for i, out in enumerate(succ):
        for j in out:
            pred[j].append(i)
    count = [len(out) for out in succ]
    win: list[Role | None] = [None] * len(succ)
    # a stuck player loses
    queue = [i for i, c in enumerate(count) if not c]
    for i in queue:
        win[i] = spoiler if owner[i] is duplicator else duplicator
    while queue:
        j = queue.pop()
        w = win[j]
        for i in pred[j]:
            if owner[i] is not w:
                count[i] -= 1
                if count[i]:
                    continue
            if win[i] is None:
                win[i] = w
                queue.append(i)
    if None in win:
        raise ArenaCycleError("cycle detected in game arena")
    return owner, win, count, pred


def _solution(arena: Arena, owner: list[Role], win: list[Role], demoted: list[int]) -> Solution:
    """The Solution for the winner of each position id: each position won
    by its owner, unless demoted, gets its lowest-index winning move."""
    positions, succ = arena.positions, arena.succ
    skip = set(demoted)
    strategy: dict[GamePosition, Move] = {}
    for i, pos in enumerate(positions):
        w = win[i]
        if w is owner[i] and i not in skip:
            k = next(k for k, j in enumerate(succ[i]) if win[j] is w)
            strategy[pos] = arena.moves[pos][k]
    return Solution(
        dict(zip(positions, win)), strategy, frozenset(positions[i] for i in demoted)
    )


def solve(arena: Arena) -> Solution:
    """Retrograde counting over the acyclic arena: a stuck player loses."""
    owner, win, _, _ = _retrograde(arena)
    return _solution(arena, owner, win, [])


def solve_hereditary(arena: Arena) -> Solution:
    """Retrograde counting refined by hereditary closure: a
    Duplicator-won triple position whose matching has a synchronized
    shrinking with no Duplicator-won counterpart is demoted to a
    Spoiler-won sink, and the flips this causes are propagated to its
    predecessors, until no demotion fires."""
    if not arena.kind.posetal:
        raise ValidationError("hereditary solving needs matching-carrying positions")
    eng = Engine(arena.es1, arena.es2, arena.kind, arena.strong_tau_erasure)
    owner, win, count, pred = _retrograde(arena)
    spoiler, duplicator = Role.SPOILER, Role.DUPLICATOR
    triples = {
        i: arena.underlying_triple(p) for i, p in enumerate(arena.positions) if p.challenge is None
    }
    won = [i for i in triples if win[i] is duplicator]
    demoted: list[int] = []
    while True:
        alive = {triples[i] for i in won}
        # both orientations of a matching share its triple: check it once
        broken = {t for t in alive if not hereditary_ok(eng, t, alive)}
        if not broken:
            return _solution(arena, owner, win, demoted)
        newly = [i for i in won if triples[i] in broken]
        demoted += newly
        # Only Duplicator wins can flip, each once: a Spoiler position on
        # its first Spoiler-won successor, a Duplicator position when its
        # count of Duplicator-won successors reaches 0.
        queue = list(newly)
        for i in newly:
            win[i] = spoiler
        while queue:
            j = queue.pop()
            for i in pred[j]:
                if win[i] is not duplicator:
                    continue
                if owner[i] is duplicator:
                    count[i] -= 1
                    if count[i]:
                        continue
                win[i] = spoiler
                queue.append(i)
        won = [i for i in won if win[i] is duplicator]


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
        return [(pos, mv) for pos, mv in self.solution.strategy.items() if pos.owner is win]


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

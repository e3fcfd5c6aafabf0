"""Spoiler/Duplicator games deciding the eight bisimilarities.

Positions carry an oriented pair of configurations (plus a matching for
the history-preserving flavors) and, on Duplicator's turns, the pending
challenge.  Spoiler challenges a transition of either side; challenging
the right side swaps the orientation so the challenged configuration is
always first.  Duplicator answers a challenge by matching it with an
isomorphic transition, which for hp and hhp must extend the matching;
in branching mode it may instead absorb an
all-silent challenge, defer by one silent step of the answering side
(dropping the challenge), or, for a termination challenge, move the
answering side through silent events to a terminating configuration.
Configurations only ever grow, so arenas are finite DAGs; a player with
no move loses.  The builder explores positions as plain tuple keys and
reads Spoiler's challenges and Duplicator's matches from the oracle's
``Engine.challenges`` and ``Engine.answers``.  The arena numbers its
positions as it finds them, and the solver works on those ids alone,
by retrograde counting (the
attractor construction): starting from the stuck positions, a decided
position decides each predecessor whose owner it favours, and counts
down the undecided successors of the others, which their owner loses
once none are left.  The hereditary flavors judge games started at
every matching, so their arenas seed a position per valid matching; the
solver then demotes Duplicator-won positions whose matching has a
synchronized shrinking with no Duplicator-won counterpart to
Spoiler-won sinks, and propagates only the Duplicator-to-Spoiler flips
each demotion causes, with the same counters and the same attractor
step, until no demotion fires.
Wins only ever move from Duplicator to Spoiler, so this gives what
solving again from scratch would.  A play reaching a demoted position
ends there; ``play_turn`` decides, for ``replay`` and the interactive
``play`` command alike, when a play ends, who wins and what the machine
plays.  The ``GamePosition`` and ``Move`` objects that plays and
strategies are told in are views of the keys and ids, built on first
access; the DOT export reads the ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

from .errors import ArenaCycleError, CapExceededError, IllegalMoveError, ValidationError
from .kinds import BisimulationKind, Flavor
from .oracle import Engine, hereditary_ok, triple_universe
from .pes import EventStructure
from .pomsets import Pairs


Key = tuple  # a position as the fields of GamePosition; see Arena


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

    Position i, numbered in insertion order from 0, is keys[i], a plain
    tuple (swapped, left, right, pairs, challenge) whose challenge is None
    or (kind, x_mask, target_mask).  succ[i] holds the ids of the targets
    of its moves and rules[i] the moves' rule names, in move order; the
    builder, the solver and the DOT export work on these alone.  The
    object views, positions (a GamePosition per id) and moves (each
    position's Move tuple), are built on first access."""

    def __init__(
        self,
        engine: Engine,
        keys: Sequence[Key],
        rules: Sequence[Sequence[str]],
        succ: Sequence[Sequence[int]],
    ):
        self.engine = engine
        self.es1 = engine.es1
        self.es2 = engine.es2
        self.kind = engine.kind
        self.strong_tau_erasure = engine.strong_tau_erasure
        self.keys = keys
        self.rules = rules
        self.succ = succ

    @cached_property
    def positions(self) -> tuple[GamePosition, ...]:
        return tuple(
            GamePosition(sw, left, right, pairs, ch if ch is None else Challenge(*ch))
            for sw, left, right, pairs, ch in self.keys
        )

    @cached_property
    def moves(self) -> dict[GamePosition, tuple[Move, ...]]:
        positions = self.positions
        return {
            pos: tuple(Move(rule, positions[j]) for rule, j in zip(rules, out))
            for pos, rules, out in zip(positions, self.rules, self.succ)
        }

    @property
    def initial(self) -> GamePosition:
        return self.positions[0]

    def sides(self, pos: GamePosition) -> tuple[EventStructure, EventStructure]:
        return (self.es2, self.es1) if pos.swapped else (self.es1, self.es2)

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
class GameVerdict:
    """The solved game: win[i] is the winner of position i of the arena,
    and demoted_ids the positions demoted by hereditary pruning.  The
    winner of the initial position decides, and the winner's canonical
    strategy serves as the checkable evidence.  The object views, strategy
    (the canonical move, lowest-index winning move, of each position won
    by its owner and not demoted, in arena order) and demoted, are built
    on first access."""

    arena: Arena
    win: Sequence[Role]
    demoted_ids: Sequence[int] = ()

    @property
    def winner(self) -> Role:
        return self.win[0]

    @property
    def equivalent(self) -> bool:
        return self.winner is Role.DUPLICATOR

    def strategy_ids(self) -> list[int]:
        """Ids of the positions where the strategy picks a move, in arena
        order: those won by their owner and not demoted."""
        skip = set(self.demoted_ids)
        spoiler = Role.SPOILER
        return [
            i
            for i, (key, w) in enumerate(zip(self.arena.keys, self.win))
            if (key[4] is None) == (w is spoiler) and i not in skip
        ]

    @cached_property
    def strategy(self) -> dict[GamePosition, Move]:
        arena, win = self.arena, self.win
        positions, rules, succ = arena.positions, arena.rules, arena.succ
        out = {}
        for i in self.strategy_ids():
            k = next(k for k, j in enumerate(succ[i]) if win[j] is win[i])
            out[positions[i]] = Move(rules[i][k], positions[succ[i][k]])
        return out

    @cached_property
    def demoted(self) -> frozenset[GamePosition]:
        return frozenset(self.arena.positions[i] for i in self.demoted_ids)

    def strategy_size(self) -> int:
        """The number of the winner's chosen moves, len(strategy_moves()),
        counted without building position objects."""
        win = self.win
        return sum(1 for i in self.strategy_ids() if win[i] is win[0])

    def strategy_moves(self) -> list[tuple[GamePosition, Move]]:
        """The winner's chosen moves, in arena position order."""
        win = self.winner
        return [(pos, mv) for pos, mv in self.strategy.items() if pos.owner is win]


_TERMINATION = ("termination", 0, 0)


def build_arena(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
) -> Arena:
    """Breadth-first arena construction from the empty-configurations
    position, with deterministic move order."""
    eng = Engine(es1, es2, kind, strong_tau_erasure)
    keys: list[Key] = [(False, 0, 0, () if kind.posetal else None, None)]
    # The hereditary flavors judge games started at every matching, not just
    # those reachable from the empty one, so each valid triple is a position.
    # triple_universe enforces the positions cap on these.
    if kind.flavor is Flavor.HHP:
        keys += [(False, m1, m2, prs, None) for m1, prs, m2 in triple_universe(eng)]
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    keys = list(index)
    rules: list[tuple[str, ...]] = []
    succ: list[tuple[int, ...]] = []
    moves = _game_moves(eng)
    limit = eng.caps.max_positions
    # keys is the queue: the loop also visits the positions appended to it
    for key in keys:
        names = []
        ids = []
        for rule, target in moves(key):
            i = index.get(target)
            if i is None:
                i = len(keys)
                if i >= limit:
                    raise CapExceededError("positions", limit, i + 1)
                index[target] = i
                keys.append(target)
            names.append(rule)
            ids.append(i)
        rules.append(tuple(names))
        succ.append(tuple(ids))
    return Arena(eng, keys, rules, succ)


def _game_moves(eng: Engine) -> Callable[[Key], list[tuple[str, Key]]]:
    """The game's moves from a position key, as (rule, target key) in move
    order.  Spoiler's challenges and Duplicator's matches are the
    engine's challenges and answers."""
    branching, es = eng.branching, eng.es
    challenges, answers = eng.challenges, eng.answers

    def moves(key: Key) -> list[tuple[str, Key]]:
        sw, left, right, pairs, ch = key
        sl, sr = (2, 1) if sw else (1, 2)
        es_l, es_r = es[sl], es[sr]
        if ch is None:
            out = [
                ("spoiler-challenge-left", (sw, left, right, pairs, ("transition", x, t)))
                for x, t in challenges(sl, left)
            ]
            out += [
                ("spoiler-challenge-right", (not sw, right, left, pairs, ("transition", y, t)))
                for y, t in challenges(sr, right)
            ]
            if branching and (ends := es_l.terminates_mask(left)) != es_r.terminates_mask(right):
                # the side that terminates alone is challenged, as the left one
                turned = (sw, left, right) if ends else (not sw, right, left)
                out.append(("spoiler-termination-challenge", (*turned, pairs, _TERMINATION)))
            return out
        challenge, x, target = ch
        if challenge == "termination":
            return [
                ("duplicator-match", (sw, left, m0, pairs, None))
                for m0 in es_r.tau_reachable_masks(right)
                if m0 != right and es_r.terminates_mask(m0)
            ]
        out = []
        if branching and not x & ~es_l.silent_mask:
            out.append(("duplicator-absorb-tau", (sw, target, right, pairs, None)))
        out += [
            ("duplicator-match", (sw, target, t, p, None)) for t, p in answers(sl, x, pairs, right)
        ]
        if branching:
            out += [
                ("duplicator-tau-step", (sw, left, right | 1 << e, pairs, None))
                for e in es_r.enabled(right)
                if es_r.silent_mask >> e & 1
            ]
        return out

    return moves


def _retrograde(arena: Arena) -> tuple[list[Role], Callable[[list[int], Role | None], None]]:
    """Retrograde counting over the acyclic arena, by position id.

    Returns the winner of each position and the attractor step that
    decided them, attract(queue, still_open).  It propagates the winners
    of the positions in queue to their predecessors, and on from there: a
    predecessor whose winner is still_open (None while solving, Duplicator
    while demoting) goes to its owner on a successor its owner won, and to
    the other player once none of its successors is left that is not won
    against its owner.  That count of successors, kept per position, is
    what the owner still has to play for; once everything is decided it
    is, for a Duplicator position, the number of its Duplicator-won
    successors."""
    succ = arena.succ
    spoiler, duplicator = Role.SPOILER, Role.DUPLICATOR
    owner = [spoiler if key[4] is None else duplicator for key in arena.keys]
    pred: list[list[int]] = [[] for _ in succ]
    for i, out in enumerate(succ):
        for j in out:
            pred[j].append(i)
    count = [len(out) for out in succ]
    win: list[Role | None] = [None] * len(succ)

    def attract(queue: list[int], still_open: Role | None) -> None:
        while queue:
            j = queue.pop()
            w = win[j]
            for i in pred[j]:
                if owner[i] is not w:
                    count[i] -= 1
                    if count[i]:
                        continue
                if win[i] is still_open:
                    win[i] = w
                    queue.append(i)

    # a stuck player loses
    stuck = [i for i, c in enumerate(count) if not c]
    for i in stuck:
        win[i] = spoiler if owner[i] is duplicator else duplicator
    attract(stuck, None)
    if None in win:
        raise ArenaCycleError("cycle detected in game arena")
    return win, attract


def solve(arena: Arena) -> GameVerdict:
    """Retrograde counting over the acyclic arena: a stuck player loses."""
    win, _ = _retrograde(arena)
    return GameVerdict(arena, win)


def solve_hereditary(arena: Arena) -> GameVerdict:
    """Retrograde counting refined by hereditary closure: a
    Duplicator-won triple position whose matching has a synchronized
    shrinking with no Duplicator-won counterpart is demoted to a
    Spoiler-won sink, and the flips this causes are propagated to its
    predecessors, until no demotion fires."""
    if not arena.kind.posetal:
        raise ValidationError("hereditary solving needs matching-carrying positions")
    eng = arena.engine
    win, attract = _retrograde(arena)
    duplicator = Role.DUPLICATOR
    triples = {
        i: (right, pairs, left) if sw else (left, pairs, right)
        for i, (sw, left, right, pairs, ch) in enumerate(arena.keys)
        if ch is None
    }
    won = [i for i in triples if win[i] is duplicator]
    demoted: list[int] = []
    while True:
        alive = {triples[i] for i in won}
        # both orientations of a matching share its triple: check it once
        broken = {t for t in alive if not hereditary_ok(eng, t, alive)}
        if not broken:
            return GameVerdict(arena, win, demoted)
        newly = [i for i in won if triples[i] in broken]
        demoted += newly
        # Only Duplicator wins can flip, each once, so a Duplicator
        # position's count stays its number of Duplicator-won successors.
        for i in newly:
            win[i] = Role.SPOILER
        attract(newly, duplicator)
        won = [i for i in won if win[i] is duplicator]


def game_check(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
) -> GameVerdict:
    """Decide equivalence by building and solving the game arena."""
    arena = build_arena(es1, es2, kind, strong_tau_erasure=strong_tau_erasure)
    return solve_hereditary(arena) if kind.flavor is Flavor.HHP else solve(arena)


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


def play_turn(verdict: GameVerdict, pos: GamePosition, as_role: Role) -> Turn:
    """The turn at pos in a play where the external player takes as_role
    and the machine answers with its canonical strategy move where it wins
    and its lowest-index move otherwise."""
    if pos.challenge is None and pos in verdict.demoted:
        return Turn(ending="hereditary-closure-violation", winner=Role.SPOILER)
    legal = verdict.arena.moves[pos]
    owner = pos.owner
    if not legal:
        ending = "spoiler-stuck" if owner is Role.SPOILER else "duplicator-stuck"
        return Turn(ending=ending, winner=owner.other())
    if owner is as_role:
        return Turn(legal)
    return Turn(legal, verdict.strategy.get(pos, legal[0]))


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


def replay(verdict: GameVerdict, as_role: Role, moves: Sequence[int]) -> Transcript:
    """Play the external player's numbered moves for one role against the
    machine (see play_turn).  Raises IllegalMoveError on an out-of-range
    index or when the move list runs out mid-play."""
    arena = verdict.arena
    pos = arena.initial
    steps: list[TranscriptStep] = []
    supplied = iter(moves)
    while (turn := play_turn(verdict, pos, as_role)).ending is None:
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

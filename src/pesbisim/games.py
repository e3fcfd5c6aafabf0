"""Spoiler/Duplicator games deciding the eight bisimilarities.

Positions carry an oriented pair of configurations (plus a matching for
the history-preserving flavors) and, on Duplicator's turns, the pending
challenge: the mask of the events Spoiler added, or 0 for termination.
Spoiler challenges a transition of either side; challenging the right
side swaps the orientation so the challenged configuration is always
first.  Duplicator answers a challenge by matching it with an
isomorphic transition, which for hp and hhp must extend the matching;
in branching mode it may instead absorb an all-silent challenge, defer
by one silent step of the answering side (dropping the challenge), or,
for a termination challenge, move the answering side through silent
events to a terminating configuration.  Configurations only ever grow,
so arenas are finite DAGs; a player with no move loses.  The builder
explores positions as plain tuple keys, reads Spoiler's challenges and
Duplicator's matches from the oracle's ``Engine.challenges`` and
``Engine.answers``, and works out each row of moves once: a Spoiler
position and its mirror, the same pair the other way round, share one
row with the two challenge groups swapped, and pomset and step
Duplicator positions that agree on the left target, the right
configuration and the challenge's isomorphism class share their absorb
and match moves.  The arena numbers its positions as it finds them, and
the solver works on those ids alone, by backward induction in one
sweep: every move adds a challenge or an event, so taking positions by
descending configuration size, challenged ones first, decides every
successor before its predecessors.  The hereditary flavors judge games
started at every matching, so their arenas seed a position per valid
matching; the solver then demotes Duplicator-won positions whose
matching has a synchronized shrinking with no Duplicator-won
counterpart to Spoiler-won sinks, and sweeps again with the demoted
positions preset, until no demotion fires.  A play reaching a demoted
position ends there; ``play_turn`` decides, for ``replay`` and the
interactive ``play`` command alike, when a play ends, who wins and what
the machine plays: ``GameVerdict.canonical_move``, which the strategy
takes too.  Positions are keys, a move is its target's id, its rule read
off the keys of its two endpoints, plays and strategies are told in
position ids and move indices, and no object form of any of them exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import ArenaCycleError, CapExceededError, IllegalMoveError, ValidationError
from .kinds import BisimulationKind, Flavor
from .oracle import Engine, triple_universe, unclosed
from .pes import EventStructure
from .pomsets import Pairs


Key = tuple[bool, int, int, Pairs | None, int | None]
"""A position as (swapped, left, right, pairs, challenge): configuration
masks left and right, swapped when left is the second structure's, the
sorted (first, second) index pairs of the matching for hp/hhp or None,
and challenge None on Spoiler's turns, else on Duplicator's the mask of
the events Spoiler's transition added to left, or 0 when Spoiler
challenged the left side's termination (a transition adds at least one
event).  Ownership is read from challenge is None, never from its truth."""


class Role(Enum):
    SPOILER = "spoiler"
    DUPLICATOR = "duplicator"

    def other(self) -> Role:
        return Role.DUPLICATOR if self is Role.SPOILER else Role.SPOILER


class Arena:
    """All positions reachable from the initial one, with their moves.

    Position i, numbered in insertion order from 0, has the Key keys[i],
    and succ[i] holds the ids of the targets of its moves, in move order.
    A move's rule is read off its two keys by rule.  positions and moves
    alias keys and succ for perfbench's tracer."""

    def __init__(self, engine: Engine, keys: Sequence[Key], succ: Sequence[Sequence[int]]):
        self.engine = engine
        self.es1 = engine.es1
        self.es2 = engine.es2
        self.kind = engine.kind
        self.keys = keys
        self.succ = succ

    @property
    def positions(self) -> Sequence[Key]:
        # perfbench's tracer is the only reader
        return self.keys

    @property
    def moves(self) -> dict[int, Sequence[int]]:
        # perfbench's tracer is the only reader
        return dict(enumerate(self.succ))

    def sides(self, swapped: bool) -> tuple[EventStructure, EventStructure]:
        return (self.es2, self.es1) if swapped else (self.es1, self.es2)

    def describe(self, key: Key) -> str:
        """The position with this key as text."""
        sw, left, right, pairs, ch = key
        es_l, es_r = self.sides(sw)
        body = f"({es_l.format_mask(left)}, {es_r.format_mask(right)})"
        if pairs is not None:
            names1, names2 = self.es1.events, self.es2.events
            inner = ",".join(f"{names1[i]}->{names2[j]}" for i, j in pairs)
            body += f" match {{{inner}}}"
        if sw:
            body += " [sides swapped]"
        if ch is None:
            return f"[{body}]"
        if ch == 0:
            return f"<{body} ? left side terminated>"
        return f"<{body} ? X={es_l.format_mask(ch)}>"

    @staticmethod
    def rule(source: Key, target: Key) -> str:
        """The rule name of the move from source to target (keys).  A
        transition adds at least one event, so the cases never overlap."""
        sw, left, right, _, ch = source
        t_sw, t_left, t_right, _, t_ch = target
        if ch is None:
            if t_ch == 0:
                return "spoiler-termination-challenge"
            return "spoiler-challenge-left" if t_sw == sw else "spoiler-challenge-right"
        if ch == 0:  # a termination answer moves the right side alone
            return "duplicator-match"
        if t_right == right:
            return "duplicator-absorb-tau"
        return "duplicator-tau-step" if t_left == left else "duplicator-match"

    def describe_move(self, source: Key, target: Key) -> str:
        """The move from source to target (keys) as text."""
        sw, _, right, _, ch = source
        t_sw, _, t_right, _, t_ch = target
        es_l, es_r = self.sides(sw)
        rule = self.rule(source, target)
        if rule == "spoiler-challenge-left":
            return f"challenge left X={es_l.format_mask(t_ch)}"
        if rule == "spoiler-challenge-right":
            return f"challenge right X={es_r.format_mask(t_ch)}"
        if rule == "spoiler-termination-challenge":
            side = "left" if t_sw == sw else "right"
            return f"challenge termination of the {side} side"
        if rule == "duplicator-absorb-tau":
            return "absorb the silent challenge"
        if rule == "duplicator-tau-step":
            return f"silent step {es_r.format_mask(t_right & ~right)}, dropping the challenge"
        if ch == 0:
            return f"reach terminating {es_r.format_mask(t_right)} by silent moves"
        return f"answer with Y={es_r.format_mask(t_right & ~right)}"


@dataclass
class GameVerdict:
    """The solved game: win[i] is the winner of position i of the arena,
    and demoted_ids the set of positions demoted by hereditary pruning.
    The winner of position 0 decides, and its canonical strategy, read by
    strategy_moves, is the checkable evidence.  demoted aliases
    demoted_ids for perfbench's tracer."""

    arena: Arena
    win: Sequence[Role]
    demoted_ids: frozenset[int] = frozenset()

    @property
    def winner(self) -> Role:
        return self.win[0]

    @property
    def equivalent(self) -> bool:
        return self.winner is Role.DUPLICATOR

    @property
    def demoted(self) -> frozenset[int]:
        # perfbench's tracer is the only reader
        return self.demoted_ids

    def canonical_move(self, i: int) -> int | None:
        """The index of position i's first move to a position won by i's
        winner: the owner's first winning move where it won i, else move 0.
        None when i has no move; demoted positions end plays instead."""
        win = self.win
        w = win[i]
        for k, j in enumerate(self.arena.succ[i]):
            if win[j] is w:
                return k
        return None

    def _strategy_ids(self) -> list[int]:
        """Ids of the positions the winner owns and won, not demoted, in arena order."""
        skip = self.demoted_ids
        winner = self.win[0]
        challenged = winner is Role.DUPLICATOR
        return [
            i
            for i, (key, w) in enumerate(zip(self.arena.keys, self.win))
            if w is winner and (key[4] is not None) is challenged and i not in skip
        ]

    def strategy_size(self) -> int:
        """len(strategy_moves()), counted without searching for the moves."""
        return len(self._strategy_ids())

    def strategy_moves(self) -> list[tuple[int, int]]:
        """The winner's canonical moves as (position id, move index), in arena order."""
        move = self.canonical_move
        return [(i, move(i)) for i in self._strategy_ids()]


def build_arena(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
) -> Arena:
    """Breadth-first arena construction from the empty-configurations
    position, with deterministic move order.  A Spoiler row is its
    mirror's with the two challenge groups swapped when the mirror came
    first, and pomset and step Duplicator rows share their absorb and
    match moves through a table keyed by orientation, left target, right
    configuration and challenge class, each adding its own silent steps."""
    eng = Engine(es1, es2, kind, strong_tau_erasure)
    es1.configurations(), es2.configurations()  # the configurations cap applies
    branching, es, iso_answers = eng.branching, eng.es, eng.iso_answers
    challenges, answers, iso_class = eng.challenges, eng.answers, eng.iso_class
    keys: list[Key] = [(False, 0, 0, () if kind.posetal else None, None)]
    # The hereditary flavors judge games started at every matching, not just
    # those reachable from the empty one, so each valid triple is a position.
    # triple_universe enforces the positions cap on these.
    if kind.flavor is Flavor.HHP:
        keys += [(False, m1, m2, prs, None) for m1, prs, m2 in triple_universe(eng)]
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    keys = list(index)
    succ: list[tuple[int, ...]] = []
    matched: dict[tuple[bool, int, int, int], tuple[int, ...]] = {}
    limit = eng.caps.max_positions

    def number(targets: list[Key]) -> tuple[int, ...]:
        """The ids of the targets, numbering each new one."""
        ids = []
        for target in targets:
            i = index.get(target)
            if i is None:
                i = len(keys)
                if i >= limit:
                    raise CapExceededError("positions", limit, i + 1)
                index[target] = i
                keys.append(target)
            ids.append(i)
        return tuple(ids)

    # keys is the queue: the loop also visits the positions appended to it
    for i, (sw, left, right, pairs, ch) in enumerate(keys):
        sl, sr = (2, 1) if sw else (1, 2)
        es_l, es_r = es[sl], es[sr]
        if ch is None:
            m = index.get((not sw, right, left, pairs, None), i)
            lefts, rights = challenges(sl, left), challenges(sr, right)
            if m < i:
                # the mirror's row took the right side's challenges first
                out, k, n = succ[m], len(rights), len(rights) + len(lefts)
                succ.append(out[k:n] + out[:k] + out[n:])
                continue
            targets = [(sw, left, right, pairs, x) for x, _ in lefts]
            targets += [(not sw, right, left, pairs, y) for y, _ in rights]
            if branching and (ends := es_l.terminates_mask(left)) != es_r.terminates_mask(right):
                # the side that terminates alone is challenged, as the left one
                turned = (sw, left, right) if ends else (not sw, right, left)
                targets.append((*turned, pairs, 0))
            succ.append(number(targets))
            continue
        if ch == 0:  # the termination challenge
            targets = [
                (sw, left, m0, pairs, None)
                for m0 in es_r.tau_reachable_masks(right)
                if m0 != right and es_r.terminates_mask(m0)
            ]
            succ.append(number(targets))
            continue
        target = left | ch
        # hp and hhp answers extend the pairs, so only pomset and step rows are shared
        shared = None if pairs is not None else (sw, target, right, iso_class(sl, ch))
        out = matched.get(shared)
        if out is None:
            absorb = branching and not ch & ~es_l.silent_mask
            targets = [(sw, target, right, pairs, None)] if absorb else []
            replies = iso_answers(sr, shared[3], right) if shared else answers(sl, ch, pairs, right)
            targets += [(sw, target, t, p, None) for t, p in replies]
            out = number(targets)
            if shared is not None:
                matched[shared] = out
        if branching and (silent := es_r.silent_mask & ~right):
            steps = [right | 1 << e for e in es_r.enabled(right) if silent >> e & 1]
            out += number([(sw, left, r, pairs, None) for r in steps])
        succ.append(out)
    return Arena(eng, keys, succ)


def _sweep(arena: Arena, demoted: Iterable[int] = ()) -> list[Role]:
    """Backward induction in one sweep over the arena, by position id, with
    the demoted positions preset as Spoiler-won sinks.  Every move adds a
    challenge or an event, and every Duplicator move also drops the
    challenge, so 2 * |configurations| + (1 if challenged) grows along
    each move, and taking positions by that rank, largest first, reaches
    every successor before its predecessors.  A position goes to its owner
    if some successor was won by its owner, else to the other player, so a
    player with no move loses."""
    keys, succ = arena.keys, arena.succ
    spoiler, duplicator = Role.SPOILER, Role.DUPLICATOR
    win: list[Role | None] = [None] * len(keys)
    for i in demoted:
        win[i] = spoiler
    rank = [
        2 * (left.bit_count() + right.bit_count()) + (ch is not None)
        for _, left, right, _, ch in keys
    ]
    for i in sorted(range(len(keys)), key=rank.__getitem__, reverse=True):
        if win[i] is None:
            results = [win[j] for j in succ[i]]
            if None in results:
                raise ArenaCycleError("a move leads to a position the sweep has not decided")
            owner = spoiler if keys[i][4] is None else duplicator
            win[i] = owner if owner in results else owner.other()
    return win


def solve(arena: Arena) -> GameVerdict:
    """Backward induction over the acyclic arena: a stuck player loses."""
    return GameVerdict(arena, _sweep(arena))


def solve_hereditary(arena: Arena) -> GameVerdict:
    """Backward induction refined by hereditary closure: a Duplicator-won
    triple position whose matching has a synchronized shrinking with no
    Duplicator-won counterpart is demoted to a Spoiler-won sink, and the
    arena is swept again with every demoted position preset, until no
    demotion fires."""
    if not arena.kind.posetal:
        raise ValidationError("hereditary solving needs matching-carrying positions")
    eng = arena.engine
    triples = {
        i: (right, pairs, left) if sw else (left, pairs, right)
        for i, (sw, left, right, pairs, ch) in enumerate(arena.keys)
        if ch is None
    }
    demoted: list[int] = []
    while True:
        win = _sweep(arena, demoted)
        won = [i for i in triples if win[i] is Role.DUPLICATOR]
        alive = {triples[i] for i in won}
        # both orientations of a matching share its triple: check it once
        broken = unclosed(eng, alive, alive)
        if not broken:
            return GameVerdict(arena, win, frozenset(demoted))
        demoted += [i for i in won if triples[i] in broken]


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
    owner picks one of its legal moves, numbered from 0: machine_move is
    the machine's pick, the canonical move, and None when the owner is the
    external player."""

    legal: int = 0
    machine_move: int | None = None
    ending: str | None = None
    winner: Role | None = None


def play_turn(verdict: GameVerdict, i: int, as_role: Role) -> Turn:
    """The turn at position i in a play where the external player takes
    as_role and the machine takes the other role."""
    if i in verdict.demoted_ids:
        return Turn(ending="hereditary-closure-violation", winner=Role.SPOILER)
    legal = len(verdict.arena.succ[i])
    owner = Role.SPOILER if verdict.arena.keys[i][4] is None else Role.DUPLICATOR
    if not legal:
        return Turn(ending=f"{owner.value}-stuck", winner=owner.other())
    if owner is as_role:
        return Turn(legal)
    return Turn(legal, verdict.canonical_move(i))


@dataclass(frozen=True)
class Transcript:
    """A finished play: the moves taken as (position id, actor, move
    index), the final position's id, the winner and the rule that ended
    play (a key of ENDINGS)."""

    steps: tuple[tuple[int, Role, int], ...]
    final: int
    winner: Role
    ending: str

    def render(self, arena: Arena) -> str:
        keys, succ = arena.keys, arena.succ
        lines = []
        for i, actor, k in self.steps:
            source, target = keys[i], keys[succ[i][k]]
            lines.append(
                f"{actor.value}: {arena.describe_move(source, target)}"
                f"  [{arena.rule(source, target)}]"
            )
        lines.append(ENDINGS[self.ending])
        return "\n".join(lines)


def replay(verdict: GameVerdict, as_role: Role, moves: Sequence[int]) -> Transcript:
    """Play the external player's numbered moves for one role against the
    machine (see play_turn), from position 0.  Raises IllegalMoveError on
    an out-of-range index or when the move list runs out mid-play."""
    arena = verdict.arena
    i = 0
    steps: list[tuple[int, Role, int]] = []
    supplied = iter(moves)
    while (turn := play_turn(verdict, i, as_role)).ending is None:
        k, actor = turn.machine_move, as_role.other()
        if k is None:
            k, actor = next(supplied, None), as_role
            if k is None:
                raise IllegalMoveError("move list exhausted before the play ended")
            if not 0 <= k < turn.legal:
                raise IllegalMoveError(
                    f"no move {k} at {arena.describe(arena.keys[i])}: {turn.legal} moves available"
                )
        steps.append((i, actor, k))
        i = arena.succ[i][k]
    return Transcript(tuple(steps), i, turn.winner, turn.ending)

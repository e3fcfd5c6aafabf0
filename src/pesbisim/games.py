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
so arenas are finite DAGs; a player with no move loses.  The hereditary
flavors judge games started at every matching, so a position is seeded
per valid matching, and Duplicator-won positions whose matching has a
synchronized shrinking with no Duplicator-won counterpart are demoted to
Spoiler-won sinks, round after round, until no demotion fires.

Positions are plain tuple keys, whose moves ``_rows`` reads from the
oracle's ``Engine``.  ``build_arena`` numbers the positions as it finds
them, and the solver sweeps them by backward induction, largest
configurations first.  ``decide``, which ``check`` runs unless a witness
is asked for, finds the same winner and strategy size on Spoiler
positions alone: a position and its mirror (the same pair the other way
round) are one node, and each Duplicator position is a row of the nodes
its moves lead to.  ``play_turn`` decides, for the ``play`` command, when
a play ends (a demoted position ends it), who wins and what the machine
plays, the canonical move.  A move is its target's id, its rule read off
the keys of its two endpoints; plays and strategies are told in position
ids and move indices, and no object form of any of them exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice, takewhile
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ArenaCycleError, CapExceededError, ValidationError
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


def _rows(eng: Engine, number: Callable[[list[Key]], tuple[int, ...]]):
    """challenge lists the Duplicator keys of a Spoiler position's moves, left
    side first; answer numbers the Spoiler keys of each Duplicator key's
    moves.  Pomset and step rows that agree on orientation, left target,
    right configuration and challenge class share absorb and match moves."""
    branching, iso_answers = eng.branching, eng.iso_answers
    challenges, answers, iso_class = eng.challenges, eng.answers, eng.iso_class
    sides = ((1, 2, eng.es1, eng.es2), (2, 1, eng.es2, eng.es1))  # by swapped
    matched: dict[tuple[bool, int, int, int], tuple[int, ...]] = {}

    def challenge(sw: bool, left: int, right: int, pairs: Pairs | None) -> list[Key]:
        sl, sr, es_l, es_r = sides[sw]
        targets = [(sw, left, right, pairs, x) for x, _ in challenges(sl, left)]
        targets += [(not sw, right, left, pairs, y) for y, _ in challenges(sr, right)]
        if branching and (ends := es_l.terminates_mask(left)) != es_r.terminates_mask(right):
            turned = (sw, left, right) if ends else (not sw, right, left)
            targets.append((*turned, pairs, 0))
        return targets

    def answer(keys: Sequence[Key]) -> list[tuple[int, ...]]:
        rows = []
        for sw, left, right, pairs, ch in keys:
            sl, sr, es_l, es_r = sides[sw]
            if not ch:  # the termination challenge
                ends = [m0 for m0 in es_r.tau_reachable_masks(right) if es_r.terminates_mask(m0)]
                rows.append(number([(sw, left, m0, pairs, None) for m0 in ends if m0 != right]))
                continue
            target = left | ch
            # hp and hhp answers extend the pairs, so only pomset and step rows are shared
            cid = None if pairs is not None else iso_class(sl, ch)
            shared = None if cid is None else (sw, target, right, cid)
            out = matched.get(shared)
            if out is None:
                absorb = branching and not ch & ~es_l.silent_mask
                targets = [(sw, target, right, pairs, None)] if absorb else []
                replies = iso_answers(sr, cid, right) if shared else answers(sl, ch, pairs, right)
                targets += [(sw, target, t, p, None) for t, p in replies]
                out = number(targets)
                if shared is not None:
                    matched[shared] = out
            if branching and (silent := es_r.silent_mask & ~right):
                steps = [right | 1 << e for e in es_r.enabled(right) if silent >> e & 1]
                out += number([(sw, left, r, pairs, None) for r in steps])
            rows.append(out)
        return rows

    return challenge, answer


def _start(eng: Engine) -> list[Key]:
    """The initial position, and for hhp one per valid triple, under the caps."""
    eng.es1.configurations(), eng.es2.configurations()
    if eng.kind.flavor is Flavor.HHP:  # the sorted universe starts with the empty triple
        return [(False, m1, m2, prs, None) for m1, prs, m2 in triple_universe(eng)]
    return [(False, 0, 0, () if eng.posetal else None, None)]


def build_arena(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
) -> Arena:
    """Breadth-first arena construction, with the rows of _rows."""
    eng = Engine(es1, es2, kind, strong_tau_erasure)
    keys = _start(eng)
    index = {key: i for i, key in enumerate(keys)}
    succ: list[tuple[int, ...]] = []
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

    challenge, answer = _rows(eng, number)
    # keys is the queue: the loop also visits the positions appended to it
    for i, (sw, left, right, pairs, ch) in enumerate(keys):
        if ch is None:
            succ.append(number(challenge(sw, left, right, pairs)))
        elif i == len(succ):  # the first of a run of Duplicator positions answers the run
            run = takewhile(lambda key: key[4] is not None, islice(keys, i, None))
            succ += answer(list(run))
    return Arena(eng, keys, succ)


def _by_rank(es1: EventStructure, es2: EventStructure, keys: Sequence[Key]) -> list[list[int]]:
    """The ids of the keys per rank, 2 * |configurations| + (1 if
    challenged), which every move raises."""
    ranks: list[list[int]] = [[] for _ in range(2 * (len(es1.events) + len(es2.events)) + 2)]
    for i, (_, left, right, _, ch) in enumerate(keys):
        ranks[2 * (left.bit_count() + right.bit_count()) + (ch is not None)].append(i)
    return ranks


def _sweep(arena: Arena, demoted: Iterable[int] = ()) -> list[Role]:
    """Backward induction by rank, largest first, the demoted positions preset
    as Spoiler-won sinks: a position goes to its owner (Duplicator at odd
    ranks) if some successor was won by its owner, else to the other."""
    succ = arena.succ
    win: list[Role | None] = [None] * len(arena.keys)
    for i in demoted:
        win[i] = Role.SPOILER
    for rank, ids in reversed(list(enumerate(_by_rank(arena.es1, arena.es2, arena.keys)))):
        owner = Role.DUPLICATOR if rank & 1 else Role.SPOILER
        for i in ids:
            if win[i] is None:
                results = [win[j] for j in succ[i]]
                if None in results:
                    raise ArenaCycleError("a move leads to a position the sweep has not decided")
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


class Decision(NamedTuple):
    """What decide finds: the winner, and GameVerdict.strategy_size()."""

    winner: Role
    moves: int

    @property
    def equivalent(self) -> bool:
        return self.winner is Role.DUPLICATOR


def decide(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
) -> Decision:
    """game_check's winner and strategy size, without building the arena:
    each node is a Spoiler position with its mirror, and each of its rows
    a Duplicator position, as the nodes its moves lead to; a node is
    Spoiler-won when all the nodes of one of its rows are.  The positions
    cap applies to the positions of the arena."""
    eng = Engine(es1, es2, kind, strong_tau_erasure)
    limit = eng.caps.max_positions
    index: dict[Key, int] = {}  # each Spoiler key to its node
    nodes: list[Key] = []  # each node's first key
    rows: list[list[tuple[int, ...]]] = []  # each node's rows

    def number(targets: list[Key]) -> tuple[int, ...]:
        """The nodes of the targets, adding each new one."""
        ids = []
        for target in targets:
            t = index.get(target)
            if t is None:
                sw, left, right, pairs, _ = target
                t = index[target] = index.get((not sw, right, left, pairs, None), len(nodes))
                if t == len(nodes):
                    nodes.append(target)
            ids.append(t)
        return tuple(ids)

    challenge, answer = _rows(eng, number)
    number(_start(eng))
    duplicators = 0
    for sw, left, right, pairs, _ in nodes:  # nodes is the queue
        row = challenge(sw, left, right, pairs)
        rows.append(answer(row))
        duplicators += len(row)
        if len(index) + duplicators > limit:
            raise CapExceededError("positions", limit, limit + 1)
    ranks = _by_rank(es1, es2, nodes)
    demoted: set[int] = set()
    while True:  # for hhp, sweep again after each round of demotions
        lost = set(demoted)  # the Spoiler-won nodes
        for rank in reversed(ranks):
            lost.update([t for t in rank if any(map(lost.issuperset, rows[t]))])
        if kind.flavor is not Flavor.HHP:
            break
        triples = [(r, pairs, l) if sw else (l, pairs, r) for sw, l, r, pairs, _ in nodes]
        won = {triple: t for t, triple in enumerate(triples) if t not in lost}
        if not (broken := unclosed(eng, won.keys(), won.keys())):
            break
        demoted.update(won[triple] for triple in broken)
    if 0 in lost:  # the Spoiler positions of Spoiler-won, undemoted nodes
        kept = lost - demoted
        return Decision(Role.SPOILER, sum(map(kept.__contains__, index.values())))
    # every Duplicator position, less those whose moves all lead to Spoiler-won nodes
    lost_rows = sum(sum(map(lost.issuperset, rows[t])) for t in lost)
    return Decision(Role.DUPLICATOR, sum(map(len, rows)) - lost_rows)


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

"""The eight bisimilarities computed from their definitions alone.

A slow checker for tests to compare both engines against.  It reads a
structure only through the events, labels, causality, conflict and
terminating configurations that ``EventStructure`` declares, and shares
no code with the engines:

* configurations are the conflict-free, downward-closed event subsets,
  and a transition adds any non-empty set of events (pairwise concurrent
  ones for step) that leaves a configuration;
* pomset isomorphisms and matchings are found by trying every
  permutation;
* a transfer condition asks for an answering key in the relation, which
  holds only valid matchings, so an hp answer is any event whose pair
  extends the matching to one that is still related;
* hereditary closure walks every sub-configuration of both sides;
* the greatest fixpoint starts from every candidate key and removes the
  keys whose conditions fail until nothing changes;
* the game arena is explored breadth-first from the empty position,
  and every position's moves are worked out afresh from the above.

Keys have the oracle's shapes: (mask1, mask2) for pomset and step, and
(mask1, pairs, mask2) for hp and hhp, pairs the sorted (index in es1,
index in es2) pairs of the matching.  Matchings cover every event in
strong mode and the visible events in branching mode; silent events are
erased before pomsets are compared in branching mode, and in strong mode
only when ``erase`` is set, which hp and hhp ignore.  Only branching mode
asks a terminating configuration to be answered by one that terminates.
"""

from __future__ import annotations

import itertools

from pesbisim import SILENT_LABEL, EventStructure


class _Side:
    """One structure, as index-level tables read from its declarations."""

    def __init__(self, es: EventStructure):
        names = es.events
        self.n = len(names)
        self.labels = [es.label(e) for e in names]
        self.silent = [label == SILENT_LABEL for label in self.labels]
        self.leq = [[es.leq(a, b) for b in names] for a in names]
        conflict = [[es.in_conflict(a, b) for b in names] for a in names]
        self.configs = [
            m
            for m in range(1 << self.n)
            if all(
                self.leq[j][i] <= (m >> j & 1) and not (conflict[i][j] and m >> j & 1)
                for i in self.events(m)
                for j in range(self.n)
            )
        ]
        if es.terminating is None:
            self.terminating = {
                m for m in self.configs if not any(d != m and d & m == m for d in self.configs)
            }
        else:
            self.terminating = set(es.terminating)

    def events(self, mask: int) -> list[int]:
        return [i for i in range(self.n) if mask >> i & 1]

    def visible(self, mask: int) -> list[int]:
        return [i for i in self.events(mask) if not self.silent[i]]

    def transitions(self, c: int, step: bool) -> list[tuple[int, int]]:
        """(added events, target) for every move from configuration c."""
        out = []
        for d in self.configs:
            if d != c and d & c == c:
                x = self.events(d & ~c)
                if step and any(self.leq[a][b] for a in x for b in x if a != b):
                    continue
                out.append((d & ~c, d))
        return out

    def singles(self, c: int) -> list[int]:
        return [e for e in range(self.n) if not c >> e & 1 and c | 1 << e in self.configs]

    def silent_reach(self, c: int) -> list[int]:
        """Configurations that add only silent events to c, c included."""
        return [
            d
            for d in self.configs
            if d & c == c and all(self.silent[i] for i in self.events(d & ~c))
        ]


def _bijections(s1: _Side, ev1: list[int], s2: _Side, ev2: list[int]):
    """Every label- and order-preserving bijection from ev1 onto ev2, as
    sorted (index in s1, index in s2) pairs."""
    if len(ev1) != len(ev2):
        return
    for perm in itertools.permutations(ev2):
        pairs = list(zip(ev1, perm))
        if all(s1.labels[a] == s2.labels[b] for a, b in pairs) and all(
            s1.leq[a][c] == s2.leq[b][d] for a, b in pairs for c, d in pairs
        ):
            yield tuple(sorted(pairs))


def _iso(s1: _Side, x1: int, s2: _Side, x2: int, erase: bool) -> bool:
    pick1, pick2 = (s1.visible, s2.visible) if erase else (s1.events, s2.events)
    return next(_bijections(s1, pick1(x1), s2, pick2(x2)), None) is not None


def hereditary(s1: _Side, s2: _Side, branching: bool, key, rel) -> bool:
    """Whether every restriction of either configuration of the matching
    key, the configuration itself included, has a counterpart in rel: a
    key of the restriction, the pairs whose events survive and a
    configuration within the other one whose events are the image of
    those pairs (its visible events, in branching mode).  rel is any set
    of matching keys."""

    def has(side: int, own: int, pairs, other: int) -> bool:
        if side == 1:
            return (own, pairs, other) in rel
        return (other, tuple(sorted((b, a) for a, b in pairs)), own) in rel

    def side_ok(side: int, own: int, pairs, other: int) -> bool:
        a, b = (s1, s2) if side == 1 else (s2, s1)
        pick = b.visible if branching else b.events
        within = {d: pick(d) for d in b.configs if d & other == d}
        for sub in a.configs:
            if sub & own != sub:
                continue
            kept = tuple(p for p in pairs if sub >> p[0] & 1)
            image = sorted(q for _, q in kept)
            if not any(
                picked == image and has(side, sub, kept, d) for d, picked in within.items()
            ):
                return False
        return True

    c1, pairs, c2 = key
    flipped = tuple(sorted((b, a) for a, b in pairs))
    return side_ok(1, c1, pairs, c2) and side_ok(2, c2, flipped, c1)


def unclosed(es1: EventStructure, es2: EventStructure, branching: bool, keys, rel) -> set:
    """The matching keys of keys that ``hereditary`` rejects within rel."""
    s1, s2 = _Side(es1), _Side(es2)
    return {key for key in keys if not hereditary(s1, s2, branching, key, rel)}


def greatest_relation(
    es1: EventStructure, es2: EventStructure, flavor: str, branching: bool, erase: bool = False
) -> set:
    """The greatest bisimulation of the flavor ("pomset", "step", "hp" or
    "hhp") in strong or branching mode, as a set of keys."""
    sides = (_Side(es1), _Side(es2))
    s1, s2 = sides
    posetal = flavor in ("hp", "hhp")
    erase = erase or branching
    if posetal:
        pick1, pick2 = (s1.visible, s2.visible) if branching else (s1.events, s2.events)
        rel = {
            (c1, pairs, c2)
            for c1 in s1.configs
            for c2 in s2.configs
            for pairs in _bijections(s1, pick1(c1), s2, pick2(c2))
        }
    else:
        rel = {(c1, c2) for c1 in s1.configs for c2 in s2.configs}

    def has(side: int, own: int, pairs, other: int) -> bool:
        """Whether the key with side's configuration own, the other
        side's configuration other and pairs oriented (own, other) is
        related."""
        if pairs is None:
            return ((own, other) if side == 1 else (other, own)) in rel
        if side == 1:
            return (own, pairs, other) in rel
        return (other, tuple(sorted((b, a) for a, b in pairs)), own) in rel

    def transfer_ok(side: int, own: int, pairs, other: int) -> bool:
        """Every move of side's configuration own is answered from other."""
        a, b = sides[side - 1], sides[2 - side]
        reach = b.silent_reach(other) if branching else [other]
        if posetal:
            moves = [(e, own | 1 << e) for e in a.singles(own)]
        else:
            moves = a.transitions(own, flavor == "step")
        for x, own2 in moves:
            if posetal:
                tau = a.silent[x]
                if branching and tau and has(side, own2, pairs, other):
                    continue
                answered = any(
                    has(side, own, pairs, o0)
                    and any(
                        (branching and tau and b.silent[f] and has(side, own2, pairs, o0 | 1 << f))
                        or has(side, own2, tuple(sorted(pairs + ((x, f),))), o0 | 1 << f)
                        for f in b.singles(o0)
                    )
                    for o0 in reach
                )
            else:
                if branching and not a.visible(x) and has(side, own2, None, other):
                    continue
                answered = any(
                    has(side, own, None, o0)
                    and any(
                        _iso(a, x, b, y, erase) and has(side, own2, None, other2)
                        for y, other2 in b.transitions(o0, flavor == "step")
                    )
                    for o0 in reach
                )
            if not answered:
                return False
        if branching and own in a.terminating:
            return any(has(side, own, pairs, o0) and o0 in b.terminating for o0 in reach)
        return True

    def ok(key) -> bool:
        if posetal:
            c1, pairs, c2 = key
        else:
            (c1, c2), pairs = key, None
        flipped = None if pairs is None else tuple(sorted((b, a) for a, b in pairs))
        if not (transfer_ok(1, c1, pairs, c2) and transfer_ok(2, c2, flipped, c1)):
            return False
        return flavor != "hhp" or hereditary(s1, s2, branching, key, rel)

    changed = True
    while changed:
        changed = False
        for key in sorted(rel):
            if not ok(key):
                rel.discard(key)
                changed = True
    return rel



def arena(
    es1: EventStructure, es2: EventStructure, flavor: str, branching: bool, erase: bool = False
) -> tuple[list, list, list]:
    """The game arena of the flavor in strong or branching mode as
    (keys, rules, succ), built breadth-first from the empty position with
    every position's moves worked out afresh.  Keys have the games'
    shape (swapped, left, right, pairs, challenge), and moves come in the
    games' order: Spoiler's challenges of the left side, then of the
    right one (as the left side of the swapped pair), then the
    termination challenge of the side that terminates alone; Duplicator's
    absorption of an all-silent challenge, then its matches, then its
    silent steps, or for a termination challenge its silent moves to a
    terminating configuration.  Every group is ordered by target
    configuration.  erase acts on pomset and step only."""
    sides = (None, _Side(es1), _Side(es2))
    posetal = flavor in ("hp", "hhp")
    erase = erase or branching
    keys = [(False, 0, 0, () if posetal else None, None)]
    if flavor == "hhp":
        s1, s2 = sides[1], sides[2]
        pick1, pick2 = (s1.visible, s2.visible) if branching else (s1.events, s2.events)
        universe = {
            (c1, pairs, c2)
            for c1 in s1.configs
            for c2 in s2.configs
            for pairs in _bijections(s1, pick1(c1), s2, pick2(c2))
        }
        keys += [(False, c1, c2, pairs, None) for c1, pairs, c2 in sorted(universe)]
    keys = list(dict.fromkeys(keys))
    index = {key: i for i, key in enumerate(keys)}

    def challenges(s: _Side, c: int) -> list[tuple[int, int]]:
        if posetal:
            return [(1 << e, c | 1 << e) for e in s.singles(c)]
        return s.transitions(c, flavor == "step")

    def moves(key) -> list:
        sw, left, right, pairs, ch = key
        a, b = (sides[2], sides[1]) if sw else (sides[1], sides[2])
        if ch is None:
            out = [
                ("spoiler-challenge-left", (sw, left, right, pairs, x))
                for x, _ in challenges(a, left)
            ]
            out += [
                ("spoiler-challenge-right", (not sw, right, left, pairs, y))
                for y, _ in challenges(b, right)
            ]
            ends = left in a.terminating
            if branching and ends != (right in b.terminating):
                turned = (sw, left, right) if ends else (not sw, right, left)
                out.append(("spoiler-termination-challenge", (*turned, pairs, 0)))
            return out
        if ch == 0:  # the termination challenge
            return [
                ("duplicator-match", (sw, left, d, pairs, None))
                for d in b.silent_reach(right)
                if d != right and d in b.terminating
            ]
        x, target = ch, left | ch
        tau = not a.visible(x)
        out = []
        if branching and tau:
            out.append(("duplicator-absorb-tau", (sw, target, right, pairs, None)))
        if not posetal:
            out += [
                ("duplicator-match", (sw, target, t, None, None))
                for y, t in b.transitions(right, flavor == "step")
                if _iso(a, x, b, y, erase)
            ]
        elif branching and tau:
            out += [
                ("duplicator-match", (sw, target, right | 1 << f, pairs, None))
                for f in b.singles(right)
                if b.silent[f]
            ]
        else:
            (e,) = a.events(x)
            # e and f are maximal once added, so the pairs must agree on what lies below them
            for f in b.singles(right):
                if a.labels[e] == b.labels[f] and all(
                    a.leq[p][e] == b.leq[q][f] for p, q in _oriented(pairs, sw)
                ):
                    grown = _extended(pairs, sw, e, f)
                    out.append(("duplicator-match", (sw, target, right | 1 << f, grown, None)))
        if branching:
            out += [
                ("duplicator-tau-step", (sw, left, right | 1 << f, pairs, None))
                for f in b.singles(right)
                if b.silent[f]
            ]
        return out

    rules, succ = [], []
    for key in keys:  # keys is the queue
        found = moves(key)
        for _, target in found:
            if target not in index:
                index[target] = len(keys)
                keys.append(target)
        rules.append(tuple(rule for rule, _ in found))
        succ.append(tuple(index[target] for _, target in found))
    return keys, rules, succ


def _oriented(pairs, sw: bool):
    """The pairs as (left index, right index) for a position swapped or not."""
    return [(q, p) for p, q in pairs] if sw else list(pairs)


def _extended(pairs, sw: bool, e: int, f: int):
    """The pairs with left event e matched to right event f, sorted."""
    return tuple(sorted(pairs + (((f, e),) if sw else ((e, f),))))

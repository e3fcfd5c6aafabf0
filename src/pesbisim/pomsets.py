"""Pomsets over event structures: isomorphism and posetal matchings.

A pomset here is an event subset of one structure, given as a bitmask,
carrying the induced causal order and labels.  Two pomsets are isomorphic
when a bijection preserves labels and order in both directions.  A
Matching is such a bijection between two configurations, either over all
events (strong) or over the visible events of each side (weak).  One
backtracking search over label-respecting bijections, grown by
``extends``, serves both the isomorphism test and the enumeration of
matchings.  The engines do not call ``extends``: they extend matchings
by enabled events only, where one causal-past mask comparison decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .pes import Configuration, EventStructure, bits

Pairs = tuple[tuple[int, int], ...]


def extends(
    es1: EventStructure, es2: EventStructure, pairs: Sequence[tuple[int, int]], i: int, j: int
) -> bool:
    """Whether the pair set can absorb (i in es1, j in es2): the labels
    agree and i, j order the same way against every existing pair."""
    if es1.labels[i] != es2.labels[j]:
        return False
    past1, past2 = es1.past_masks, es2.past_masks
    for a, b in pairs:
        if (past1[i] >> a ^ past2[j] >> b | past1[a] >> i ^ past2[b] >> j) & 1:
            return False
    return True


def _bijections(
    es1: EventStructure, idx1: list[int], es2: EventStructure, idx2: list[int]
) -> Iterator[Pairs]:
    """Label- and order-preserving bijections from idx1 onto idx2, lists
    of equal length, each as (i, j) pairs in idx1 order, found by
    backtracking."""
    pairs: list[tuple[int, int]] = []

    def backtrack(pos: int, used: int) -> Iterator[Pairs]:
        if pos == len(idx1):
            yield tuple(pairs)
            return
        i = idx1[pos]
        for j in idx2:
            if not used >> j & 1 and extends(es1, es2, pairs, i, j):
                pairs.append((i, j))
                yield from backtrack(pos + 1, used | 1 << j)
                pairs.pop()

    yield from backtrack(0, 0)


def signature(es: EventStructure, idx: list[int]) -> tuple[tuple[str, int, int], ...]:
    """An isomorphism invariant of the pomset on the events idx: the
    sorted (label, events below, events above) of each event."""
    past, mask = es.past_masks, sum(1 << i for i in idx)
    sig = []
    for i in idx:
        above = sum(past[j] >> i & 1 for j in idx) - 1
        sig.append((es.labels[i], (past[i] & mask).bit_count() - 1, above))
    return tuple(sorted(sig))


def iso_masks(
    es1: EventStructure,
    mask1: int,
    es2: EventStructure,
    mask2: int,
) -> bool:
    """Whether the pomsets on two event masks are isomorphic, silent events included."""
    idx1 = bits(mask1)
    idx2 = bits(mask2)
    if len(idx1) != len(idx2) or signature(es1, idx1) != signature(es2, idx2):
        return False
    return next(_bijections(es1, idx1, es2, idx2), None) is not None


@dataclass(frozen=True)
class Matching:
    """A label- and order-preserving bijection between two configurations.

    pairs holds (index in es1, index in es2) entries sorted by first
    component.  A strong matching covers every event of both
    configurations; a weak matching covers exactly the visible events,
    with silent events tracked only through the configuration masks.
    """

    es1: EventStructure = field(repr=False)
    es2: EventStructure = field(repr=False)
    mask1: int
    mask2: int
    pairs: Pairs
    weak: bool

    def invalid_reason(self) -> str | None:
        """None when well-formed, else a description of the violation."""
        es1, es2 = self.es1, self.es2
        if not es1.is_configuration_mask(self.mask1) or not es2.is_configuration_mask(self.mask2):
            return "matching endpoints are not configurations"
        dom = self.mask1 & ~es1.silent_mask if self.weak else self.mask1
        cod = self.mask2 & ~es2.silent_mask if self.weak else self.mask2
        seen1 = 0
        seen2 = 0
        for i, j in self.pairs:
            if not dom >> i & 1 or not cod >> j & 1:
                return "matched event outside the matched configurations"
            if seen1 >> i & 1 or seen2 >> j & 1:
                return "matching maps an event twice"
            seen1 |= 1 << i
            seen2 |= 1 << j
            if es1.labels[i] != es2.labels[j]:
                return (
                    f"label mismatch: {es1.events[i]} is "
                    f"{es1.labels[i]}, {es2.events[j]} is {es2.labels[j]}"
                )
        if seen1 != dom or seen2 != cod:
            return "matching is not a bijection over the matched events"
        past1, past2 = es1.past_masks, es2.past_masks
        for a, b in self.pairs:
            for c, d in self.pairs:
                if (past1[c] >> a ^ past2[d] >> b) & 1:
                    return (
                        f"order violation: {es1.events[a]} before {es1.events[c]} "
                        f"disagrees with {es2.events[b]} before {es2.events[d]}"
                    )
        return None

    def __str__(self) -> str:
        es1, es2 = self.es1, self.es2
        inner = ",".join(f"{es1.events[i]}->{es2.events[j]}" for i, j in self.pairs)
        return f"({es1.format_mask(self.mask1)},{{{inner}}},{es2.format_mask(self.mask2)})"


def enumerate_matchings(c1: Configuration, c2: Configuration, *, weak: bool) -> tuple[Matching, ...]:
    """All matchings between two configurations, sorted by pair tuple."""
    dom = bits(c1.visible_mask if weak else c1.mask)
    cod = bits(c2.visible_mask if weak else c2.mask)
    if len(dom) != len(cod):
        return ()
    es1, es2 = c1.owner, c2.owner
    return tuple(
        Matching(es1, es2, c1.mask, c2.mask, pairs, weak)
        for pairs in sorted(_bijections(es1, dom, es2, cod))
    )

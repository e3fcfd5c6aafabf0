"""Pomsets over event structures: isomorphism and posetal matchings.

A pomset here is an event subset of one structure, given as a bitmask,
carrying the induced causal order and labels.  Two pomsets are isomorphic
when a bijection preserves labels and order in both directions.  A
matching is such a bijection between two configuration masks, either over
all events (strong) or over the visible events of each side (weak), held
as its (index in es1, index in es2) pairs sorted by first index: the
middle of an engine key (mask1, pairs, mask2).  An event's key in a
pomset is its label and the numbers of the pomset's events below and
above it; isomorphisms keep keys, so the sorted keys (``signature``) are
an invariant.  One backtracking search, grown by ``extends``, serves the
isomorphism test and the enumeration of matchings: it assigns one side's
events in key order, each to an unused event of the other with the same
key.  The engines do not call ``extends``: they extend matchings by
enabled events only, where one causal-past mask comparison decides.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .pes import EventStructure, bits

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


def _keys(es: EventStructure, mask: int) -> tuple[list[int], list[tuple[str, int, int]]]:
    """The events of the mask, ascending, and the key of each: its label and
    the numbers of events of the mask below and above it, itself included."""
    labels, past, future = es.labels, es.past_masks, es.future_masks
    events = bits(mask)
    return events, [
        (labels[i], (past[i] & mask).bit_count(), (future[i] & mask).bit_count()) for i in events
    ]


def signature(es: EventStructure, mask: int) -> tuple[tuple[str, int, int], ...]:
    """An isomorphism invariant of the pomset on the event mask: the
    sorted keys of its events (label, events below, events above)."""
    return tuple(sorted(_keys(es, mask)[1]))


def _bijections(es1: EventStructure, m1: int, es2: EventStructure, m2: int) -> Iterator[Pairs]:
    """Label- and order-preserving bijections from the events of mask m1
    onto those of m2, each as (i, j) pairs sorted by i, found by
    backtracking: m1's events are assigned in key order (see signature),
    each to an unused event of m2 with the same key."""
    if m1.bit_count() != m2.bit_count():
        return
    (events1, keys1), (events2, keys2) = _keys(es1, m1), _keys(es2, m2)
    if sorted(keys1) != sorted(keys2):
        return
    same: dict[tuple[str, int, int], list[int]] = {}
    for key, j in zip(keys2, events2):
        same.setdefault(key, []).append(j)
    order = [(i, same[key]) for key, i in sorted(zip(keys1, events1))]
    pairs: list[tuple[int, int]] = []

    def backtrack(pos: int, used: int) -> Iterator[Pairs]:
        if pos == len(order):
            yield tuple(sorted(pairs))
            return
        i, candidates = order[pos]
        for j in candidates:
            if not used >> j & 1 and extends(es1, es2, pairs, i, j):
                pairs.append((i, j))
                yield from backtrack(pos + 1, used | 1 << j)
                pairs.pop()

    yield from backtrack(0, 0)


def iso_masks(
    es1: EventStructure,
    mask1: int,
    es2: EventStructure,
    mask2: int,
) -> bool:
    """Whether the pomsets on two event masks are isomorphic, silent events included."""
    return next(_bijections(es1, mask1, es2, mask2), None) is not None


def matching_fault(
    es1: EventStructure, es2: EventStructure, mask1: int, pairs: Pairs, mask2: int, weak: bool
) -> str | None:
    """None when the pairs are a matching between the two configuration
    masks, else a description of the violation.  A strong matching covers
    every event of both configurations; a weak matching covers exactly the
    visible events."""
    if not es1.is_configuration_mask(mask1) or not es2.is_configuration_mask(mask2):
        return "matching endpoints are not configurations"
    dom = mask1 & ~es1.silent_mask if weak else mask1
    cod = mask2 & ~es2.silent_mask if weak else mask2
    seen1 = 0
    seen2 = 0
    for i, j in pairs:
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
    for a, b in pairs:
        for c, d in pairs:
            if (past1[c] >> a ^ past2[d] >> b) & 1:
                return (
                    f"order violation: {es1.events[a]} before {es1.events[c]} "
                    f"disagrees with {es2.events[b]} before {es2.events[d]}"
                )
    return None


def enumerate_matchings(
    es1: EventStructure, mask1: int, es2: EventStructure, mask2: int, *, weak: bool
) -> tuple[Pairs, ...]:
    """The pairs of every matching between two configuration masks, each
    sorted by first index, in ascending order; weak matchings cover the
    visible events only."""
    dom = mask1 & ~es1.silent_mask if weak else mask1
    cod = mask2 & ~es2.silent_mask if weak else mask2
    return tuple(sorted(_bijections(es1, dom, es2, cod)))

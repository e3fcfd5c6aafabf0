"""Finite labelled prime event structures with silent events.

An event structure couples a finite set of labelled events with a causality
partial order and a hereditary, irreflexive conflict relation.  Its states
are configurations: finite event sets that are conflict-free and downward
closed under causality.  A label is a plain name; the name ``tau`` is
reserved for silent events.

Construction validates the declarations, closes causality (one Warshall
pass, kept as the attributes ``past_masks`` and ``future_masks``) and
conflict into per-event bitmasks, and keeps the terminating configurations
as the plain value ``terminating``.  Events are indexed by declaration
order; configurations and the event sets that transitions add are bitmasks
over those indices.  The engines read every move through the mask-level
methods (``enabled``, ``transition_masks``, ``tau_reachable_masks``,
``terminates_mask``), which cache their answers per mask; ``format_mask``
caches the event names of each mask as text.
A cache entry never changes once written, so instances are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceededError, ValidationError

SILENT_LABEL = "tau"


@dataclass(frozen=True)
class Caps:
    """Instance-size limits that turn combinatorial blow-ups into clean errors.

    max_positions bounds both game arena sizes and oracle candidate sets.
    """

    max_events: int = 12
    max_configurations: int = 4096
    max_positions: int = 200_000

    def __post_init__(self) -> None:
        # the empty structure has no events, one configuration and one position
        for name, least in (("max_events", 0), ("max_configurations", 1), ("max_positions", 1)):
            if getattr(self, name) < least:
                raise ValidationError(f"{name} must be at least {least}, got {getattr(self, name)}")


def bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class EventStructure:
    """A validated prime event structure.

    events are (event id, label name) pairs in declaration order; causes
    and conflicts are pairs of event ids declaring immediate causality and
    conflict.  Causality is closed reflexively and transitively, conflict
    symmetrically and hereditarily.  termination is 'maximal', 'none', or
    an iterable of event-id sets naming the terminating configurations.
    Per event index, events holds its id, labels its label name, and
    past_masks and future_masks its causal past and future (itself
    included) as masks; terminating is the frozenset of the terminating
    configurations' masks ('none' is the empty one), or None when the
    maximal ones terminate.
    """

    def __init__(
        self,
        name: str,
        events: Sequence[tuple[str, str]] = (),
        causes: Iterable[tuple[str, str]] = (),
        conflicts: Iterable[tuple[str, str]] = (),
        termination: str | Iterable[Iterable[str]] = "maximal",
        caps: Caps | None = None,
    ):
        caps = caps or Caps()
        if len(events) > caps.max_events:
            raise CapExceededError("events", caps.max_events, len(events))
        ids = [e for e, _ in events]
        seen: set[str] = set()
        for e in ids:
            if e in seen:
                raise ValidationError(f"duplicate event {e!r}")
            seen.add(e)
        self.name = name
        self.caps = caps
        self.events: tuple[str, ...] = tuple(ids)
        self.labels: tuple[str, ...] = tuple(lbl for _, lbl in events)
        self._index: dict[str, int] = {e: i for i, e in enumerate(ids)}
        n = len(ids)
        self._n = n
        self.full_mask = (1 << n) - 1
        self.silent_mask = 0
        for i, lbl in enumerate(self.labels):
            if lbl == SILENT_LABEL:
                self.silent_mask |= 1 << i

        below = [1 << i for i in range(n)]  # below[i] = mask of j with e_j <= e_i, including i
        for c, e in causes:
            ic, ie = self._resolve(c), self._resolve(e)
            if ic == ie:
                raise ValidationError(f"causality cycle: {c!r} declared as its own cause")
            below[ie] |= 1 << ic
        for k in range(n):  # Warshall: every event whose past holds k takes k's past
            for i in range(n):
                if below[i] >> k & 1:
                    below[i] |= below[k]
        for i in range(n):
            for j in bits(below[i]):
                if j != i and below[j] >> i & 1:
                    raise ValidationError(
                        f"causality cycle involving {ids[i]!r} and {ids[j]!r}"
                    )
        above = [sum(1 << i for i in range(n) if below[i] >> j & 1) for j in range(n)]

        conflict = [0] * n
        declared_conflicts = list(conflicts)
        for a, b in declared_conflicts:
            ia, ib = self._resolve(a), self._resolve(b)
            if ia == ib:
                raise ValidationError(f"self-conflict declared on {a!r}")
            if below[ia] >> ib & 1 or below[ib] >> ia & 1:
                raise ValidationError(
                    f"conflict between causally related events {a!r} and {b!r}"
                )
        # Hereditary closure in one pass: a declared pair propagates to all
        # pairs of causal successors of its two sides.
        for a, b in declared_conflicts:
            ia, ib = self._resolve(a), self._resolve(b)
            for u in bits(above[ia]):
                conflict[u] |= above[ib]
            for v in bits(above[ib]):
                conflict[v] |= above[ia]
        for i in range(n):
            if conflict[i] >> i & 1:
                culprit = next(
                    (a, b)
                    for a, b in declared_conflicts
                    if above[self._resolve(a)] >> i & 1 and above[self._resolve(b)] >> i & 1
                )
                raise ValidationError(
                    f"self-conflict after closure: {culprit[0]!r} and {culprit[1]!r} "
                    f"are in conflict but share the causal successor {ids[i]!r}"
                )

        self.past_masks: tuple[int, ...] = tuple(below)
        self.future_masks: tuple[int, ...] = tuple(above)
        self._conflict = tuple(conflict)

        if termination == "maximal":
            self.terminating: frozenset[int] | None = None
        elif termination == "none":
            self.terminating = frozenset()
        elif isinstance(termination, str):
            raise ValidationError(f"unknown termination policy {termination!r}")
        else:
            masks = set()
            for group in termination:
                if isinstance(group, str):  # would be read as the set of its characters
                    raise ValidationError(f"terminating set {group!r} is a string, not a set")
                m = self.mask_of(group)
                if not self.is_configuration_mask(m):
                    raise ValidationError(
                        f"terminating set {{{', '.join(sorted(group))}}} is not a configuration"
                    )
                masks.add(m)
            self.terminating = frozenset(masks)

        self._config_masks: frozenset[int] | None = None
        self._sorted_masks: tuple[int, ...] = ()
        self._enabled_cache: dict[int, tuple[int, ...]] = {}
        self._trans_cache: dict[tuple[int, bool], tuple[tuple[int, int], ...]] = {}
        self._tau_cache: dict[int, tuple[int, ...]] = {}
        self._format_cache: dict[int, str] = {}
        self._twin_masks: tuple[int, ...] | None = None

    def _resolve(self, event: str) -> int:
        try:
            return self._index[event]
        except KeyError:
            raise ValidationError(f"unknown event {event!r}") from None

    # ------------------------------------------------------------------
    # basic views

    def label(self, event: str) -> str:
        return self.labels[self._resolve(event)]

    def event_index(self, event: str) -> int:
        return self._resolve(event)

    def mask_of(self, events: Iterable[str]) -> int:
        m = 0
        for e in events:
            m |= 1 << self._resolve(e)
        return m

    def events_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self.events[i] for i in bits(mask))

    def format_mask(self, mask: int) -> str:
        text = self._format_cache.get(mask)
        if text is None:
            text = self._format_cache[mask] = "{" + ",".join(self.events_of_mask(mask)) + "}"
        return text

    # ------------------------------------------------------------------
    # derived relations

    def leq(self, e1: str, e2: str) -> bool:
        return bool(self.past_masks[self._resolve(e2)] >> self._resolve(e1) & 1)

    @property
    def twin_masks(self) -> tuple[int, ...]:
        """Per event index, the mask of its twin class.  Twins have the same
        label, and swapping them keeps causality, conflict and the
        terminating configurations.  Being twins is an equivalence, so every
        permutation within the classes is an automorphism of the structure."""
        if self._twin_masks is None:  # a cached_property's __dict__ would slow every read
            every = range(self._n)
            own = [(self.labels[e], self.past_masks[e] ^ 1 << e) for e in every]  # strict past
            self._twin_masks = tuple(
                sum(1 << j for j in every if own[j] == own[i] and (j == i or self._twins(i, j)))
                for i in every
            )
        return self._twin_masks

    def _twins(self, i: int, j: int) -> bool:
        """Whether swapping i and j, of one label and one strict past, also
        keeps their futures, conflicts and the terminating configurations."""
        both = 1 << i | 1 << j
        ends = self.terminating or ()
        above, conflict = self.future_masks, self._conflict
        differ = (above[i] ^ above[j] | conflict[i] ^ conflict[j]) & ~both
        return not differ and all((m ^ both if (m >> i ^ m >> j) & 1 else m) in ends for m in ends)

    def in_conflict(self, e1: str, e2: str) -> bool:
        return bool(self._conflict[self._resolve(e1)] >> self._resolve(e2) & 1)

    def concurrent(self, e1: str, e2: str) -> bool:
        i, j = self._resolve(e1), self._resolve(e2)
        return not (self.past_masks[i] >> j | self.past_masks[j] >> i | self._conflict[i] >> j) & 1

    # ------------------------------------------------------------------
    # configurations

    def is_configuration_mask(self, mask: int) -> bool:
        if mask & ~self.full_mask:
            return False
        for i in bits(mask):
            if self.past_masks[i] & ~mask:
                return False
            if self._conflict[i] & mask:
                return False
        return True

    def enabled(self, mask: int) -> tuple[int, ...]:
        """Event indices whose addition to the configuration mask yields
        another configuration."""
        cached = self._enabled_cache.get(mask)
        if cached is None:
            out = []
            for e in range(self._n):
                if mask >> e & 1:
                    continue
                if self.past_masks[e] & ~(mask | 1 << e):
                    continue
                if self._conflict[e] & mask:
                    continue
                out.append(e)
            cached = tuple(out)
            self._enabled_cache[mask] = cached
        return cached

    def _walk(self, mask: int, allowed: int, limit: float = float("inf")) -> set[int]:
        """The configurations reached from mask by adding enabled events of the
        mask allowed, mask included; CapExceededError if more than limit."""
        seen = {mask}
        stack = [mask]
        while stack:
            m = stack.pop()
            for e in self.enabled(m):
                m2 = m | 1 << e
                if allowed >> e & 1 and m2 not in seen:
                    if len(seen) >= limit:
                        raise CapExceededError("configurations", limit, len(seen) + 1)
                    seen.add(m2)
                    stack.append(m2)
        return seen

    def configurations(self) -> tuple[int, ...]:
        """All configuration masks, ascending: their canonical order."""
        if self._config_masks is None:
            masks = self._walk(0, self.full_mask, self.caps.max_configurations)
            self._config_masks = frozenset(masks)
            self._sorted_masks = tuple(sorted(masks))
        return self._sorted_masks

    def configuration_masks(self) -> frozenset[int]:
        self.configurations()
        assert self._config_masks is not None
        return self._config_masks

    # ------------------------------------------------------------------
    # transitions

    def transition_masks(self, mask: int, step: bool) -> tuple[tuple[int, int], ...]:
        """(pomset mask, target mask) pairs of the outgoing transitions,
        ordered by target mask.  Events enabled together are never ordered,
        so a step is a non-empty, conflict-free set of enabled events."""
        key = (mask, step)
        cached = self._trans_cache.get(key)
        if cached is None:
            if step:
                steps, conflict = [0], self._conflict
                for e in self.enabled(mask):  # ascending, so each new step is larger
                    steps += [x | 1 << e for x in steps if not conflict[e] & x]
                out = [(x, mask | x) for x in steps[1:]]
            else:
                configs = self.configurations()
                out = [(t & ~mask, t) for t in configs if t != mask and t & mask == mask]
            cached = self._trans_cache[key] = tuple(out)
        return cached

    def tau_reachable_masks(self, mask: int) -> tuple[int, ...]:
        """Configurations reachable by adding silent events only, the
        given one included, in ascending mask order."""
        cached = self._tau_cache.get(mask)
        if cached is None:
            cached = self._tau_cache[mask] = tuple(sorted(self._walk(mask, self.silent_mask)))
        return cached

    def terminates_mask(self, mask: int) -> bool:
        """True iff the configuration counts as successfully terminated:
        it is in terminating, or maximal when terminating is None."""
        ends = self.terminating
        return not self.enabled(mask) if ends is None else mask in ends

    def __repr__(self) -> str:
        return f"EventStructure({self.name!r}, {self._n} events)"


"""Greatest-fixpoint computation of the eight bisimilarities.

The oracle starts from the full candidate universe (all configuration
pairs, or all matchings for the history-preserving flavors) and removes
the keys whose transfer conditions fail, in one pass over the universe in
descending key order.  Configurations only grow, and adding an event sets
a bit, so the check of a pair key (m1, m2) or a matching key
(m1, pairs, m2) reads only the key itself, keys with a larger m1, and
keys with the same m1 and pairs but a larger m2.  Every key a check
reads besides its own is therefore settled before it, and the key itself
is taken as alive, as the greatest fixpoint assumes.  The hereditary
flavors keep an outer loop: demote every matching that has a
pointwise-smaller valid matching outside the current set, then make one
more pass, until nothing is demoted.  Hereditary closure reads smaller
keys, so it cannot join the single pass.  Two structures are equivalent
exactly when the empty pair (or empty matching) survives.

Transfer conditions, per challenge C1 --X--> C1' of either side (each
rule is written once and checked for side 1 and for side 2):

* strong: some C2 --Y--> C2' with Y isomorphic to X and the successor
  pair in the relation.  Silent labels compare as ordinary labels unless
  the strong_tau_erasure switch is set.
* branching: either X is all silent and (C1',C2) is in the relation, or
  some silent-reachable C2_0 with (C1,C2_0) in the relation makes a single
  move C2_0 --Y--> C2' with the visible parts of X and Y isomorphic and
  (C1',C2') in the relation.  Additionally, a terminating side must be
  answered by a silent-reachable, related, terminating configuration.

The hp flavors use single-event challenges and extend the matching with
the answering event; branching hp absorbs silent challenges by growing
one side of the matching without touching the visible bijection.

The move layer, ``Engine``, ``triple_universe`` and ``hereditary_ok``, is
public: the games read their moves from the same objects, so both
decision procedures share one definition of every move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import CapExceededError, MalformedWitnessError
from .kinds import BisimulationKind, Flavor
from .pes import Caps, Configuration, EventStructure, bits
from .pomsets import Matching, Pairs, enumerate_matchings, extends, iso_masks, signature

PairKey = tuple[int, int]
TripleKey = tuple[int, Pairs, int]
Key = PairKey | TripleKey


@dataclass(frozen=True)
class Relation:
    """A set of related states: configuration pairs or matchings."""

    es1: EventStructure = field(repr=False)
    es2: EventStructure = field(repr=False)
    kind: BisimulationKind
    pairs: frozenset[tuple[Configuration, Configuration]] | None = None
    matchings: frozenset[Matching] | None = None

    def __len__(self) -> int:
        members = self.pairs if self.pairs is not None else self.matchings
        return len(members) if members is not None else 0

    def sorted_members(self) -> list:
        if self.pairs is not None:
            return sorted(self.pairs, key=lambda p: (p[0].mask, p[1].mask))
        assert self.matchings is not None
        return sorted(self.matchings, key=lambda m: (m.mask1, m.mask2, m.pairs))


@dataclass(frozen=True)
class Verdict:
    """Oracle answer; witness is the greatest relation when equivalent,
    absent otherwise (distinguishing evidence comes from the games)."""

    kind: BisimulationKind
    equivalent: bool
    witness: Relation | None


class Engine:
    """The moves of one structure pair under one kind, per side (1 or 2):
    transitions, single events, silent reachability, termination, pomset
    isomorphism and matching extension."""

    def __init__(
        self,
        es1: EventStructure,
        es2: EventStructure,
        kind: BisimulationKind,
        strong_tau_erasure: bool = False,
        caps: Caps | None = None,
    ):
        self.es1 = es1
        self.es2 = es2
        self.kind = kind
        self.caps = caps or es1.caps
        self.strong_tau_erasure = strong_tau_erasure
        self.step = kind.step_moves
        self.branching = kind.branching
        self.erase = True if self.branching else strong_tau_erasure
        self._classes: dict[tuple[int, int], int] = {}
        self._class_reps: dict[tuple, list[tuple[int, int, int]]] = {}

    def trans(self, side: int, mask: int) -> tuple[tuple[int, int], ...]:
        es = self.es1 if side == 1 else self.es2
        return es.transition_masks(mask, self.step)

    def singles(self, side: int, mask: int) -> tuple[int, ...]:
        es = self.es1 if side == 1 else self.es2
        return es.enabled(mask)

    def iso_class(self, side: int, mask: int) -> int:
        """The isomorphism class id of a pomset of one side, silent events
        erased first when erase is set: the index, among the masks of
        either side classified so far, of the first one isomorphic to it."""
        es = self.es1 if side == 1 else self.es2
        if self.erase:
            mask &= ~es.silent_mask
        cid = self._classes.get((side, mask))
        if cid is None:
            reps = self._class_reps.setdefault(signature(es, bits(mask)), [])
            for rep, rep_side, rep_mask in reps:
                if iso_masks(self.es1 if rep_side == 1 else self.es2, rep_mask, es, mask, False):
                    cid = rep
                    break
            else:
                cid = len(self._classes)
                reps.append((cid, side, mask))
            self._classes[side, mask] = cid
        return cid

    def tau_reach(self, side: int, mask: int) -> tuple[int, ...]:
        es = self.es1 if side == 1 else self.es2
        return es.tau_reachable_masks(mask)

    def terminates(self, side: int, mask: int) -> bool:
        es = self.es1 if side == 1 else self.es2
        return es.terminates_mask(mask)

    def ext_ok(self, pairs: Pairs, e1: int, e2: int) -> bool:
        """Can the pair set absorb (e1 in es1, e2 in es2)?  Labels must
        agree; order against every existing pair must agree both ways."""
        return extends(self.es1, self.es2, pairs, e1, e2)


# ----------------------------------------------------------------------
# candidate universes


def _pair_universe(eng: Engine) -> list[PairKey]:
    masks1 = sorted(eng.es1.configuration_masks())
    masks2 = sorted(eng.es2.configuration_masks())
    total = len(masks1) * len(masks2)
    if total > eng.caps.max_positions:
        raise CapExceededError("positions", eng.caps.max_positions, total)
    return [(m1, m2) for m1 in masks1 for m2 in masks2]


def triple_universe(eng: Engine) -> list[TripleKey]:
    """Every matching of every configuration pair, weak in branching
    mode, as sorted (first mask, pairs, second mask) keys."""
    weak = eng.branching
    out: list[TripleKey] = []
    limit = eng.caps.max_positions
    for c1 in eng.es1.configurations():
        for c2 in eng.es2.configurations():
            for m in enumerate_matchings(c1, c2, weak=weak):
                out.append((m.mask1, m.pairs, m.mask2))
                if len(out) > limit:
                    raise CapExceededError("positions", limit, len(out))
    out.sort()
    return out


# ----------------------------------------------------------------------
# transfer conditions: one helper per key shape, called for each side.
# Keys are built as (own, other) or (own, pairs, other) and reversed for
# side 2, and the events of a new pair likewise.  Strong mode is branching
# mode with the other side's silent lead-in cut to the key itself, no
# silent absorption and no termination obligation.  Callers check only
# keys in alive, so a lookup of the key itself may be skipped.


def _pair_side_ok(eng: Engine, key: PairKey, alive: set[PairKey], side: int) -> bool:
    """Whether every move of one side (1 or 2) of a configuration pair is
    answered by the other side within alive."""
    d = 1 if side == 1 else -1
    own, other = key[::d]
    o = 3 - side
    branching = eng.branching
    silent = (eng.es1, eng.es2)[side - 1].silent_mask if branching else 0
    reach = eng.tau_reach(o, other) if branching else (other,)
    trans, iso_class = eng.trans, eng.iso_class
    for x, own_p in trans(side, own):
        if not x & ~silent and (own_p, other)[::d] in alive:
            continue
        cls = iso_class(side, x)
        answered = False
        for o0 in reach:
            if o0 == other or (own, o0)[::d] in alive:
                for y, other_p in trans(o, o0):
                    if iso_class(o, y) == cls and (own_p, other_p)[::d] in alive:
                        answered = True
                        break
                if answered:
                    break
        if not answered:
            return False
    if branching and eng.terminates(side, own):
        for o0 in reach:
            if (own, o0)[::d] in alive and eng.terminates(o, o0):
                return True
        return False
    return True


def _triple_side_ok(eng: Engine, key: TripleKey, alive: set[TripleKey], side: int) -> bool:
    """Whether every single-event move of one side (1 or 2) of a matching
    is answered by the other side within alive.  A visible event extends
    the matching; in branching mode a silent one is absorbed, or answered
    by a silent event that leaves the pairs as they are."""
    d = 1 if side == 1 else -1
    own, pairs, other = key[::d]
    o = 3 - side
    branching = eng.branching
    es_own, es_other = (eng.es1, eng.es2)[::d]
    silent = es_own.silent_mask if branching else 0
    silent_other = es_other.silent_mask
    reach = eng.tau_reach(o, other) if branching else (other,)
    ext_ok = eng.ext_ok
    for e in es_own.enabled(own):
        own_p = own | 1 << e
        tau = silent >> e & 1
        if tau and (own_p, pairs, other)[::d] in alive:
            continue
        answered = False
        for o0 in reach:
            if o0 == other or (own, pairs, o0)[::d] in alive:
                for f in es_other.enabled(o0):
                    if tau:
                        if not silent_other >> f & 1:
                            continue
                        new_pairs = pairs
                    else:
                        pair = (e, f)[::d]
                        if not ext_ok(pairs, *pair):
                            continue
                        new_pairs = tuple(sorted(pairs + (pair,)))
                    if (own_p, new_pairs, o0 | 1 << f)[::d] in alive:
                        answered = True
                        break
                if answered:
                    break
        if not answered:
            return False
    if branching and eng.terminates(side, own):
        for o0 in reach:
            if (own, pairs, o0)[::d] in alive and eng.terminates(o, o0):
                return True
        return False
    return True


# ----------------------------------------------------------------------
# hereditary closure


def hereditary_ok(eng: Engine, key: TripleKey, alive: set[TripleKey]) -> bool:
    """Whether every synchronized shrinking of the matching stays in the set.

    Shrinking restricts one side to a smaller configuration and keeps only
    the pairs whose events survive.  In strong mode the other side is forced
    to the image of the restriction, which is again a configuration because
    the matching preserves order both ways, so shrinking the first side
    covers every restriction.  In weak mode the pairs pin down only the
    visible image, so each side is shrunk in turn, and the obligation is
    discharged as soon as one completion of that image by silent events of
    the other side is alive."""
    return _shrinkings_ok(eng, key, alive, 1) and (
        not eng.branching or _shrinkings_ok(eng, key, alive, 2)
    )


def _shrinkings_ok(eng: Engine, key: TripleKey, alive: set[TripleKey], side: int) -> bool:
    """hereditary_ok for the shrinkings of one side (1 or 2) of the matching."""
    m1, pairs, m2 = key
    own, other = (m1, m2) if side == 1 else (m2, m1)
    es_own, es_other = (eng.es1, eng.es2) if side == 1 else (eng.es2, eng.es1)
    a, b = (0, 1) if side == 1 else (1, 0)
    own_cfgs = es_own.configuration_masks()
    other_cfgs = es_other.configuration_masks()
    silent_rest = other & es_other.silent_mask if eng.branching else 0
    sub = own
    while sub:
        sub = (sub - 1) & own
        if sub not in own_cfgs:
            continue
        kept = tuple(p for p in pairs if sub >> p[a] & 1)
        image = 0
        for p in kept:
            image |= 1 << p[b]
        extra = silent_rest
        while True:
            cand = image | extra
            restriction = (sub, kept, cand) if side == 1 else (cand, kept, sub)
            if cand in other_cfgs and restriction in alive:
                break
            if extra == 0:
                return False
            extra = (extra - 1) & silent_rest
    return True


# ----------------------------------------------------------------------
# the descending pass


def _supported(eng: Engine, key: Key, alive: set[Key]) -> bool:
    """Whether the key's transfer conditions hold, for both sides, within alive."""
    side_ok = _triple_side_ok if len(key) == 3 else _pair_side_ok
    return side_ok(eng, key, alive, 1) and side_ok(eng, key, alive, 2)


def _prune(eng: Engine, universe: list[Key], alive: set[Key]) -> None:
    """Remove from alive, in one descending pass over the sorted universe,
    every key whose transfer conditions fail.  A check reads only its key
    and later keys, which the pass has already settled."""
    for key in reversed(universe):
        if key in alive and not _supported(eng, key, alive):
            alive.discard(key)


# ----------------------------------------------------------------------
# public entry points


def greatest_bisimulation(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
    caps: Caps | None = None,
) -> Relation:
    """The largest relation closed under the kind's transfer conditions."""
    eng = Engine(es1, es2, kind, strong_tau_erasure, caps)
    universe = triple_universe(eng) if kind.posetal else _pair_universe(eng)
    alive: set[Key] = set(universe)
    _prune(eng, universe, alive)
    if kind.flavor is Flavor.HHP:
        while demoted := [
            key for key in universe if key in alive and not hereditary_ok(eng, key, alive)
        ]:
            alive.difference_update(demoted)
            _prune(eng, universe, alive)
    if kind.posetal:
        matchings = frozenset(
            Matching(es1, es2, m1, m2, pairs, eng.branching) for m1, pairs, m2 in alive
        )
        return Relation(es1, es2, kind, matchings=matchings)
    pairs = frozenset((Configuration(es1, m1), Configuration(es2, m2)) for m1, m2 in alive)
    return Relation(es1, es2, kind, pairs=pairs)


def check(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
    caps: Caps | None = None,
) -> Verdict:
    """Decide equivalence; the empty pair or matching must survive."""
    relation = greatest_bisimulation(
        es1, es2, kind, strong_tau_erasure=strong_tau_erasure, caps=caps
    )
    if kind.posetal:
        assert relation.matchings is not None
        empty = Matching(es1, es2, 0, 0, (), kind.branching)
        equivalent = empty in relation.matchings
    else:
        assert relation.pairs is not None
        empty_pair = (es1.empty_configuration(), es2.empty_configuration())
        equivalent = empty_pair in relation.pairs
    return Verdict(kind, equivalent, relation if equivalent else None)


def verify_witness(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    members: Relation | Iterable,
    *,
    strong_tau_erasure: bool = False,
) -> bool:
    """Re-check that a claimed relation is closed under the kind's
    transfer conditions (and hereditarily closed for hhp).  Malformed
    elements raise MalformedWitnessError; a well-formed set that merely
    fails closure returns False."""
    eng = Engine(es1, es2, kind, strong_tau_erasure)
    if isinstance(members, Relation):
        members = members.sorted_members()
    keys: set[Key] = set()
    for m in members:
        if kind.posetal:
            if not isinstance(m, Matching):
                raise MalformedWitnessError(f"expected a matching, got {m!r}")
            if m.es1 is not es1 or m.es2 is not es2:
                raise MalformedWitnessError("matching belongs to a different structure pair")
            if m.weak != eng.branching:
                raise MalformedWitnessError(
                    f"matching mode does not fit {kind}: expected "
                    f"{'weak' if eng.branching else 'strong'}"
                )
            reason = m.invalid_reason()
            if reason:
                raise MalformedWitnessError(reason)
            keys.add((m.mask1, m.pairs, m.mask2))
            continue
        try:
            c1, c2 = m
        except (TypeError, ValueError):
            raise MalformedWitnessError(f"expected a configuration pair, got {m!r}") from None
        if not isinstance(c1, Configuration) or not isinstance(c2, Configuration):
            raise MalformedWitnessError(f"expected a configuration pair, got {m!r}")
        if c1.owner is not es1 or c2.owner is not es2:
            raise MalformedWitnessError("configuration pair belongs to a different structure pair")
        if not es1.is_configuration_mask(c1.mask) or not es2.is_configuration_mask(c2.mask):
            raise MalformedWitnessError(f"{c1} or {c2} is not a configuration")
        keys.add((c1.mask, c2.mask))
    return all(_supported(eng, key, keys) for key in keys) and (
        kind.flavor is not Flavor.HHP or all(hereditary_ok(eng, key, keys) for key in keys)
    )

"""Greatest-fixpoint computation of the eight bisimilarities.

The oracle starts from the full candidate universe (all configuration
pairs, or all matchings for the history-preserving flavors) and removes
elements whose transfer conditions fail against the current set, until
nothing changes.  The hereditary flavors additionally prune any matching
that has a pointwise-smaller valid matching outside the current set,
re-running transfer pruning after each closure pass until a joint
fixpoint.  Two structures are equivalent exactly when the empty pair
(or empty matching) survives.

Transfer conditions, per challenge C1 --X--> C1' (and symmetrically):

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
from typing import Callable, Iterable, TypeVar

from .errors import CapExceededError, MalformedWitnessError
from .kinds import BisimulationKind, Flavor
from .pes import Caps, Configuration, EventStructure, bits
from .pomsets import Matching, Pairs, enumerate_matchings, extends, iso_masks, signature

PairKey = tuple[int, int]
TripleKey = tuple[int, Pairs, int]
Key = TypeVar("Key")


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
        self._iso_cache: dict[tuple[int, int], bool] = {}
        self._classes: dict[tuple[int, int], int] = {}
        self._class_reps: dict[tuple, list[tuple[int, int, int]]] = {}

    def trans(self, side: int, mask: int) -> tuple[tuple[int, int], ...]:
        es = self.es1 if side == 1 else self.es2
        return es.transition_masks(mask, self.step)

    def singles(self, side: int, mask: int) -> tuple[int, ...]:
        es = self.es1 if side == 1 else self.es2
        return es.enabled(mask)

    def iso(self, x1: int, x2: int) -> bool:
        key = (x1, x2)
        hit = self._iso_cache.get(key)
        if hit is None:
            hit = self._iso_cache[key] = self.iso_class(1, x1) == self.iso_class(2, x2)
        return hit

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

    def silent(self, side: int, e: int) -> bool:
        es = self.es1 if side == 1 else self.es2
        return bool(es.silent_mask >> e & 1)

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
# transfer conditions


def _pair_supported(eng: Engine, key: PairKey, alive: set[PairKey]) -> bool:
    m1, m2 = key
    if eng.branching:
        silent1 = eng.es1.silent_mask
        silent2 = eng.es2.silent_mask
        for x, m1p in eng.trans(1, m1):
            if not x & ~silent1 and (m1p, m2) in alive:
                continue
            if not any(
                (m1, m20) in alive
                and any(
                    eng.iso(x, y) and (m1p, m2p) in alive for y, m2p in eng.trans(2, m20)
                )
                for m20 in eng.tau_reach(2, m2)
            ):
                return False
        for y, m2p in eng.trans(2, m2):
            if not y & ~silent2 and (m1, m2p) in alive:
                continue
            if not any(
                (m10, m2) in alive
                and any(
                    eng.iso(x, y) and (m1p, m2p) in alive for x, m1p in eng.trans(1, m10)
                )
                for m10 in eng.tau_reach(1, m1)
            ):
                return False
        if eng.terminates(1, m1) and not any(
            (m1, m20) in alive and eng.terminates(2, m20) for m20 in eng.tau_reach(2, m2)
        ):
            return False
        if eng.terminates(2, m2) and not any(
            (m10, m2) in alive and eng.terminates(1, m10) for m10 in eng.tau_reach(1, m1)
        ):
            return False
        return True
    for x, m1p in eng.trans(1, m1):
        if not any(eng.iso(x, y) and (m1p, m2p) in alive for y, m2p in eng.trans(2, m2)):
            return False
    for y, m2p in eng.trans(2, m2):
        if not any(eng.iso(x, y) and (m1p, m2p) in alive for x, m1p in eng.trans(1, m1)):
            return False
    return True


def _triple_supported(eng: Engine, key: TripleKey, alive: set[TripleKey]) -> bool:
    m1, pairs, m2 = key
    if eng.branching:
        return _triple_supported_branching(eng, key, alive)
    for e1 in eng.singles(1, m1):
        m1p = m1 | 1 << e1
        if not any(
            eng.ext_ok(pairs, e1, e2)
            and (m1p, tuple(sorted(pairs + ((e1, e2),))), m2 | 1 << e2) in alive
            for e2 in eng.singles(2, m2)
        ):
            return False
    for e2 in eng.singles(2, m2):
        m2p = m2 | 1 << e2
        if not any(
            eng.ext_ok(pairs, e1, e2)
            and (m1 | 1 << e1, tuple(sorted(pairs + ((e1, e2),))), m2p) in alive
            for e1 in eng.singles(1, m1)
        ):
            return False
    return True


def _triple_supported_branching(eng: Engine, key: TripleKey, alive: set[TripleKey]) -> bool:
    m1, pairs, m2 = key
    for e1 in eng.singles(1, m1):
        m1p = m1 | 1 << e1
        if eng.silent(1, e1) and (m1p, pairs, m2) in alive:
            continue
        ok = False
        for m20 in eng.tau_reach(2, m2):
            if (m1, pairs, m20) not in alive:
                continue
            for e2 in eng.singles(2, m20):
                if eng.silent(1, e1):
                    if not eng.silent(2, e2):
                        continue
                    new_pairs = pairs
                elif not eng.ext_ok(pairs, e1, e2):
                    continue
                else:
                    new_pairs = tuple(sorted(pairs + ((e1, e2),)))
                if (m1p, new_pairs, m20 | 1 << e2) in alive:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    for e2 in eng.singles(2, m2):
        m2p = m2 | 1 << e2
        if eng.silent(2, e2) and (m1, pairs, m2p) in alive:
            continue
        ok = False
        for m10 in eng.tau_reach(1, m1):
            if (m10, pairs, m2) not in alive:
                continue
            for e1 in eng.singles(1, m10):
                if eng.silent(2, e2):
                    if not eng.silent(1, e1):
                        continue
                    new_pairs = pairs
                elif not eng.ext_ok(pairs, e1, e2):
                    continue
                else:
                    new_pairs = tuple(sorted(pairs + ((e1, e2),)))
                if (m10 | 1 << e1, new_pairs, m2p) in alive:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    if eng.terminates(1, m1) and not any(
        (m1, pairs, m20) in alive and eng.terminates(2, m20) for m20 in eng.tau_reach(2, m2)
    ):
        return False
    if eng.terminates(2, m2) and not any(
        (m10, pairs, m2) in alive and eng.terminates(1, m10) for m10 in eng.tau_reach(1, m1)
    ):
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


def _prune(
    eng: Engine,
    universe: list[Key],
    alive: set[Key],
    supported: Callable[[Engine, Key, set[Key]], bool],
) -> None:
    """Remove the members of alive that are not supported by alive, until
    every remaining member is."""
    changed = True
    while changed:
        changed = False
        for key in universe:
            if key in alive and not supported(eng, key, alive):
                alive.discard(key)
                changed = True


def _closure_fixpoint(
    eng: Engine, universe: list[TripleKey], alive: set[TripleKey]
) -> set[TripleKey]:
    _prune(eng, universe, alive, _triple_supported)
    if eng.kind.flavor is Flavor.HHP:
        while demoted := [
            key for key in universe if key in alive and not hereditary_ok(eng, key, alive)
        ]:
            alive.difference_update(demoted)
            _prune(eng, universe, alive, _triple_supported)
    return alive


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
    if kind.posetal:
        universe = triple_universe(eng)
        alive: set[TripleKey] = set(universe)
        alive = _closure_fixpoint(eng, universe, alive)
        matchings = frozenset(
            Matching(es1, es2, m1, m2, pairs, eng.branching)
            for m1, pairs, m2 in alive
        )
        return Relation(es1, es2, kind, matchings=matchings)
    pair_universe = _pair_universe(eng)
    pairs_alive: set[PairKey] = set(pair_universe)
    _prune(eng, pair_universe, pairs_alive, _pair_supported)
    pairs = frozenset(
        (Configuration(es1, m1), Configuration(es2, m2)) for m1, m2 in pairs_alive
    )
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
    if kind.posetal:
        keys: set[TripleKey] = set()
        for m in members:
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
        for key in keys:
            if not _triple_supported(eng, key, keys):
                return False
        if kind.flavor is Flavor.HHP:
            for key in keys:
                if not hereditary_ok(eng, key, keys):
                    return False
        return True
    pair_keys: set[PairKey] = set()
    for m in members:
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
        pair_keys.add((c1.mask, c2.mask))
    return all(_pair_supported(eng, key, pair_keys) for key in pair_keys)

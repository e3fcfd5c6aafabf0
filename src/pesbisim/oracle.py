"""Greatest bisimulations of the eight kinds.

Pomset and step transfer conditions read configurations only, so these
kinds are strong bisimilarity, or branching bisimilarity with explicit
termination, on the disjoint union of the two configuration graphs, each
transition labelled by its pomset's class (silent if all its events are):
an antichain's class is read off its signature (``pomsets.signature``),
and any other pomset is confirmed by ``iso_masks`` against the classes
that share its signature.  Both are equivalences (Basten, IPL 58(3),
1996), so the relation is the configuration pairs that share a class.
Strong classes are settled in one pass, supersets first, each the id of
its own signature, the (label, target class) of its moves (Paige and
Tarjan, SIAM J. Comput. 16(6), 1987, acyclic case); branching ones are
refined by signatures (Blom and Orzan, PDMC 2003) until their count
stops growing.

hp and hhp start from every matching of every configuration pair, grown
from the empty one by the hp answers below, and drop the keys whose
transfer conditions fail in one pass in descending key order.  The check
of a key (m1, pairs, m2) reads only itself, keys with a larger m1, and
keys with the same m1 and pairs but a larger m2, all settled before it;
the key itself is taken as alive, as the greatest fixpoint assumes.  hhp
repeats the pass after demoting every matching with a restriction
outside the current set (``unclosed``, which removes one maximal event
at a time), until nothing is demoted: hereditary closure reads smaller
keys.  Two structures are equivalent when the empty key is related.

Twins (``EventStructure.twin_masks``) are events of one structure with
the same label whose swap keeps causality, conflict and termination.
Permuting them maps the greatest relation onto itself, so the pass
checks only the largest key of each orbit (the keys with as many pairs
in each pair of twin classes and, per side, as many events of each
class) and drops the orbit if it fails.  The other keys a check reads
are larger, and so are their orbits' largest keys, hence settled; hhp
demotion checks only those keys.

Transfer conditions, checked key by key in the hp and hhp pass and by
``verify_witness`` for every kind, per challenge C1 --X--> C1' of either
side (each rule is written once and checked for side 1 and for side 2):

* strong: some C2 --Y--> C2' with Y isomorphic to X and the successor
  pair in the relation.  Silent labels compare as ordinary labels unless
  the strong_tau_erasure switch is set, which acts on pomset and step
  only: strong matchings pair silent events like labelled ones.
* branching: either X is all silent and (C1',C2) is in the relation, or
  some silent-reachable C2_0 with (C1,C2_0) in the relation makes a single
  move C2_0 --Y--> C2' with the visible parts of X and Y isomorphic and
  (C1',C2') in the relation.  Additionally, a terminating side must be
  answered by a silent-reachable, related, terminating configuration.

Keys are (first mask, pairs, second mask), pairs None for pomset and
step.  The move layer, ``Engine``, ``triple_universe`` and ``unclosed``,
is public: the games take their moves from ``Engine`` and demote by the
same closure, so both decision procedures share every move's definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceededError, MalformedWitnessError
from .kinds import BisimulationKind, Flavor
from .pes import EventStructure, bits
from .pomsets import Pairs, iso_masks, matching_fault, signature
from .pomsets import enumerate_matchings  # noqa: F401  perfbench/tracing.py wraps this name

Key = tuple[int, Pairs | None, int]
"""(first mask, pairs, second mask); pairs is None for pomset and step,
and for hp and hhp the matching's pairs, sorted by first index."""


class Relation:
    """A set of related states of es1 and es2 under kind, kept as keys (see Key)."""

    def __init__(
        self, es1: EventStructure, es2: EventStructure, kind: BisimulationKind, keys: frozenset[Key]
    ):
        self.es1 = es1
        self.es2 = es2
        self.kind = kind
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def sorted_keys(self) -> list[Key]:
        """The keys ordered by first mask, second mask, pairs."""
        return sorted(self.keys, key=lambda k: (k[0], k[2], k[1]))


@dataclass(frozen=True)
class Verdict:
    """Oracle answer; witness is the greatest relation when equivalent,
    absent otherwise (distinguishing evidence comes from the games)."""

    kind: BisimulationKind
    equivalent: bool
    witness: Relation | None


class Engine:
    """The moves of one structure pair under one kind, per side (1 or 2):
    Spoiler's challenges, Duplicator's answers and pomset isomorphism
    classes.  es[side] is the structure of a side, whose enabled events,
    silent reachability and termination the callers read directly.
    strong_tau_erasure acts on strong pomset and step only."""

    def __init__(
        self,
        es1: EventStructure,
        es2: EventStructure,
        kind: BisimulationKind,
        strong_tau_erasure: bool = False,
    ):
        self.es1 = es1
        self.es2 = es2
        self.kind = kind
        self.caps = es1.caps
        self.strong_tau_erasure = strong_tau_erasure
        self.posetal = kind.posetal
        self.step = kind.step_moves
        self.branching = kind.branching
        self.erase = True if self.branching else strong_tau_erasure
        self.es = (None, es1, es2)
        self._classes: dict[tuple[int, int], int] = {}
        self._class_reps: dict[tuple, list[tuple[int, int, int]]] = {}
        self._singles: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._iso_answers: dict[tuple[int, int], dict[int, list[tuple[int, None]]]] = {}

    def challenges(self, side: int, mask: int) -> Sequence[tuple[int, int]]:
        """The moves of one side from a configuration, as (added events,
        target): single events for hp and hhp, transitions otherwise."""
        es = self.es[side]
        if not self.posetal:
            return es.transition_masks(mask, self.step)
        moves = self._singles.get((side, mask))
        if moves is None:
            moves = tuple((1 << e, mask | 1 << e) for e in es.enabled(mask))
            self._singles[side, mask] = moves
        return moves

    def answers(
        self, side: int, x: int, pairs: Pairs | None, other: int
    ) -> Iterable[tuple[int, Pairs | None]]:
        """The other side's answers, from its configuration other, to the
        challenge x of the given side, as (target, pairs) in move order.
        pairs is the matching as (es1 index, es2 index) pairs, None for
        pomset and step, whose answers are the isomorphic transitions.  A
        matching is extended lazily by the answering event; in branching
        mode a silent event is answered by a silent one, keeping the pairs."""
        o = 3 - side
        if not self.posetal:
            return self.iso_answers(o, self.iso_class(side, x), other)
        es, es_o = self.es[side], self.es[o]
        enabled = es_o.enabled(other)
        if self.branching and x & es.silent_mask:
            return [(other | 1 << f, pairs) for f in enabled if es_o.silent_mask >> f & 1]
        # e and each answer f are enabled, so maximal once added: (e, f) may join
        # the pairs iff the labels agree and f's matched past is the image of e's.
        e, a = x.bit_length() - 1, side - 1
        past, image = es.past_masks[e], 0
        for p in pairs:
            if past >> p[a] & 1:
                image |= 1 << p[1 - a]
        matched = other & ~es_o.silent_mask if self.branching else other
        name, names, pasts = es.labels[e], es_o.labels, es_o.past_masks
        return (
            (other | 1 << f, tuple(sorted(pairs + (((e, f) if a == 0 else (f, e)),))))
            for f in enabled
            if pasts[f] & matched == image and names[f] == name
        )

    def iso_answers(self, side: int, cid: int, mask: int) -> Sequence[tuple[int, None]]:
        """One side's transitions from mask whose pomset is of class cid, as (target, None)."""
        table = self._iso_answers.get((side, mask))
        if table is None:
            table = self._iso_answers[side, mask] = {}
            for y, target in self.challenges(side, mask):
                table.setdefault(self.iso_class(side, y), []).append((target, None))
        return table.get(cid, ())

    def iso_class(self, side: int, mask: int) -> int:
        """The isomorphism class id of a pomset of one side, silent events
        erased first when erase is set: the index, among the masks of
        either side classified so far, of the first one isomorphic to it.
        Antichains with one signature are isomorphic, so need no search."""
        es = self.es[side]
        if self.erase:
            mask &= ~es.silent_mask
        cid = self._classes.get((side, mask))
        if cid is None:
            sig = signature(es, mask)
            reps = self._class_reps.setdefault(sig, [])
            antichain = all(below == above == 1 for _, below, above in sig)
            for rep, rep_side, rep_mask in reps:
                if antichain or iso_masks(self.es[rep_side], rep_mask, es, mask):
                    cid = rep
                    break
            else:
                cid = len(self._classes)
                reps.append((cid, side, mask))
            self._classes[side, mask] = cid
        return cid


# ----------------------------------------------------------------------
# pomset and step classes, hp and hhp candidates


def _same_class_pairs(eng: Engine) -> frozenset[Key]:
    """The configuration pairs that share a class.  Each round numbers the configurations,
    supersets first, by last class and signature (None in it marks termination)."""
    masks = (None, eng.es1.configurations(), eng.es2.configurations())
    if (total := len(masks[1]) * len(masks[2])) > eng.caps.max_positions:
        raise CapExceededError("positions", eng.caps.max_positions, total)
    nodes = [(s, m) for s in (1, 2) for m in reversed(masks[s])]  # a superset is a larger mask
    tau = eng.iso_class(1, 0) if eng.branching else None  # the erased class of a silent move
    moves = {n: [(eng.iso_class(n[0], x), (n[0], t)) for x, t in eng.challenges(*n)] for n in nodes}
    old, new = {}, dict.fromkeys(nodes, 0)
    while new != old:  # classes are numbered in visiting order: a stable partition repeats
        old, ids, new, sigs = new, {}, {}, {}  # signature ids, and each node's class, signature
        for node in nodes:
            sig = {None} if eng.branching and eng.es[node[0]].terminates_mask(node[1]) else set()
            for label, target in moves[node]:
                if label == tau and old[target] == old[node]:  # inert: take the target's
                    sig |= sigs[target]
                else:
                    sig.add((label, new[target]))
            sigs[node] = sig = frozenset(sig)
            new[node] = ids.setdefault((old[node], sig), len(ids))
        if not eng.branching:  # no strong move is inert, so the first round is final
            break
    right: dict[int, list[int]] = {}  # the configurations of es2 by class
    for m2 in masks[2]:
        right.setdefault(new[2, m2], []).append(m2)
    return frozenset((m1, None, m2) for m1 in masks[1] for m2 in right.get(new[1, m1], ()))


def triple_universe(eng: Engine) -> list[Key]:
    """Every matching of every configuration pair, weak in branching mode,
    as sorted keys, grown from the empty matching by each enabled side-1
    event later than all of m1 in one linearisation of es1 (so a strong
    key is found once), through ``Engine.answers`` or, if silent in
    branching mode, alone; and in branching mode by each silent side-2 event."""
    eng.es1.configurations(), eng.es2.configurations()  # the configurations cap applies
    silent1, silent2 = (eng.es1.silent_mask, eng.es2.silent_mask) if eng.branching else (0, 0)
    limit = eng.caps.max_positions
    rank = [(past.bit_count(), e) for e, past in enumerate(eng.es1.past_masks)]
    later = [sum(1 << g for g, r in enumerate(rank) if r > q) for q in rank]
    out: list[Key] = [(0, (), 0)]
    seen = set(out)
    for m1, pairs, m2 in out:  # out is the queue
        found = [(m1, pairs, m2 | 1 << f) for f in eng.es2.enabled(m2) if silent2 >> f & 1]
        for e in eng.es1.enabled(m1):
            if m1 & later[e]:
                continue
            if silent1 >> e & 1:
                found.append((m1 | 1 << e, pairs, m2))
            else:
                found += [(m1 | 1 << e, p, t) for t, p in eng.answers(1, 1 << e, pairs, m2)]
        new = [key for key in found if key not in seen]
        seen.update(new)
        out += new
        if len(out) > limit:
            raise CapExceededError("positions", limit, limit + 1)
    out.sort()
    return out


# ----------------------------------------------------------------------
# transfer conditions


def _side_ok(eng: Engine, key: Key, alive: set[Key], side: int) -> bool:
    """Whether every challenge of one side (1 or 2) of the key is answered
    by the other side within alive.  The key is read as (own, pairs,
    other), reversed for side 2.  Strong mode is branching mode with the
    other side's silent lead-in cut to the key itself, no silent
    absorption and no termination obligation.  Callers check only keys in
    alive, so a lookup of the key itself may be skipped."""
    d = 1 if side == 1 else -1
    own, pairs, other = key[::d]
    es_own, es_o = eng.es[side], eng.es[3 - side]
    branching = eng.branching
    silent = es_own.silent_mask
    reach = es_o.tau_reachable_masks(other) if branching else (other,)
    answers = eng.answers
    for x, own_p in eng.challenges(side, own):
        if branching and not x & ~silent and (own_p, pairs, other)[::d] in alive:
            continue
        for o0 in reach:
            if o0 == other or (own, pairs, o0)[::d] in alive:
                if any((own_p, p, t)[::d] in alive for t, p in answers(side, x, pairs, o0)):
                    break
        else:
            return False
    if branching and es_own.terminates_mask(own):
        return any((own, pairs, o0)[::d] in alive and es_o.terminates_mask(o0) for o0 in reach)
    return True


# ----------------------------------------------------------------------
# hereditary closure


def unclosed(eng: Engine, keys: Iterable[Key], alive: set[Key]) -> set[Key]:
    """The keys of keys with a synchronized restriction outside alive.

    A restriction shrinks one side to a configuration within the key's
    (its own included, then one maximal event less at a time), keeps the
    pairs whose events survive, and must be in alive with the image of
    those pairs, completed in weak mode by silent events the key holds
    there (its rest).  A key whose masks hold no silent event is matched
    whole, so its side-1 restrictions are all.  Each restriction is judged
    once per call, whichever key reaches it."""
    memo: dict[tuple[int, int, Pairs, int], bool] = {}
    s1, s2 = (eng.es1.silent_mask, eng.es2.silent_mask) if eng.branching else (0, 0)
    cfgs = (None, eng.es1.configuration_masks(), eng.es2.configuration_masks())

    def completed(side: int, own: int, kept: Pairs, rest: int) -> bool:
        d, image = 1 if side == 1 else -1, 0
        for p in kept:
            image |= 1 << p[2 - side]
        extra = rest
        while True:
            cand = image | extra
            if (own, kept, cand)[::d] in alive and cand in cfgs[3 - side]:
                return True
            if not extra:
                return False
            extra = (extra - 1) & rest

    def closed(side: int, own: int, kept: Pairs, rest: int) -> bool:
        ok = memo.get((side, own, kept, rest))
        if ok is None:
            ok = completed(side, own, kept, rest) and all(
                closed(side, own ^ 1 << e, tuple(p for p in kept if p[side - 1] != e), rest)
                for e in bits(own)
                if own ^ 1 << e in cfgs[side]
            )
            memo[side, own, kept, rest] = ok
        return ok

    return {
        key
        for key in keys
        if not closed(1, key[0], key[1], key[2] & s2)
        or (key[0] & s1 or key[2] & s2) and not closed(2, key[2], key[1], key[0] & s1)
    }


# ----------------------------------------------------------------------
# the descending pass


def _supported(eng: Engine, key: Key, alive: set[Key]) -> bool:
    """Whether the key's transfer conditions hold, for both sides, within alive."""
    return _side_ok(eng, key, alive, 1) and _side_ok(eng, key, alive, 2)


def _orbits(eng: Engine, universe: list[Key]) -> tuple[list[Key], dict[Key, list[Key]]]:
    """The largest key of each orbit of the sorted universe, ascending, and
    the orbit of each; with no twins, the universe itself and no orbits."""
    t1, t2 = eng.es1.twin_masks, eng.es2.twin_masks
    if len(set(t1)) == len(t1) and len(set(t2)) == len(t2):
        return universe, {}
    width = max(len(t1), len(t2)).bit_length()  # wide enough for any count of pairs
    weight = {  # one count per pair of classes, each class numbered by its lowest event
        (i, j): 1 << width * ((a & -a).bit_length() * len(t2) + (b & -b).bit_length())
        for i, a in enumerate(t1)
        for j, b in enumerate(t2)
    }
    counts1, counts2 = (
        {m: tuple((m & c).bit_count() for c in classes) for m in es.configuration_masks()}
        for es, classes in ((eng.es1, set(t1)), (eng.es2, set(t2)))
    )
    orbits: dict[tuple, list[Key]] = {}
    for key in universe:
        m1, pairs, m2 = key
        matched = sum(map(weight.__getitem__, pairs))
        orbits.setdefault((matched, counts1[m1], counts2[m2]), []).append(key)
    by_rep = {orbit[-1]: orbit for orbit in orbits.values()}
    return sorted(by_rep), by_rep


def _prune(eng: Engine, reps: list[Key], orbits: dict[Key, list[Key]], alive: set[Key]) -> None:
    """Remove from alive, in one descending pass over the representatives,
    every orbit whose representative's transfer conditions fail."""
    for key in reversed(reps):
        if key in alive and not _supported(eng, key, alive):
            alive.difference_update(orbits.get(key, (key,)))


# ----------------------------------------------------------------------
# public entry points


def greatest_bisimulation(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
) -> Relation:
    """The largest relation closed under the kind's transfer conditions."""
    eng = Engine(es1, es2, kind, strong_tau_erasure)
    if not kind.posetal:
        return Relation(es1, es2, kind, _same_class_pairs(eng))
    universe = triple_universe(eng)
    alive: set[Key] = set(universe)
    reps, orbits = _orbits(eng, universe)
    _prune(eng, reps, orbits, alive)
    if kind.flavor is Flavor.HHP:
        while demoted := unclosed(eng, alive.intersection(reps), alive):
            alive.difference_update(*(orbits.get(key, (key,)) for key in demoted))
            _prune(eng, reps, orbits, alive)
    return Relation(es1, es2, kind, frozenset(alive))


def check(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    *,
    strong_tau_erasure: bool = False,
) -> Verdict:
    """Decide equivalence; the empty pair or matching must survive.
    strong_tau_erasure acts on strong pomset and step only."""
    relation = greatest_bisimulation(es1, es2, kind, strong_tau_erasure=strong_tau_erasure)
    equivalent = (0, () if kind.posetal else None, 0) in relation.keys
    return Verdict(kind, equivalent, relation if equivalent else None)


def verify_witness(
    es1: EventStructure,
    es2: EventStructure,
    kind: BisimulationKind,
    members: Relation | Iterable[Key],
    *,
    strong_tau_erasure: bool = False,
) -> bool:
    """Re-check that a claimed relation, a Relation of es1 and es2 or keys
    as the engines produce them, is closed under the kind's transfer
    conditions (and hereditarily closed for hhp).  A malformed key, or a
    Relation of another structure pair, raises MalformedWitnessError; a
    well-formed set that merely fails closure returns False."""
    eng = Engine(es1, es2, kind, strong_tau_erasure)
    if isinstance(members, Relation):
        if members.es1 is not es1 or members.es2 is not es2:
            raise MalformedWitnessError("relation belongs to a different structure pair")
        members = members.keys
    keys: set[Key] = set()
    for key in members:
        reason = _key_fault(eng, key)
        if reason:
            raise MalformedWitnessError(f"{key!r}: {reason}")
        keys.add(key)
    return all(_supported(eng, key, keys) for key in keys) and (
        kind.flavor is not Flavor.HHP or not unclosed(eng, keys, keys)
    )


def _key_fault(eng: Engine, key: object) -> str | None:
    """None when key is a key of the engine's kind between configurations,
    else a description of the violation."""
    if not isinstance(key, tuple) or len(key) != 3:
        return "not a (mask, pairs, mask) key"
    m1, pairs, m2 = key
    if not isinstance(m1, int) or not isinstance(m2, int):
        return "masks must be ints"
    if not eng.es1.is_configuration_mask(m1) or not eng.es2.is_configuration_mask(m2):
        return "endpoints are not configurations"
    if not eng.posetal:
        return None if pairs is None else f"pairs must be None for {eng.kind}"
    if not isinstance(pairs, tuple) or not all(
        isinstance(p, tuple) and len(p) == 2 and all(isinstance(i, int) and i >= 0 for i in p)
        for p in pairs
    ):
        return f"pairs must be a tuple of event index pairs for {eng.kind}"
    if list(pairs) != sorted(pairs):
        return "pairs are not sorted by first index"
    return matching_fault(eng.es1, eng.es2, m1, pairs, m2, eng.branching)

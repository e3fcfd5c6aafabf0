"""Pomset isomorphism, matchings and matching extension, cross-checked
against permutation brute force and against each other."""

from __future__ import annotations

import itertools
import random

import pytest

from pesbisim import (
    BisimulationKind,
    EventStructure,
    Flavor,
    MalformedWitnessError,
    Mode,
    SILENT_LABEL,
    enumerate_matchings,
    verify_witness,
)
from pesbisim.games import build_arena
from pesbisim.oracle import Engine, triple_universe, unclosed
from pesbisim.pomsets import iso_masks, matching_fault, signature

import reference
from conftest import ch, iso_after_erasure, pa, par, random_es, random_pairs, seq, tau, tau_par

HP_STRONG = BisimulationKind(Flavor.HP, Mode.STRONG)
HP_BRANCHING = BisimulationKind(Flavor.HP, Mode.BRANCHING)
HHP_STRONG = BisimulationKind(Flavor.HHP, Mode.STRONG)
HHP_BRANCHING = BisimulationKind(Flavor.HHP, Mode.BRANCHING)


def brute_matchings(es1, ev1, es2, ev2, erase: bool) -> set[tuple[tuple[int, int], ...]]:
    """Every label- and order-preserving bijection between the event
    lists, as sorted index pairs, by trying all permutations."""
    if erase:
        ev1 = [e for e in ev1 if es1.label(e) != SILENT_LABEL]
        ev2 = [e for e in ev2 if es2.label(e) != SILENT_LABEL]
    if len(ev1) != len(ev2):
        return set()
    out = set()
    for perm in itertools.permutations(ev2):
        pairs = list(zip(ev1, perm))
        if all(es1.label(a) == es2.label(b) for a, b in pairs) and all(
            es1.leq(a, c) == es2.leq(b, d) for a, b in pairs for c, d in pairs
        ):
            out.add(tuple(sorted((es1.event_index(a), es2.event_index(b)) for a, b in pairs)))
    return out


def test_par_antichain_vs_ch_chain_not_isomorphic():
    p, c = par(), ch()
    assert not iso_masks(p, p.mask_of(["a", "b"]), c, c.mask_of(["a1", "b1"]))


def test_same_signature_pomsets_that_are_not_isomorphic():
    """Every event of P1 has a partner of its key in P2, yet in P1 the c is
    caused by a b and in P2 by an a.  Both are declared effects before
    causes, so a search that assigns events in declaration order and
    checks each candidate's past alone would pair them."""
    p1 = EventStructure(
        "P1", [("x", "a"), ("y", "b"), ("z", "c"), ("u", "a"), ("v", "b")], [("u", "y"), ("v", "z")]
    )
    p2 = EventStructure(
        "P2", [("p", "a"), ("q", "b"), ("r", "a"), ("s", "c"), ("t", "b")], [("p", "s"), ("q", "t")]
    )
    full1, full2 = p1.full_mask, p2.full_mask
    assert signature(p1, full1) == signature(p2, full2)
    assert not iso_masks(p1, full1, p2, full2)
    assert not iso_masks(p2, full2, p1, full1)
    assert enumerate_matchings(p1, full1, p2, full2, weak=False) == ()
    eng = Engine(p1, p2, BisimulationKind(Flavor.POMSET, Mode.STRONG))
    assert eng.iso_class(1, full1) != eng.iso_class(2, full2)


def test_iso_matches_brute_force():
    rng = random.Random(21)
    for _ in range(80):
        es1 = random_es(rng, "A")
        es2 = random_es(rng, "B")
        cfgs1 = es1.configurations()
        cfgs2 = es2.configurations()
        c1 = rng.choice(cfgs1)
        c2 = rng.choice(cfgs2)
        ev1, ev2 = es1.events_of_mask(c1), es2.events_of_mask(c2)
        for erase in (False, True):
            expected = bool(brute_matchings(es1, ev1, es2, ev2, erase))
            assert iso_after_erasure(es1, c1, es2, c2, erase) == expected


def test_iso_is_equivalence_on_samples():
    rng = random.Random(22)
    pomsets = []
    for _ in range(12):
        es = random_es(rng, "E")
        pomsets.append((es, rng.choice(es.configurations())))

    def iso(p, q):
        return iso_masks(*p, *q)

    for p in pomsets:
        assert iso(p, p)
    for p, q in itertools.combinations(pomsets, 2):
        assert iso(p, q) == iso(q, p)
    for p, q, r in itertools.combinations(pomsets, 3):
        if iso(p, q) and iso(q, r):
            assert iso(p, r)


def test_silent_erasure_iso():
    t, s = tau(), seq()
    chain, just_a = t.mask_of(["t", "a"]), s.mask_of(["a"])
    assert not iso_after_erasure(t, chain, s, just_a, False)
    assert iso_after_erasure(t, chain, s, just_a, True)


# ----------------------------------------------------------------------
# matchings


def test_empty_configurations_have_one_matching():
    s = seq()
    assert enumerate_matchings(s, 0, s, 0, weak=False) == ((),)


def test_all_a_antichain_has_two_matchings():
    aa = EventStructure("AA", [("x", "a"), ("y", "a")])
    got = enumerate_matchings(aa, aa.full_mask, aa, aa.full_mask, weak=False)
    assert got == (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    # but PAR's a,b antichain admits exactly the label-respecting map
    p = par()
    assert len(enumerate_matchings(p, p.full_mask, p, p.full_mask, weak=False)) == 1
    # and no bijection maps the antichain onto a chain of two a events,
    # whichever way round the order is checked
    chain = EventStructure("AC", [("u", "a"), ("v", "a")], [("u", "v")])
    assert enumerate_matchings(aa, aa.full_mask, chain, chain.full_mask, weak=False) == ()
    assert enumerate_matchings(chain, chain.full_mask, aa, aa.full_mask, weak=False) == ()


def test_label_mismatch_has_no_matchings():
    s = seq()
    b_only = EventStructure("B", [("b", "b")])
    got = enumerate_matchings(s, s.mask_of(["a"]), b_only, b_only.mask_of(["b"]), weak=False)
    assert got == ()


def test_enumerate_matches_iso():
    rng = random.Random(23)
    for _ in range(60):
        es1 = random_es(rng, "A")
        es2 = random_es(rng, "B")
        c1 = rng.choice(es1.configurations())
        c2 = rng.choice(es2.configurations())
        ev1, ev2 = es1.events_of_mask(c1), es2.events_of_mask(c2)
        for weak in (False, True):
            got = enumerate_matchings(es1, c1, es2, c2, weak=weak)
            assert got == tuple(sorted(brute_matchings(es1, ev1, es2, ev2, weak)))
            assert bool(got) == iso_after_erasure(es1, c1, es2, c2, weak)


# ----------------------------------------------------------------------
# matching extension, as the engines run it


def test_extend_identical_structures():
    s = seq()
    eng = Engine(s, s, HP_STRONG)
    a, b = s.event_index("a"), s.event_index("b")
    for side in (1, 2):
        assert list(eng.answers(side, 1 << a, (), 0)) == [(1 << a, ((a, a),))]
        grown = [(s.full_mask, ((a, a), (b, b)))]
        assert list(eng.answers(side, 1 << b, ((a, a),), 1 << a)) == grown


def test_extend_across_structures():
    # after a, SEQ's b is caused by a; of the two b events of the right
    # side only b1 is, so only b1 answers it, and b2 has no answer
    left = seq()
    right = EventStructure("AB1B2", [("a", "a"), ("b1", "b"), ("b2", "b")], [("a", "b1")])
    eng = Engine(left, right, HP_STRONG)
    a, b = left.event_index("a"), left.event_index("b")
    ra, b1, b2 = (right.event_index(e) for e in ("a", "b1", "b2"))
    pairs = ((a, ra),)
    grown = ((a, ra), (b, b1))
    assert list(eng.answers(1, 1 << b, pairs, 1 << ra)) == [((1 << ra) | (1 << b1), grown)]
    assert list(eng.answers(2, 1 << b1, pairs, 1 << a)) == [(left.full_mask, grown)]
    assert list(eng.answers(2, 1 << b2, pairs, 1 << a)) == []


def test_extend_label_mismatch():
    p = par()
    a, b = p.event_index("a"), p.event_index("b")
    eng = Engine(p, p, HP_STRONG)
    for side in (1, 2):
        # b is enabled too, but only a carries the challenged label
        assert list(eng.answers(side, 1 << a, (), 0)) == [(1 << a, ((a, a),))]
        assert list(eng.answers(side, 1 << b, (), 0)) == [(1 << b, ((b, b),))]
    # b alone is no configuration of SEQ, so it is never offered to extend
    s = seq()
    assert Engine(s, s, HP_STRONG).es[2].enabled(0) == (s.event_index("a"),)


def test_extend_order_violation():
    left, right = par(), seq()
    eng = Engine(left, right, HP_STRONG)
    pairs = ((left.event_index("a"), right.event_index("a")),)
    lb, rb = left.event_index("b"), right.event_index("b")
    assert list(eng.answers(1, 1 << lb, pairs, right.mask_of(["a"]))) == []
    assert list(eng.answers(2, 1 << rb, pairs, left.mask_of(["a"]))) == []


def test_extend_precondition_breach():
    """Only events that extend the configuration are offered, so an event
    already matched is never a candidate."""
    s = seq()
    eng = Engine(s, s, HP_STRONG)
    a_mask = s.mask_of(["a"])
    assert eng.es[1].enabled(a_mask) == (s.event_index("b"),)
    assert eng.es[1].enabled(s.full_mask) == ()


def _move(arena, i, rule):
    """The target id of position i's first move of the given rule."""
    return next(j for j in arena.succ[i] if arena.rule(arena.keys[i], arena.keys[j]) == rule)


def test_weak_extension_with_silent_event_keeps_pairs():
    t1, t2 = tau(), tau()
    arena = build_arena(t1, t2, HP_BRANCHING)
    t = t1.mask_of(["t"])
    challenge = _move(arena, 0, "spoiler-challenge-left")
    assert arena.keys[challenge][4] == t
    _, left, right, pairs, _ = arena.keys[_move(arena, challenge, "duplicator-match")]
    assert (left, pairs, right) == (t, (), t)


def test_grow_silent_one_side():
    t1, t2 = tau(), tau_par()
    arena = build_arena(t1, t2, HP_BRANCHING)
    challenge = _move(arena, 0, "spoiler-challenge-left")
    _, left, right, pairs, _ = arena.keys[_move(arena, challenge, "duplicator-tau-step")]
    assert (left, pairs, right) == (0, (), t2.mask_of(["t"]))
    # strong matchings never grow one side alone
    strong = build_arena(t1, t2, HP_STRONG)
    keys = strong.keys
    assert all(
        strong.rule(keys[i], keys[j]) != "duplicator-tau-step"
        for i, out in enumerate(strong.succ)
        for j in out
    )


def test_invalid_reasons():
    s = seq()
    a = s.event_index("a")
    assert matching_fault(s, s, 1 << a, ((a, a),), 1 << a, False) is None
    assert "bijection" in matching_fault(s, s, 1 << a, (), 1 << a, False)
    p = par()
    mismatch = (p.mask_of(["a"]), ((0, 1),), p.mask_of(["b"]))
    assert "label mismatch" in matching_fault(p, p, *mismatch, False)
    assert "outside" in matching_fault(s, s, 0, ((0, 0),), 0, False)
    assert "outside" in matching_fault(s, s, 1, ((-1, 0),), 1, False)
    b = s.event_index("b")  # {b} lacks its cause a
    assert matching_fault(s, s, 1 << b, (), 0, True) == "matching endpoints are not configurations"


def test_verify_witness_rejects_invalid_matching():
    p = par()
    mismatch = (p.mask_of(["a"]), ((0, 1),), p.mask_of(["b"]))
    with pytest.raises(MalformedWitnessError, match="label mismatch"):
        verify_witness(p, p, HP_STRONG, [mismatch])


# ----------------------------------------------------------------------
# hereditary closure: every restriction of a matching must be kept


def test_containment():
    s = seq()
    eng = Engine(s, s, HHP_STRONG)
    a, b = s.event_index("a"), s.event_index("b")
    empty = (0, (), 0)
    one = (1 << a, ((a, a),), 1 << a)
    two = (s.full_mask, ((a, a), (b, b)), s.full_mask)
    assert unclosed(eng, [empty, one, two], {empty, one, two}) == set()
    assert unclosed(eng, [two], {empty, two}) == {two}
    assert unclosed(eng, [one, two], {one, two}) == {one, two}
    assert unclosed(eng, [one], {empty, one}) == set()
    assert unclosed(eng, [empty], {empty}) == set()
    # a key is its own restriction: outside alive, it is unclosed
    assert unclosed(eng, [empty], set()) == {empty}


def test_containment_shrinks_the_second_side():
    # {a} of PA against {t, a} of TAU: shrinking side 1 to the empty set
    # reaches the empty matching, but shrinking side 2 to {t} needs the
    # matching of the empty set against {t}, which is missing
    left, right = pa(), tau()
    eng = Engine(left, right, HHP_BRANCHING)
    key = (left.full_mask, ((left.event_index("a"), right.event_index("a")),), right.full_mask)
    empty = (0, (), 0)
    assert unclosed(eng, [key], {key, empty}) == {key}
    assert unclosed(eng, [key], {key, empty, (0, (), 1 << right.event_index("t"))}) == set()


def test_containment_needs_pair_subset():
    aa = EventStructure("AA", [("x", "a"), ("y", "a")])
    eng = Engine(aa, aa, HHP_STRONG)
    x, y = aa.event_index("x"), aa.event_index("y")
    cross = (aa.full_mask, ((x, y), (y, x)), aa.full_mask)
    cross_parts = {(1 << x, ((x, y),), 1 << y), (1 << y, ((y, x),), 1 << x), (0, (), 0)}
    identity_parts = {(1 << x, ((x, x),), 1 << x), (1 << y, ((y, y),), 1 << y), (0, (), 0)}
    assert unclosed(eng, [cross], cross_parts | {cross}) == set()
    assert unclosed(eng, [cross], identity_parts | {cross}) == {cross}


@pytest.mark.parametrize("kind", [HHP_STRONG, HHP_BRANCHING], ids=["strong", "branching"])
def test_closure_matches_the_reference_walk(kind):
    """unclosed agrees, key for key over the whole matching universe, with
    the reference's walk over every sub-configuration of both sides, for
    random subsets of the universe as alive: one-label pairs with silent
    events, and each structure against itself."""
    rng = random.Random(7)
    demoted = 0
    for es1, es2 in random_pairs(81, 30, max_events=5, alphabet="a", tau_prob=0.3):
        for left, right in ((es1, es2), (es1, es1), (es2, es2)):
            eng = Engine(left, right, kind)
            universe = triple_universe(eng)
            for _ in range(3):
                alive = {key for key in universe if rng.random() < 0.8}
                got = unclosed(eng, universe, alive)
                want = reference.unclosed(left, right, kind.branching, universe, alive)
                assert got == want, (left.name, right.name)
                demoted += len(got & alive)
    assert demoted >= 100


def test_extension_agrees_with_enumeration():
    """A pair extends a matching exactly when the extended pair set is a
    well-formed matching of the extended configurations, and exactly when
    it shows up among their enumerated matchings.  Engine.answers offers
    a single-event challenge of either side exactly those extensions, in
    the answering side's enabled order; in branching mode it answers a
    silent challenge with the other side's silent events instead, keeping
    the pairs.  The matchings extended are drawn from the universe of the
    pair, so most of them are not empty."""
    grown_from_pairs = 0
    for seed in range(60):
        rng = random.Random(seed)
        es1 = random_es(rng, "A")
        es2 = random_es(rng, "B")
        for kind in (HP_STRONG, HP_BRANCHING):
            weak = kind.branching
            eng = Engine(es1, es2, kind)
            for c1, pairs, c2 in rng.choices(triple_universe(eng), k=3):
                for side in (1, 2):
                    own_es, own, other_es, other = (
                        (es1, c1, es2, c2) if side == 1 else (es2, c2, es1, c1)
                    )
                    for i in own_es.enabled(own):
                        expected = []
                        for j in other_es.enabled(other):
                            if weak and own_es.silent_mask >> i & 1:
                                if other_es.silent_mask >> j & 1:
                                    expected.append((other | 1 << j, pairs))
                                continue
                            pair = (i, j) if side == 1 else (j, i)
                            n1, n2 = c1 | 1 << pair[0], c2 | 1 << pair[1]
                            extended = tuple(sorted(pairs + (pair,)))
                            bigger = enumerate_matchings(es1, n1, es2, n2, weak=weak)
                            accepted = matching_fault(es1, es2, n1, extended, n2, weak) is None
                            assert accepted == (extended in bigger)
                            if accepted:
                                expected.append((other | 1 << j, extended))
                                grown_from_pairs += bool(pairs)
                        assert list(eng.answers(side, 1 << i, pairs, other)) == expected
    assert grown_from_pairs >= 20

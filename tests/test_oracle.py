"""Fixpoint checker: frozen verdicts on the fixtures, greatest-relation
membership, witness verification, and metamorphic properties."""

from __future__ import annotations

import random

import pytest

from pesbisim import (
    ALL_KINDS,
    BisimulationKind,
    CapExceededError,
    Caps,
    Flavor,
    MalformedWitnessError,
    Mode,
    ValidationError,
    check,
    enumerate_matchings,
    game_check,
    greatest_bisimulation,
    oracle,
    verify_witness,
)
from pesbisim.oracle import Engine, triple_universe
from pesbisim.pes import EventStructure, bits

import reference
from conftest import (
    absorb2,
    absorb3,
    antichain,
    apart_by_termination,
    ch,
    chain,
    choice3,
    fixture_pairs,
    iso_after_erasure,
    p0,
    pa,
    pa_noterm,
    par,
    par_or_seq,
    par_seq_apart,
    par_seq_glued,
    random_es,
    random_pairs,
    renamed_copy,
    seq,
    tau,
    twin_rich_pairs,
)

POMSET_STRONG = BisimulationKind(Flavor.POMSET, Mode.STRONG)
HP_STRONG = BisimulationKind(Flavor.HP, Mode.STRONG)
HP_BRANCHING = BisimulationKind(Flavor.HP, Mode.BRANCHING)
STRONG_KINDS = tuple(k for k in ALL_KINDS if k.mode is Mode.STRONG)
BRANCHING_KINDS = tuple(k for k in ALL_KINDS if k.mode is Mode.BRANCHING)


def verdict_map(es1, es2, **kw):
    return {k: check(es1, es2, k, **kw).equivalent for k in ALL_KINDS}


def test_kind_parse_rejects_unknown_names():
    assert BisimulationKind.parse("hp", "branching") == HP_BRANCHING
    with pytest.raises(ValidationError, match="unknown bisimulation kind"):
        BisimulationKind.parse("hp", "weak")


def test_par_vs_ch_differ_everywhere():
    got = verdict_map(par(), ch())
    assert got == {k: False for k in ALL_KINDS}


def test_tau_vs_pa_strong_differs_branching_agrees():
    got = verdict_map(tau(), pa())
    assert got == {k: k.mode is Mode.BRANCHING for k in ALL_KINDS}


def test_tau_vs_pa_with_tau_erasure_still_differs():
    # erasing silent labels keeps the extra strong transition observable
    got = verdict_map(tau(), pa(), strong_tau_erasure=True)
    assert all(not got[k] for k in STRONG_KINDS)


def test_empty_structure_self_equivalent():
    got = verdict_map(p0(), p0())
    assert got == {k: True for k in ALL_KINDS}


def test_autoconcurrency_separates_hp_from_hhp():
    # three conflicting a's with a spare vs an a-conflict chain: the only
    # fixture pair where the hereditary flavors disagree with plain hp
    got = verdict_map(choice3(), chain())
    assert got == {k: k.flavor is not Flavor.HHP for k in ALL_KINDS}


@pytest.mark.parametrize(
    "left,right,holds,fails",
    [
        (par_or_seq, par, Flavor.STEP, Flavor.POMSET),
        (par_seq_glued, par_seq_apart, Flavor.POMSET, Flavor.HP),
        (absorb3, absorb2, Flavor.HP, Flavor.HHP),
    ],
    ids=["step-not-pomset", "pomset-not-hp", "hp-not-hhp"],
)
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_inputs_separate_the_hierarchy(left, right, holds, fails, mode):
    es1, es2 = left(), right()
    for decide in (check, game_check):
        assert decide(es1, es2, BisimulationKind(holds, mode)).equivalent
        assert not decide(es1, es2, BisimulationKind(fails, mode)).equivalent


def test_greatest_relation_on_empty_structures():
    a, b = p0(), p0()
    rel = greatest_bisimulation(a, b, POMSET_STRONG)
    assert rel.sorted_keys() == [(0, None, 0)]


def test_greatest_relation_drops_unmatchable_pairs():
    a, b = par(), ch()
    keys = greatest_bisimulation(a, b, POMSET_STRONG).keys
    assert (0, None, 0) not in keys
    # the completed runs still pair up fine
    assert (a.mask_of(["a", "b"]), None, b.mask_of(["a1", "b1"])) in keys


def test_greatest_relation_posetal_contains_empty_matching():
    a, b = tau(), pa()
    keys = greatest_bisimulation(a, b, HP_BRANCHING).keys
    assert all(isinstance(pairs, tuple) for _, pairs, _ in keys)
    assert (0, (), 0) in keys


def test_check_returns_witness_only_when_equivalent():
    a, b = seq(), seq()
    verdict = check(a, b, POMSET_STRONG)
    assert verdict.equivalent and verdict.witness is not None
    verdict = check(par(), ch(), POMSET_STRONG)
    assert not verdict.equivalent and verdict.witness is None


def test_verify_accepts_every_greatest_relation():
    pairs = [(seq(), seq()), (par(), ch()), (tau(), pa()), (choice3(), chain())]
    for a, b in pairs:
        for kind in ALL_KINDS:
            rel = greatest_bisimulation(a, b, kind)
            assert verify_witness(a, b, kind, rel)


def test_verify_rejects_unclosed_relation():
    a, b = seq(), seq()
    only_empty = {(0, None, 0)}
    assert not verify_witness(a, b, POMSET_STRONG, only_empty)


def test_verify_accepts_empty_relation():
    a, b = par(), ch()
    for kind in ALL_KINDS:
        assert verify_witness(a, b, kind, [])


def test_verify_rejects_malformed_members():
    a, b, p = seq(), seq(), par()
    cases = [
        (a, b, POMSET_STRONG, 42, r"not a \(mask, pairs, mask\) key"),
        (a, b, POMSET_STRONG, (0, None), r"not a \(mask, pairs, mask\) key"),
        (a, b, POMSET_STRONG, (0.0, None, 0), "masks must be ints"),
        (a, b, POMSET_STRONG, (0, (), 0), "pairs must be None"),
        # mask 2 alone is b without its cause
        (a, b, POMSET_STRONG, (2, None, 0), "not configurations"),
        (a, b, HP_STRONG, (0, None, 0), "pairs must be a tuple"),
        (a, b, HP_STRONG, (1, [(0, 0)], 1), "pairs must be a tuple"),
        (a, b, HP_STRONG, (1, ((0,),), 1), "pairs must be a tuple"),
        (a, b, HP_STRONG, (3, ((1, 1), (0, 0)), 3), "not sorted by first index"),
        (p, p, HP_STRONG, (1, ((0, 1),), 2), "label mismatch"),
    ]
    for es1, es2, kind, key, reason in cases:
        with pytest.raises(MalformedWitnessError, match=reason) as info:
            verify_witness(es1, es2, kind, [key])
        assert repr(key) in str(info.value)
    foreign = greatest_bisimulation(seq(), b, POMSET_STRONG)
    with pytest.raises(MalformedWitnessError, match="different structure pair"):
        verify_witness(a, b, POMSET_STRONG, foreign)


@pytest.mark.parametrize(
    "make, reason",
    [
        # mask 2 alone is b without its cause a
        (lambda s, p, q: (s, s, (2, ((1, 1),), 2)), "not configurations"),
        (lambda s, p, q: (q, q, (3, ((0, 0), (0, 1)), 3)), "maps an event twice"),
        # a before b in SEQ, a and b concurrent in PAR
        (lambda s, p, q: (s, p, (3, ((0, 0), (1, 1)), 3)), "order violation"),
    ],
    ids=["endpoints", "twice", "order"],
)
def test_verify_rejects_malformed_matchings(make, reason):
    es1, es2, key = make(seq(), par(), antichain(2))
    with pytest.raises(MalformedWitnessError, match=reason):
        verify_witness(es1, es2, HP_STRONG, [key])


def _members(kind, masks):
    """The relation over the given (mask1, mask2) pairs, as keys of the
    kind: identity matchings for the posetal kinds."""
    if kind.posetal:
        return [(m1, tuple((e, e) for e in bits(m1)), m2) for m1, m2 in masks]
    return [(m1, None, m2) for m1, m2 in masks]


def test_verify_checks_both_sides():
    """Each side's moves and termination are checked: the same relation
    fails with the structures in either order."""
    for a, b in ((pa(), pa_noterm()), (pa_noterm(), pa())):
        for kind in BRANCHING_KINDS:
            # the a-moves match, but only one side terminates after them
            assert not verify_witness(a, b, kind, _members(kind, [(0, 0), (1, 1)]))
    for a, b in ((p0(), pa()), (pa(), p0())):
        for kind in ALL_KINDS:
            # the a-move of PA has no answer
            assert not verify_witness(a, b, kind, _members(kind, [(0, 0)]))


def _triple_candidates(a, b, weak):
    return [
        (m1, pairs, m2)
        for m1 in a.configurations()
        for m2 in b.configurations()
        for pairs in enumerate_matchings(a, m1, b, m2, weak=weak)
    ]


@pytest.mark.parametrize(
    "pairs",
    [
        [pair[::d] for pair in fixture_pairs() for d in (1, -1)],
        random_pairs(71, 60, max_events=6, alphabet="a"),
        random_pairs(72, 60, max_events=6),
        random_pairs(73, 60, max_events=6, tau_prob=0.5),
    ],
    ids=["fixtures", "one-label", "mixed", "silent-heavy"],
)
def test_universe_is_every_matching(pairs):
    """The universe grown forward from the empty matching holds every
    matching of every configuration pair, once each, in key order."""
    for es1, es2 in pairs:
        for kind in (HP_STRONG, HP_BRANCHING):
            want = _triple_candidates(es1, es2, kind.branching)
            assert len(set(want)) == len(want)
            assert triple_universe(Engine(es1, es2, kind)) == sorted(want), (es1.name, es2.name)


def test_universe_enforces_the_positions_cap():
    """Three a events against three have 34 matchings (1 + 9 + 18 + 6): a
    positions cap of 34 holds them, and 33 raises CapExceededError in the
    oracle and in the hhp game.  Their 8 x 8 = 64 configuration pairs are
    the pomset and step universe: a cap of 64 holds it, and 63 raises."""
    events = [(f"e{i}", "a") for i in range(3)]
    for mode in Mode:
        hp, hhp = BisimulationKind(Flavor.HP, mode), BisimulationKind(Flavor.HHP, mode)
        a, b = (EventStructure(n, events, caps=Caps(max_positions=34)) for n in "AB")
        assert len(triple_universe(Engine(a, b, hp))) == 34
        a, b = (EventStructure(n, events, caps=Caps(max_positions=33)) for n in "AB")
        with pytest.raises(CapExceededError) as info:
            check(a, b, hp)
        assert (info.value.cap, info.value.actual) == ("positions", 34)
        with pytest.raises(CapExceededError):
            game_check(a, b, hhp)
        for flavor in (Flavor.POMSET, Flavor.STEP):
            kind = BisimulationKind(flavor, mode)
            a, b = (EventStructure(n, events, caps=Caps(max_positions=64)) for n in "AB")
            assert check(a, b, kind).equivalent
            a, b = (EventStructure(n, events, caps=Caps(max_positions=63)) for n in "AB")
            with pytest.raises(CapExceededError) as info:
                check(a, b, kind)
            assert (info.value.cap, info.value.actual) == ("positions", 64)


def test_engines_take_the_tighter_positions_cap():
    """The engines read the smaller positions cap of the two structures:
    one-label ANTI_3 against ANTI_3, strong hp, with caps of 200,000 and
    10 positions, raises at 10 in both argument orders and both engines."""
    events = [(f"e{i}", "a") for i in range(3)]
    loose = EventStructure("A", events, caps=Caps(max_positions=200_000))
    tight = EventStructure("B", events, caps=Caps(max_positions=10))
    kind = BisimulationKind(Flavor.HP, Mode.STRONG)
    for es1, es2 in ((loose, tight), (tight, loose)):
        for decide in (check, game_check):
            with pytest.raises(CapExceededError, match="positions limit is 10, needed 11"):
                decide(es1, es2, kind)


def test_greatest_relation_is_maximal():
    """Adding any surviving candidate back to the greatest relation breaks
    closure, so the fixpoint really is the largest closed set."""
    rng = random.Random(31)
    kinds = [
        POMSET_STRONG,
        BisimulationKind(Flavor.STEP, Mode.BRANCHING),
        BisimulationKind(Flavor.HP, Mode.STRONG),
    ]
    for trial in range(12):
        a = random_es(rng, "A", max_events=4)
        b = random_es(rng, "B", max_events=4)
        for kind in kinds:
            members = set(greatest_bisimulation(a, b, kind).keys)
            if kind.posetal:
                universe = _triple_candidates(a, b, kind.branching)
            else:
                cfgs1, cfgs2 = a.configurations(), b.configurations()
                universe = [(m1, None, m2) for m1 in cfgs1 for m2 in cfgs2]
            extras = [x for x in universe if x not in members]
            for extra in rng.sample(extras, min(3, len(extras))):
                assert not verify_witness(a, b, kind, members | {extra})


def test_reflexive_on_random_structures():
    rng = random.Random(32)
    for _ in range(8):
        es = random_es(rng, "R")
        for kind in ALL_KINDS:
            assert check(es, es, kind).equivalent


def test_symmetric_on_random_pairs():
    rng = random.Random(33)
    for _ in range(8):
        a = random_es(rng, "A")
        b = random_es(rng, "B")
        for kind in ALL_KINDS:
            assert check(a, b, kind).equivalent == check(b, a, kind).equivalent


def test_invariant_under_event_renaming():
    rng = random.Random(34)
    for _ in range(8):
        es = random_es(rng, "R")
        other = renamed_copy(es)
        for kind in ALL_KINDS:
            assert check(es, other, kind).equivalent


def _same_signature_pair():
    """An N shape beside a two-chain against a V beside a Lambda, all
    labelled a: every event has the same number of events below and above
    on both sides, yet the two are not isomorphic."""
    events = [(f"e{i}", "a") for i in range(6)]
    n_chain = [("e0", "e1"), ("e0", "e3"), ("e2", "e3"), ("e4", "e5")]
    v_lambda = [("e0", "e1"), ("e0", "e2"), ("e3", "e5"), ("e4", "e5")]
    return EventStructure("NC", events, n_chain, []), EventStructure("VL", events, v_lambda, [])


@pytest.mark.parametrize(
    "pairs",
    [
        fixture_pairs(),
        random_pairs(47, 40, max_events=5, alphabet="a"),
        random_pairs(48, 40, max_events=5),
        [_same_signature_pair()],
    ],
    ids=["fixtures", "one-label", "mixed", "same-signature"],
)
def test_iso_classes_match_iso_masks(pairs):
    """Two event subsets, of different sides or of one side, get the same
    class id exactly when iso_masks finds them isomorphic, and so does the
    reference, which tries every label-preserving permutation."""
    for es1, es2 in pairs:
        sides = {1: es1, 2: es2}
        for erase in (False, True):
            eng = Engine(es1, es2, POMSET_STRONG, strong_tau_erasure=erase)
            isomorphic = reference.isomorphic(es1, es2, erase)
            for a, b in ((1, 2), (1, 1), (2, 2)):
                for x in range(1 << len(sides[a].events)):
                    for y in range(1 << len(sides[b].events)):
                        same = eng.iso_class(a, x) == eng.iso_class(b, y)
                        iso = iso_after_erasure(sides[a], x, sides[b], y, erase)
                        assert same == iso == isomorphic(a, x, b, y), (a, x, b, y)


def test_antichains_and_steps_are_classified_without_a_search(monkeypatch):
    """Every step, and every pomset of an antichain, gets its class from its
    signature alone; pomsets with a signature another class shares are
    still confirmed by iso_masks."""
    searches = []
    iso_masks = oracle.iso_masks

    def counted(*args):
        searches.append(args)
        return iso_masks(*args)

    monkeypatch.setattr(oracle, "iso_masks", counted)
    steps = [kind for kind in ALL_KINDS if kind.flavor is Flavor.STEP]
    corpus = [(kind, pair) for kind in steps for pair in fixture_pairs()]
    corpus.append((POMSET_STRONG, (antichain(5), antichain(5, ("a", "b")))))
    for kind, (es1, es2) in corpus:
        eng = Engine(es1, es2, kind)
        for side, es in ((1, es1), (2, es2)):
            for mask in es.configurations():
                for x, _ in eng.challenges(side, mask):
                    eng.iso_class(side, x)
    assert not searches
    es1, es2 = _same_signature_pair()
    eng = Engine(es1, es2, POMSET_STRONG)
    assert eng.iso_class(1, es1.full_mask) != eng.iso_class(2, es2.full_mask) and searches


def _naive_greatest(es1, es2, kind, strong_tau_erasure):
    """The greatest relation by sweeping the universe in ascending order
    with the oracle's per-key transfer checks until nothing changes, then
    removing the keys the reference's hereditary walk rejects, and again
    until neither removes a key."""
    eng = Engine(es1, es2, kind, strong_tau_erasure)
    if kind.posetal:
        universe = triple_universe(eng)
    else:
        universe = [
            (m1, None, m2)
            for m1 in es1.configuration_masks()
            for m2 in es2.configuration_masks()
        ]
    alive = set(universe)
    broken = True
    while broken:
        changed = True
        while changed:
            changed = False
            for key in universe:
                if key in alive and not oracle._supported(eng, key, alive):
                    alive.discard(key)
                    changed = True
        broken = kind.flavor is Flavor.HHP and reference.unclosed(
            es1, es2, kind.branching, alive, alive
        )
        if broken:
            alive -= broken
    return alive


@pytest.mark.parametrize(
    "pairs",
    [
        fixture_pairs() + [apart_by_termination()],
        random_pairs(51, 80, max_events=5, alphabet="a"),
        random_pairs(52, 80, max_events=5),
        twin_rich_pairs(5),
        random_pairs(53, 40, max_events=5, alphabet="a", termination=True),
        random_pairs(54, 40, max_events=5, tau_prob=0.5, termination=True),
    ],
    ids=["fixtures", "one-label", "mixed", "twins", "one-label-termination", "silent-termination"],
)
def test_single_pass_matches_naive_fixpoint(pairs):
    for es1, es2 in pairs:
        for kind in ALL_KINDS:
            for erase in (False, True) if kind.mode is Mode.STRONG else (False,):
                rel = greatest_bisimulation(es1, es2, kind, strong_tau_erasure=erase)
                want = _naive_greatest(es1, es2, kind, erase)
                assert rel.keys == want, (es1.name, es2.name, kind)


def test_pomset_and_step_skip_the_per_key_checks(monkeypatch):
    """The oracle decides pomset and step by classes of the configuration
    graphs and never runs the per-key transfer checks; verify_witness
    still runs them on the relation it returns."""
    calls = []
    side_ok = oracle._side_ok

    def counted(*args):
        calls.append(args)
        return side_ok(*args)

    monkeypatch.setattr(oracle, "_side_ok", counted)
    for a, b in ((seq(), seq()), (tau(), pa())):
        for kind in ALL_KINDS:
            if kind.posetal:
                continue
            check(a, b, kind)
            relation = greatest_bisimulation(a, b, kind)
            assert relation.keys and not calls, kind
            assert verify_witness(a, b, kind, relation) and calls, kind
            calls.clear()

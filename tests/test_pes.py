"""Structure validation, closures, configurations and transitions,
cross-checked against brute-force recomputation from the declarations."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesbisim import (
    CapExceededError,
    Caps,
    EventStructure,
    ValidationError,
)

from conftest import antichain, apart_by_termination, ch, choice3, p0, par, random_es, seq, tau


# ----------------------------------------------------------------------
# brute-force reference: closures and configurations from declarations


def naive_leq(n: int, causes: list[tuple[int, int]]) -> list[list[bool]]:
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in causes:
        leq[a][b] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return leq


def naive_conflict(
    n: int, leq: list[list[bool]], conflicts: list[tuple[int, int]]
) -> list[list[bool]]:
    con = [[False] * n for _ in range(n)]
    for x, y in conflicts:
        for u in range(n):
            for v in range(n):
                if leq[x][u] and leq[y][v]:
                    con[u][v] = True
                    con[v][u] = True
    return con


def naive_config_masks(n: int, leq, con) -> set[int]:
    out = set()
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(con[i][j] for i in members for j in members):
            continue
        if any(
            leq[j][i] and not mask >> j & 1
            for i in members
            for j in range(n)
        ):
            continue
        out.add(mask)
    return out


def build_pair(rng: random.Random):
    """A random structure together with the raw declarations it was
    built from, for independent recomputation."""
    n = rng.randint(0, 6)
    labels = ["tau" if rng.random() < 0.25 else rng.choice("ab") for _ in range(n)]
    # causes follow a seeded permutation, not declaration order
    perm = rng.sample(range(n), n)
    causes = [
        (perm[a], perm[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.3
    ]
    leq = naive_leq(n, causes)
    conflicts = []
    for i in range(n):
        for j in range(i + 1, n):
            if any(leq[i][u] and leq[j][u] for u in range(n)):
                continue
            if rng.random() < 0.25:
                conflicts.append((i, j))
    es = EventStructure(
        "R",
        [(f"e{i}", labels[i]) for i in range(n)],
        [(f"e{a}", f"e{b}") for a, b in causes],
        [(f"e{a}", f"e{b}") for a, b in conflicts],
    )
    return es, n, causes, conflicts


def test_closures_match_naive_fixpoint():
    rng = random.Random(11)
    for _ in range(120):
        es, n, causes, conflicts = build_pair(rng)
        leq = naive_leq(n, causes)
        con = naive_conflict(n, leq, conflicts)
        for i in range(n):
            for j in range(n):
                assert es.leq(f"e{i}", f"e{j}") == leq[i][j]
                assert es.in_conflict(f"e{i}", f"e{j}") == con[i][j]
                if i != j:
                    expected = not con[i][j] and not leq[i][j] and not leq[j][i]
                    assert es.concurrent(f"e{i}", f"e{j}") == expected


def test_configurations_match_subset_filter():
    rng = random.Random(12)
    for _ in range(120):
        es, n, causes, conflicts = build_pair(rng)
        leq = naive_leq(n, causes)
        con = naive_conflict(n, leq, conflicts)
        assert set(es.configuration_masks()) == naive_config_masks(n, leq, con)


def test_configuration_order_is_ascending_masks():
    masks = list(ch().configurations())
    assert masks == sorted(masks)
    assert masks[0] == 0


def test_ch_closed_conflict():
    es = ch()
    closed = {
        (a, b)
        for a in es.events
        for b in es.events
        if es.in_conflict(a, b)
    }
    assert closed == {
        ("a1", "b2"), ("b2", "a1"),
        ("a1", "a2"), ("a2", "a1"),
        ("b1", "b2"), ("b2", "b1"),
        ("b1", "a2"), ("a2", "b1"),
    }


def test_ch_configurations():
    es = ch()
    got = {es.events_of_mask(m) for m in es.configurations()}
    assert got == {(), ("a1",), ("b2",), ("a1", "b1"), ("b2", "a2")}


def test_seq_causality_closure():
    es = seq()
    assert es.leq("a", "b")
    assert es.leq("a", "a") and es.leq("b", "b")
    assert not es.leq("b", "a")
    assert not es.concurrent("a", "b")


def test_par_everything_concurrent():
    es = par()
    assert es.concurrent("a", "b")
    assert {es.events_of_mask(m) for m in es.configurations()} == {(), ("a",), ("b",), ("a", "b")}


def test_p0_single_configuration():
    assert p0().configurations() == (0,)


# ----------------------------------------------------------------------
# transitions


def brute_transitions(es: EventStructure, mask: int, step: bool):
    masks = es.configuration_masks()
    out = set()
    for target in masks:
        x = target & ~mask
        if target | mask != target or x == 0:
            continue
        names = es.events_of_mask(x)
        if step and not all(es.concurrent(a, b) for a in names for b in names if a != b):
            continue
        out.add((x, target))
    return out


def test_transitions_match_brute_force():
    rng = random.Random(13)
    for _ in range(80):
        es, *_ = build_pair(rng)
        for mask in es.configuration_masks():
            for step in (False, True):
                assert set(es.transition_masks(mask, step)) == brute_transitions(
                    es, mask, step
                )


def added_events(es: EventStructure, mask: int, step: bool) -> set[tuple[str, ...]]:
    return {es.events_of_mask(x) for x, _ in es.transition_masks(mask, step)}


def test_seq_pomset_transitions_from_empty():
    es = seq()
    assert added_events(es, 0, step=False) == {("a",), ("a", "b")}
    assert es.transition_masks(es.full_mask, step=False) == ()


def test_seq_step_transitions_reject_chain():
    assert added_events(seq(), 0, step=True) == {("a",)}


def test_par_step_transitions_admit_joint_step():
    assert added_events(par(), 0, step=True) == {("a",), ("b",), ("a", "b")}


# ----------------------------------------------------------------------
# silent reachability and termination


def test_tau_closure_examples():
    es = tau()
    t = es.mask_of(["t"])
    assert es.tau_reachable_masks(0) == (0, t)
    assert es.tau_reachable_masks(t) == (t,)


def test_tau_closure_matches_silent_pomset_reachability():
    rng = random.Random(14)
    for _ in range(60):
        es, *_ = build_pair(rng)
        for mask in es.configuration_masks():
            via_pomsets = {mask}
            frontier = [mask]
            while frontier:
                m = frontier.pop()
                for x, target in es.transition_masks(m, step=False):
                    if not x & ~es.silent_mask and target not in via_pomsets:
                        via_pomsets.add(target)
                        frontier.append(target)
            assert set(es.tau_reachable_masks(mask)) == via_pomsets


def test_all_silent():
    """A pomset is all silent when its mask lies inside silent_mask."""
    es = tau()
    assert es.silent_mask == es.mask_of(["t"])
    moves = es.transition_masks(0, step=False)
    assert {es.events_of_mask(x) for x, _ in moves if not x & ~es.silent_mask} == {("t",)}


def test_termination_policies():
    maximal = seq()
    assert maximal.terminates_mask(maximal.mask_of(["a", "b"]))
    assert not maximal.terminates_mask(maximal.mask_of(["a"]))
    none = EventStructure("S", [("a", "a"), ("b", "b")], [("a", "b")], termination="none")
    assert not none.terminates_mask(none.mask_of(["a", "b"]))
    explicit = EventStructure(
        "S", [("a", "a"), ("b", "b")], [("a", "b")], termination=[["a"]]
    )
    assert explicit.terminates_mask(explicit.mask_of(["a"]))
    assert not explicit.terminates_mask(explicit.mask_of(["a", "b"]))
    with pytest.raises(ValidationError, match="unknown termination policy 'sometimes'"):
        EventStructure("S", [("a", "a")], termination="sometimes")


def test_explicit_termination_must_be_configuration():
    with pytest.raises(ValidationError, match="not a configuration"):
        EventStructure(
            "S", [("a", "a"), ("b", "b")], [("a", "b")], termination=[["b"]]
        )
    # a string is not read as the set of its characters
    for events in ([("a", "x"), ("b", "y")], [("ab", "z")]):
        with pytest.raises(ValidationError, match="is a string"):
            EventStructure("T", events, termination=["ab"])


# ----------------------------------------------------------------------
# validation errors


def _twin_classes(es: EventStructure) -> set[frozenset[str]]:
    return {frozenset(es.events_of_mask(m)) for m in es.twin_masks}


def test_twin_classes():
    """Twins may be in conflict with each other (CHOICE3's a1 and a2),
    may be silent, and are kept apart by a terminating set that their
    swap would move."""
    assert _twin_classes(choice3()) == {
        frozenset({"a1", "a2"}), frozenset({"af"}), frozenset({"b"})
    }
    for n in range(1, 6):
        every = [f"e{i}" for i in range(n)]
        assert _twin_classes(antichain(n)) == {frozenset(every)}
        alternate = {frozenset(every[0::2]), frozenset(every[1::2])} - {frozenset()}
        assert _twin_classes(antichain(n, ("a", "b"))) == alternate
    fork = EventStructure(
        "FORK", [("t1", "tau"), ("t2", "tau"), ("a", "a")], [("t1", "a"), ("t2", "a")]
    )
    assert _twin_classes(fork) == {frozenset({"t1", "t2"}), frozenset({"a"})}
    assert _twin_classes(ch()) == {frozenset({e}) for e in ch().events}
    left, right = apart_by_termination()
    assert _twin_classes(left) == {frozenset({"a1"}), frozenset({"a2"})}
    assert _twin_classes(right) == {frozenset({"b1"}), frozenset({"b2"})}
    either = EventStructure("EITHER", [("a1", "a"), ("a2", "a")], termination=[["a1"], ["a2"]])
    assert _twin_classes(either) == {frozenset({"a1", "a2"})}


def test_twins_are_the_swaps_that_are_automorphisms():
    """Two events are twins exactly when swapping them preserves labels,
    causality, conflict and which configurations terminate, each read
    from the declarations."""
    rng = random.Random(14)
    for trial in range(200):
        es = random_es(rng, "R", max_events=6, alphabet="ab", termination=True)
        names = es.events
        masks = es.configurations()
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                swap = {**{e: e for e in names}, x: y, y: x}
                automorphism = (
                    es.label(x) == es.label(y)
                    and all(
                        es.leq(a, b) == es.leq(swap[a], swap[b])
                        and es.in_conflict(a, b) == es.in_conflict(swap[a], swap[b])
                        for a in names
                        for b in names
                    )
                    and all(
                        es.terminates_mask(m)
                        == es.terminates_mask(es.mask_of(swap[e] for e in es.events_of_mask(m)))
                        for m in masks
                    )
                )
                assert bool(es.twin_masks[i] >> j & 1) == automorphism, (trial, x, y)


def test_duplicate_event_rejected():
    with pytest.raises(ValidationError, match="duplicate event"):
        EventStructure("S", [("a", "a"), ("a", "b")])


def test_causality_cycle_rejected():
    with pytest.raises(ValidationError, match="causality cycle"):
        EventStructure("S", [("a", "a"), ("b", "b")], [("a", "b"), ("b", "a")])
    with pytest.raises(ValidationError, match="causality cycle: 'a' declared as its own cause"):
        EventStructure("S", [("a", "a")], [("a", "a")])


def test_self_conflict_rejected():
    with pytest.raises(ValidationError, match="self-conflict declared"):
        EventStructure("S", [("a", "a")], [], [("a", "a")])


def test_conflict_between_causally_related_rejected():
    with pytest.raises(ValidationError, match="causally related"):
        EventStructure("S", [("a", "a"), ("b", "b")], [("a", "b")], [("a", "b")])


def test_conflict_below_join_rejected():
    # a and b join in c, so a # b would force c # c after closure
    with pytest.raises(ValidationError, match="share the causal successor"):
        EventStructure(
            "S",
            [("a", "a"), ("b", "b"), ("c", "c")],
            [("a", "c"), ("b", "c")],
            [("a", "b")],
        )


def test_unknown_event_rejected():
    with pytest.raises(ValidationError, match="unknown event"):
        EventStructure("S", [("a", "a")], [("a", "zz")])
    with pytest.raises(ValidationError, match="unknown event"):
        EventStructure("S", [("a", "a")], [], [("a", "zz")])


def test_event_cap():
    events = [(f"e{i}", "a") for i in range(4)]
    with pytest.raises(CapExceededError):
        EventStructure("S", events, caps=Caps(max_events=3))
    EventStructure("S", events, caps=Caps(max_events=4))


def test_configuration_cap():
    es = EventStructure(
        "S", [(f"e{i}", "a") for i in range(4)], caps=Caps(max_configurations=8)
    )
    with pytest.raises(CapExceededError):
        es.configurations()


# ----------------------------------------------------------------------
# properties


def test_closure_idempotent():
    rng = random.Random(15)
    for _ in range(60):
        es, n, _, _ = build_pair(rng)
        closed_causes = [
            (a, b)
            for a in es.events
            for b in es.events
            if a != b and es.leq(a, b)
        ]
        closed_conflicts = [
            (a, b)
            for i, a in enumerate(es.events)
            for b in es.events[i + 1 :]
            if es.in_conflict(a, b)
        ]
        again = EventStructure(
            "R", [(e, es.label(e)) for e in es.events], closed_causes, closed_conflicts
        )
        assert set(again.configuration_masks()) == set(es.configuration_masks())
        for a in es.events:
            for b in es.events:
                assert again.leq(a, b) == es.leq(a, b)
                assert again.in_conflict(a, b) == es.in_conflict(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_structures_always_validate(seed):
    rng = random.Random(seed)
    es = random_es(rng, "H")
    masks = es.configuration_masks()
    assert 0 in masks
    # every configuration is conflict-free and downward closed
    for mask in masks:
        events = [es.events[i] for i in range(len(es.events)) if mask >> i & 1]
        for a, b in itertools.combinations(events, 2):
            assert not es.in_conflict(a, b)
        for e in events:
            for d in es.events:
                if es.leq(d, e):
                    assert d in events


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_transitions_grow_strictly(seed):
    rng = random.Random(seed)
    es = random_es(rng, "H")
    masks = es.configuration_masks()
    for mask in masks:
        for x, target in es.transition_masks(mask, step=False):
            assert target in masks
            assert target & mask == mask
            assert target != mask
            assert x == target & ~mask

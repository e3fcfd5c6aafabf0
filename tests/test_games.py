"""Game arenas, backward induction, hereditary demotion and replays."""

from __future__ import annotations

import random
from collections import deque
from graphlib import TopologicalSorter

import pytest

from pesbisim import (
    ALL_KINDS,
    ArenaCycleError,
    BisimulationKind,
    EventStructure,
    Flavor,
    IllegalMoveError,
    Mode,
    ValidationError,
    check,
)
from pesbisim.games import (
    Arena,
    Role,
    build_arena,
    game_check,
    replay,
    solve,
    solve_hereditary,
)
from pesbisim.oracle import Engine

import reference
from conftest import (
    absorb2,
    absorb3,
    ch,
    chain,
    choice3,
    fixture_pairs,
    halt_early,
    p0,
    pa,
    pa_noterm,
    par,
    par_or_seq,
    par_seq_apart,
    par_seq_glued,
    random_es,
    random_pairs,
    seq,
)

POMSET_STRONG = BisimulationKind(Flavor.POMSET, Mode.STRONG)
HHP_STRONG = BisimulationKind(Flavor.HHP, Mode.STRONG)


def _triple(key):
    """The matching of a position key as (first-structure mask, pairs,
    second-structure mask), independent of orientation."""
    sw, left, right, pairs, _ = key
    return (right, pairs, left) if sw else (left, pairs, right)


def _owner(key):
    return Role.SPOILER if key[4] is None else Role.DUPLICATOR


def test_empty_structures_give_trivial_arena():
    a = build_arena(p0(), p0(), POMSET_STRONG)
    assert len(a.keys) == 1
    assert a.succ[0] == ()
    sol = solve(a)
    assert sol.win[0] is Role.DUPLICATOR


def test_initial_challenges_cover_both_sides():
    a = build_arena(seq(), seq(), POMSET_STRONG)
    rules = [a.rule(a.keys[0], a.keys[j]) for j in a.succ[0]]
    # two pomset extensions per side: a alone and the full a<b chain
    assert rules == [
        "spoiler-challenge-left",
        "spoiler-challenge-left",
        "spoiler-challenge-right",
        "spoiler-challenge-right",
    ]


def test_unanswerable_challenge_has_no_moves():
    pp, cc = par(), ch()
    a = build_arena(pp, cc, POMSET_STRONG)
    both = pp.mask_of(["a", "b"])
    stuck = a.keys.index((False, 0, 0, None, both))
    assert a.succ[stuck] == ()
    sol = solve(a)
    assert sol.win[0] is Role.SPOILER
    assert a.succ[0][sol.canonical_move(0)] == stuck


def test_termination_challenges_only_in_branching_mode():
    left, right = pa(), pa_noterm()
    for kind in ALL_KINDS:
        expected = kind.mode is Mode.STRONG
        assert game_check(left, right, kind).equivalent == expected
    # same transitions, earlier termination: again a branching-only difference
    for kind in ALL_KINDS:
        expected = kind.mode is Mode.STRONG
        assert game_check(halt_early(), par(), kind).equivalent == expected


def test_arena_positions_alternate():
    """The moves alternate between the players, a challenge keeps the
    matched configurations, an answer adds events, and each matching pairs
    events of its own configurations.  The aliases that perfbench's tracer
    reads count what the keys and ids hold."""
    rng = random.Random(41)
    for _ in range(10):
        es1 = random_es(rng, "A", max_events=4)
        es2 = random_es(rng, "B", max_events=4)
        for kind in ALL_KINDS:
            a = build_arena(es1, es2, kind)
            assert len(a.positions) == len(a.keys)
            assert sum(map(len, a.moves.values())) == sum(map(len, a.succ))
            for key, out in zip(a.keys, a.succ):
                sw, left, right, pairs, _ = key
                size = left.bit_count() + right.bit_count()
                for j in out:
                    target = a.keys[j]
                    _, t_left, t_right, _, _ = target
                    if _owner(key) is Role.SPOILER:
                        assert _owner(target) is Role.DUPLICATOR
                        # a challenge never changes the matched configurations
                        assert (t_left, t_right) in {(left, right), (right, left)}
                    else:
                        assert _owner(target) is Role.SPOILER
                        # an answer adds events, so the solver's sweep order holds
                        assert t_left.bit_count() + t_right.bit_count() > size
                if kind.posetal and pairs is not None:
                    m1, _, m2 = _triple(key)
                    assert (m1, m2) == ((right, left) if sw else (left, right))
                    for i1, j2 in pairs:
                        assert m1 >> i1 & 1 and m2 >> j2 & 1


def test_game_agrees_with_fixpoint_on_random_pairs():
    rng = random.Random(42)
    for _ in range(6):
        es1 = random_es(rng, "A", max_events=4)
        es2 = random_es(rng, "B", max_events=4)
        for kind in ALL_KINDS:
            assert game_check(es1, es2, kind).equivalent == check(es1, es2, kind).equivalent


def test_solve_assigns_every_position():
    a = build_arena(seq(), seq(), POMSET_STRONG)
    sol = solve(a)
    assert len(sol.win) == len(a.keys) and None not in sol.win
    for i, key in enumerate(a.keys):
        k, owner = sol.canonical_move(i), _owner(key)
        if not a.succ[i]:
            assert k is None
        elif sol.win[i] is owner:
            # the first move to a position the owner won
            assert sol.win[a.succ[i][k]] is owner
            assert all(sol.win[j] is not owner for j in a.succ[i][:k])
        else:
            assert k == 0


def test_strategy_moves_belong_to_the_winner():
    verdict = game_check(seq(), seq(), POMSET_STRONG)
    assert verdict.equivalent and verdict.winner is Role.DUPLICATOR
    chosen = verdict.strategy_moves()
    assert len(chosen) == verdict.strategy_size()
    win, succ = verdict.win, verdict.arena.succ
    for i, k in chosen:
        assert _owner(verdict.arena.keys[i]) is Role.DUPLICATOR
        # the first move to a Duplicator-won position
        assert win[succ[i][k]] is Role.DUPLICATOR
        assert all(win[j] is Role.SPOILER for j in succ[i][:k])


def test_replay_spoiler_stuck():
    a = build_arena(p0(), p0(), POMSET_STRONG)
    t = replay(solve(a), Role.SPOILER, [])
    assert t.ending == "spoiler-stuck" and t.winner is Role.DUPLICATOR and t.steps == ()


def test_replay_full_round_trip():
    a = build_arena(seq(), seq(), POMSET_STRONG)
    t = replay(solve(a), Role.SPOILER, [0, 0])
    assert t.ending == "spoiler-stuck" and t.winner is Role.DUPLICATOR
    assert len(t.steps) == 4
    text = t.render(a)
    assert "Spoiler stuck; Duplicator wins" in text
    assert "spoiler-challenge-left" in text and "duplicator-match" in text


def test_replay_duplicator_stuck():
    a = build_arena(par(), ch(), POMSET_STRONG)
    t = replay(solve(a), Role.DUPLICATOR, [])
    assert t.ending == "duplicator-stuck" and t.winner is Role.SPOILER
    assert len(t.steps) == 1
    assert "Duplicator stuck; Spoiler wins" in t.render(a)


def test_replay_rejects_bad_moves():
    a = build_arena(seq(), seq(), POMSET_STRONG)
    sol = solve(a)
    with pytest.raises(IllegalMoveError):
        replay(sol, Role.SPOILER, [])
    with pytest.raises(IllegalMoveError):
        replay(sol, Role.SPOILER, [99])


def test_solve_rejects_cyclic_arena():
    """Arenas built from structures are acyclic; in a hand-built cycle some
    move leads to a position the solver's sweep has not decided yet, which
    the solver reports."""
    es = pa()
    spoiler = (False, 0, 0, None, None)
    duplicator = (False, 0, 0, None, 1)
    arena = Arena(
        Engine(es, es, POMSET_STRONG),
        [spoiler, duplicator],
        [(1,), (0,)],
    )
    with pytest.raises(ArenaCycleError):
        solve(arena)


def test_hereditary_solving_needs_matchings():
    a = build_arena(par(), ch(), POMSET_STRONG)
    with pytest.raises(ValidationError):
        solve_hereditary(a)


def test_hereditary_demotion_flips_the_winner():
    """Autoconcurrency fixture: plain induction says Duplicator, pruning
    matchings whose restrictions fall outside the won region says Spoiler."""
    a = build_arena(choice3(), chain(), HHP_STRONG)
    plain = solve(a)
    sol = solve_hereditary(a)
    assert plain.win[0] is Role.DUPLICATOR
    assert sol.win[0] is Role.SPOILER
    assert sol.demoted_ids
    for i in sol.demoted_ids:
        assert a.keys[i][4] is None
        assert plain.win[i] is Role.DUPLICATOR
        assert sol.win[i] is Role.SPOILER


def _concurrent_a(name, n, conflicts):
    """n concurrent 'a' events e0..e(n-1), with the given index pairs in
    conflict."""
    return EventStructure(
        name,
        [(f"e{i}", "a") for i in range(n)],
        [],
        [(f"e{i}", f"e{j}") for i, j in conflicts],
    )


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_hhp_demotion_characterization(mode):
    """Pins the demoted set and the strategy of one pair where demotion
    takes several rounds.  Hereditary closure by single maximal-event
    removal gives the same verdict here but 60 demoted ids and 89
    strategy moves, so a change of the closure rule shows in this test."""
    left = _concurrent_a("L", 5, [(0, 3), (1, 2), (2, 4), (3, 4)])
    right = _concurrent_a("R", 4, [(0, 2), (0, 3)])
    verdict = game_check(left, right, BisimulationKind(Flavor.HHP, mode))
    assert not verdict.equivalent
    assert len(verdict.demoted_ids) == 52
    assert verdict.strategy_size() == 97


def _duplicator_picks_to_demoted(arena, verdict):
    """Duplicator move indices that walk the machine's Spoiler strategy
    into a demoted position, if any play does."""
    seen = set()
    queue = deque([(0, ())])
    while queue:
        i, picks = queue.popleft()
        if i in seen:
            continue
        seen.add(i)
        if i in verdict.demoted_ids:
            return picks
        legal = arena.succ[i]
        if not legal:
            continue
        if _owner(arena.keys[i]) is Role.SPOILER:
            queue.append((legal[verdict.canonical_move(i)], picks))
        else:
            for k, j in enumerate(legal):
                queue.append((j, picks + (k,)))
    return None


def test_replay_stops_at_demoted_positions():
    a = build_arena(choice3(), chain(), HHP_STRONG)
    sol = solve_hereditary(a)
    picks = _duplicator_picks_to_demoted(a, sol)
    assert picks is not None
    t = replay(sol, Role.DUPLICATOR, list(picks))
    assert t.ending == "hereditary-closure-violation" and t.winner is Role.SPOILER
    assert "hereditary closure violated" in t.render(a)


def test_hhp_arena_covers_every_matching():
    # judged from every matching, so each valid triple is a position
    from pesbisim.pomsets import enumerate_matchings

    c3, cn = choice3(), chain()
    seeded = build_arena(c3, cn, HHP_STRONG)
    triples = {_triple(key) for key in seeded.keys if key[4] is None}
    for m1 in c3.configurations():
        for m2 in cn.configurations():
            for pairs in enumerate_matchings(c3, m1, cn, m2, weak=False):
                assert (m1, pairs, m2) in triples


# ----------------------------------------------------------------------
# shared rows: the builder works out each row once, and the reference
# works out every position's moves afresh from the definitions

# fixture pairs both ways and one-label pairs with silent events, in every
# kind, and with strong_tau_erasure where it acts
SHARED_ROW_CASES = [
    (es1, es2, kind, erase)
    for es1, es2 in [pair[::d] for pair in fixture_pairs() for d in (1, -1)]
    + random_pairs(45, 30, max_events=5, alphabet="a", tau_prob=0.3)
    for kind in ALL_KINDS
    for erase in ((False, True) if kind.mode is Mode.STRONG and not kind.posetal else (False,))
]


def test_shared_rows_build_the_reference_arena():
    for es1, es2, kind, erase in SHARED_ROW_CASES:
        arena = build_arena(es1, es2, kind, strong_tau_erasure=erase)
        keys, rules, succ = reference.arena(es1, es2, kind.flavor.value, kind.branching, erase)
        case = (es1.name, es2.name, str(kind), erase)
        assert arena.keys == keys, case
        got = [tuple(arena.rule(keys[i], keys[j]) for j in out) for i, out in enumerate(arena.succ)]
        assert got == rules, case
        assert list(arena.succ) == succ, case


def test_mirrored_spoiler_positions_agree():
    """A Spoiler position and its mirror, the same pair the other way
    round, have the same successors, up to order, and the same winner."""
    mirrored = 0
    for es1, es2, kind, erase in SHARED_ROW_CASES:
        verdict = game_check(es1, es2, kind, strong_tau_erasure=erase)
        keys, succ = verdict.arena.keys, verdict.arena.succ
        index = {key: i for i, key in enumerate(keys)}
        for i, (sw, left, right, pairs, ch) in enumerate(keys):
            m = index.get((not sw, right, left, pairs, None))
            if ch is None and m is not None:
                mirrored += 1
                case = (es1.name, es2.name, str(kind), erase, keys[i])
                assert sorted(succ[i]) == sorted(succ[m]), case
                assert verdict.win[i] is verdict.win[m], case
    assert mirrored > 1000


# ----------------------------------------------------------------------
# reference solver: plain backward induction in topological order, and
# hereditary demotion that re-solves the whole arena after every round


def _reference_induct(arena, demoted):
    """(winner, strategy) by position id: the strategy maps each position
    won by its owner, not demoted, to its first move to an owner-won
    position."""
    deps = {i: set(out) for i, out in enumerate(arena.succ)}
    winner, strategy = {}, {}
    for i in TopologicalSorter(deps).static_order():
        if i in demoted:
            winner[i] = Role.SPOILER
            continue
        owner = _owner(arena.keys[i])
        won = [k for k, j in enumerate(arena.succ[i]) if winner[j] is owner]
        winner[i] = owner if won else owner.other()
        if won:
            strategy[i] = won[0]
    return winner, strategy


def _reference_solve(arena):
    """(winner, strategy, demoted) as the game's definition gives them."""
    demoted = frozenset()
    winner, strategy = _reference_induct(arena, demoted)
    if arena.kind.flavor is not Flavor.HHP:
        return winner, strategy, demoted
    spoiler_positions = [i for i, key in enumerate(arena.keys) if key[4] is None]
    while True:
        won = [i for i in spoiler_positions if winner[i] is Role.DUPLICATOR]
        alive = {_triple(arena.keys[i]) for i in won}
        broken = reference.unclosed(arena.es1, arena.es2, arena.kind.branching, alive, alive)
        newly = [i for i in won if _triple(arena.keys[i]) in broken]
        if not newly:
            return winner, strategy, demoted
        demoted = demoted | frozenset(newly)
        winner, strategy = _reference_induct(arena, demoted)


@pytest.mark.parametrize(
    "pairs",
    [
        fixture_pairs(),
        random_pairs(43, 40, max_events=5),
        # one label: autoconcurrent events, where hereditary demotion fires
        random_pairs(44, 80, max_events=5, alphabet="a"),
        # hhp demotion makes the hp-equivalent ABSORB3/ABSORB2 inequivalent
        [(par_or_seq(), par()), (par_seq_glued(), par_seq_apart()), (absorb3(), absorb2())],
    ],
    ids=["fixtures", "random", "one-label", "hierarchy"],
)
def test_solver_matches_reference(pairs):
    for es1, es2 in pairs:
        for kind in ALL_KINDS:
            verdict = game_check(es1, es2, kind)
            winner, strategy, demoted = _reference_solve(verdict.arena)
            keys = verdict.arena.keys
            assert list(verdict.win) == [winner[i] for i in range(len(keys))]
            assert verdict.demoted_ids == demoted
            assert {
                i: verdict.canonical_move(i)
                for i, key in enumerate(keys)
                if i not in demoted and winner[i] is _owner(key)
            } == strategy
            assert verdict.strategy_moves() == [
                (i, k) for i, k in sorted(strategy.items()) if winner[i] is winner[0]
            ]

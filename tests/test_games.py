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
    Challenge,
    GamePosition,
    Role,
    build_arena,
    game_check,
    replay,
    solve,
    solve_hereditary,
)
from pesbisim.oracle import Engine, hereditary_ok

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


def _triple(pos):
    """The matching of a position as (first-structure mask, pairs,
    second-structure mask), independent of orientation."""
    return (pos.right, pos.pairs, pos.left) if pos.swapped else (pos.left, pos.pairs, pos.right)


def test_empty_structures_give_trivial_arena():
    a = build_arena(p0(), p0(), POMSET_STRONG)
    assert len(a.positions) == 1
    assert a.moves[a.initial] == ()
    sol = solve(a)
    assert sol.win[0] is Role.DUPLICATOR


def test_initial_challenges_cover_both_sides():
    a = build_arena(seq(), seq(), POMSET_STRONG)
    rules = [m.rule for m in a.moves[a.initial]]
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
    stuck = GamePosition(False, 0, 0, None, Challenge("transition", both, both))
    assert stuck in a.moves
    assert a.moves[stuck] == ()
    sol = solve(a)
    assert sol.win[0] is Role.SPOILER
    assert sol.strategy[a.initial].target == stuck


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
    rng = random.Random(41)
    for _ in range(10):
        es1 = random_es(rng, "A", max_events=4)
        es2 = random_es(rng, "B", max_events=4)
        for kind in ALL_KINDS:
            a = build_arena(es1, es2, kind)
            for i, pos in enumerate(a.positions):
                assert len(a.moves[pos]) == len(a.succ[i])
                for k, mv in enumerate(a.moves[pos]):
                    assert mv.target == a.positions[a.succ[i][k]]
                    if pos.owner is Role.SPOILER:
                        assert mv.target.owner is Role.DUPLICATOR
                        # a challenge never changes the matched configurations
                        assert (mv.target.left, mv.target.right) in {
                            (pos.left, pos.right),
                            (pos.right, pos.left),
                        }
                    else:
                        assert mv.target.owner is Role.SPOILER
                        # an answer adds events, so the solver's sweep order holds
                        size = pos.left.bit_count() + pos.right.bit_count()
                        assert mv.target.left.bit_count() + mv.target.right.bit_count() > size
                if kind.posetal and pos.pairs is not None:
                    m1, pairs, m2 = _triple(pos)
                    if pos.swapped:
                        assert (m1, m2) == (pos.right, pos.left)
                    else:
                        assert (m1, m2) == (pos.left, pos.right)
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
    assert len(sol.win) == len(a.positions) and None not in sol.win
    winner = dict(zip(a.positions, sol.win))
    for pos, mv in sol.strategy.items():
        assert winner[pos] is pos.owner
        assert mv in a.moves[pos]
        assert winner[mv.target] is pos.owner


def test_strategy_moves_belong_to_the_winner():
    verdict = game_check(seq(), seq(), POMSET_STRONG)
    assert verdict.equivalent and verdict.winner is Role.DUPLICATOR
    chosen = verdict.strategy_moves()
    assert len(chosen) == verdict.strategy_size()
    for i, k in chosen:
        pos = verdict.arena.positions[i]
        assert pos.owner is Role.DUPLICATOR
        assert verdict.strategy[pos] == verdict.arena.moves[pos][k]


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
    duplicator = (False, 0, 0, None, ("transition", 1, 1))
    arena = Arena(
        Engine(es, es, POMSET_STRONG),
        [spoiler, duplicator],
        [("spoiler-challenge-left",), ("duplicator-match",)],
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
    assert sol.demoted
    for i in sol.demoted_ids:
        assert a.positions[i].challenge is None
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
    queue = deque([(arena.initial, ())])
    while queue:
        pos, picks = queue.popleft()
        if pos in seen:
            continue
        seen.add(pos)
        if pos.challenge is None and pos in verdict.demoted:
            return picks
        legal = arena.moves[pos]
        if not legal:
            continue
        if pos.owner is Role.SPOILER:
            queue.append((verdict.strategy.get(pos, legal[0]).target, picks))
        else:
            for k, mv in enumerate(legal):
                queue.append((mv.target, picks + (k,)))
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
    triples = {
        _triple(p) for p in seeded.positions if p.challenge is None
    }
    for c1 in c3.configurations():
        for c2 in cn.configurations():
            for m in enumerate_matchings(c1, c2, weak=False):
                assert (m.mask1, m.pairs, m.mask2) in triples


# ----------------------------------------------------------------------
# reference solver: plain backward induction in topological order, and
# hereditary demotion that re-solves the whole arena after every round


def _reference_induct(arena, demoted):
    deps = {p: {m.target for m in arena.moves[p]} for p in arena.positions}
    winner, strategy = {}, {}
    for pos in TopologicalSorter(deps).static_order():
        if pos in demoted:
            winner[pos] = Role.SPOILER
            continue
        owner = pos.owner
        won = [m for m in arena.moves[pos] if winner[m.target] is owner]
        winner[pos] = owner if won else owner.other()
        if won:
            strategy[pos] = won[0]
    return winner, strategy


def _reference_solve(arena):
    """(winner, strategy, demoted) as the game's definition gives them."""
    demoted = frozenset()
    winner, strategy = _reference_induct(arena, demoted)
    if arena.kind.flavor is not Flavor.HHP:
        return winner, strategy, demoted
    eng = Engine(arena.es1, arena.es2, arena.kind, arena.strong_tau_erasure)
    spoiler_positions = [p for p in arena.positions if p.challenge is None]
    while True:
        won = [p for p in spoiler_positions if winner[p] is Role.DUPLICATOR]
        alive = {_triple(p) for p in won}
        newly = [p for p in won if not hereditary_ok(eng, _triple(p), alive)]
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
            assert list(verdict.win) == [winner[pos] for pos in verdict.arena.positions]
            assert verdict.strategy == strategy
            assert verdict.demoted == demoted

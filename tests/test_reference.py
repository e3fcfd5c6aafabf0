"""Both engines against the checker written from the definitions alone
(tests/reference.py), which shares no code with them: the oracle's
greatest relation must be the reference's, key for key, and the game's
verdict must be the reference's verdict."""

from __future__ import annotations

import pytest

from pesbisim import ALL_KINDS, Mode, game_check, greatest_bisimulation

import reference
from conftest import apart_by_termination, fixture_pairs, random_pairs, twin_rich_pairs


def _keys(relation, kind) -> set:
    if kind.posetal:
        return set(relation.keys)
    return {(m1, m2) for m1, _, m2 in relation.keys}


@pytest.mark.parametrize(
    "pairs",
    [
        [pair[::d] for pair in fixture_pairs() for d in (1, -1)],
        random_pairs(61, 40, max_events=4),
        random_pairs(62, 24, max_events=4, alphabet="a"),
        random_pairs(63, 40, max_events=4, alphabet="ab", tau_prob=0.3, termination=True),
        twin_rich_pairs(4) + [apart_by_termination()],
        random_pairs(64, 24, max_events=4, alphabet="a", termination=True),
    ],
    ids=["fixtures", "mixed", "one-label", "termination", "twins", "one-label-termination"],
)
def test_engines_match_the_definitions(pairs):
    for es1, es2 in pairs:
        for kind in ALL_KINDS:
            for erase in (False, True) if kind.mode is Mode.STRONG else (False,):
                case = (es1.name, es2.name, str(kind), erase)
                want = reference.greatest_relation(
                    es1, es2, kind.flavor.value, kind.branching, erase
                )
                got = greatest_bisimulation(es1, es2, kind, strong_tau_erasure=erase)
                assert _keys(got, kind) == want, case
                empty = (0, (), 0) if kind.posetal else (0, 0)
                verdict = game_check(es1, es2, kind, strong_tau_erasure=erase)
                assert verdict.equivalent == (empty in want), case

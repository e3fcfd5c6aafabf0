"""End-to-end acceptance gate.

Eight criteria, each printed as a pass/fail line (run with -s to see
them on success):

1. engine agreement over a 300-pair random corpus plus the hand-written
   fixture pairs, all eight kinds, both engines, under five minutes
2. PAR vs CH inequivalent in both modes of pomset and step and in
   strong hp and strong hhp, by both engines
3. TAU vs PA inequivalent in all strong kinds, equivalent in all
   branching kinds, by both engines
4. the hierarchy hhp => hp => pomset => step within each mode, and
   strong => branching per flavor on maximal-termination structures
5. metamorphic invariances: reflexivity, symmetry, event renaming
6. exhaustive strategy soundness on 50 inequivalent and 50 equivalent
   decisions sampled from the random corpus, and on every fixture decision
7. witness re-verification and mutation sensitivity
8. command line contract: exit codes, JSON schema, golden DOT output
"""

from __future__ import annotations

import json
import random
import time
from functools import lru_cache

from pesbisim import (
    ALL_KINDS,
    BisimulationKind,
    Flavor,
    Mode,
    check,
    greatest_bisimulation,
    verify_witness,
)
from pesbisim.cli import main
from pesbisim.games import Role, game_check
from pesbisim.pomsets import enumerate_matchings

from conftest import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    STANDARD,
    ch,
    fixture_pairs,
    par,
    pa,
    random_pairs,
    renamed_copy,
    tau,
)

CORPUS_SEED = 2024
CORPUS_SIZE = 300


def conclude(num: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num}] {label}: {status}")
    assert not failures, f"criterion {num} ({label}): {failures[:5]}"


@lru_cache(maxsize=1)
def corpus():
    return random_pairs(CORPUS_SEED, CORPUS_SIZE)


@lru_cache(maxsize=1)
def all_pairs():
    return corpus() + fixture_pairs()


@lru_cache(maxsize=1)
def engine_verdicts():
    """(oracle, game) verdict per (pair index, kind), plus elapsed time."""
    started = time.perf_counter()
    out = {}
    for idx, (a, b) in enumerate(all_pairs()):
        for kind in ALL_KINDS:
            o = check(a, b, kind).equivalent
            g = game_check(a, b, kind).equivalent
            out[idx, kind] = (o, g)
    return out, time.perf_counter() - started


def test_criterion_1_engine_agreement():
    verdicts, elapsed = engine_verdicts()
    assert len(corpus()) >= 300
    assert len(fixture_pairs()) >= 12
    failures = [
        (all_pairs()[idx][0].name, all_pairs()[idx][1].name, str(kind), o, g)
        for (idx, kind), (o, g) in verdicts.items()
        if o != g
    ]
    if elapsed >= 300.0:
        failures.append(("runtime", elapsed))
    conclude(1, "oracle and game engines agree on the full corpus", failures)


def test_criterion_2_par_vs_ch_separation():
    kinds = [
        BisimulationKind(Flavor.POMSET, Mode.STRONG),
        BisimulationKind(Flavor.STEP, Mode.STRONG),
        BisimulationKind(Flavor.POMSET, Mode.BRANCHING),
        BisimulationKind(Flavor.STEP, Mode.BRANCHING),
        BisimulationKind(Flavor.HP, Mode.STRONG),
        BisimulationKind(Flavor.HHP, Mode.STRONG),
    ]
    failures = []
    for kind in kinds:
        if check(par(), ch(), kind).equivalent:
            failures.append(("oracle", str(kind)))
        if game_check(par(), ch(), kind).equivalent:
            failures.append(("game", str(kind)))
    conclude(2, "PAR and CH separated by every required kind", failures)


def test_criterion_3_tau_vs_pa_separation():
    failures = []
    for kind in ALL_KINDS:
        expected = kind.mode is Mode.BRANCHING
        if check(tau(), pa(), kind).equivalent != expected:
            failures.append(("oracle", str(kind)))
        if game_check(tau(), pa(), kind).equivalent != expected:
            failures.append(("game", str(kind)))
    conclude(3, "TAU and PA agree exactly on the branching kinds", failures)


def test_criterion_4_hierarchy():
    verdicts, _ = engine_verdicts()
    order = (Flavor.HHP, Flavor.HP, Flavor.POMSET, Flavor.STEP)
    failures = []
    for idx, (a, b) in enumerate(all_pairs()):
        for mode in Mode:
            got = {f: verdicts[idx, BisimulationKind(f, mode)][0] for f in Flavor}
            for hi, lo in zip(order, order[1:]):
                if got[hi] and not got[lo]:
                    failures.append((a.name, b.name, mode.value, hi.value, lo.value))
        # strong ignores the termination predicate, so strong => branching
        # is only claimed where both sides terminate at maximal configurations
        if a.terminating is None and b.terminating is None:
            for flavor in Flavor:
                strong = verdicts[idx, BisimulationKind(flavor, Mode.STRONG)][0]
                branching = verdicts[idx, BisimulationKind(flavor, Mode.BRANCHING)][0]
                if strong and not branching:
                    failures.append((a.name, b.name, flavor.value, "strong=>branching"))
    conclude(4, "hhp => hp => pomset => step and strong => branching", failures)


def test_criterion_5_metamorphic():
    failures = []
    structures = [es for pair in corpus() for es in pair]
    for es in structures:
        for kind in ALL_KINDS:
            if not check(es, es, kind).equivalent:
                failures.append(("reflexivity", es.name, str(kind)))
    for a, b in corpus():
        for kind in ALL_KINDS:
            if check(a, b, kind).equivalent != check(b, a, kind).equivalent:
                failures.append(("symmetry", a.name, b.name, str(kind)))
    for a, _ in corpus():
        fresh = renamed_copy(a)
        for kind in ALL_KINDS:
            if not check(a, fresh, kind).equivalent:
                failures.append(("renaming", a.name, str(kind)))
    # the games share the invariances; spot-check them on a slice
    for a, b in corpus()[:25]:
        for kind in ALL_KINDS:
            if not game_check(a, a, kind).equivalent:
                failures.append(("game reflexivity", a.name, str(kind)))
            if game_check(a, b, kind).equivalent != game_check(b, a, kind).equivalent:
                failures.append(("game symmetry", a.name, b.name, str(kind)))
    conclude(5, "reflexivity, symmetry and renaming invariance", failures)


def _strategy_always_wins(verdict, role) -> bool:
    """Walk every counterplay against role's canonical strategy, by
    position id; True when every play ends in a win for role."""
    arena = verdict.arena
    seen, stack = set(), [0]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        if i in verdict.demoted_ids:  # terminal Spoiler win
            if role is Role.SPOILER:
                continue
            return False
        legal = arena.succ[i]
        if (arena.keys[i][4] is None) == (role is Role.SPOILER):
            if not legal or verdict.win[i] is not role:
                return False
            stack.append(legal[verdict.canonical_move(i)])
        else:
            stack.extend(legal)
    return True


def test_criterion_6_strategy_soundness():
    """50 inequivalent and 50 equivalent decisions drawn from the random
    corpus alone, so adding a fixture pair leaves the sample as it is,
    and every decision of every fixture pair."""
    verdicts, _ = engine_verdicts()
    drawn = len(corpus())
    inequivalent = [(i, k) for (i, k), (_, g) in verdicts.items() if i < drawn and not g]
    equivalent = [(i, k) for (i, k), (_, g) in verdicts.items() if i < drawn and g]
    assert len(inequivalent) >= 50 and len(equivalent) >= 50
    rng = random.Random(7701)
    decisions = rng.sample(inequivalent, 50) + rng.sample(equivalent, 50)
    decisions += [(i, k) for i, k in verdicts if i >= drawn]
    failures = []
    for idx, kind in decisions:
        a, b = all_pairs()[idx]
        verdict = game_check(a, b, kind)
        sound = _strategy_always_wins(verdict, verdict.winner)
        if verdict.equivalent != verdicts[idx, kind][1] or not sound:
            failures.append((verdict.winner.value, a.name, b.name, str(kind)))
    conclude(6, "extracted strategies win every counterplay", failures)


def _candidate_universe(a, b, kind):
    return [
        (m1, pairs, m2)
        for m1 in a.configurations()
        for m2 in b.configurations()
        for pairs in (
            enumerate_matchings(a, m1, b, m2, weak=kind.branching) if kind.posetal else (None,)
        )
    ]


def test_criterion_7_witness_mutation():
    """Every produced witness re-verifies; swapping one element for an
    outside candidate always breaks closure.  Witnesses that already
    contain every well-formed candidate leave only deletion, whose rare
    survivors must re-verify as closed sets in their own right."""
    verdicts, _ = engine_verdicts()
    produced = [
        (*all_pairs()[idx], kind) for (idx, kind), (o, _) in verdicts.items() if o
    ]
    for make in STANDARD:
        es = make()
        produced.extend((es, es, kind) for kind in ALL_KINDS)
    rng = random.Random(7702)
    mutated = 0
    broke = 0
    deletion_survivors = []
    failures = []
    for a, b, kind in produced:
        relation = greatest_bisimulation(a, b, kind)
        if not verify_witness(a, b, kind, relation):
            failures.append(("rejected own witness", a.name, b.name, str(kind)))
            continue
        members = set(relation.keys)
        outside = [x for x in _candidate_universe(a, b, kind) if x not in members]
        victim = rng.choice(relation.sorted_keys())
        if outside:
            mutant = (members - {victim}) | {rng.choice(outside)}
            mutated += 1
            if not verify_witness(a, b, kind, mutant):
                broke += 1
        else:
            mutant = members - {victim}
            if verify_witness(a, b, kind, mutant):
                deletion_survivors.append((a, b, kind, mutant))
    if mutated < 50:
        failures.append(("too few mutable witnesses", mutated))
    rate = broke / mutated if mutated else 0.0
    if rate < 0.95:
        failures.append(("mutation failure rate", rate))
    for a, b, kind, mutant in deletion_survivors:
        # a surviving deletion must itself be a closed relation
        if not verify_witness(a, b, kind, mutant):
            failures.append(("survivor not re-closed", a.name, b.name, str(kind)))
    conclude(
        7,
        f"witness mutation breaks closure ({broke}/{mutated} mutations, "
        f"{len(deletion_survivors)} re-closed deletions)",
        failures,
    )


def test_criterion_8_cli_contract(capsys, tmp_path):
    failures = []

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    par_f = str(FIXTURE_DIR / "par.pes")
    ch_f = str(FIXTURE_DIR / "ch.pes")
    tau_f = str(FIXTURE_DIR / "tau.pes")
    pa_f = str(FIXTURE_DIR / "pa.pes")

    code, out, _ = run(["check", "--rel", "pomset", "--mode", "branching", tau_f, pa_f])
    if code != 0:
        failures.append(("exit 0", code))
    code, out, _ = run(["check", "--rel", "pomset", "--mode", "strong", par_f, ch_f])
    if code != 1 or out != (GOLDEN_DIR / "check_par_ch_pomset_strong.txt").read_text():
        failures.append(("exit 1 golden", code))
    bad = tmp_path / "bad.pes"
    bad.write_text("pes X\ncause a < b\n")
    code, _, err = run(["check", "--rel", "pomset", "--mode", "strong", str(bad), pa_f])
    if code != 2 or "line 2, column 7" not in err:
        failures.append(("exit 2 parse error", code, err.strip()))
    code, _, err = run(
        ["check", "--rel", "hp", "--mode", "strong", "--max-events", "1", par_f, ch_f]
    )
    if code != 3:
        failures.append(("exit 3 cap", code))
    code, out, _ = run(["check", "--json", "--rel", "hhp", "--mode", "strong", par_f, ch_f])
    report = json.loads(out)
    schema = {
        "format", "relation", "mode", "engine", "left", "right",
        "equivalent", "agreement", "witness_summary", "caps", "elapsed_ms",
    }
    if code != 1 or set(report) != schema or report["format"] != 1:
        failures.append(("json schema", code, sorted(report)))
    if report["equivalent"] is not False or report["agreement"] is not True:
        failures.append(("json verdict", report))
    for golden, argv in [
        ("configs_seq.dot", ["export", "--what", "configs", str(FIXTURE_DIR / "seq.pes")]),
        ("configs_ch.dot", ["export", "--what", "configs", ch_f]),
        ("configs_tau.dot", ["export", "--what", "configs", tau_f]),
        (
            "arena_par_ch_pomset_strong.dot",
            ["export", "--what", "arena", "--rel", "pomset", "--mode", "strong", par_f, ch_f],
        ),
    ]:
        code, out, _ = run(argv)
        if code != 0 or out != (GOLDEN_DIR / golden).read_text():
            failures.append(("dot golden", golden, code))
    conclude(8, "exit codes, JSON schema and DOT goldens", failures)

"""Seeded decision sets whose answers are known by construction.

A decision is one structure pair and one of the eight kinds.  Every pair
is a structure against one of:

* its copy: fresh event ids in a shuffled declaration order, equivalent
  in all eight kinds;
* its mutant: the copy with one event relabelled to the label ``z``,
  which no generator uses.  Every event of a prime event structure is
  reachable (its causal past is a configuration), so a fresh visible
  label is observable and the pair is inequivalent in all eight kinds;
* a fixture partner from the test suite, used only for the kinds whose
  answers the tests state.

The seed decides the random structures (but not their sizes), the
renamings and the mutated events of random structures, and nothing
else; the program sees nothing but the ``.pes`` files written here.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

RELS = ("pomset", "step", "hp", "hhp")
MODES = ("strong", "branching")
KINDS = tuple((rel, mode) for rel in RELS for mode in MODES)
FRESH_LABEL = "z"


@dataclass(frozen=True)
class Structure:
    name: str
    events: tuple[tuple[str, str], ...]  # (event id, label)
    causes: tuple[tuple[str, str], ...] = ()
    conflicts: tuple[tuple[str, str], ...] = ()

    def text(self) -> str:
        lines = [f"pes {self.name}"]
        lines += [f"event {e} : {label}" for e, label in self.events]
        lines += [f"cause {a} < {b}" for a, b in self.causes]
        lines += [f"conflict {a} # {b}" for a, b in self.conflicts]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Decision:
    left: Structure
    right: Structure
    rel: str
    mode: str
    expected: bool
    witness: bool = False


def copy_of(es: Structure, rng: random.Random, name: str) -> Structure:
    """es under fresh event ids, with events, causes and conflicts
    declared in a shuffled order."""
    order = list(es.events)
    rng.shuffle(order)
    ids = {e: f"c{i}" for i, (e, _) in enumerate(order)}
    causes = [(ids[a], ids[b]) for a, b in es.causes]
    conflicts = [(ids[a], ids[b]) for a, b in es.conflicts]
    rng.shuffle(causes)
    rng.shuffle(conflicts)
    return Structure(
        name, tuple((ids[e], label) for e, label in order), tuple(causes), tuple(conflicts)
    )


def mutant_of(es: Structure, rng: random.Random, name: str, event: str | None = None) -> Structure:
    """A copy of es with one event relabelled to the fresh label: the
    event of es with id `event`, or a seeded one."""
    if event is None:
        event = rng.choice(es.events)[0]
    events = tuple((e, FRESH_LABEL if e == event else label) for e, label in es.events)
    return copy_of(replace(es, events=events), rng, name)


def against_copy_and_mutant(es: Structure, rng: random.Random, witness: bool = False):
    """es, one of the families below, against its copy and against its
    mutant, each in all 8 kinds.  The mutant relabels the family's last
    event: which event it is changes the work (a silent or a visible one
    in TAUPAR, a root or a leaf in CHAINS), and the seed should change
    only the renamings."""
    cp = copy_of(es, rng, f"{es.name}_copy")
    mut = mutant_of(es, rng, f"{es.name}_mut", event=es.events[-1][0])
    return [
        Decision(es, other, rel, mode, expected, witness)
        for rel, mode in KINDS
        for other, expected in ((cp, True), (mut, False))
    ]


# ----------------------------------------------------------------------
# symmetric families


def alternating_antichain(n: int) -> Structure:
    return Structure(f"PAR_{n}", tuple((f"e{i}", "ab"[i % 2]) for i in range(n)))


def uniform_antichain(n: int) -> Structure:
    return Structure(f"ANTI_{n}", tuple((f"e{i}", "a") for i in range(n)))


def parallel_chains(k: int, length: int) -> Structure:
    events, causes = [], []
    for c in range(k):
        for j in range(length):
            events.append((f"x{c}_{j}", "ab"[(c + j) % 2]))
            if j:
                causes.append((f"x{c}_{j - 1}", f"x{c}_{j}"))
    return Structure(f"CHAINS_{k}x{length}", tuple(events), tuple(causes))


def tau_prefixed(k: int) -> Structure:
    events, causes = [], []
    for c in range(k):
        events += [(f"t{c}", "tau"), (f"v{c}", "ab"[c % 2])]
        causes.append((f"t{c}", f"v{c}"))
    return Structure(f"TAUPAR_{k}", tuple(events), tuple(causes))


# ----------------------------------------------------------------------
# random structures


def _draw(rng: random.Random, n: int, silent: int):
    """n events, `silent` of them labelled tau, sparse random causality,
    and conflicts only between events with no common causal successor
    (hereditary closure would otherwise make an event conflict with
    itself).  Returns (labels, causes, conflicts, configuration count)."""
    labels = [rng.choice("abc") for _ in range(n)]
    for i in rng.sample(range(n), silent):
        labels[i] = "tau"
    causes = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
    above = [1 << i for i in range(n)]  # i and its causal successors
    below = [1 << i for i in range(n)]  # i and its causes
    for i, j in reversed(causes):  # causes run forward, so this order closes them
        above[i] |= above[j]
    for i, j in causes:
        below[j] |= below[i]
    conflicts = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not above[i] & above[j] and rng.random() < 0.2
    ]
    # a causally closed set is conflict-free iff it holds no declared pair
    configurations = sum(
        1
        for m in range(1 << n)
        if all(below[i] & ~m == 0 for i in range(n) if m >> i & 1)
        and not any(m >> i & m >> j & 1 for i, j in conflicts)
    )
    return labels, causes, conflicts, configurations


def random_structures(
    rng: random.Random,
    prefix: str,
    count: int,
    min_events: int,
    max_events: int,
    max_configurations: int,
) -> list[Structure]:
    """count random structures with about 20% silent events and at most
    max_configurations configurations, which keeps the work per decision
    within one order of magnitude.  The i-th structure has the event,
    silent-event and configuration counts of the i-th one a generator
    with a fixed seed draws, and rng decides the rest: the sizes, which
    set most of the work, are then the same for every seed, so that the
    seed does not move the percentiles."""
    shapes_rng = random.Random(f"{prefix}:{min_events}-{max_events}:{max_configurations}")
    shapes: list[tuple[int, int, int]] = []
    while len(shapes) < count:
        n = shapes_rng.randint(min_events, max_events)
        silent = sum(shapes_rng.random() < 0.2 for _ in range(n))
        configurations = _draw(shapes_rng, n, silent)[3]
        if configurations <= max_configurations:
            shapes.append((n, silent, configurations))
    out = []
    for k, (n, silent, configurations) in enumerate(shapes):
        while True:
            labels, causes, conflicts, got = _draw(rng, n, silent)
            if got == configurations:
                break
        out.append(
            Structure(
                f"{prefix}{k}",
                tuple((f"e{i}", label) for i, label in enumerate(labels)),
                tuple((f"e{i}", f"e{j}") for i, j in causes),
                tuple((f"e{i}", f"e{j}") for i, j in conflicts),
            )
        )
    return out


# ----------------------------------------------------------------------
# fixture pairs and the answers the tests state for them

PAR = Structure("PAR", (("a", "a"), ("b", "b")))
CH = Structure(
    "CH",
    (("a1", "a"), ("b1", "b"), ("b2", "b"), ("a2", "a")),
    (("a1", "b1"), ("b2", "a2")),
    (("a1", "b2"),),
)
TAU = Structure("TAU", (("t", "tau"), ("a", "a")), (("t", "a"),))
PA = Structure("PA", (("a", "a"),))
CHOICE3 = Structure(
    "CHOICE3",
    (("a1", "a"), ("a2", "a"), ("af", "a"), ("b", "b")),
    (),
    (("a1", "a2"), ("a1", "b"), ("a2", "b")),
)
CHAIN = Structure(
    "CHAIN",
    (("a1", "a"), ("a2", "a"), ("a3", "a"), ("b", "b")),
    (),
    (("a1", "a3"), ("a1", "b"), ("a2", "b")),
)

# (left, right, {kind: expected}); criteria 2 and 3 of
# tests/test_acceptance.py and the autoconcurrency test of
# tests/test_oracle.py state these answers.
FIXTURE_ANSWERS = (
    (
        PAR,
        CH,
        {
            ("pomset", "strong"): False,
            ("step", "strong"): False,
            ("pomset", "branching"): False,
            ("step", "branching"): False,
            ("hp", "strong"): False,
            ("hhp", "strong"): False,
        },
    ),
    (TAU, PA, {(rel, mode): mode == "branching" for rel, mode in KINDS}),
    (CHOICE3, CHAIN, {(rel, mode): rel != "hhp" for rel, mode in KINDS}),
)


def fixture_decisions() -> list[Decision]:
    out = []
    for left, right, answers in FIXTURE_ANSWERS:
        out += [
            Decision(left, right, rel, mode, expected) for (rel, mode), expected in answers.items()
        ]
    return out


# ----------------------------------------------------------------------
# workloads: each returns the decisions on structures made once per seed


def symmetric(rng: random.Random) -> list[Decision]:
    """104 decisions, about 3.5 s of checking per round.  ANTI_5 runs in
    the pomset and step kinds only: in hp and hhp against its copy, and
    PAR_6 in any kind, a decision took 0.4-0.9 s, and a round holding
    them took 12 s, too long to repeat often enough within a run.  The
    mix puts the median among many light decisions of similar length
    and p90 among the PAR_5 and ANTI_5 ones, not in a gap between two
    families."""
    out = [
        d
        for d in against_copy_and_mutant(uniform_antichain(5), rng)
        if d.rel in ("pomset", "step")
    ]
    for es in (
        alternating_antichain(5),
        alternating_antichain(4),
        uniform_antichain(4),
        parallel_chains(3, 2),
        parallel_chains(2, 3),
        tau_prefixed(2),
    ):
        out += against_copy_and_mutant(es, rng)
    return out


def _random_kinds(es: Structure, rng: random.Random, k: int, witness: bool) -> list[Decision]:
    """Kinds k and k+1 against a copy, k+2 and k+3 against a mutant."""
    cp = copy_of(es, rng, f"{es.name}_copy")
    mut = mutant_of(es, rng, f"{es.name}_mut")
    pairs = ((cp, True), (cp, True), (mut, False), (mut, False))
    return [
        Decision(es, other, *KINDS[(k + j) % 8], expected, witness)
        for j, (other, expected) in enumerate(pairs)
    ]


def random_small(rng: random.Random) -> list[Decision]:
    out = fixture_decisions()
    for i, es in enumerate(random_structures(rng, "R", 120, 1, 7, max_configurations=20)):
        out += _random_kinds(es, rng, 4 * i, witness=False)
    return out


def evidence(rng: random.Random) -> list[Decision]:
    families = (
        alternating_antichain(4),
        uniform_antichain(4),
        parallel_chains(3, 2),
        tau_prefixed(2),
    )
    out = [d for es in families for d in against_copy_and_mutant(es, rng, witness=True)]
    for i, es in enumerate(random_structures(rng, "W", 10, 4, 7, max_configurations=20)):
        out += _random_kinds(es, rng, 4 * i, witness=True)
    return out


WORKLOADS = {"symmetric": symmetric, "random": random_small, "evidence": evidence}


def rounds(workload: str, seed: int) -> Iterator[list[tuple[int, Decision]]]:
    """Endless rounds over the workload's decisions, as (decision index,
    decision) in a seeded order per round.  In each round every structure
    appears under fresh event ids in a shuffled declaration order, so no
    file is read twice, while the engines answer the same question on
    isomorphic inputs.  How much work they do for it changes with the
    declaration order: one decision's fastest oracle time over four runs
    differed by up to 1.7x between two renamings.  A decision's fastest
    time over many rounds, each renamed afresh, therefore depends little
    on the seed."""
    rng = random.Random(f"{workload}:{seed}")
    decisions = WORKLOADS[workload](rng)
    for r in itertools.count():
        renamed: dict[str, Structure] = {}
        for d in decisions:
            for es in (d.left, d.right):
                if es.name not in renamed:
                    renamed[es.name] = copy_of(es, rng, f"{es.name}_v{r}")
        variant = [
            (i, replace(d, left=renamed[d.left.name], right=renamed[d.right.name]))
            for i, d in enumerate(decisions)
        ]
        rng.shuffle(variant)
        yield variant


def write_files(variant: list[tuple[int, Decision]], directory: Path) -> dict[str, Path]:
    """Write each structure of one round once, as <name>.pes; returns
    name -> path."""
    paths: dict[str, Path] = {}
    for _, d in variant:
        for es in (d.left, d.right):
            if es.name not in paths:
                path = directory / f"{es.name}.pes"
                path.write_text(es.text(), encoding="utf-8")
                paths[es.name] = path
    return paths

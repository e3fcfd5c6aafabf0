"""Shared structures and generators for the test suite.

The small named structures double as documentation: P0 is empty, PA a
single visible event, PAR two concurrent events, SEQ a chain, CH the
interleaving choice, TAU a silent step before a visible one, PA_TAU a
silent step after one.  CHOICE3 and CHAIN are history-preserving
bisimilar but not hereditarily so.
PAR_OR_SEQ is step but not pomset bisimilar to PAR.  ABSORB3 and
ABSORB2, the two sides of the absorption law, are history-preserving
bisimilar but not hereditarily so.  PAR_SEQ_GLUED is pomset but not
history-preserving bisimilar to PAR_SEQ_APART.
"""

from __future__ import annotations

import random
from pathlib import Path

from pesbisim import EventStructure
from pesbisim.pomsets import iso_masks

FIXTURE_DIR = Path(__file__).parent / "fixtures"
GOLDEN_DIR = Path(__file__).parent / "golden"


def p0() -> EventStructure:
    return EventStructure("P0", [])


def pa() -> EventStructure:
    return EventStructure("PA", [("a", "a")])


def par() -> EventStructure:
    return EventStructure("PAR", [("a", "a"), ("b", "b")])


def seq() -> EventStructure:
    return EventStructure("SEQ", [("a", "a"), ("b", "b")], [("a", "b")])


def ch() -> EventStructure:
    return EventStructure(
        "CH",
        [("a1", "a"), ("b1", "b"), ("b2", "b"), ("a2", "a")],
        [("a1", "b1"), ("b2", "a2")],
        [("a1", "b2")],
    )


def tau() -> EventStructure:
    return EventStructure("TAU", [("t", "tau"), ("a", "a")], [("t", "a")])


def pa_tau() -> EventStructure:
    return EventStructure("PA_TAU", [("a", "a"), ("t", "tau")], [("a", "t")])


def pa_noterm() -> EventStructure:
    return EventStructure("PA_NOTERM", [("a", "a")], termination="none")


def halt_early() -> EventStructure:
    return EventStructure(
        "HALT_EARLY", [("a", "a"), ("b", "b")], termination=[["a"], ["a", "b"]]
    )


def choice3() -> EventStructure:
    return EventStructure(
        "CHOICE3",
        [("a1", "a"), ("a2", "a"), ("af", "a"), ("b", "b")],
        [],
        [("a1", "a2"), ("a1", "b"), ("a2", "b")],
    )


def chain() -> EventStructure:
    return EventStructure(
        "CHAIN",
        [("a1", "a"), ("a2", "a"), ("a3", "a"), ("b", "b")],
        [],
        [("a1", "a3"), ("a1", "b"), ("a2", "b")],
    )


def tau_par() -> EventStructure:
    return EventStructure("TAU_PAR", [("t", "tau"), ("a", "a")])


def _sum(name, summands, causes=(), conflicts=()) -> EventStructure:
    """The choice between summands, each a list of (event, label): every
    event conflicts with the events of the other summands."""
    events = [e for summand in summands for e in summand]
    apart = [
        (e, f)
        for k, summand in enumerate(summands)
        for other in summands[k + 1 :]
        for e, _ in summand
        for f, _ in other
    ]
    return EventStructure(name, events, causes, [*conflicts, *apart])


def par_or_seq() -> EventStructure:
    """a‖b + a;b"""
    summands = [[("a1", "a"), ("b1", "b")], [("a2", "a"), ("b2", "b")]]
    return _sum("PAR_OR_SEQ", summands, causes=[("a2", "b2")])


_A_BC = [("a1", "a"), ("b1", "b"), ("c1", "c")]  # a‖(b+c)
_AC_B = [("a3", "a"), ("c3", "c"), ("b3", "b")]  # (a+c)‖b
_CHOICES = [("b1", "c1"), ("a3", "c3")]


def absorb3() -> EventStructure:
    """(a‖(b+c)) + (a‖b) + ((a+c)‖b)"""
    return _sum("ABSORB3", [_A_BC, [("a2", "a"), ("b2", "b")], _AC_B], conflicts=_CHOICES)


def absorb2() -> EventStructure:
    """(a‖(b+c)) + ((a+c)‖b)"""
    return _sum("ABSORB2", [_A_BC, _AC_B], conflicts=_CHOICES)


def par_seq_glued() -> EventStructure:
    """a‖a and a;a sharing one a: e2 is concurrent with e0 and below e1,
    which excludes e0."""
    return EventStructure(
        "PAR_SEQ_GLUED", [("e0", "a"), ("e1", "a"), ("e2", "a")], [("e2", "e1")], [("e0", "e1")]
    )


def par_seq_apart() -> EventStructure:
    """a‖a + a;a: the same pomsets as PAR_SEQ_GLUED, but here the first a
    of a;a (e1) excludes both a of a‖a."""
    summands = [[("e0", "a"), ("e2", "a")], [("e1", "a"), ("e3", "a")]]
    return _sum("PAR_SEQ_APART", summands, causes=[("e1", "e3")])


STANDARD = (p0, pa, par, seq, ch, tau, pa_noterm, halt_early, choice3, chain, tau_par)


def fixture_pairs() -> list[tuple[EventStructure, EventStructure]]:
    """The hand-written comparison pairs used across the suite."""
    out = [
        (p0(), p0()),
        (p0(), pa()),
        (pa(), pa()),
        (par(), ch()),
        (par(), seq()),
        (seq(), ch()),
        (tau(), pa()),
        (tau(), seq()),
        (tau(), tau_par()),
        (pa(), pa_noterm()),
        # PA terminates at {a}, PA_TAU only after its silent step
        (pa(), pa_tau()),
        (halt_early(), par()),
        (choice3(), chain()),
        (ch(), ch()),
        (par(), par()),
        # the hierarchy-separating pairs: step not pomset, pomset not hp,
        # hp not hhp
        (par_or_seq(), par()),
        (par_seq_glued(), par_seq_apart()),
        (absorb3(), absorb2()),
    ]
    return out


def iso_after_erasure(es1, mask1, es2, mask2, erase: bool) -> bool:
    """iso_masks, with the silent events of both masks erased first when
    erase is set."""
    if erase:
        mask1 &= ~es1.silent_mask
        mask2 &= ~es2.silent_mask
    return iso_masks(es1, mask1, es2, mask2)


def random_es(
    rng: random.Random,
    name: str,
    max_events: int = 5,
    alphabet: str = "abc",
    tau_prob: float = 0.2,
    termination: bool = False,
) -> EventStructure:
    """A valid random structure: sparse causes along a seeded permutation
    of the events, so causality runs against declaration order as often
    as with it, and conflicts only between events with no common causal
    successor (a declared conflict below a join would contradict
    hereditary closure).  With termination set, the termination policy
    is drawn too: maximal, none, or an explicit set of configurations;
    otherwise it is maximal and the draws are those of earlier corpora."""
    n = rng.randint(0, max_events)
    events = [
        (f"e{i}", "tau" if rng.random() < tau_prob else rng.choice(alphabet))
        for i in range(n)
    ]
    perm = rng.sample(range(n), n)
    causes = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.25:
                causes.append((f"e{perm[a]}", f"e{perm[b]}"))
    below: list[set[int]] = []
    for j in range(n):
        seen = {j}
        stack = [j]
        while stack:
            k = stack.pop()
            for x, y in causes:
                if int(y[1:]) == k and int(x[1:]) not in seen:
                    seen.add(int(x[1:]))
                    stack.append(int(x[1:]))
        below.append(seen)
    above = [set(j for j in range(n) if i in below[j]) for i in range(n)]
    conflicts = []
    for i in range(n):
        for j in range(i + 1, n):
            if above[i] & above[j]:
                continue
            if rng.random() < 0.2:
                conflicts.append((f"e{i}", f"e{j}"))
    es = EventStructure(name, events, causes, conflicts)
    if not termination:
        return es
    policy = rng.choice(("maximal", "none", "explicit"))
    if policy == "explicit":
        policy = [es.events_of_mask(m) for m in es.configurations() if rng.random() < 0.4]
    return EventStructure(name, events, causes, conflicts, policy)


def random_pairs(seed: int, count: int, **kwargs):
    """Deterministic stream of random structure pairs."""
    rng = random.Random(seed)
    return [
        (random_es(rng, f"L{i}", **kwargs), random_es(rng, f"R{i}", **kwargs))
        for i in range(count)
    ]


def renamed_copy(
    es: EventStructure, prefix: str = "r", rng: random.Random | None = None
) -> EventStructure:
    """The same structure under fresh event identifiers, declared in a
    shuffled order when rng is given."""
    order = list(es.events)
    if rng is not None:
        rng.shuffle(order)
    names = {e: f"{prefix}{i}" for i, e in enumerate(order)}
    label = dict(zip(es.events, es.labels))
    events = [(names[e], label[e]) for e in order]
    causes = [
        (names[x], names[y]) for x in es.events for y in es.events if x != y and es.leq(x, y)
    ]
    conflicts = [
        (names[x], names[y])
        for i, x in enumerate(es.events)
        for y in es.events[i + 1 :]
        if es.in_conflict(x, y)
    ]
    termination = "maximal"
    if es.terminating is not None:
        termination = [[names[e] for e in es.events_of_mask(m)] for m in sorted(es.terminating)]
    return EventStructure(f"{es.name}-renamed", events, causes, conflicts, termination)


def antichain(n: int, labels: tuple[str, ...] = ("a",), name: str = "ANTI") -> EventStructure:
    """n concurrent events labelled in turn from labels: ANTI_n with one
    label, PAR_n with ("a", "b")."""
    return EventStructure(f"{name}_{n}", [(f"e{i}", labels[i % len(labels)]) for i in range(n)])


def twin_rich_pairs(max_events: int = 5) -> list[tuple[EventStructure, EventStructure]]:
    """Structures made mostly of twins, interchangeable events: ANTI_n,
    PAR_n and its silent variant TPAR_n (2 <= n <= max_events) against a
    shuffled copy, against the copy with one event relabelled, and against
    themselves with a conflict between their first two events, which stay
    twins of each other only."""
    rng = random.Random(81)
    out = []
    for n in range(2, max_events + 1):
        for base in (
            antichain(n),
            antichain(n, ("a", "b"), "PAR"),
            antichain(n, ("a", "tau"), "TPAR"),
        ):
            events = list(zip(base.events, base.labels))
            relabelled = events[:-1] + [(events[-1][0], "z")]
            out += [
                (base, renamed_copy(base, rng=rng)),
                (base, renamed_copy(EventStructure("MUT", relabelled), rng=rng)),
                (base, EventStructure("CONF", events, [], [("e0", "e1")])),
            ]
    return out


def apart_by_termination() -> tuple[EventStructure, EventStructure]:
    """Two concurrent a events that terminate only after a1, against the
    same shape terminating only after b2.  The terminating set keeps the
    two a events of each side from being twins: swapping them moves it."""
    return (
        EventStructure("TERM_A1", [("a1", "a"), ("a2", "a")], termination=[["a1"]]),
        EventStructure("TERM_B2", [("b1", "a"), ("b2", "a")], termination=[["b2"]]),
    )

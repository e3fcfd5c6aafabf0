"""Spans around the public calls into each layer, for the traced run only.

Each wrapper is installed on the name the calling module looks up
(``cli.parse_pes``, ``oracle.iso_masks`` and so on), so calls the
program makes between its own modules are caught without touching
``src/``.  A span's self time is its duration minus the durations of the
wrapped calls it made.  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import time
import weakref
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from pesbisim import cli, games, oracle, pes

# A span is named <layer>.<function>; the layers' self times and the
# command line's own time add up to the traced check_s.
LAYERS = ("cli", "pesfile", "pes", "pomsets", "oracle", "games")


class Tracer:
    """Records spans and counts while installed; install() and
    uninstall() bracket the traced invocations."""

    def __init__(self) -> None:
        # one entry per span, indexed by span id; parent is -1 at the top
        self.span_decision = array("l")
        self.span_parent = array("l")
        self.span_name = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.decision = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._configs_seen: weakref.WeakSet = weakref.WeakSet()
        self._trans_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches = [
            (cli, "parse_pes", "pesfile.parse_pes", None),
            (oracle, "check", "oracle.check", None),
            (oracle, "greatest_bisimulation", "oracle.greatest_bisimulation", self._relation),
            (oracle, "iso_masks", "pomsets.iso_masks", self._iso),
            (oracle, "enumerate_matchings", "pomsets.enumerate_matchings", self._matchings),
            (games, "game_check", "games.game_check", None),
            (games, "build_arena", "games.build_arena", self._arena),
            (games, "solve", "games.solve", None),
            (games, "solve_hereditary", "games.solve_hereditary", self._demoted),
            (games.Arena, "describe", "games.describe", None),
            (games.Arena, "describe_move", "games.describe_move", None),
            (pes.EventStructure, "configurations", "pes.configurations", self._configs),
            (pes.EventStructure, "transition_masks", "pes.transition_masks", self._transitions),
            (pes.EventStructure, "tau_reachable_masks", "pes.tau_reachable_masks", None),
        ]
        self.names = [name for _, _, name, _ in self._patches]
        self._originals = [getattr(owner, attr) for owner, attr, _, _ in self._patches]
        self._wrapped = [
            self._wrap(original, name, after)
            for original, (_, _, name, after) in zip(self._originals, self._patches)
        ]

    def install(self) -> None:
        for (owner, attr, _, _), wrapped in zip(self._patches, self._wrapped):
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for (owner, attr, _, _), original in zip(self._patches, self._originals):
            setattr(owner, attr, original)

    def _wrap(self, original, name: str, after):
        stack = self._stack
        self_s, total_s, counts = self.self_s, self.total_s, self.counts
        name_id = self.names.index(name)
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(starts)
            self.span_decision.append(self.decision)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_name.append(name_id)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span_id, 0.0]
            stack.append(frame)
            matchings_before = counts["matchings"]
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                starts[span_id] = start
                ends[span_id] = end
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                counts[name] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, kwargs, result, counts["matchings"] - matchings_before)
            return result

        return traced

    # -- counts, from each call's arguments, its result and the number of
    # matchings enumerated during the call

    def _iso(self, args, kwargs, result, matchings) -> None:
        self.counts["iso_true"] += bool(result)

    def _matchings(self, args, kwargs, result, matchings) -> None:
        self.counts["matchings"] += len(result)

    def _relation(self, args, kwargs, result, matchings) -> None:
        es1, es2, kind = args[:3]
        if kind.posetal:
            universe = matchings  # every matching of every configuration pair
        else:
            universe = len(es1.configuration_masks()) * len(es2.configuration_masks())
        self.counts["universe"] += universe
        self.counts["relation_size"] += len(result)

    def _arena(self, args, kwargs, result, matchings) -> None:
        self.counts["positions"] += len(result.positions)
        self.counts["moves"] += sum(len(out) for out in result.moves.values())

    def _demoted(self, args, kwargs, result, matchings) -> None:
        self.counts["demoted"] += len(result.demoted)

    def _configs(self, args, kwargs, result, matchings) -> None:
        es = args[0]
        if es not in self._configs_seen:
            self._configs_seen.add(es)
            self.counts["configurations"] += len(result)

    def _transitions(self, args, kwargs, result, matchings) -> None:
        # mirrors the structure's own (mask, step) cache, which never evicts
        es, mask = args[:2]
        key = (mask, args[2] if len(args) > 2 else kwargs["step"])
        seen = self._trans_seen.setdefault(es, set())
        if key in seen:
            self.counts["transition_hits"] += 1
        else:
            seen.add(key)

    def write(self, path: Path) -> None:
        """One tab-separated line per span: decision, id, parent, name,
        start and end in seconds of the run's perf_counter."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("decision\tspan\tparent\tname\tstart\tend\n")
            for i, start in enumerate(self.span_start):
                fh.write(
                    f"{self.span_decision[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{start}\t{self.span_end[i]}\n"
                )

"""Command line interface.

Exit codes: 0 equivalent, 1 inequivalent, 2 usage/parse/validation error,
3 cap exceeded, 4 the two engines disagree (engine=both only).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from typing import Any

from . import games, oracle
from .errors import CapExceededError, ParseError, PesBisimError, ValidationError
from .export import arena_dot, configuration_graph_dot
from .games import Role
from .kinds import BisimulationKind
from .pes import Caps, EventStructure
from .pesfile import parse_pes

REPORT_FORMAT = 1


def _caps_from_args(args: argparse.Namespace) -> Caps:
    return Caps(
        max_events=args.max_events,
        max_configurations=args.max_configurations,
        max_positions=args.max_positions,
    )


def _add_common(parser: argparse.ArgumentParser, *, required: bool) -> None:
    parser.add_argument(
        "--rel", required=required, choices=["pomset", "step", "hp", "hhp"],
        help="bisimilarity flavor",
    )
    parser.add_argument(
        "--mode", required=required, choices=["strong", "branching"],
        help="strong or branching transfer conditions",
    )
    parser.add_argument(
        "--strong-tau-erasure", action="store_true",
        help="strong pomset and step: compare pomsets after erasing silent events "
        "(hp and hhp matchings pair silent events like labelled ones)",
    )
    for cap, limited in (
        ("events", "events a structure may declare"),
        ("configurations", "configurations a structure may have"),
        ("positions", "game positions, or oracle candidate pairs or matchings"),
    ):
        parser.add_argument(
            f"--max-{cap}", type=int, default=getattr(Caps, f"max_{cap}"),
            help=f"most {limited} (default %(default)s)",
        )


def _load(path: str, caps: Caps) -> EventStructure:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_pes(text, caps)
    except ParseError as exc:
        raise ParseError(exc.line, exc.column, f"{path}: {exc.args[0].split(': ', 1)[-1]}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _kind_and_pair(
    args: argparse.Namespace, caps: Caps
) -> tuple[BisimulationKind, EventStructure, EventStructure]:
    """The kind named by --rel and --mode, then the two structures of the
    files, each loaded under the caps."""
    kind = BisimulationKind.parse(args.rel, args.mode)
    return kind, _load(args.files[0], caps), _load(args.files[1], caps)


def _serialize_witness(verdict: oracle.Verdict) -> list:
    relation = verdict.witness
    assert relation is not None
    es1, es2 = relation.es1, relation.es2
    out = []
    for m1, pairs, m2 in relation.sorted_keys():
        entry = {"left": list(es1.events_of_mask(m1)), "right": list(es2.events_of_mask(m2))}
        if pairs is not None:
            entry["map"] = [[es1.events[i], es2.events[j]] for i, j in pairs]
        out.append(entry)
    return out


def _serialize_strategy(gv: games.GameVerdict) -> list:
    arena = gv.arena
    keys, succ = arena.keys, arena.succ
    return [
        {
            "position": arena.describe(keys[i]),
            "rule": arena.rule(keys[i], keys[succ[i][k]]),
            "move": arena.describe_move(keys[i], keys[succ[i][k]]),
        }
        for i, k in gv.strategy_moves()
    ]


def _json_lines(report: dict[str, Any]) -> str:
    """The report with one key per line, its value compact, and the
    witness entries one per line."""
    fields = []
    for name, value in report.items():
        if name == "witness" and value:
            entries = ",\n".join(f"    {json.dumps(entry)}" for entry in value)
            text = f"[\n{entries}\n  ]"
        else:
            text = json.dumps(value)
        fields.append(f'  "{name}": {text}')
    return "{\n" + ",\n".join(fields) + "\n}"


def cmd_check(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    kind, es1, es2 = _kind_and_pair(args, caps)
    started = time.perf_counter()
    verdicts: dict[str, Any] = {}
    capped: dict[str, CapExceededError] = {}
    # only --witness reads a strategy, which needs the solved arena
    game = games.game_check if args.witness else games.decide
    for name, decide in (("oracle", oracle.check), ("game", game)):
        if args.engine not in (name, "both"):
            continue
        try:
            verdicts[name] = decide(es1, es2, kind, strong_tau_erasure=args.strong_tau_erasure)
        except CapExceededError as exc:
            if args.engine != "both":
                raise
            capped[name] = exc
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if capped:
        for name, exc in capped.items():
            print(f"error: {name} engine: {exc}", file=sys.stderr)
        for name, verdict in verdicts.items():
            word = "equivalent" if verdict.equivalent else "inequivalent"
            print(f"{name} engine finished: {word}", file=sys.stderr)
        return 3
    oracle_verdict = verdicts.get("oracle")
    game_verdict = verdicts.get("game")

    agreement: bool | None = None
    if oracle_verdict is not None and game_verdict is not None:
        agreement = oracle_verdict.equivalent == game_verdict.equivalent
    equivalent = (
        oracle_verdict.equivalent if oracle_verdict is not None else game_verdict.equivalent
    )

    if equivalent and oracle_verdict is not None and oracle_verdict.witness is not None:
        summary: dict[str, Any] = {"kind": "relation", "size": len(oracle_verdict.witness)}
    elif game_verdict is not None:
        summary = {
            "kind": "strategy",
            "winner": game_verdict.winner.value,
            "moves": game_verdict.strategy_size() if args.witness else game_verdict.moves,
        }
    else:
        summary = {"kind": "none"}

    witness = None
    if args.witness:
        if equivalent and oracle_verdict is not None:
            witness = _serialize_witness(oracle_verdict)
        elif game_verdict is not None:
            witness = _serialize_strategy(game_verdict)

    if args.json:
        report: dict[str, Any] = {
            "format": REPORT_FORMAT,
            "relation": args.rel,
            "mode": args.mode,
            "engine": args.engine,
            "left": es1.name,
            "right": es2.name,
            "equivalent": equivalent,
            "witness_summary": summary,
            "caps": dataclasses.asdict(caps),
            "elapsed_ms": round(elapsed_ms, 3),
        }
        if agreement is not None:
            report["agreement"] = agreement
        if witness is not None:
            report["witness"] = witness
        print(_json_lines(report))
    else:
        verdict_word = "equivalent" if equivalent else "inequivalent"
        print(f"{es1.name} vs {es2.name}: {kind}: {verdict_word}")
        if summary["kind"] == "relation":
            print(f"witness relation of size {summary['size']}")
        elif summary["kind"] == "strategy":
            n = summary["moves"]
            word = "move" if n == 1 else "moves"
            print(f"{summary['winner']} wins with a strategy of {n} {word}")
        if witness is not None:
            for entry in witness:
                print(f"  {json.dumps(entry)}")
    if agreement is False:
        print("engine disagreement: oracle and game verdicts differ", file=sys.stderr)
        return 4
    return 0 if equivalent else 1


def cmd_play(args: argparse.Namespace) -> int:
    kind, es1, es2 = _kind_and_pair(args, _caps_from_args(args))
    gv = games.game_check(es1, es2, kind, strong_tau_erasure=args.strong_tau_erasure)
    arena = gv.arena
    human = Role(args.human_role)
    machine = human.other()
    print(f"{kind} game on {es1.name} vs {es2.name}; you play {human.value}")
    keys, succ = arena.keys, arena.succ
    i = 0
    machine_rules: list[str] = []
    while (turn := games.play_turn(gv, i, human)).ending is None:
        print(f"position {arena.describe(keys[i])}")
        options = [arena.describe_move(keys[i], keys[j]) for j in succ[i]]
        k = turn.machine_move
        if k is None:
            for option, text in enumerate(options):
                print(f"  [{option}] {text}")
            while k is None:
                print(f"{human.value} move> ", end="", flush=True)
                line = sys.stdin.readline()
                if not line:
                    print("\nend of input; aborting game", file=sys.stderr)
                    return 2
                line = line.strip()
                try:
                    # isdecimal() keeps out signs, "_" and digits such as "²";
                    # int() still refuses a line past its digit limit
                    n = int(line) if line.isdecimal() else turn.legal
                except ValueError:
                    n = turn.legal
                if n < turn.legal:
                    k = n
                else:
                    print(f"enter a move number between 0 and {turn.legal - 1}")
            print(f"{human.value} plays [{k}] {options[k]}")
        else:
            machine_rules.append(arena.rule(keys[i], keys[succ[i][k]]))
            print(f"{machine.value} plays {options[k]}  [{machine_rules[-1]}]")
        i = succ[i][k]
    print(games.ENDINGS[turn.ending])
    if turn.winner is machine and machine_rules:
        print(f"machine strategy rationale: {' -> '.join(machine_rules)}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    if args.what == "configs":
        if len(args.files) != 1:
            raise ValidationError("export --what configs takes exactly one file")
        if args.rel or args.mode or args.strong_tau_erasure:
            raise ValidationError(
                "export --what configs takes no --rel, --mode or --strong-tau-erasure"
            )
        es = _load(args.files[0], caps)
        sys.stdout.write(configuration_graph_dot(es))
        return 0
    if len(args.files) != 2:
        raise ValidationError("export --what arena takes exactly two files")
    if not args.rel or not args.mode:
        raise ValidationError("export --what arena needs --rel and --mode")
    kind, es1, es2 = _kind_and_pair(args, caps)
    gv = games.game_check(es1, es2, kind, strong_tau_erasure=args.strong_tau_erasure)
    sys.stdout.write(arena_dot(gv))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pesbisim",
        description="Decide truly concurrent bisimilarities on prime event structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide equivalence of two structures")
    _add_common(p_check, required=True)
    p_check.add_argument(
        "--engine", choices=["oracle", "game", "both"], default="both",
        help="oracle (relation fixpoint), game, or both, which must agree (default %(default)s)",
    )
    p_check.add_argument("--json", action="store_true", help="emit a JSON report")
    p_check.add_argument("--witness", action="store_true", help="include the full witness")
    p_check.add_argument("files", nargs=2, metavar="FILE")
    p_check.set_defaults(func=cmd_check)

    p_play = sub.add_parser("play", help="play the bisimulation game interactively")
    _add_common(p_play, required=True)
    p_play.add_argument(
        "--as", dest="human_role", required=True, choices=["spoiler", "duplicator"],
        help="role played by the human",
    )
    p_play.add_argument("files", nargs=2, metavar="FILE")
    p_play.set_defaults(func=cmd_play)

    p_export = sub.add_parser("export", help="emit DOT graphs")
    p_export.add_argument(
        "--what", required=True, choices=["configs", "arena"],
        help="configs: the configuration graph of one file; arena: the solved game "
        "arena of two files, which needs --rel and --mode",
    )
    _add_common(p_export, required=False)
    p_export.add_argument("files", nargs="+", metavar="FILE")
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PesBisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line behavior: exit codes, JSON reports, golden outputs and
the interactive game loop."""

from __future__ import annotations

import argparse
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pesbisim.cli import build_parser, main

from conftest import FIXTURE_DIR, GOLDEN_DIR


def fx(name: str) -> str:
    return str(FIXTURE_DIR / name)


def run_main(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_equivalent_pair_exits_zero(capsys):
    code, out, _ = run_main(
        capsys, ["check", "--rel", "pomset", "--mode", "branching", fx("tau.pes"), fx("pa.pes")]
    )
    assert code == 0
    assert "equivalent" in out and "witness relation of size" in out


def test_inequivalent_pair_matches_golden(capsys):
    code, out, _ = run_main(
        capsys, ["check", "--rel", "pomset", "--mode", "strong", fx("par.pes"), fx("ch.pes")]
    )
    assert code == 1
    assert out == (GOLDEN_DIR / "check_par_ch_pomset_strong.txt").read_text()


def test_branching_hp_golden(capsys):
    code, out, _ = run_main(
        capsys, ["check", "--rel", "hp", "--mode", "branching", fx("tau.pes"), fx("pa.pes")]
    )
    assert code == 0
    assert out == (GOLDEN_DIR / "check_tau_pa_hp_branching.txt").read_text()


# Together the strategies take every kind of move describe_move names: both
# Spoiler challenges and the termination challenge of either side, absorbing
# and deferring by a silent step, a plain answer and a termination answer.
WITNESS_RUNS = [
    ["--engine", "game", "--rel", "pomset", "--mode", "branching", "ch.pes", "halt_early.pes"],
    ["--engine", "game", "--rel", "step", "--mode", "strong", "ch.pes", "halt_early.pes"],
    ["--engine", "game", "--rel", "hhp", "--mode", "branching", "pa.pes", "tau.pes"],
    ["--engine", "game", "--rel", "pomset", "--mode", "branching", "pa.pes", "pa_tau.pes"],
    ["--engine", "oracle", "--rel", "hp", "--mode", "branching", "tau.pes", "pa.pes"],
]


def test_witness_text_matches_golden(capsys):
    out = []
    for run in WITNESS_RUNS:
        *options, left, right = run
        code, text, _ = run_main(capsys, ["check", "--witness", *options, fx(left), fx(right)])
        out.append(f"$ pesbisim check --witness {' '.join(run)}\n{text}exit {code}\n")
    assert "".join(out) == (GOLDEN_DIR / "check_witness.txt").read_text()


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.pes"
    bad.write_text("pes X\ncause a < b\n")
    code, _, err = run_main(
        capsys, ["check", "--rel", "pomset", "--mode", "strong", str(bad), fx("pa.pes")]
    )
    assert code == 2
    assert "error: line 2, column 7" in err and "undeclared event" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run_main(
        capsys, ["check", "--rel", "pomset", "--mode", "strong", "no-such.pes", fx("pa.pes")]
    )
    assert code == 2
    assert "cannot read no-such.pes" in err


def test_non_utf8_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin.pes"
    bad.write_bytes(b"pes X\nevent a : a\xff\n")
    code, _, err = run_main(
        capsys, ["check", "--rel", "pomset", "--mode", "strong", str(bad), fx("pa.pes")]
    )
    assert code == 2
    assert err.startswith(f"error: cannot read {bad}") and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["check", "--rel", "pomset", "--mode", "strong"],
        ["play", "--rel", "pomset", "--mode", "strong", "--as", "spoiler"],
        ["export", "--what", "arena", "--rel", "pomset", "--mode", "strong"],
    ],
    ids=["check", "play", "export"],
)
def test_validation_error_names_the_file(command, tmp_path, capsys):
    cyclic = tmp_path / "cyclic.pes"
    cyclic.write_text("pes C\nevent a : a\nevent b : b\ncause a < b\ncause b < a\n")
    code, out, err = run_main(capsys, [*command, fx("pa.pes"), str(cyclic)])
    assert code == 2 and out == ""
    assert err == f"error: {cyclic}: causality cycle involving 'a' and 'b'\n"


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    bom = tmp_path / "bom.pes"
    bom.write_bytes(b"\xef\xbb\xbf" + (FIXTURE_DIR / "par.pes").read_bytes())
    options = ["check", "--rel", "pomset", "--mode", "strong"]
    expected = run_main(capsys, [*options, fx("par.pes"), fx("ch.pes")])
    assert run_main(capsys, [*options, str(bom), fx("ch.pes")]) == expected


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--rel", "nonsense", "--mode", "strong", fx("pa.pes"), fx("pa.pes")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cap_exceeded_exits_three(capsys):
    code, _, err = run_main(
        capsys,
        [
            "check", "--rel", "pomset", "--mode", "strong",
            "--max-events", "2", fx("choice3.pes"), fx("chain.pes"),
        ],
    )
    assert code == 3
    assert "error:" in err and "events" in err


def test_matching_universe_cap_exits_three(capsys):
    # CHOICE3 and CHAIN have 20 matchings (and 64 configuration pairs)
    argv = ["check", "--rel", "hp", "--mode", "strong", "--engine", "oracle"]
    files = [fx("choice3.pes"), fx("chain.pes")]
    assert run_main(capsys, argv + ["--max-positions", "20"] + files)[0] == 0
    code, _, err = run_main(capsys, argv + ["--max-positions", "19"] + files)
    assert code == 3
    assert "positions limit is 19, needed 20" in err


@pytest.mark.parametrize("rel", ["pomset", "step", "hp", "hhp"])
@pytest.mark.parametrize("mode", ["strong", "branching"])
def test_game_enforces_the_configurations_cap(rel, mode, tmp_path, capsys):
    # seven concurrent events have 128 configurations, whatever moves the game reads
    par7 = tmp_path / "par7.pes"
    par7.write_text("pes PAR7\n" + "".join(f"event e{i} : {'ab'[i % 2]}\n" for i in range(7)))
    argv = ["check", "--rel", rel, "--mode", mode, "--engine", "game"]
    code, out, err = run_main(capsys, argv + ["--max-configurations", "100", str(par7), str(par7)])
    assert (code, out) == (3, "")
    assert "configurations limit is 100" in err


@pytest.mark.parametrize(
    "options, err",
    [
        # the oracle decides CHOICE3/CHAIN strong hp within 20 positions; the arena needs 21
        (
            ["--max-positions", "20"],
            "error: game engine: cap exceeded: positions limit is 20, needed 21\n"
            "oracle engine finished: equivalent\n",
        ),
        (
            ["--json", "--max-positions", "19"],
            "error: oracle engine: cap exceeded: positions limit is 19, needed 20\n"
            "error: game engine: cap exceeded: positions limit is 19, needed 20\n",
        ),
        (
            ["--engine", "game", "--max-positions", "20"],
            "error: cap exceeded: positions limit is 20, needed 21\n",
        ),
    ],
    ids=["game-capped", "both-capped", "game-alone"],
)
def test_cap_message_names_the_engine_under_both(options, err, capsys):
    argv = ["check", "--rel", "hp", "--mode", "strong", *options]
    assert run_main(capsys, argv + [fx("choice3.pes"), fx("chain.pes")]) == (3, "", err)


def test_long_chains_decide_without_deep_recursion(tmp_path, capsys):
    # each move of the game adds an event: a 600-event chain makes plays of 1,200 moves
    files = []
    for side in "LR":
        path = tmp_path / f"{side}.pes"
        events = "".join(f"event {side}{i} : a\n" for i in range(600))
        causes = "".join(f"cause {side}{i} < {side}{i + 1}\n" for i in range(599))
        path.write_text(f"pes {side}\n{events}{causes}")
        files.append(str(path))
    for rel in ("hp", "hhp"):
        argv = ["check", "--rel", rel, "--mode", "strong", "--engine", "game"]
        code, out, _ = run_main(capsys, argv + ["--max-events", "600", *files])
        assert (code, out.splitlines()[1]) == (0, "duplicator wins with a strategy of 1200 moves")


class ArenaBuilt(Exception):
    pass


def test_check_builds_an_arena_only_for_a_witness(capsys, monkeypatch):
    """Without --witness, check takes the winner and the strategy size
    from games.decide and builds no arena; --witness names the strategy's
    positions, which takes the solved arena."""
    import pesbisim.cli as cli_mod

    runs = [
        ["--rel", "pomset", "--mode", "strong", fx("par.pes"), fx("ch.pes")],
        ["--rel", "hp", "--mode", "branching", fx("tau.pes"), fx("pa.pes")],
        ["--rel", "hhp", "--mode", "strong", fx("choice3.pes"), fx("chain.pes")],
        ["--rel", "step", "--mode", "branching", fx("ch.pes"), fx("halt_early.pes")],
    ]
    reports = {}  # as the solved arena gives them: the --witness reports, less the witness
    for engine in ("game", "both"):
        for run in runs:
            argv = ["check", "--json", "--witness", "--engine", engine, *run]
            report = json.loads(run_main(capsys, argv)[1])
            del report["witness"]
            reports[engine, run[1]] = report | {"elapsed_ms": 0}

    def refuse(*args, **kwargs):
        raise ArenaBuilt

    monkeypatch.setattr(cli_mod.games, "build_arena", refuse)
    for engine in ("game", "both"):
        for run in runs:
            code, out, _ = run_main(capsys, ["check", "--json", "--engine", engine, *run])
            assert json.loads(out) | {"elapsed_ms": 0} == reports[engine, run[1]]
        code, out, _ = run_main(capsys, ["check", "--engine", engine, *runs[0]])
        assert (code, out) == (1, (GOLDEN_DIR / "check_par_ch_pomset_strong.txt").read_text())
        with pytest.raises(ArenaBuilt):
            main(["check", "--witness", "--engine", engine, *runs[0]])
    # README's JSON report, of the default engine both, builds no arena either
    test_readme_json_report_is_what_the_cli_prints(capsys)


@pytest.mark.parametrize(
    "option, value, code",
    [
        ("--max-events", "-1", 2),
        ("--max-configurations", "0", 2),
        ("--max-positions", "0", 2),
        # the least caps the empty structures meet
        ("--max-events", "0", 0),
        ("--max-configurations", "1", 0),
        ("--max-positions", "1", 0),
    ],
)
def test_caps_below_the_least_meetable_exit_two(option, value, code, capsys):
    argv = ["check", "--rel", "hhp", "--mode", "branching", option, value]
    got, _, err = run_main(capsys, argv + [fx("p0.pes"), fx("p0.pes")])
    assert got == code
    if code:
        assert f"error: {option[2:].replace('-', '_')} must be at least" in err


def test_every_option_has_help():
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(subcommands) == {"check", "play", "export"}
    for name, parser in subcommands.items():
        for action in parser._actions:
            if action.option_strings:
                assert action.help, (name, action.option_strings)


def outcome(capsys, argv: list[str]) -> tuple[int, object]:
    """The exit code and stdout of one call, a JSON report with its
    timing zeroed."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    if "--json" in argv:
        out = json.loads(out)
        out["elapsed_ms"] = 0
    return code, out


SEQ_HP = ["--rel", "hp", "--mode", "strong", fx("seq.pes"), fx("seq.pes")]


@pytest.mark.parametrize(
    "before, after",
    [
        (["check", "--json", "--witness", *SEQ_HP], ["check", "--json", *SEQ_HP]),
        (["check", "--rel", "bogus", "--mode", "strong", fx("seq.pes"), fx("seq.pes")],
         ["check", *SEQ_HP]),
        (["export", "--what", "configs", fx("seq.pes")], ["check", *SEQ_HP]),
    ],
    ids=["witness-then-plain", "usage-error-then-check", "export-then-check"],
)
def test_repeated_calls_share_no_parsed_state(before, after, capsys):
    first = outcome(capsys, after)
    outcome(capsys, before)
    second = outcome(capsys, after)
    assert second == first
    if "--json" in after:
        assert "witness" not in second[1]


def test_parser_is_built_once(capsys, monkeypatch):
    argv = ["check", "--rel", "pomset", "--mode", "strong", fx("par.pes"), fx("ch.pes")]
    expected = run_main(capsys, argv)

    def no_new_parser(*args, **kwargs):
        raise AssertionError("main built a parser after its first call")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_new_parser)
    assert run_main(capsys, argv) == expected


def test_readme_json_report_is_what_the_cli_prints(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### JSON report\n\n```json\n", 1)[1].split("```", 1)[0]
    argv = ["check", "--json", "--rel", "hp", "--mode", "branching"]
    code, out, _ = run_main(capsys, argv + [fx("tau.pes"), fx("pa.pes")])
    assert code == 0
    timing = re.compile(r'"elapsed_ms": [0-9.]+')
    expected = [timing.sub('"elapsed_ms": T', line) for line in block.splitlines()]
    assert [timing.sub('"elapsed_ms": T', line) for line in out.splitlines()] == expected


def test_readme_library_example_runs(monkeypatch):
    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)  # the example opens the fixtures by relative path
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize(
    "options, files",
    [
        (["--rel", "hp", "--mode", "strong"], ["choice3.pes", "chain.pes"]),
        (["--engine", "game", "--rel", "pomset", "--mode", "branching"],
         ["ch.pes", "halt_early.pes"]),
    ],
    ids=["relation", "strategy"],
)
def test_json_witness_entries_sit_on_lines_of_their_own(options, files, capsys):
    _, out, _ = run_main(capsys, ["check", "--json", "--witness", *options, *map(fx, files)])
    witness = json.loads(out)["witness"]
    lines = out.splitlines()
    entries = lines[lines.index('  "witness": [') + 1 : -2]
    assert len(witness) > 1 and lines[-2:] == ["  ]", "}"]
    assert entries == [f"    {json.dumps(entry)}," for entry in witness[:-1]] + [
        f"    {json.dumps(witness[-1])}"
    ]


def test_empty_witness_is_valid_json(capsys):
    argv = ["check", "--json", "--witness", "--engine", "game", "--rel", "hp", "--mode", "strong"]
    code, out, _ = run_main(capsys, argv + [fx("p0.pes"), fx("p0.pes")])
    report = json.loads(out)
    assert code == 0 and report["witness_summary"]["moves"] == 0 and report["witness"] == []
    assert '  "witness": []' in out.splitlines()


def test_engine_disagreement_exits_four(capsys, monkeypatch):
    import pesbisim.cli as cli_mod

    real = cli_mod.oracle.check

    def lying_check(es1, es2, kind, **kw):
        verdict = real(es1, es2, kind, **kw)
        return type(verdict)(verdict.kind, not verdict.equivalent, None)

    monkeypatch.setattr(cli_mod.oracle, "check", lying_check)
    code, _, err = run_main(
        capsys, ["check", "--rel", "pomset", "--mode", "strong", fx("pa.pes"), fx("pa.pes")]
    )
    assert code == 4
    assert "engine disagreement" in err


def test_json_report_schema(capsys):
    code, out, _ = run_main(
        capsys,
        ["check", "--json", "--rel", "hp", "--mode", "strong", fx("seq.pes"), fx("seq.pes")],
    )
    assert code == 0
    data = json.loads(out)
    assert data["format"] == 1
    assert data["relation"] == "hp" and data["mode"] == "strong"
    assert data["engine"] == "both"
    assert data["left"] == "SEQ" and data["right"] == "SEQ"
    assert data["equivalent"] is True and data["agreement"] is True
    assert data["witness_summary"] == {"kind": "relation", "size": 3}
    assert set(data["caps"]) == {"max_events", "max_configurations", "max_positions"}
    assert isinstance(data["elapsed_ms"], float)


def test_json_report_stable_up_to_timing(capsys):
    argv = ["check", "--json", "--rel", "step", "--mode", "strong", fx("par.pes"), fx("ch.pes")]
    first = json.loads(run_main(capsys, argv)[1])
    second = json.loads(run_main(capsys, argv)[1])
    first["elapsed_ms"] = second["elapsed_ms"] = 0
    assert first == second


def test_witness_serialization(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "check", "--json", "--witness", "--rel", "hp", "--mode", "strong",
            fx("seq.pes"), fx("seq.pes"),
        ],
    )
    assert code == 0
    witness = json.loads(out)["witness"]
    assert {"left": [], "right": [], "map": []} in witness
    assert {"left": ["a", "b"], "right": ["a", "b"], "map": [["a", "a"], ["b", "b"]]} in witness


def test_strategy_serialization_when_inequivalent(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "check", "--json", "--witness", "--rel", "pomset", "--mode", "strong",
            fx("par.pes"), fx("ch.pes"),
        ],
    )
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness and all({"position", "rule", "move"} <= set(e) for e in witness)
    assert witness[0]["rule"].startswith("spoiler-")


def test_single_engine_runs(capsys):
    for engine in ("oracle", "game"):
        code, out, _ = run_main(
            capsys,
            [
                "check", "--json", "--engine", engine, "--rel", "step", "--mode", "branching",
                fx("tau.pes"), fx("pa.pes"),
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["engine"] == engine
        assert "agreement" not in data


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("configs_seq.dot", ["export", "--what", "configs", fx("seq.pes")]),
        ("configs_ch.dot", ["export", "--what", "configs", fx("ch.pes")]),
        ("configs_tau.dot", ["export", "--what", "configs", fx("tau.pes")]),
        (
            "arena_par_ch_pomset_strong.dot",
            [
                "export", "--what", "arena", "--rel", "pomset", "--mode", "strong",
                fx("par.pes"), fx("ch.pes"),
            ],
        ),
        (
            # pins the positions hereditary demotion marks (peripheries=2)
            "arena_choice3_chain_hhp_strong.dot",
            [
                "export", "--what", "arena", "--rel", "hhp", "--mode", "strong",
                fx("choice3.pes"), fx("chain.pes"),
            ],
        ),
        (
            # mirrored Spoiler positions, Duplicator positions sharing one
            # answer row, silent steps and termination challenges
            "arena_tau_chain_step_branching.dot",
            [
                "export", "--what", "arena", "--rel", "step", "--mode", "branching",
                fx("tau.pes"), fx("chain.pes"),
            ],
        ),
    ],
)
def test_dot_exports_match_goldens(golden, argv, capsys):
    code, out, _ = run_main(capsys, argv)
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text()


def test_export_argument_errors(capsys):
    cases = [
        ["export", "--what", "configs", fx("pa.pes"), fx("pa.pes")],
        # the game options mean nothing for a configuration graph
        ["export", "--what", "configs", "--rel", "hp", fx("seq.pes")],
        ["export", "--what", "configs", "--mode", "strong", fx("seq.pes")],
        ["export", "--what", "configs", "--strong-tau-erasure", fx("seq.pes")],
        ["export", "--what", "arena", fx("pa.pes")],
        ["export", "--what", "arena", fx("pa.pes"), fx("pa.pes")],
    ]
    for argv in cases:
        code, _, err = run_main(capsys, argv)
        assert code == 2
        assert "error:" in err


def run_play(args: list[str], stdin: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pesbisim.cli", "play", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_play_as_spoiler_wins(capsys):
    proc = run_play(
        ["--rel", "pomset", "--mode", "strong", "--as", "spoiler", fx("par.pes"), fx("ch.pes")],
        "banana\n99\n2\n",
    )
    assert proc.returncode == 0
    assert "you play spoiler" in proc.stdout
    assert "enter a move number between 0 and" in proc.stdout
    assert "Duplicator stuck; Spoiler wins" in proc.stdout


def test_play_reprompts_on_non_decimal_digit(capsys, monkeypatch):
    # "²".isdigit() holds, but int("²") raises; int() also refuses a
    # decimal line past its digit limit (4,300 digits by default)
    for bad in ["\u00b2", "1" * 5000]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{bad}\n2\n"))
        code, out, _ = run_main(
            capsys,
            ["play", "--rel", "pomset", "--mode", "strong", "--as", "spoiler",
             fx("par.pes"), fx("ch.pes")],
        )
        assert code == 0
        assert "enter a move number between 0 and" in out
        assert "Duplicator stuck; Spoiler wins" in out


def test_play_as_duplicator_machine_wins():
    proc = run_play(
        ["--rel", "pomset", "--mode", "strong", "--as", "duplicator", fx("par.pes"), fx("ch.pes")],
        "",
    )
    assert proc.returncode == 0
    assert "Duplicator stuck; Spoiler wins" in proc.stdout
    assert "machine strategy rationale" in proc.stdout


def test_play_eof_aborts():
    proc = run_play(
        ["--rel", "pomset", "--mode", "strong", "--as", "spoiler", fx("seq.pes"), fx("seq.pes")],
        "",
    )
    assert proc.returncode == 2
    assert "end of input; aborting game" in proc.stderr


@pytest.mark.parametrize(
    "golden,args,stdin,code",
    [
        (
            "play_par_ch_pomset_strong_spoiler.txt",
            ["--rel", "pomset", "--mode", "strong", "--as", "spoiler", fx("par.pes"), fx("ch.pes")],
            "banana\n99\n2\n",
            0,
        ),
        (
            "play_par_ch_pomset_strong_duplicator.txt",
            ["--rel", "pomset", "--mode", "strong", "--as", "duplicator", fx("par.pes"), fx("ch.pes")],
            "",
            0,
        ),
        (
            "play_choice3_chain_hhp_strong_duplicator.txt",
            [
                "--rel", "hhp", "--mode", "strong", "--as", "duplicator",
                fx("choice3.pes"), fx("chain.pes"),
            ],
            "0\n" * 5,
            0,
        ),
        (
            # no challenge at the root: Spoiler is stuck at once
            "play_p0_p0_pomset_strong_spoiler.txt",
            ["--rel", "pomset", "--mode", "strong", "--as", "spoiler", fx("p0.pes"), fx("p0.pes")],
            "",
            0,
        ),
        (
            # two challenges, each matched, until Spoiler is stuck
            "play_seq_seq_pomset_strong_spoiler.txt",
            ["--rel", "pomset", "--mode", "strong", "--as", "spoiler", fx("seq.pes"), fx("seq.pes")],
            "0\n0\n",
            0,
        ),
    ],
)
def test_play_matches_golden(golden, args, stdin, code):
    proc = run_play(args, stdin)
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN_DIR / golden).read_text()

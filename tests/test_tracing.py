"""Smoke test of the per-layer tracer of perfbench.  The tracer wraps
functions and methods of the program by name and reads their results,
so a renamed or re-shaped call shows here rather than only in a traced
benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

from pesbisim import cli

from conftest import FIXTURE_DIR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_a_strong_hhp_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    files = [str(FIXTURE_DIR / "choice3.pes"), str(FIXTURE_DIR / "chain.pes")]
    tracer.install()
    try:
        codes = [
            cli.main(["check", "--rel", "hhp", "--mode", "strong", "--engine", engine, *files])
            for engine in ("oracle", "game", "both")
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [1, 1, 1]  # equivalent in every kind but hhp
    counts = tracer.counts
    assert counts["positions"] > 0 and counts["moves"] > 0 and counts["demoted"] > 0
    assert counts["games.solve_hereditary"] == 2
    assert tracer.names.index("games.solve_hereditary") in tracer.span_name
    assert counts["oracle.check"] == 2 and counts["pesfile.parse_pes"] == 6

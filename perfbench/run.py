"""Time-to-verdict benchmark for ``pesbisim check``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload symmetric --seed 1 --seconds 44 --trace 0

One process, one client, closed loop: each decision runs
``check --engine oracle --json`` and then ``check --engine game --json``
through ``pesbisim.cli.main`` in this process, on ``.pes`` files written
at set-up, and checks both verdicts against the answer known by
construction.  At least two rounds over the workload's decisions run,
each under a fresh renaming, and more while they fit in ``--seconds``;
a decision's time is its fastest, scaled to a reference host speed
(see ``end_to_end``).  With
``--trace 1`` the first round runs once, every decision once untraced and
once traced (alternating which goes first), so that the per-layer totals
cover the same work on every commit; it prints the per-layer metrics
instead of the end-to-end ones.  The last line of standard output is
the result as one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads  # perfbench/ is on the path as the script's directory

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORT_SAMPLES = 15  # fresh interpreters timed for setup_s, after one warm-up
MIN_ROUNDS = 2
# The reference kernel's fastest time on the 2-vCPU Xeon VM the bounds
# were set on; timings are reported as if the host ran at that speed.
REFERENCE_S = 0.0086
KERNEL_EVERY = 0.25  # seconds between reference kernel timings in a round
# The engines iterate over hashed strings, so the work of one decision
# changed by up to 1.8x with the interpreter's random string hash seed
# (ANTI_4 step strong against its copy: 6 ms or 11 ms in the oracle).
# The run pins the hash seed so that its work depends on --seed alone.
HASH_SEED = "0"


def load_program():
    """Import pesbisim from this checkout's src/, and only from there."""
    if not (SRC / "pesbisim" / "cli.py").is_file():
        sys.exit(f"error: no pesbisim sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import pesbisim.cli

    if Path(pesbisim.cli.__file__).resolve().parent != SRC / "pesbisim":
        sys.exit(f"error: imported pesbisim from {pesbisim.cli.__file__}, not {SRC}")
    return pesbisim.cli


def import_seconds() -> float:
    """Time from starting a fresh interpreter to pesbisim.cli imported.
    time.monotonic is one system-wide clock, so the child's reading after
    the import can be set against the parent's at spawn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, pesbisim.cli; print(repr(time.monotonic()))"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout) - started


def environment(args: argparse.Namespace) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if done.returncode == 0:
                commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "pesbisim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hash_seed": HASH_SEED,
    }


class Harness:
    """Runs decisions through the command line entry point and tallies
    what went wrong."""

    def __init__(self, cli, paths: dict[str, Path]):
        self.cli = cli
        self.paths = paths
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, d, engine: str):
        """One ``check`` invocation: (seconds, exit code, report)."""
        argv = ["check", "--engine", engine, "--json", "--rel", d.rel, "--mode", d.mode]
        if d.witness:
            argv.append("--witness")
        argv += [str(self.paths[d.left.name]), str(self.paths[d.right.name])]
        # Start as a fresh process would: no garbage left by earlier
        # invocations for the collector to walk or to keep memory alive.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - started
        report = json.loads(out.getvalue()) if code in (0, 1) else err.getvalue().strip()
        return seconds, code, report

    def decide(self, d, expected: bool | None = None):
        """Both engines on one decision.  Returns (oracle seconds, game
        seconds, game report), or None when the decision failed."""
        expected = d.expected if expected is None else expected
        self.attempted += 1
        where = f"{d.left.name} vs {d.right.name} {d.mode} {d.rel}"
        try:
            oracle_s, oracle_code, oracle_report = self.invoke(d, "oracle")
            game_s, game_code, game_report = self.invoke(d, "game")
        except (Exception, SystemExit):
            self.failures.append(f"{where}: exception\n{traceback.format_exc()}")
            return None
        problem = _problem(d, expected, oracle_code, oracle_report, "oracle")
        problem = problem or _problem(d, expected, game_code, game_report, "game")
        if problem:
            self.failures.append(f"{where}: {problem}")
            return None
        return oracle_s, game_s, game_report


def _problem(d, expected: bool, code: int, report, engine: str) -> str | None:
    """What is wrong with one invocation's outcome, if anything.  The two
    engines disagree exactly when one of them misses the known answer."""
    if code not in (0, 1):
        return f"{engine} exited {code}: {report}"
    if report["equivalent"] is not expected or code != (0 if expected else 1):
        return f"{engine} said equivalent={report['equivalent']} (exit {code}), expected {expected}"
    if d.witness:
        summary, witness = report["witness_summary"], report.get("witness")
        size = summary.get("size", summary.get("moves"))
        if summary["kind"] != "none" and (witness is None or len(witness) != size):
            return f"{engine} witness does not match its summary {summary}"
    return None


def self_check(harness: Harness, d) -> float:
    """Run d as it is and with its expected answer flipped, and require
    the verdict check to count exactly the flipped run as failed.  Also
    warms up the code paths."""
    probe = Harness(harness.cli, harness.paths)
    probe.decide(d)
    probe.decide(d, expected=not d.expected)
    share = len(probe.failures) / probe.attempted
    if len(probe.failures) != 1:
        sys.exit(f"error: self-check expected exactly 1 failure, got {probe.failures}")
    return share


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def reference_kernel() -> float:
    """Seconds one fixed piece of pure Python takes: tuple keys, dict,
    set and int work of the kind the engines do, but none of the
    program's code, so that no change to the program moves it."""
    started = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(20000):
        key = (i & 1023, i >> 10)
        counts[key] = counts.get(key, 0) + (i * 2654435761 & 0xFFFF)
    _ = {(v ^ k[0]) & 0x3FF for k, v in counts.items()}
    return time.perf_counter() - started


def end_to_end(
    harness: Harness, first, rounds, inputs: Path, seconds: float
) -> tuple[dict, list[str]]:
    """Whole rounds, `first` and then those `rounds` yields: at least
    MIN_ROUNDS, and another only while it would end within `seconds`.

    Every time taken in a round is scaled to the reference host speed by
    REFERENCE_S over the reference kernel's fastest time in that round,
    timed every KERNEL_EVERY seconds between decisions; setup_s is scaled
    by the median of the rounds' factors.  The host this was set up on
    ran whole runs up to 1.7x slower than others minutes apart, and the
    kernel slowed with the program (see README.md).  A decision's time
    is then its fastest over the rounds: other programs on the machine
    only ever add time, and the stalls they cause seldom hit every round
    of a decision.  The interpreter start-ups for setup_s are spread
    evenly over the run for the same reason."""
    n = len(first)
    best = {"oracle": [math.inf] * n, "game": [math.inf] * n}
    raw = {"oracle": [math.inf] * n, "game": [math.inf] * n}
    failed: set[int] = set()
    import_seconds()  # fills the bytecode and file caches
    imports: list[float] = []
    factors: list[float] = []

    started = time.perf_counter()
    variant = first
    while True:
        round_started = time.perf_counter()
        kernel = [reference_kernel()]
        next_kernel = time.perf_counter() + KERNEL_EVERY
        taken: list[tuple[int, float, float]] = []
        for i, d in variant:
            got = harness.decide(d)
            if got is None:
                failed.add(i)
            else:
                taken.append((i, got[0], got[1]))
            now = time.perf_counter()
            due = started + len(imports) * seconds / IMPORT_SAMPLES
            if len(imports) < IMPORT_SAMPLES and now >= due:
                imports.append(import_seconds())
            if now >= next_kernel:
                kernel.append(reference_kernel())
                next_kernel = time.perf_counter() + KERNEL_EVERY
        factor = REFERENCE_S / min(kernel)
        factors.append(factor)
        for i, oracle_s, game_s in taken:
            for engine, t in (("oracle", oracle_s), ("game", game_s)):
                best[engine][i] = min(best[engine][i], t * factor)
                raw[engine][i] = min(raw[engine][i], t)
        now = time.perf_counter()
        if len(factors) >= MIN_ROUNDS and now - started + (now - round_started) > seconds:
            break
        variant = next(rounds)
        harness.paths.update(workloads.write_files(variant, inputs))
    while len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds())

    def times(table):
        oracle = [t for i, t in enumerate(table["oracle"]) if i not in failed]
        game = [t for i, t in enumerate(table["game"]) if i not in failed]
        return oracle, game, [o + g for o, g in zip(oracle, game)]

    oracle_times, game_times, check_times = times(best)
    if len(check_times) < 2:
        sys.exit("error: fewer than two decisions completed; nothing to report")
    _, _, raw_check = times(raw)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "check_s.p50": (statistics.median(check_times), "s"),
        "check_s.p90": (p90(check_times), "s"),
        "oracle_s.p50": (statistics.median(oracle_times), "s"),
        "oracle_s.p90": (p90(oracle_times), "s"),
        "game_s.p50": (statistics.median(game_times), "s"),
        "game_s.p90": (p90(game_times), "s"),
        "decisions_per_s": (len(check_times) / sum(check_times), "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "setup_s": (statistics.median(imports) * statistics.median(factors), "s"),
    }
    notes = [
        f"{len(factors)} rounds over {n} decisions, {len(check_times)} completed in every round, "
        f"{harness.attempted} invocation pairs, {len(imports)} interpreter start-ups",
        f"host speed factor per round (reference kernel {REFERENCE_S} s over its fastest): "
        + " ".join(f"{f:.3f}" for f in factors),
        f"unscaled: check_s.p50 {statistics.median(raw_check)} s, check_s.p90 {p90(raw_check)} s, "
        f"decisions_per_s {len(raw_check) / sum(raw_check)} 1/s, setup_s {statistics.median(imports)} s",
        f"failed_share {len(harness.failures) / harness.attempted} fraction",
    ]
    return metrics, notes


def per_layer(harness: Harness, first, args) -> tuple[dict, list[str]]:
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    strategy_moves = 0
    decisions = [d for _, d in first]
    for i, d in enumerate(decisions):
        # alternate which run goes first, so that warm caches favour neither
        for traced in (i % 2 == 0, i % 2 == 1):
            if traced:
                tracer.decision = i
                tracer.install()
                try:
                    got = harness.decide(d)
                finally:
                    tracer.uninstall()
            else:
                got = harness.decide(d)
            if got is None:
                continue
            if not traced:
                plain_s += got[0] + got[1]
                continue
            traced_s += got[0] + got[1]
            strategy_moves += got[2]["witness_summary"]["moves"]

    spans_path = WORK / f"spans-{args.workload}.tsv"
    tracer.write(spans_path)

    self_s, counts = tracer.self_s, tracer.counts
    top_level = sum(
        tracer.total_s[n] for n in ("pesfile.parse_pes", "oracle.check", "games.game_check")
    )
    layer_s = {layer: 0.0 for layer in LAYERS}
    layer_s["cli"] = traced_s - top_level
    for name, seconds in self_s.items():
        layer_s[name.split(".")[0]] += seconds
    trans_calls = counts["pes.transition_masks"]
    iso_calls = counts["pomsets.iso_masks"]
    metrics = {
        "cli.self_s": (layer_s["cli"], "s"),
        "pesfile.parse_s": (self_s["pesfile.parse_pes"], "s"),
        "pesfile.parses": (counts["pesfile.parse_pes"], "count"),
        "pes.configurations_s": (self_s["pes.configurations"], "s"),
        "pes.configurations": (counts["configurations"], "count"),
        "pes.transitions_s": (self_s["pes.transition_masks"], "s"),
        "pes.transition_calls": (trans_calls, "count"),
        "pes.transition_cache_hit_ratio": (
            counts["transition_hits"] / trans_calls if trans_calls else 0.0, "fraction"),
        "pes.tau_closure_s": (self_s["pes.tau_reachable_masks"], "s"),
        "pomsets.iso_s": (self_s["pomsets.iso_masks"], "s"),
        "pomsets.iso_searches": (iso_calls, "count"),
        "pomsets.iso_true_ratio": (counts["iso_true"] / iso_calls if iso_calls else 0.0, "fraction"),
        "pomsets.matchings_s": (self_s["pomsets.enumerate_matchings"], "s"),
        "pomsets.matchings": (counts["matchings"], "count"),
        "oracle.self_s": (self_s["oracle.check"] + self_s["oracle.greatest_bisimulation"], "s"),
        "oracle.universe": (counts["universe"], "count"),
        "oracle.relation_size": (counts["relation_size"], "count"),
        "oracle.survivor_ratio": (
            counts["relation_size"] / counts["universe"] if counts["universe"] else 0.0, "fraction"),
        "games.build_s": (self_s["games.build_arena"], "s"),
        "games.solve_s": (self_s["games.solve"] + self_s["games.solve_hereditary"], "s"),
        # game_check calls solve_hereditary for the hhp kinds only
        "games.hhp_solve_s": (tracer.total_s["games.solve_hereditary"], "s"),
        "games.positions": (counts["positions"], "count"),
        "games.moves": (counts["moves"], "count"),
        "games.strategy_moves": (strategy_moves, "count"),
        "games.demoted": (counts["demoted"], "count"),
        "games.describe_s": (self_s["games.describe"] + self_s["games.describe_move"], "s"),
        "trace.decisions": (len(decisions), "count"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_share": ((traced_s - plain_s) / plain_s, "fraction"),
        "trace.unaccounted_share": (layer_s["cli"] / traced_s, "fraction"),
    }
    notes = [
        f"the first round, {len(decisions)} decisions, each untraced and traced",
        f"check_s summed: untraced {plain_s:.4f} s, traced {traced_s:.4f} s, "
        f"tracing overhead {traced_s - plain_s:.4f} s",
        "self time per layer, share of traced check_s (cli = outside every wrapped call):",
        *(f"  {layer:8s} {s:10.4f} s  {s / traced_s:7.2%}" for layer, s in layer_s.items()),
        f"{len(tracer.span_start)} spans written to {spans_path.relative_to(ROOT)}",
        f"failed_share {len(harness.failures) / harness.attempted} fraction",
    ]
    return metrics, notes


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    cli = load_program()
    rounds = workloads.rounds(args.workload, args.seed)
    first = next(rounds)
    WORK.mkdir(exist_ok=True)
    inputs = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs.mkdir()
    try:
        harness = Harness(cli, workloads.write_files(first, inputs))
        # Keep the collector from rescanning the benchmark's own inputs,
        # which a command line user's process does not hold.
        gc.collect()
        gc.freeze()
        share = self_check(harness, first[0][1])
        print(f"self-check: one flipped expected answer gives failed_share {share} > 0")
        if args.trace:
            metrics, notes = per_layer(harness, first, args)
        else:
            metrics, notes = end_to_end(harness, first, rounds, inputs, args.seconds)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if {name: unit for name, (_, unit) in metrics.items()} != wanted:
        sys.exit("error: the metrics measured differ from those BENCHMARK.json names")

    env = environment(args)
    env["attempted"] = harness.attempted
    print("env: " + json.dumps(env))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for failure in harness.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not harness.failures,
                "attempted": harness.attempted,
                "failed": len(harness.failures),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""IRONHIDE reproduction benchmark: host time to regenerate the figures.

    python3 perfbench/run.py --workload fig6|pop|attack [--seed N]
                             [--seconds S] [--trace 0|1]

Serial (``--jobs 1``), one sweep at a time.  The run builds the native
replay kernels if needed, untimed, then repeats rounds until
``--seconds`` have elapsed.  Each round is a fresh interpreter
(``round.py``), as a CLI user would start one: it is timed from spawn
to ready (``import repro``, the drivers, the kernel load), then runs
one cold pass (every unit computed into an empty on-disk store) and a
fixed number of warm passes replaying that store from disk with the
memory layer dropped before each.  ``setup_s``, ``cold_s`` and
``warm_s`` are medians over the run, and every pass's output is
checked (``workloads.py``).

``--trace 1`` runs one untraced round as the reference and one round
with a span around every layer's public functions (``tracer.py``),
prints the per-layer table and reports the per-layer metrics.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The command exits 1 on any failed check,
and 2 without a result when the program cannot be run as benchmarked
(no ``src/``, no native kernels).  ``NOTES.md`` says why each workload
and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fig6", "pop", "attack")

#: Rounds per run, whatever ``--seconds`` says: at least two so every
#: median has two samples, at most ten.
MIN_ROUNDS = 2
MAX_ROUNDS = 10

#: A round that takes longer than this has hung.
ROUND_TIMEOUT_S = 150

#: Environment switches that select a different replay program than the
#: one benchmarked (pure-Python kernels, the unbatched loop, chaos runs).
FORBIDDEN_ENV = ("REPRO_NO_NATIVE", "REPRO_NO_BATCH", "REPRO_FAULTS")


class Refused(Exception):
    """The program cannot be benchmarked as specified; no result."""


class RoundFailed(Exception):
    """A round's interpreter crashed or hung."""


def spawn_round(*args: str) -> dict:
    """Run ``round.py`` with ``args``; its report plus ``setup_s``."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "round.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round {' '.join(args)} exceeded {ROUND_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"round {' '.join(args)} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RoundFailed(f"round {' '.join(args)} printed no report") from None
    report["setup_s"] = report["ready"] - start
    return report


def provenance(report: dict) -> dict:
    """What produced these numbers."""
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {
        "model": report["model"],
        "commit": commit,
        "src_sha256": tree.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
    }


def run_rounds(args, work: Path) -> list:
    """Untraced rounds until ``--seconds`` have elapsed (one if tracing)."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MAX_ROUNDS:
        store = work / f"round{len(rounds)}"
        rounds.append(spawn_round("--workload", args.workload, "--seed", str(args.seed),
                                  "--store", str(store)))
        shutil.rmtree(store, ignore_errors=True)
        if args.trace or (len(rounds) >= MIN_ROUNDS
                          and time.perf_counter() - start >= args.seconds):
            break
    return rounds


def e2e_metrics(rounds: list) -> tuple:
    """End-to-end metrics, ``name -> (value, unit)``: the JSON ones and
    the printed-only ones (``NOTES.md`` says why each is where it is).

    ``warm_s`` is one round's warm-pass count times the median warm
    pass, so a momentary stall cannot dominate it.
    """
    cold_s = statistics.median(r["cold_s"] for r in rounds)
    warm = [s for r in rounds for s in r["warm_s"]]
    metrics = {
        "cold_s": (cold_s, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in rounds), "MB"),
        "units_per_s": (rounds[0]["units"] / cold_s, "1/s"),
    }
    printed = {
        "warm_s": (statistics.median(warm) * len(rounds[0]["warm_s"]), "s"),
        "error_rate": (sum(r["failed"] for r in rounds)
                       / sum(r["attempted"] for r in rounds), "ratio"),
    }
    if rounds[0]["accesses"]:
        printed["sim_accesses_per_s"] = (rounds[0]["accesses"] / cold_s, "1/s")
    for name, value in rounds[0].get("paper_err", {}).items():
        printed[name] = (value, "%")
    return metrics, printed


def print_layer_table(traced: dict) -> None:
    wall = traced["wall_s"]
    print(f"{'span':24s} {'calls':>9s} {'self s':>9s} {'self %':>7s} {'incl s':>9s}")
    for name, calls, self_s, incl in traced["table"]:
        print(f"{name:24s} {calls:9d} {self_s:9.4f} {self_s / wall * 100:6.2f}% {incl:9.4f}")
    rest = traced["unattributed_s"]
    print(f"{'(unattributed)':24s} {'':9s} {rest:9.4f} {rest / wall * 100:6.2f}%")
    print(f"{'traced wall':24s} {'':9s} {wall:9.4f} {100.0:6.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="start rounds until this much time has elapsed "
                             f"(at least {MIN_ROUNDS} untraced rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "repro").is_dir():
            raise Refused(f"no program sources under {SRC.name}/")
        forced = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
        if forced:
            raise Refused(f"{', '.join(forced)} set: that is not the benchmarked program")
        probe = spawn_round("--probe")  # builds the kernels, untimed
        if not probe["native"]:
            raise Refused("native kernels unavailable (the pure-Python backend is "
                          f"a different program): {probe['error']}")
    except (Refused, RoundFailed) as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        rounds = run_rounds(args, work)
        traced = None
        if args.trace:
            traced = spawn_round("--workload", args.workload, "--seed", str(args.seed),
                                 "--store", str(work / "traced"), "--trace")
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    print("provenance: " + json.dumps(provenance(rounds[0]), sort_keys=True))
    every = rounds + ([traced] if traced else [])
    problems = [msg for r in every for msg in r["problems"]]
    if len({r["digest"] for r in every}) > 1:
        problems.append("cold passes of one seed disagree between rounds")
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every) or (1 if problems else 0)
    if not rounds[0]["pinned"]:
        print(f"[check: seed {args.seed} has no pinned output; golden/digest "
              "check skipped, invariants checked]")
    elif not problems:
        print(f"[check: seed 0 output matches the pinned {args.workload} reference]")

    if traced:
        print_layer_table(traced)
        metrics = {
            "startup.import_s": (statistics.median(r["import_s"] for r in every), "s"),
            "startup.native_load_s": (
                statistics.median(r["native_load_s"] for r in every), "s"),
            **{name: tuple(v) for name, v in traced["layers"].items()},
            "trace.overhead_pct": (
                (traced["cold_s"] / rounds[0]["cold_s"] - 1) * 100, "%"),
        }
    else:
        metrics, printed = e2e_metrics(rounds)
        warm = [s for r in rounds for s in r["warm_s"]]
        print(f"{len(rounds)} rounds, {rounds[0]['units']} units per pass; cold passes (s): "
              + " ".join(f"{r['cold_s']:.3f}" for r in rounds)
              + f"; {len(warm)} warm passes (s): min {min(warm):.4f} "
              f"median {statistics.median(warm):.4f} max {max(warm):.4f}")
        for name, (value, unit) in {**metrics, **printed}.items():
            print(f"{name:22s} {value:14.6g} {unit}")
    for msg in problems:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

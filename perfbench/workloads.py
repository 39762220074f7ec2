"""The three benchmark workloads, their passes and their correctness gate.

A *pass* runs one figure driver serially (``--jobs 1``) over one
on-disk result store.  A cold pass starts from an empty store directory
with every in-process cache dropped and computes every work unit; a
warm pass drops the store's memory layer and replays the same grid
from disk.  Every pass's output is checked, and a pass whose check
fails counts all its units as failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments import fig6, figattack, figpop, sweep
from repro.experiments import store as store_mod
from repro.experiments.golden import QUICK_FACTOR
from repro.experiments.runner import ExperimentSettings
from repro.model.perf_model import clear_probe_pools
from repro.sim.bundle import clear_bundle_cache
from repro.sim.stats import RunResult

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE.parent / "tests" / "golden" / "figures_quick.json"
PINS_PATH = HERE / "pins.json"

#: The paper's headline ratios (all-apps geomean completion times).
PAPER_MI6_OVER_IRONHIDE = 2.1
PAPER_SGX_OVER_IRONHIDE = 1.2

#: Warm passes per round, about a second of replay.
WARM_PASSES = {"fig6": 100, "pop": 20, "attack": 50}

#: The population ``pop`` serves, whatever the run seed.
POPULATION_SEED = 0

#: Machines that only add security work on top of the insecure
#: baseline's schedule, so their overhead vs ``insecure`` is >= 1.
#: IRONHIDE is excluded: partitioning can beat the shared baseline.
ADDITIVE_MACHINES = ("sgx", "mi6", "fence_ts", "simf")


def pin_population() -> None:
    """Make ``pop`` serve the :data:`POPULATION_SEED` population at every seed.

    ``figpop`` samples its users from ``settings.seed``, and at 64 users
    the sampled unit count alone moves by +-15 % from seed to seed, more
    than any useful bound.  Pinning the population keeps the work fixed
    (324 units) while the run seed still drives every trace stream; at
    seed 0 the run is exactly ``figpop --quick``.
    """
    sample = figpop.population_for

    def population_for(settings, skew, size, spec=None):
        return sample(replace(settings, seed=POPULATION_SEED), skew, size, spec)

    figpop.population_for = population_for


def settings_for(workload: str, seed: int, cache_dir: Path) -> ExperimentSettings:
    """The settings ``python -m repro <figure> --jobs 1`` would use."""
    settings = ExperimentSettings(seed=seed, cache_dir=str(cache_dir))
    settings.config = settings.config.with_engine("vector")
    if workload != "fig6":
        settings = settings.quickened(QUICK_FACTOR)
    return settings


def run_driver(workload: str, settings: ExperimentSettings):
    """Run the workload's figure driver; looked up at call time so
    installed spans apply."""
    if workload == "fig6":
        return fig6.run_fig6(settings, verbose=False)
    if workload == "pop":
        return figpop.run_figpop(settings, sizes=figpop.QUICK_SIZES, verbose=False)
    return figattack.run_figattack(
        settings, scales=figattack.QUICK_SCALES, verbose=False
    )


def payload_of(workload: str, data) -> Dict:
    """The figure's JSON payload, round-tripped to canonical doubles."""
    if workload == "fig6":
        payload = {
            "rows": {
                row.app: {
                    "level": row.level,
                    "secure_cores": int(row.secure_cores),
                    "completion_ms": {m: float(row.completion_ms[m]) for m in fig6.MACHINES},
                    "normalized": {m: float(row.normalized[m]) for m in fig6.MACHINES},
                }
                for row in data.rows
            },
            "geomeans": {
                level: {m: float(v) for m, v in by_machine.items()}
                for level, by_machine in data.geomeans.items()
            },
        }
    else:
        payload = data.as_payload()
    return json.loads(json.dumps(payload))


def digest(payload: Dict) -> str:
    """SHA-256 of the payload's canonical JSON text."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def paper_errors_pct(payload: Dict) -> Dict[str, float]:
    """Distance of the fig6 headline ratios from the paper's, in %."""
    g = payload["geomeans"]["all"]
    mi6 = g["mi6"] / g["ironhide"]
    sgx = g["sgx"] / g["ironhide"]
    return {
        "paper_err_mi6_pct": abs(mi6 - PAPER_MI6_OVER_IRONHIDE) / PAPER_MI6_OVER_IRONHIDE * 100,
        "paper_err_sgx_pct": abs(sgx - PAPER_SGX_OVER_IRONHIDE) / PAPER_SGX_OVER_IRONHIDE * 100,
    }


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _fig6_invariants(payload: Dict) -> List[str]:
    bad = []
    for app, row in payload["rows"].items():
        for m, ms in row["completion_ms"].items():
            if not ms > 0:
                bad.append(f"fig6 {app} {m}: completion {ms} ms is not positive")
        for m in ("sgx", "mi6"):
            if not row["normalized"][m] >= 1.0:
                bad.append(f"fig6 {app} {m}: overhead {row['normalized'][m]} < 1")
        if not 1 <= row["secure_cores"] < 64:
            bad.append(f"fig6 {app}: {row['secure_cores']} secure cores")
    return bad


def _pop_invariants(payload: Dict) -> List[str]:
    bad = []
    for skew, by_machine in payload["overheads"].items():
        for m, pcts in by_machine.items():
            for i, (p50, p95, p99) in enumerate(zip(pcts["p50"], pcts["p95"], pcts["p99"])):
                where = f"pop skew {skew} {m} size#{i}"
                if not p50 <= p95 <= p99:
                    bad.append(f"{where}: p50 {p50} <= p95 {p95} <= p99 {p99} fails")
                if m in ADDITIVE_MACHINES and not p50 >= 1.0:
                    bad.append(f"{where}: overhead p50 {p50} < 1")
    return bad


def _attack_invariants(payload: Dict) -> List[str]:
    # BER is a fraction of bits: a chance-level channel sits near 0.5
    # and may land above it, so the bound is [0, 1], not [0, 0.5].
    bad = []
    for kind, by_machine in payload["results"].items():
        for m, series in by_machine.items():
            for i, point in enumerate(series):
                for key, value in point.items():
                    fraction = key == "ber" or key == "capacity" or key.endswith("_rate")
                    if fraction and not 0.0 <= value <= 1.0:
                        bad.append(f"attack {kind} {m} scale#{i}: {key}={value} outside [0, 1]")
                    elif not fraction and not value >= 0:
                        bad.append(f"attack {kind} {m} scale#{i}: {key}={value} negative")
    return bad


INVARIANTS: Dict[str, Callable[[Dict], List[str]]] = {
    "fig6": _fig6_invariants,
    "pop": _pop_invariants,
    "attack": _attack_invariants,
}


def reference_check(workload: str, seed: int, payload: Dict) -> Optional[List[str]]:
    """Compare against the pinned seed-0 output; ``None`` = no reference.

    ``pop`` and ``attack`` are the quick figures pinned bit for bit in
    the repo's golden file (read only); ``fig6`` at paper scale is
    pinned by digest in :data:`PINS_PATH`.
    """
    if seed != 0:
        return None
    if workload == "fig6":
        pins = json.loads(PINS_PATH.read_text())
        if pins["model"] != store_mod.MODEL_VERSION:
            return [f"{PINS_PATH.name} pins model {pins['model']}, the program is "
                    f"{store_mod.MODEL_VERSION}: re-pin with pin_fig6.py"]
        if digest(payload) != pins["fig6_seed0_sha256"]:
            return [f"fig6 payload digest {digest(payload)[:16]} differs from the "
                    f"pinned {pins['fig6_seed0_sha256'][:16]} ({PINS_PATH.name})"]
        return []
    golden = json.loads(GOLDEN_PATH.read_text())
    key = "figpop" if workload == "pop" else "figattack"
    if payload != golden[key]:
        return [f"{workload} payload differs from {GOLDEN_PATH.name}[{key!r}]"]
    return []


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One timed driver pass and what it produced."""

    kind: str  # "cold" or "warm"
    seconds: float
    units: int
    accesses: int
    payload: Optional[Dict]
    problems: List[str] = field(default_factory=list)
    retries: int = 0


class UnitRecorder:
    """Counts the work units and simulated accesses of every sweep.

    Wraps ``run_units`` (one call per figure pass, so the cost is nil)
    at every module that imported it by name.
    """

    def __init__(self) -> None:
        self.units = 0
        self.accesses = 0
        self._original = sweep.run_units
        self._holders = [
            mod for mod in (sweep, figpop, figattack)
            if getattr(mod, "run_units", None) is self._original
        ]

    def install(self) -> None:
        original = self._original

        def run_units(units, *args, **kwargs):
            units = list(units)
            results = original(units, *args, **kwargs)
            self.units += len(units)
            for value in results.values():
                if isinstance(value, RunResult):
                    self.accesses += value.secure.accesses + value.insecure.accesses
            return results

        for mod in self._holders:
            mod.run_units = run_units

    def uninstall(self) -> None:
        for mod in self._holders:
            mod.run_units = self._original

    def take(self):
        counts = (self.units, self.accesses)
        self.units = self.accesses = 0
        return counts


def _timed_pass(kind: str, workload: str, seed: int, cache_dir: Path,
                recorder: UnitRecorder, run: Optional[Callable]) -> Pass:
    settings = settings_for(workload, seed, cache_dir)
    recorder.take()
    start = time.perf_counter()
    data = run(run_driver, workload, settings) if run else run_driver(workload, settings)
    seconds = time.perf_counter() - start
    units, accesses = recorder.take()
    return Pass(kind, seconds, units, accesses, payload_of(workload, data),
                retries=settings.sweep_health.retries)


def cold_pass(workload: str, seed: int, cache_dir: Path, recorder: UnitRecorder,
              run: Optional[Callable] = None) -> Pass:
    """Compute every unit into an empty store, from cold caches.

    ``run(fn, *args)``, when given, calls the figure driver (the
    tracer passes its own).
    """
    store_mod.reset_stores()
    clear_bundle_cache()
    clear_probe_pools()
    gc.collect()
    p = _timed_pass("cold", workload, seed, cache_dir, recorder, run)
    stats = store_mod.get_store(cache_dir).stats
    if stats.invalid or stats.quarantined or stats.write_failures:
        p.problems.append(f"store trouble while computing: {stats.as_dict()}")
    return p


def warm_pass(workload: str, seed: int, cache_dir: Path, recorder: UnitRecorder,
              reference: Dict, run: Optional[Callable] = None) -> Pass:
    """Replay the grid from disk with the memory layer dropped."""
    store = store_mod.get_store(cache_dir)
    store.clear_memory()
    before = store.stats.as_dict()
    p = _timed_pass("warm", workload, seed, cache_dir, recorder, run)
    delta = {k: v - before[k] for k, v in store.stats.as_dict().items()}
    if delta["disk_hits"] != p.units or any(
        delta[k] for k in ("memory_hits", "misses", "invalid", "quarantined")
    ):
        p.problems.append(f"not all disk hits over {p.units} units: {delta}")
    if p.payload != reference:
        p.problems.append("payload differs from the cold pass")
    p.payload = None  # hundreds of warm passes must not inflate peak RSS
    return p


def check_cold(workload: str, seed: int, p: Pass) -> bool:
    """Invariants and the pinned reference on a cold pass.

    Appends problems to the pass; returns whether the pinned reference
    was compared (False when the seed has none).
    """
    p.problems.extend(INVARIANTS[workload](p.payload))
    ref = reference_check(workload, seed, p.payload)
    p.problems.extend(ref or [])
    return ref is not None

"""One benchmark round, in a fresh interpreter as a CLI user would run it.

    python3 perfbench/round.py --probe
    python3 perfbench/round.py --workload W --seed N --store DIR [--trace]

The child reports the ``time.perf_counter()`` reading at which it was
ready: ``import repro``, every figure driver and the native kernels
loaded.  That clock is system-wide on Linux, so the parent subtracts
its own spawn time to get the set-up time.  With ``--probe`` the child
stops there; the parent uses it to build the kernels untimed.

Otherwise the child runs one cold pass into the empty store ``DIR``
and the workload's warm passes over it, checks them, and with
``--trace`` records every layer's spans.  It prints one JSON report
line and exits 0, also when a check failed (the report says so).
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

started = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402
import repro.experiments  # noqa: E402,F401  (every figure driver)

imported = time.perf_counter()

from repro.arch.native import build_error, load_native  # noqa: E402

native = load_native()
ready = time.perf_counter()


def run_passes(args) -> dict:
    """The cold pass, the warm passes and their checks."""
    import numpy

    import workloads as wl
    from repro.experiments.store import MODEL_VERSION

    if args.workload == "pop":
        wl.pin_population()
    recorder = wl.UnitRecorder()
    recorder.install()
    run = tracer = None
    if args.trace:
        from tracer import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
        run = tracer.run
    store = Path(args.store)
    cold = wl.cold_pass(args.workload, args.seed, store, recorder, run=run)
    warm = [wl.warm_pass(args.workload, args.seed, store, recorder, cold.payload, run=run)
            for _ in range(wl.WARM_PASSES[args.workload])]
    pinned = wl.check_cold(args.workload, args.seed, cold)
    passes = [cold] + warm
    report = {
        "model": MODEL_VERSION,
        "numpy": numpy.__version__,
        "cold_s": cold.seconds,
        "warm_s": [p.seconds for p in warm],
        "units": cold.units,
        "accesses": cold.accesses,
        "digest": wl.digest(cold.payload),
        "pinned": pinned,
        "attempted": sum(p.units for p in passes),
        "failed": sum(p.units for p in passes if p.problems),
        "problems": [f"{p.kind} pass: {msg}" for p in passes for msg in p.problems],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.workload == "fig6":
        report["paper_err"] = wl.paper_errors_pct(cold.payload)
    if tracer is not None:
        from tracer import ROOT, layer_metrics, trace_problems

        stats = wl.store_mod.get_store(store).stats
        retries = sum(p.retries for p in passes)
        report["layers"] = layer_metrics(tracer, stats, retries)
        report["problems"] += trace_problems(args.workload, tracer)
        report["table"] = tracer.table()
        report["unattributed_s"] = tracer.self_s[ROOT]
        report["wall_s"] = tracer.wall()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=("fig6", "pop", "attack"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--store")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    report = {
        "ready": ready,
        "import_s": imported - started,
        "native_load_s": ready - imported,
        "native": native is not None,
        "error": build_error(),
    }
    if not args.probe and native is not None:
        sys.path.insert(0, str(HERE))
        report.update(run_passes(args))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

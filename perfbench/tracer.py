"""Span tracer that wraps the program's layer functions from outside.

Every span is a wrapper installed over one public function or method
of a ``repro`` module.  A wrapper records calls, inclusive time and
self time (inclusive minus the inclusive time of the spans it directly
encloses), plus an optional work count taken from the call's
arguments.  Nothing under ``src/`` is edited: the wrappers are set as
module and class attributes at run time and removed by
:meth:`Tracer.uninstall`.

Functions that other modules import by name (``from x import f``) are
wrapped in every loaded ``repro`` module that holds the same object,
so a span never silently records zero calls because a caller kept its
own reference.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the span that encloses one whole traced pass; its self time
#: is the part of the pass no layer span covers.
ROOT = "pass"


def _arg_len(index: int) -> Callable:
    """A work counter reading ``len(args[index])`` of the wrapped call."""

    def count(args) -> int:
        try:
            return len(args[index])
        except (IndexError, TypeError):
            return 0

    return count


class Tracer:
    """Calls, inclusive and self seconds per span name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, int] = defaultdict(int)
        self.enabled = False
        # One [child seconds] cell per open span, innermost last.
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            cell = [0.0]
            stack = tracer._stack
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.incl[name] += elapsed
                tracer.self_s[name] += elapsed - cell[0]
                if count is not None:
                    tracer.work[name] += count(args)

        return span

    def run(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside the :data:`ROOT` span with tracing on."""
        self.enabled = True
        try:
            return self._wrap(ROOT, fn, None)(*args, **kwargs)
        finally:
            self.enabled = False

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str,
                      count: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` and every by-name import of it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str,
                    count: Optional[Callable] = None) -> None:
        """Wrap a method defined on ``cls`` (plain or classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(name, raw.__func__, count))
        else:
            wrapper = self._wrap(name, raw, count)
        self._set(cls, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute this tracer replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def wall(self) -> float:
        """Total traced seconds (the root spans' inclusive time)."""
        return self.incl[ROOT]

    def table(self) -> List[Tuple[str, int, float, float]]:
        """``(span, calls, self s, inclusive s)`` of every span that fired,
        largest self time first."""
        rows = [
            (name, self.calls[name], self.self_s[name], self.incl[name])
            for name in self.calls
            if name != ROOT and self.calls[name]
        ]
        rows.sort(key=lambda row: -row[2])
        return rows


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer.

    Per-access methods (``NativeCache.access``, ``touch_many``) are
    left alone: a wrapper there would cost more than the work it times.
    """
    from repro.arch import batch_replay, hierarchy, native
    from repro.attacks import environment, scenarios
    from repro.experiments import fig6, figattack, figpop, store, sweep
    from repro.machines import base
    from repro.model import perf_model
    from repro.secure import ipc, purge
    from repro.sim import bundle

    for module, attr in ((fig6, "run_fig6"), (figpop, "run_figpop"),
                         (figattack, "run_figattack")):
        tracer.wrap_function(module, attr, "figure")
    tracer.wrap_function(sweep, "run_units", "sweep.run_units", _arg_len(0))
    tracer.wrap_function(sweep, "execute_unit", "sweep.execute_unit")
    tracer.wrap_method(store.ResultStore, "get", "store.get")
    tracer.wrap_method(store.ResultStore, "put", "store.put")
    tracer.wrap_method(base.Machine, "run", "machine.run")
    tracer.wrap_function(bundle, "interaction_bundle", "bundle")
    tracer.wrap_method(hierarchy.MemoryHierarchy, "__init__", "hierarchy.build")
    tracer.wrap_method(hierarchy.MemoryHierarchy, "run_trace", "hierarchy.run_trace")
    tracer.wrap_method(native.NativeCache, "__init__", "native.cache_init")
    tracer.wrap_method(batch_replay.BatchReplayer, "__init__", "batch.plan")
    tracer.wrap_method(batch_replay.BatchReplayer, "run_epoch", "batch.epoch")
    for attr in ("kernel_filter_misses", "kernel_filter_misses_wb"):
        tracer.wrap_method(native.NativeCache, attr, "native.l1", _arg_len(1))
    for attr in ("kernel_hit_flags", "kernel_hit_flags_wb"):
        tracer.wrap_method(native.NativeCache, attr, "native.l2", _arg_len(1))
    tracer.wrap_function(native, "multi_slice_flags_wb", "native.l2", _arg_len(2))
    for attr in ("access_batch", "access_batch_flags"):
        tracer.wrap_method(native.NativeTlb, attr, "native.tlb", _arg_len(1))
    for attr in ("calibrate_l2_curve", "calibration_from_probes"):
        tracer.wrap_function(perf_model, attr, "calibrate")
    tracer.wrap_method(purge.PurgeModel, "flush", "purge.flush")
    for attr in ("plan_send", "plan_recv", "finish"):
        tracer.wrap_method(ipc.SharedIpcBuffer, attr, "ipc")
    tracer.wrap_method(environment.AttackEnvironment, "build", "attacks.env_build")
    tracer.wrap_function(scenarios, "run_attack_scenario", "attacks.scenario")


#: Spans each workload must record at least one call on (cold pass).
EXPECTED_SPANS = {
    "common": (
        "figure", "sweep.run_units", "sweep.execute_unit", "store.get",
        "store.put", "hierarchy.build", "native.cache_init",
        "hierarchy.run_trace", "native.l1", "native.tlb", "native.l2",
    ),
    "fig6": (
        "machine.run", "bundle", "batch.plan", "batch.epoch", "calibrate",
        "purge.flush", "ipc",
    ),
    "pop": (
        "machine.run", "bundle", "batch.plan", "batch.epoch", "calibrate",
        "purge.flush",
    ),
    "attack": ("attacks.env_build", "attacks.scenario"),
}


def trace_problems(workload: str, tracer: Tracer) -> List[str]:
    """Expected spans that never fired, and a table not summing to the wall."""
    expected = EXPECTED_SPANS["common"] + EXPECTED_SPANS[workload]
    problems = [f"span {name!r} recorded 0 calls on {workload}"
                for name in expected if not tracer.calls[name]]
    total = sum(tracer.self_s.values())
    if abs(total - tracer.wall()) > 1e-6 * max(1.0, tracer.wall()):
        problems.append(f"span self times sum to {total:.6f}s, traced wall is "
                        f"{tracer.wall():.6f}s")
    return problems


def layer_metrics(t: Tracer, stats, retries: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans and the store's counters.

    Times are self times.  ``native.kernel_share`` divides kernel time by
    ``Machine.run``, or by ``run_trace`` where no machine runs.
    """
    kernels = ("native.l1", "native.tlb", "native.l2")
    kernel_s = sum(t.self_s[k] for k in kernels)
    denominator = (t.incl["machine.run"] if t.calls["machine.run"]
                   else t.incl["hierarchy.run_trace"])
    lookups = stats.hits + stats.misses
    return {
        "bundle.calls": (t.calls["bundle"], "count"),
        "bundle.s": (t.self_s["bundle"], "s"),
        "hierarchy.builds": (t.calls["hierarchy.build"], "count"),
        "hierarchy.build_s": (t.self_s["hierarchy.build"], "s"),
        "native.cache_inits": (t.calls["native.cache_init"], "count"),
        "native.cache_init_s": (t.self_s["native.cache_init"], "s"),
        "hierarchy.run_trace_calls": (t.calls["hierarchy.run_trace"], "count"),
        "hierarchy.run_trace_self_s": (t.self_s["hierarchy.run_trace"], "s"),
        "batch.plans": (t.calls["batch.plan"], "count"),
        "batch.plan_s": (t.self_s["batch.plan"], "s"),
        "batch.epochs": (t.calls["batch.epoch"], "count"),
        "batch.epoch_self_s": (t.self_s["batch.epoch"], "s"),
        "native.l1_s": (t.self_s["native.l1"], "s"),
        "native.tlb_s": (t.self_s["native.tlb"], "s"),
        "native.l2_s": (t.self_s["native.l2"], "s"),
        "native.kernel_calls": (sum(t.calls[k] for k in kernels), "count"),
        "native.lines": (sum(t.work[k] for k in kernels), "count"),
        "native.kernel_share": (kernel_s / denominator if denominator else 0.0, "ratio"),
        "calibrate.calls": (t.calls["calibrate"], "count"),
        "calibrate.s": (t.self_s["calibrate"], "s"),
        "purge.flushes": (t.calls["purge.flush"], "count"),
        "purge.flush_s": (t.self_s["purge.flush"], "s"),
        "ipc.plans": (t.calls["ipc"], "count"),
        "ipc.plan_s": (t.self_s["ipc"], "s"),
        "machine.runs": (t.calls["machine.run"], "count"),
        "machine.run_self_s": (t.self_s["machine.run"], "s"),
        "attacks.env_builds": (t.calls["attacks.env_build"], "count"),
        "attacks.env_build_s": (t.self_s["attacks.env_build"], "s"),
        "attacks.scenario_self_s": (t.self_s["attacks.scenario"], "s"),
        "store.gets": (t.calls["store.get"], "count"),
        "store.get_s": (t.self_s["store.get"], "s"),
        "store.puts": (t.calls["store.put"], "count"),
        "store.put_s": (t.self_s["store.put"], "s"),
        "store.hit_ratio": (stats.hits / lookups if lookups else 0.0, "ratio"),
        "sweep.units": (t.work["sweep.run_units"], "count"),
        "sweep.sched_self_s": (t.self_s["sweep.run_units"], "s"),
        "sweep.retries": (retries, "count"),
        "figure.reduce_s": (t.self_s["figure"], "s"),
        "trace.wall_s": (t.wall(), "s"),
        "trace.unattributed_pct": (t.self_s[ROOT] / t.wall() * 100, "%"),
    }

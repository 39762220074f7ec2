"""Scalar-vs-vector replay engine equivalence suite.

The vector engine (the compiled kernels) must produce **bit-identical**
results to the scalar reference oracle — every
:class:`TraceResult` counter including ``mem_cycles``, every cache's
stats and resident lines (with LRU order and dirty flags), the TLB
contents, and the replica-tracking sets — across random traces and the
adversarial patterns that exercised historical bugs: write-heavy
streams, purge-interleaved replay, page re-homing mid-stream, replicated
hash-homed sharing and NUMA controller binding.

On a host without the native kernels a ``vector`` configuration runs the
scalar oracle, so these gates compare the oracle with itself there;
:class:`TestNoToolchainFallback` pins that fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.address import VirtualMemory
from repro.arch.batch_replay import BatchReplayer, Segment
from repro.arch.hierarchy import SHORT_EVENTS, MemoryHierarchy, ProcessContext
from repro.arch.native import NativeCache, native_available
from repro.config import SystemConfig
from repro.errors import CacheIsolationViolation
from repro.experiments.runner import ExperimentSettings, run_one
from repro.machines import MACHINES, build_machine
from repro.workloads import get_app

#: Registry-derived machine axis (same list the shared ``machine_name``
#: fixture in conftest.py parametrizes over) for direct parametrization.
ALL_MACHINES = tuple(MACHINES)

pytestmark = pytest.mark.equivalence

def set_entries(cache, set_index):
    """[tag, dirty] pairs MRU-first, whichever implementation."""
    if hasattr(cache, "set_entries"):
        return cache.set_entries(set_index)
    return cache._sets[set_index]


def tlb_entries(tlb):
    if hasattr(tlb, "lru_entries"):
        return tlb.lru_entries()
    return [int(p) for p in tlb._entries]


def cache_contents(cache):
    """{set: [tag, dirty] pairs MRU-first} over the non-empty sets."""
    if isinstance(cache, NativeCache):
        busy = np.flatnonzero((cache.tag_matrix() != -1).any(axis=1))
        return {int(s): cache.set_entries(int(s)) for s in busy}
    return {s: entries for s, entries in enumerate(cache._sets) if entries}


def assert_same_hierarchy(a, b, homes=True):
    """Every L1, TLB and L2 slice of two hierarchies agrees: contents,
    LRU order, dirty bits, stats; so do the occupancy and (unless
    ``homes`` is False) the homes."""
    for kind in ("_l1", "_l2"):
        caches_a, caches_b = getattr(a, kind), getattr(b, kind)
        assert set(caches_a) == set(caches_b), kind
        for key, ca in caches_a.items():
            cb = caches_b[key]
            assert ca.stats == cb.stats, ca.name
            assert (ca.valid_lines, ca.dirty_lines) == (
                cb.valid_lines, cb.dirty_lines
            ), ca.name
            assert cache_contents(ca) == cache_contents(cb), ca.name
    assert set(a._tlb) == set(b._tlb)
    for core, ta in a._tlb.items():
        tb = b._tlb[core]
        assert ta.stats == tb.stats, ta.name
        assert tlb_entries(ta) == tlb_entries(tb), ta.name
    if homes:
        assert np.array_equal(a.home_table, b.home_table)


class EnginePair:
    """A scalar and a vector hierarchy fed identical inputs."""

    def __init__(self, config=None, regions=(0, 1), **ctx_kwargs):
        config = config or SystemConfig.evaluation()
        ctx_kwargs.setdefault("cores", list(range(6)))
        ctx_kwargs.setdefault("slices", list(range(8)))
        ctx_kwargs.setdefault("controllers", [0, 1])
        self.sides = []
        for engine in ("scalar", "vector"):
            hier = MemoryHierarchy(config.with_engine(engine))
            vm = VirtualMemory("p", hier.address_space, list(regions))
            ctx = ProcessContext("p", "secure", vm, **ctx_kwargs)
            self.sides.append((hier, ctx))

    def run(self, addrs, writes=None):
        (hs, cs), (hv, cv) = self.sides
        rs = hs.run_trace(cs, addrs, writes)
        rv = hv.run_trace(cv, addrs, writes)
        assert rs == rv
        return rs

    def purge(self, cores=None):
        (hs, cs), (hv, cv) = self.sides
        cores = cores if cores is not None else [cs.rep_core]
        assert hs.purge_private(cores) == hv.purge_private(cores)
        assert hs.clean_l2(cs.slices) == hv.clean_l2(cv.slices)

    def assert_same_state(self):
        (hs, cs), (hv, cv) = self.sides
        assert_same_hierarchy(hs, hv)
        assert cs.vm.page_table == cv.vm.page_table
        assert cs._rr_next == cv._rr_next
        assert (cs._replicated or set()) == (cv._replicated or set())

    def run_checked(self, traces):
        """Replay each trace on both engines, comparing state after each."""
        results = []
        for addrs, writes in traces:
            results.append(self.run(addrs, writes))
            self.assert_same_state()
        return results


def schedule(ctx, addrs, writes, bounds):
    """One :class:`Segment` per adjacent pair of ``bounds``."""
    return [Segment(ctx, addrs[a:b], writes[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]


def replay_in_epochs(hier, segments, cuts):
    """Replay ``segments`` as the epochs between successive ``cuts``."""
    replayer = BatchReplayer(hier, segments)
    results = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        results.extend(replayer.run_epoch(a, b))
    return results


def random_trace(rng, n, span=1 << 19, run_prob=0.5, write_frac=0.4):
    addrs = rng.integers(0, span, size=n, dtype=np.int64)
    reps = 1 + (rng.random(n) < run_prob).astype(np.int64)
    addrs = np.repeat(addrs, reps)[:n]
    writes = (rng.random(n) < write_frac).astype(np.int8)
    return addrs, writes


_CFG = SystemConfig.evaluation()
_LINES_PER_PAGE = _CFG.page_bytes // _CFG.line_bytes


def n_events(addrs):
    """Events a non-empty trace keeps after run compression."""
    lines = np.asarray(addrs) // _CFG.line_bytes
    return 1 + int(np.count_nonzero(lines[1:] != lines[:-1]))


def exact_events_trace(rng, events, pages, span=1 << 19, write_frac=0.4):
    """A trace with exactly ``events`` events after run compression,
    over ``pages`` consecutive pages at a random spot in ``span``; each
    event is a run of 1-3 accesses to one line."""
    first = int(rng.integers(0, max(1, span // _CFG.page_bytes - pages)))
    lines = []
    while len(lines) < events:
        line = first * _LINES_PER_PAGE + int(rng.integers(0, pages * _LINES_PER_PAGE))
        if not lines or line != lines[-1]:
            lines.append(line)
    runs = np.repeat(np.asarray(lines, dtype=np.int64), rng.integers(1, 4, size=events))
    addrs = runs * _CFG.line_bytes + rng.integers(0, _CFG.line_bytes, size=len(runs))
    writes = (rng.random(len(runs)) < write_frac).astype(np.int8)
    assert n_events(addrs) == events
    return addrs, writes


def with_boundary_traces(rng, long_traces, span=1 << 19):
    """Follow each of ``long_traces`` with short traces on both sides of
    the vector engine's per-event/batch split: 1, ``SHORT_EVENTS`` and
    ``SHORT_EVENTS + 1`` events, each on one page and on three."""
    mixed = []
    for trace in long_traces:
        mixed.append(trace)
        mixed.extend(
            exact_events_trace(rng, events, pages, span)
            for events in (1, SHORT_EVENTS, SHORT_EVENTS + 1)
            for pages in (1, 3)
        )
    return mixed


class TestTraceEquivalence:
    def test_random_traces(self, rng):
        pair = EnginePair()
        longs = [random_trace(rng, int(rng.integers(1, 4000))) for _ in range(5)]
        pair.run_checked(with_boundary_traces(rng, longs))

    def test_write_heavy(self, rng):
        pair = EnginePair()
        for _ in range(3):
            addrs, writes = random_trace(rng, 3000, write_frac=0.95)
            pair.run(addrs, writes)
        pair.assert_same_state()

    def test_purge_interleaved(self, rng):
        pair = EnginePair()
        for i in range(6):
            long_trace, *shorts = with_boundary_traces(rng, [random_trace(rng, 1500)])
            pair.run_checked([long_trace])
            if i % 2:
                pair.purge()
                pair.assert_same_state()
            pair.run_checked(shorts)
        pair.assert_same_state()

    def test_rehoming_interleaved(self, rng):
        pair = EnginePair()
        for i in range(4):
            long_trace, *shorts = with_boundary_traces(
                rng, [random_trace(rng, 1500, span=1 << 17)], span=1 << 17
            )
            pair.run_checked([long_trace])
            (hs, cs), (hv, cv) = pair.sides
            frames = sorted(cs.vm.page_table.values())[: 2 + i]
            for ctx in (cs, cv):
                ctx.slices = list(reversed(ctx.slices))
                ctx._rr_next = 0
            assert hs.rehome_frames(frames, cs) == hv.rehome_frames(frames, cv)
            pair.assert_same_state()
            pair.run_checked(shorts)

    def test_replication_hash_homed(self, rng):
        pair = EnginePair(
            homing="hash", replication=True, slices=list(range(16)),
        )
        longs = [random_trace(rng, 2500, span=1 << 17) for _ in range(4)]
        traces = with_boundary_traces(rng, longs, span=1 << 17)
        results = pair.run_checked(traces)
        assert [r.accesses for r in results] == [len(a) for a, _ in traces]

    def test_numa_mc(self, rng):
        pair = EnginePair(numa_mc=True, homing="hash", slices=list(range(16)))
        longs = [random_trace(rng, 2000) for _ in range(3)]
        pair.run_checked(with_boundary_traces(rng, longs))

    def test_isolation_violation_parity_on_short_traces(self, rng):
        """A trace touching a frame homed outside ``ctx.slices`` raises
        on both engines, on either side of the short-stream split, and
        leaves identical page tables, homes and caches behind."""
        pair = EnginePair()
        page, line = _CFG.page_bytes, _CFG.line_bytes
        pair.run_checked([(np.arange(4 * _LINES_PER_PAGE, dtype=np.int64) * line, None)])
        for hier, ctx in pair.sides:
            hier.home_table[ctx.vm.page_table[2]] = 12  # planted foreign home
        violating = [
            np.asarray([2 * page], dtype=np.int64),  # one event
            np.asarray([2 * page, 2 * page + 5 * line], dtype=np.int64),  # one page
            # Maps and homes page 9 before the check trips on page 2.
            np.asarray([9 * page, 9 * page + line, 2 * page], dtype=np.int64),
            exact_events_trace(rng, SHORT_EVENTS, 1, span=page)[0] + 2 * page,
            exact_events_trace(rng, SHORT_EVENTS + 1, 1, span=page)[0] + 2 * page,
        ]
        for addrs in violating:
            for hier, ctx in pair.sides:
                with pytest.raises(CacheIsolationViolation):
                    hier.run_trace(ctx, addrs)
            pair.assert_same_state()
        assert 9 in pair.sides[0][1].vm.page_table
        # Replay carries on identically over the entitled pages.
        pair.run_checked(
            exact_events_trace(rng, events, pages, span=2 * page)
            for events in (1, SHORT_EVENTS, SHORT_EVENTS + 1)
            for pages in (1, 2)
        )

    @pytest.mark.skipif(not native_available(), reason="needs native kernels")
    def test_short_streams_skip_the_batch_kernels(self, rng, monkeypatch):
        """On the vector engine a stream of at most ``SHORT_EVENTS``
        events (after run compression) runs the per-event loop; one
        event more goes through the batch kernels."""
        calls = []
        kernel = NativeCache.kernel_filter_misses

        def recording(self, lines, writes):
            calls.append(len(lines))
            return kernel(self, lines, writes)

        monkeypatch.setattr(NativeCache, "kernel_filter_misses", recording)
        hier = MemoryHierarchy(SystemConfig.evaluation().with_engine("vector"))
        assert hier.engine == "vector"
        vm = VirtualMemory("p", hier.address_space, [0, 1])
        ctx = ProcessContext("p", "secure", vm, cores=[0], slices=[0, 1],
                             controllers=[0])
        for events in (1, SHORT_EVENTS):
            for pages in (1, 3):
                addrs, writes = exact_events_trace(rng, events, pages)
                hier.run_trace(ctx, addrs, writes)
        assert calls == []
        addrs, writes = exact_events_trace(rng, SHORT_EVENTS + 1, 1)
        hier.run_trace(ctx, addrs, writes)
        assert calls == [SHORT_EVENTS + 1]

    def test_empty_and_single(self):
        pair = EnginePair()
        res = pair.run(np.empty(0, dtype=np.int64))
        assert res.accesses == 0
        pair.run(np.asarray([4096], dtype=np.int64))
        pair.assert_same_state()

    def test_sticky_streams(self):
        """Interleaved same-line streams: repeats of a set's MRU line
        (guaranteed hits that leave LRU order unchanged) mixed with
        conflicting lines."""
        a = np.asarray([0, 4096, 64, 0, 4096, 0, 4096, 128], dtype=np.int64)
        addrs = np.tile(a, 300) + 64 * np.repeat(
            np.arange(300, dtype=np.int64) % 7, len(a)
        )
        writes = (np.arange(len(addrs)) % 3 == 0).astype(np.int8)
        pair = EnginePair()
        pair.run(addrs, writes)
        pair.assert_same_state()

    def test_app_interaction_traces(self, rng):
        pair = EnginePair(slices=list(range(16)), regions=(0, 1, 2, 3))
        for app_name in ("<AES, QUERY>", "<MEMCACHED, OS>"):
            app = get_app(app_name)
            sec, ins = app.processes()
            for proc in (sec, ins):
                for i in range(2):
                    tr = proc.interaction_trace(rng, i)
                    pair.run(tr.addrs, tr.writes)
        pair.assert_same_state()


class TestFuzzEquivalence:
    """Seeded randomized fuzzing beyond the hand-picked workloads.

    Each (machine config, seed) pair derives every trace parameter —
    length, address span, run-length bias, write fraction — and the
    context shape (slice count, homing policy, replication) from its
    own seeded generator, so the suite sweeps a reproducible cloud of
    contexts the targeted tests above never visit.
    """

    CONFIGS = {
        "small": SystemConfig.small,
        "evaluation": SystemConfig.evaluation,
    }

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_fuzzed_random_traces(self, config_name, seed):
        rng = np.random.default_rng(7_000 + seed)
        config = self.CONFIGS[config_name]()
        homing = "hash" if seed % 2 else "local"
        pair = EnginePair(
            config=config,
            homing=homing,
            replication=(homing == "hash"),
            slices=list(range((4, 8, 16)[seed % 3])),
        )
        for _ in range(3):
            n = int(rng.integers(200, 2500))
            addrs, writes = random_trace(
                rng,
                n,
                span=1 << int(rng.integers(14, 20)),
                run_prob=float(rng.random()),
                write_frac=float(rng.random()),
            )
            res = pair.run(addrs, writes)
            assert res.accesses == n
            pair.assert_same_state()
        if seed % 3 == 0:
            pair.purge()
            pair.assert_same_state()


class TestBatchedReplayEquivalence:
    """``run_trace_batched`` vs the per-call loop (same engine)."""

    def test_random_segments_match_per_call(self, rng):
        for trial in range(3):
            n = int(rng.integers(1000, 6000))
            addrs, writes = random_trace(rng, n, span=1 << 18)
            cuts = np.sort(rng.integers(0, n, size=int(rng.integers(2, 9))))
            bounds = [0] + cuts.tolist() + [n]
            pair = EnginePair()
            (hs, cs), (hv, cv) = pair.sides
            per = [
                hs.run_trace(cs, addrs[a:b], writes[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            bat = hv.run_trace_batched(cv, addrs, writes, bounds)
            assert per == bat
            pair.assert_same_state()

    def test_empty_segments_and_scalar_fallback(self, rng):
        addrs, writes = random_trace(rng, 500)
        bounds = [0, 0, 120, 120, 500]
        pair = EnginePair()
        (hs, cs), (hv, cv) = pair.sides
        # The scalar engine's run_trace_batched is the per-call loop.
        per = hs.run_trace_batched(cs, addrs, writes, bounds)
        bat = hv.run_trace_batched(cv, addrs, writes, bounds)
        assert per == bat
        assert [r.accesses for r in bat] == [0, 120, 0, 380]
        pair.assert_same_state()

    def test_replicated_segments(self, rng):
        """The second batch starts with a non-empty replica set; the
        third replays the same schedule split into several epochs."""
        pair = EnginePair(homing="hash", replication=True, slices=list(range(16)))
        (hs, cs), (hv, cv) = pair.sides
        for trial in range(3):
            addrs, writes = random_trace(rng, 3000, span=1 << 16)
            bounds = [0, 900, 900, 1800, 3000]
            per = [
                hs.run_trace(cs, addrs[a:b], writes[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            if trial:
                assert cv._replicated
            if trial < 2:
                bat = hv.run_trace_batched(cv, addrs, writes, bounds)
            else:
                bat = replay_in_epochs(
                    hv, schedule(cv, addrs, writes, bounds), [0, 1, 2, 4]
                )
            assert per == bat
            pair.assert_same_state()

    def test_epochs_create_caches_lazily(self, rng):
        """A second context — its own core, page table and slices — first
        appears mid-schedule, after empty segments and an all-empty
        epoch.  Its L1, TLB and L2 slices come into being exactly when
        the per-call loop creates them, and every epoch leaves the same
        state behind."""
        pair = EnginePair()
        others = []
        for hier, ctx in pair.sides:
            vm = VirtualMemory("q", hier.address_space, [2, 3])
            others.append(ProcessContext(
                "q", "insecure", vm, cores=[40, 41], slices=list(range(40, 48)),
                controllers=[2, 3], enforce=False, replication=True,
            ))
        traces = [random_trace(rng, int(n), span=1 << 17)
                  for n in (1500, 0, 0, 0, 1200, 900, 0, 2000)]
        owners = [0, 0, 1, 0, 0, 1, 1, 1]
        epochs = [0, 2, 4, 5, 6, 8]
        (hs, cs), (hv, cv) = pair.sides
        per = []
        for (addrs, writes), who in zip(traces, owners):
            per.append(hs.run_trace((cs, others[0])[who], addrs, writes))
        segments = [Segment((cv, others[1])[who], addrs, writes)
                    for (addrs, writes), who in zip(traces, owners)]
        replayer = BatchReplayer(hv, segments)
        # Replay the scalar side epoch by epoch too, so the caches can be
        # compared at every epoch boundary (the plan translates and homes
        # the whole schedule up front, so page tables and homes are
        # compared at the end).
        pair_s = EnginePair()
        (hs2, cs2), _ = pair_s.sides
        other_s = ProcessContext(
            "q", "insecure", VirtualMemory("q", hs2.address_space, [2, 3]),
            cores=[40, 41], slices=list(range(40, 48)), controllers=[2, 3],
            enforce=False, replication=True,
        )
        bat = []
        for a, b in zip(epochs[:-1], epochs[1:]):
            for k in range(a, b):
                addrs, writes = traces[k]
                hs2.run_trace((cs2, other_s)[owners[k]], addrs, writes)
            bat.extend(replayer.run_epoch(a, b))
            assert_same_hierarchy(hs2, hv, homes=False)
            assert other_s._replicated == others[1]._replicated
        assert 40 in hv._l1 and 40 in hv._tlb
        assert set(hv._l2) & set(range(40, 48))
        assert per == bat
        pair.assert_same_state()
        assert others[0].vm.page_table == others[1].vm.page_table
        assert others[0]._replicated == others[1]._replicated

    @pytest.mark.skipif(not native_available(), reason="needs native kernels")
    def test_epochs_skip_the_batch_kernels(self, rng, monkeypatch):
        """An epoch is the two epoch passes alone: no per-core L1 or TLB
        batch call and no multi-slice L2 call."""
        from repro.arch import batch_replay, native

        calls = []

        def recorder(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"run_epoch called {name}")
            return record

        for cls, attr in ((NativeCache, "kernel_filter_misses_wb"),
                          (native.NativeTlb, "access_batch_flags")):
            monkeypatch.setattr(cls, attr, recorder(attr))
        for module in (native, batch_replay):
            monkeypatch.setattr(module, "multi_slice_flags_wb",
                                recorder("multi_slice_flags_wb"), raising=False)
        pair = EnginePair(homing="hash", replication=True, slices=list(range(16)))
        (hs, cs), (hv, cv) = pair.sides
        addrs, writes = random_trace(rng, 4000, span=1 << 17)
        bounds = [0, 1000, 1000, 2500, 4000]
        per = [hs.run_trace(cs, addrs[a:b], writes[a:b])
               for a, b in zip(bounds[:-1], bounds[1:])]
        assert hv.run_trace_batched(cv, addrs, writes, bounds) == per
        assert calls == []
        pair.assert_same_state()


class TestCalibrationEquivalence:
    """Batched probe-curve planning vs the per-probe scalar oracle.

    The IRONHIDE calibration (``calibrate_l2_curve``) plans a whole
    probe curve at once under the vector engine; every probe point's
    :class:`TraceResult` must stay bit-identical to the per-probe
    scratch-hierarchy oracle.
    """

    APPS = ("<AES, QUERY>", "<MEMCACHED, OS>", "<TC, GRAPH>")
    COUNTS = [1, 2, 3, 5, 8, 16, 24, 48, 62]

    def _windows(self, app_name):
        from repro.machines.ironhide import _CALIBRATION_SEED

        app = get_app(app_name)
        for proc in app.processes():
            crng = np.random.default_rng(_CALIBRATION_SEED)
            warm = proc.calibration_trace(crng, 2, start=0)
            measure = proc.calibration_trace(crng, 2, start=2)
            yield proc, warm, measure

    @pytest.mark.parametrize("app_name", APPS)
    def test_batched_curve_matches_scalar_oracle(self, app_name):
        from repro.model.perf_model import (
            calibrate_l2_curve,
            calibrate_l2_curve_oracle,
        )

        for proc, warm, measure in self._windows(app_name):
            oracle = calibrate_l2_curve(
                SystemConfig.evaluation().with_engine("scalar"),
                warm, measure, self.COUNTS,
            )
            batched = calibrate_l2_curve(
                SystemConfig.evaluation().with_engine("vector"),
                warm, measure, self.COUNTS,
            )
            assert list(batched) == list(oracle)
            for k in self.COUNTS:
                assert batched[k] == oracle[k], (proc.name, k)
            # Same engine, planner off: the vector per-probe loop.
            per_probe = calibrate_l2_curve_oracle(
                SystemConfig.evaluation().with_engine("vector"),
                warm, measure, self.COUNTS,
            )
            assert batched == per_probe, proc.name

    def test_probe_curve_store_round_trip(self, tmp_path):
        """Probe curves survive the result store bit-exactly."""
        from repro.experiments.store import ResultStore
        from repro.model.perf_model import calibrate_l2_curve

        proc, warm, measure = next(self._windows("<AES, QUERY>"))
        counts = [1, 4, 16]
        probes = calibrate_l2_curve(
            SystemConfig.evaluation().with_engine("vector"), warm, measure, counts
        )
        store = ResultStore(tmp_path)
        key = ("probe-curve-test", proc.name)
        store.put(key, {str(k): r.as_payload() for k, r in probes.items()})
        store.clear_memory()
        loaded = store.get(key)
        from repro.arch.hierarchy import TraceResult

        rebuilt = {int(k): TraceResult.from_payload(v) for k, v in loaded.items()}
        assert rebuilt == probes


class TestPurgePathOccupancy:
    """Incremental valid/dirty occupancy vs a ground-truth recount.

    The purge models (``purge_private`` / ``clean_l2``) read occupancy
    off O(1) counters maintained by every kernel; these gates recount
    the actual cache state after adversarial replay/purge/evict
    sequences and on both engines.
    """

    @staticmethod
    def _recount(cache):
        valid = 0
        dirty = 0
        for s in range(cache.n_sets):
            entries = set_entries(cache, s)
            valid += len(entries)
            dirty += sum(1 for _, d in entries if d)
        return valid, dirty

    def _assert_counters(self, hier, ctx):
        for cache in [hier.l1_for(ctx.rep_core)] + [
            hier._l2[t] for t in hier._l2
        ]:
            assert (cache.valid_lines, cache.dirty_lines) == self._recount(
                cache
            ), cache.name

    def test_counters_track_replay_and_purge(self, rng):
        pair = EnginePair()
        for i in range(5):
            addrs, writes = random_trace(rng, 2500, write_frac=0.6)
            pair.run(addrs, writes)
            for hier, ctx in pair.sides:
                self._assert_counters(hier, ctx)
            if i % 2:
                pair.purge()
                for hier, ctx in pair.sides:
                    self._assert_counters(hier, ctx)
                    assert hier.l1_for(ctx.rep_core).valid_lines == 0
                    assert hier.l2_dirty_lines(ctx.slices) == 0

    def test_counters_track_rehoming(self, rng):
        pair = EnginePair()
        for i in range(3):
            addrs, writes = random_trace(rng, 1500, span=1 << 16)
            pair.run(addrs, writes)
            (hs, cs), (hv, cv) = pair.sides
            frames = sorted(cs.vm.page_table.values())[: 3 + i]
            for ctx in (cs, cv):
                ctx.slices = list(reversed(ctx.slices))
                ctx._rr_next = 0
            assert hs.rehome_frames(frames, cs) == hv.rehome_frames(frames, cv)
            for hier, ctx in pair.sides:
                self._assert_counters(hier, ctx)

    def test_clean_all_is_idempotent_and_cheap(self, rng):
        pair = EnginePair()
        addrs, writes = random_trace(rng, 2000, write_frac=0.9)
        pair.run(addrs, writes)
        (hs, cs), (hv, cv) = pair.sides
        first = hs.clean_l2(cs.slices)
        assert first == hv.clean_l2(cv.slices)
        assert first > 0
        # Second clean: all counters are zero, nothing to write back.
        assert hs.clean_l2(cs.slices) == hv.clean_l2(cv.slices) == 0
        for hier, ctx in pair.sides:
            self._assert_counters(hier, ctx)

    def test_purge_report_matches_recount(self, rng):
        """PurgeModel dirty-drain accounting equals a state recount."""
        from repro.secure.purge import PurgeModel

        pair = EnginePair()
        addrs, writes = random_trace(rng, 3000, write_frac=0.7)
        pair.run(addrs, writes)
        reports = []
        for hier, ctx in pair.sides:
            expected_dirty = sum(
                self._recount(hier._l2[t])[1] for t in hier._l2
            )
            model = PurgeModel(hier.config)
            report = model.purge(
                hier, cores=[ctx.rep_core], l2_slices=ctx.slices,
                controllers=ctx.controllers,
            )
            assert report.dirty_lines_drained == expected_dirty
            reports.append(report)
        assert reports[0] == reports[1]


class TestMachineEquivalence:
    def test_full_machine_runs_identical(self, machine_name):
        """End-to-end machine runs (purges, IPC, reconfiguration and
        timing model included) must not depend on the engine.

        Parametrized over the whole ``MACHINES`` registry via the
        shared ``machine_name`` fixture — this is the equivalence gate
        the registry-coverage meta-test in ``test_machines.py`` keys
        on.
        """
        results = {}
        for engine in ("scalar", "vector"):
            settings = ExperimentSettings(
                config=SystemConfig.evaluation().with_engine(engine),
                n_user=3,
                n_os=6,
            )
            results[engine] = run_one(get_app("<AES, QUERY>"), machine_name, settings)
        assert results["scalar"] == results["vector"]

    @pytest.mark.parametrize("pop_seed", (0, 7))
    def test_population_mix_runs_identical(self, machine_name, pop_seed):
        """Served-population tuples must not depend on the engine either.

        Samples the head of a skewed population and replays each user's
        (app, trace_scale, interactions) tuple through the real
        ``pop_pair`` unit executor on both engines — so the scaled
        traces and per-user session lengths figpop serves ride the same
        equivalence guarantee as the fixed mixes.  Parametrized over
        the whole ``MACHINES`` registry via the shared ``machine_name``
        fixture — the second gate the registry-coverage meta-test in
        ``test_machines.py`` keys on.
        """
        from repro.experiments.sweep import execute_unit, population_unit
        from repro.workloads.population import PopulationSpec, sample_population

        users = sample_population(pop_seed, 2, PopulationSpec(skew=1.4))
        for user in users:
            unit = population_unit(
                user.app, machine_name, user.trace_scale,
                min(user.interactions, 4),
            )
            results = {}
            for engine in ("scalar", "vector"):
                settings = ExperimentSettings(
                    config=SystemConfig.evaluation().with_engine(engine),
                )
                results[engine] = execute_unit(unit, settings)
            assert results["scalar"] == results["vector"], user

    @pytest.mark.parametrize("machine", ALL_MACHINES)
    def test_fig6_mix_batched_identical(self, machine, calibration_cache):
        """Scalar per-interaction loop vs batched vector pipeline over
        the full Fig. 6 application mix, for every machine.

        This is the acceptance gate for the interaction-batched replay
        path: whole `Machine.run` results — breakdowns, per-process
        cache stats, predictor decisions — must be bit-identical.
        """
        from repro.workloads import APPS

        for app in APPS:
            results = {}
            for engine in ("scalar", "vector"):
                settings = ExperimentSettings(
                    config=SystemConfig.evaluation().with_engine(engine),
                    n_user=2,
                    n_os=4,
                    calibration_cache=calibration_cache,
                )
                results[engine] = run_one(app, machine, settings)
            assert results["scalar"] == results["vector"], app.name


class TestAttackEquivalence:
    """Attack scenarios are engine-invariant, in payload and in state.

    The harnesses replay their probe traces through the same hierarchy
    the figures use, so their stored (and golden-pinned) payloads must
    be bit-identical between the scalar oracle and the vector engine —
    a warm figattack cache can then never mask an
    engine divergence (the engine rides in the store key's config
    hash).  Most probes are one-address traces, which the vector engine
    replays through the per-event loop over its native caches, so every
    environment a scenario builds must also end with identical L1s,
    TLBs, L2 slices, homes and page tables: a payload alone can hide a
    state divergence that the next probe would have read.
    """

    @pytest.mark.parametrize(
        "kind",
        ["prime_probe", "covert", "noc_probe", "spectre", "purge_timing", "noc_covert"],
    )
    def test_attack_payload_engine_invariant(self, kind, monkeypatch):
        from repro.attacks.environment import ISOLATION_MODELS, AttackEnvironment
        from repro.attacks.scenarios import run_attack_scenario

        built = []
        build = AttackEnvironment.build.__func__

        def recording_build(cls, *args, **kwargs):
            env = build(cls, *args, **kwargs)
            built.append(env)
            return env

        monkeypatch.setattr(AttackEnvironment, "build", classmethod(recording_build))
        base = SystemConfig.evaluation()
        for model in ISOLATION_MODELS:
            built.clear()
            scalar = run_attack_scenario(
                kind, model, base.with_engine("scalar"), 1.0, seed=0
            )
            scalar_envs = list(built)
            built.clear()
            vector = run_attack_scenario(
                kind, model, base.with_engine("vector"), 1.0, seed=0
            )
            assert scalar == vector, (kind, model)
            assert len(scalar_envs) == len(built) >= 1, (kind, model)
            for es, ev in zip(scalar_envs, built):
                assert_same_hierarchy(es.hier, ev.hier)
                for role in ("victim", "attacker"):
                    cs, cv = getattr(es, role), getattr(ev, role)
                    assert cs.vm.page_table == cv.vm.page_table, (kind, model, role)


class TestMachineFuzzEquivalence:
    """Registry-wide seed-fuzz sweep: random run shapes, both engines.

    Complements the targeted machine gates above with SeedSequence-
    derived randomized runs (the PR-2 fuzz idiom): every registered
    machine × several derived seeds, with the app, interaction counts
    and run seed all drawn from the per-case generator.  The temporal
    machines additionally get a non-default fence interval gate, since
    the interval changes the epoch-barrier placement in the batched
    pipeline.
    """

    #: Independent streams derived from one root SeedSequence; the
    #: entropy values (not the objects) parametrize so test IDs are
    #: stable and each case reseeds identically everywhere.
    SEEDS = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(20260808).spawn(3)]

    FUZZ_APPS = ("<AES, QUERY>", "<MEMCACHED, OS>", "<TC, GRAPH>")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzzed_machine_runs_identical(self, machine_name, seed):
        rng = np.random.default_rng(seed)
        app = get_app(self.FUZZ_APPS[int(rng.integers(len(self.FUZZ_APPS)))])
        n = int(rng.integers(2, 6))
        run_seed = int(rng.integers(0, 1 << 16))
        results = {}
        for engine in ("scalar", "vector"):
            machine = build_machine(
                machine_name, SystemConfig.evaluation().with_engine(engine)
            )
            results[engine] = machine.run(app, n_interactions=n, seed=run_seed)
        assert results["scalar"] == results["vector"], (machine_name, seed)

    @pytest.mark.parametrize("machine,interval", [("fence_ts", 3), ("simf", 2)])
    def test_nondefault_fence_interval_identical(self, machine, interval):
        app = get_app("<AES, QUERY>")
        results = {}
        for engine in ("scalar", "vector"):
            m = build_machine(
                machine,
                SystemConfig.evaluation().with_engine(engine),
                fence_interval=interval,
            )
            assert m.purge_policy.interval == interval
            results[engine] = m.run(app, n_interactions=5, seed=3)
        assert results["scalar"] == results["vector"], (machine, interval)


class TestNoToolchainFallback:
    """Without native kernels the vector engine is the scalar oracle.

    ``native_available`` is patched to False, as on a host without a C
    toolchain: the hierarchy resolves ``vector`` to ``scalar``, says so
    once per process, and whole runs — IRONHIDE's calibration dispatch
    and MI6's per-crossing purges included — equal the native vector
    result.
    """

    WARNING = "falls back to the scalar oracle"

    @staticmethod
    def _disable_native(monkeypatch):
        monkeypatch.setattr("repro.arch.hierarchy.native_available", lambda: False)
        monkeypatch.setattr("repro.arch.hierarchy._fallback_warned", False)

    @pytest.fixture
    def no_native(self, monkeypatch):
        self._disable_native(monkeypatch)

    def test_vector_config_resolves_to_scalar(self, no_native, capsys):
        from repro.arch.cache import SetAssocCache
        from repro.arch.tlb import Tlb

        config = SystemConfig.evaluation().with_engine("vector")
        hiers = [MemoryHierarchy(config) for _ in range(4)]
        assert [h.engine for h in hiers] == ["scalar"] * 4
        assert isinstance(hiers[0].l1_for(0), SetAssocCache)
        assert isinstance(hiers[0].l2_slice(0), SetAssocCache)
        assert isinstance(hiers[0].tlb_for(0), Tlb)
        assert capsys.readouterr().err.count(self.WARNING) == 1

    def test_pooled_sweep_warns_once(self, no_native, capfd):
        """The parent resolves the engine before forking workers."""
        from repro.experiments.sweep import pair_unit, run_units

        settings = ExperimentSettings(
            config=SystemConfig.evaluation().with_engine("vector"),
            n_user=1,
            n_os=1,
            no_cache=True,
        )
        units = [pair_unit("<AES, QUERY>", m) for m in ("insecure", "sgx")]
        run_units(units, settings, jobs=2)
        assert capfd.readouterr().err.count(self.WARNING) == 1

    def test_scalar_config_never_warns(self, no_native, capsys):
        hier = MemoryHierarchy(SystemConfig.evaluation().with_engine("scalar"))
        assert hier.engine == "scalar"
        assert self.WARNING not in capsys.readouterr().err

    @pytest.mark.skipif(not native_available(), reason="needs native kernels")
    @pytest.mark.parametrize("machine", ["ironhide", "mi6"])
    def test_run_one_matches_native(self, machine, monkeypatch, capsys):
        def run():
            settings = ExperimentSettings(
                config=SystemConfig.evaluation().with_engine("vector"),
                n_user=3,
                n_os=6,
                no_cache=True,
            )
            return run_one(get_app("<MEMCACHED, OS>"), machine, settings)

        native = run()
        self._disable_native(monkeypatch)
        capsys.readouterr()
        fallback = run()
        assert capsys.readouterr().err.count(self.WARNING) == 1
        assert fallback == native

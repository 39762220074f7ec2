"""Unit parity of the compiled replay kernels against the scalar models.

The vector engine *is* the native kernels, so every entry point of
:class:`~repro.arch.native.NativeCache`, :func:`multi_slice_flags_wb`,
:class:`~repro.arch.native.NativeTlb`, the batch replayer's two epoch
passes (:class:`~repro.arch.native.EpochKernels`) and its first-touch
pass (:func:`~repro.arch.native.first_touch`) is checked here directly
against the reference :class:`SetAssocCache` / :class:`Tlb` driven one
event at a time: per-event hit and writeback positions, per-segment
counters and cycles, stats, the incrementally tracked occupancy
counters, the full LRU contents with dirty flags, and replica sets.
Each check runs over cache geometries from direct-mapped to single-set
fully associative (and TLB capacities from one entry up), which the
hierarchy-level equivalence suite reaches only for the two fixed L1/L2
shapes of the evaluation machines.

The module carries the ``equivalence`` marker, so the sanitizer phase
of ``tools/run_tiers.py`` runs it over the ASan/UBSan-instrumented
kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cache import SetAssocCache
from repro.arch.native import native_available
from repro.arch.tlb import Tlb
from repro.config import CacheConfig, TlbConfig

pytestmark = [
    pytest.mark.skipif(not native_available(), reason="needs native kernels"),
    pytest.mark.equivalence,
]

#: (size_bytes, associativity) at 64-byte lines.
GEOMETRIES = {
    "direct-mapped": (1024, 1),
    "2-way": (1024, 2),
    "4-way": (4096, 4),
    "8-way-l1": (16 * 1024, 8),
    "16-way": (16 * 1024, 16),
    "one-set-8-way": (512, 8),
    "one-line": (64, 1),
}

TLB_ENTRIES = (1, 2, 8, 32)


@pytest.fixture(params=sorted(GEOMETRIES))
def geometry(request) -> CacheConfig:
    size, assoc = GEOMETRIES[request.param]
    return CacheConfig(size, assoc, 64)


def make_pair(config):
    from repro.arch.native import NativeCache

    return SetAssocCache(config, "ref"), NativeCache(config, "nat")


def line_stream(rng, config, n=3000, write_frac=0.4):
    """Lines with reuse, conflicts and MRU repeats over ~4x capacity."""
    span = 4 * config.n_lines
    lines = rng.integers(0, span, size=n, dtype=np.int64)
    # Re-touch recent lines (hits, LRU promotion) and repeat the last
    # line outright (MRU hits that must leave the order unchanged).
    for i in range(1, n):
        r = rng.random()
        if r < 0.3:
            lines[i] = lines[i - 1 - int(rng.integers(min(i, 8)))]
        elif r < 0.4:
            lines[i] = lines[i - 1]
    writes = (rng.random(n) < write_frac).astype(np.int8)
    return lines, writes


def reference_replay(ref, lines, writes):
    """Per-event hit flags and writeback positions of the scalar model."""
    flags = np.empty(len(lines), dtype=np.int8)
    wb_pos = []
    for k, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        before = ref.stats.writebacks
        flags[k] = ref.access(line, bool(w))
        if ref.stats.writebacks != before:
            wb_pos.append(k)
    return flags, np.asarray(wb_pos, dtype=np.int64)


def assert_same_cache(ref, nat):
    assert ref.stats == nat.stats
    assert ref.valid_lines == nat.valid_lines
    assert ref.dirty_lines == nat.dirty_lines
    for s in range(ref.n_sets):
        assert ref._sets[s] == nat.set_entries(s), s


class TestCacheKernels:
    def test_filter_misses(self, geometry, rng):
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry)
        flags, _ = reference_replay(ref, lines, writes)
        miss_pos = nat.kernel_filter_misses(lines, writes)
        np.testing.assert_array_equal(miss_pos, np.nonzero(flags == 0)[0])
        assert_same_cache(ref, nat)

    def test_hit_flags(self, geometry, rng):
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry)
        flags, _ = reference_replay(ref, lines, writes)
        np.testing.assert_array_equal(nat.kernel_hit_flags(lines, writes), flags)
        assert_same_cache(ref, nat)

    def test_filter_misses_wb(self, geometry, rng):
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry, write_frac=0.8)
        flags, wb_ref = reference_replay(ref, lines, writes)
        miss_pos, wb_pos = nat.kernel_filter_misses_wb(lines, writes)
        np.testing.assert_array_equal(miss_pos, np.nonzero(flags == 0)[0])
        np.testing.assert_array_equal(wb_pos, wb_ref)
        assert_same_cache(ref, nat)

    def test_hit_flags_wb(self, geometry, rng):
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry, write_frac=0.8)
        flags, wb_ref = reference_replay(ref, lines, writes)
        got_flags, wb_pos = nat.kernel_hit_flags_wb(lines, writes)
        np.testing.assert_array_equal(got_flags, flags)
        np.testing.assert_array_equal(wb_pos, wb_ref)
        assert_same_cache(ref, nat)

    def test_chunked_batches_match_one_stream(self, geometry, rng):
        """Kernel state carries across calls: any split of a stream into
        batches (empty ones included) leaves the scalar model's state."""
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry)
        flags, _ = reference_replay(ref, lines, writes)
        cuts = np.sort(rng.integers(0, len(lines), size=12))
        bounds = [0, *cuts.tolist(), len(lines)]
        got = []
        for lo, hi in zip(bounds, bounds[1:]):
            if lo % 2:
                got.append(nat.kernel_hit_flags(lines[lo:hi], writes[lo:hi]))
            else:
                miss = nat.kernel_filter_misses(lines[lo:hi], writes[lo:hi])
                part = np.ones(hi - lo, dtype=np.int8)
                part[miss] = 0
                got.append(part)
        np.testing.assert_array_equal(np.concatenate(got), flags)
        assert_same_cache(ref, nat)

    def test_scalar_access_and_lookups(self, geometry, rng):
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry, n=1500)
        for line, w in zip(lines.tolist(), writes.tolist()):
            assert ref.access(line, bool(w)) == nat.access(line, bool(w))
        for line in range(4 * geometry.n_lines):
            assert ref.contains(line) == nat.contains(line)
            assert ref.probe_latency_class(line) == nat.probe_latency_class(line)
        assert_same_cache(ref, nat)

    def test_touch_many(self, geometry, rng):
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry, n=1500)
        assert ref.touch_many(lines, writes) == nat.touch_many(lines, writes)
        assert_same_cache(ref, nat)

    def test_evict_line_range(self, geometry, rng):
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry, write_frac=0.6)
        ref.touch_many(lines, writes)
        nat.kernel_filter_misses(lines, writes)
        span = 4 * geometry.n_lines
        for base in rng.integers(0, span, size=20).tolist():
            count = int(rng.integers(1, 80))
            assert ref.evict_line_range(base, count) == nat.evict_line_range(
                base, count
            )
            assert_same_cache(ref, nat)
        assert nat.evict_line_range(0, span) == ref.evict_line_range(0, span)
        assert nat.valid_lines == 0
        assert nat.evict_line_range(0, span) == 0

    def test_purge_after_kernel_batch(self, geometry, rng):
        """clean_all / invalidate_all read the occupancy the kernels
        folded in, and a refill after the purge starts from empty."""
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry, write_frac=0.7)
        ref.touch_many(lines, writes)
        nat.kernel_hit_flags_wb(lines, writes)
        assert ref.clean_all() == nat.clean_all()
        assert ref.clean_all() == nat.clean_all() == 0
        ref.touch_many(lines[:500], writes[:500])
        nat.kernel_filter_misses_wb(lines[:500], writes[:500])
        assert_same_cache(ref, nat)
        assert ref.invalidate_all() == nat.invalidate_all()
        assert ref.invalidate_all() == nat.invalidate_all() == (0, 0)
        assert_same_cache(ref, nat)
        flags, _ = reference_replay(ref, lines, writes)
        np.testing.assert_array_equal(nat.kernel_hit_flags(lines, writes), flags)
        assert_same_cache(ref, nat)

    def test_fill_set_every_set(self, geometry, rng):
        """Prime+Probe priming evicts a set's prior contents identically."""
        ref, nat = make_pair(geometry)
        lines, writes = line_stream(rng, geometry, n=1000)
        ref.touch_many(lines, writes)
        nat.touch_many(lines, writes)
        for s in range(geometry.n_sets):
            assert ref.fill_set(s, 1000 + s) == nat.fill_set(s, 1000 + s)
        assert_same_cache(ref, nat)


class TestMultiSliceKernel:
    def test_matches_one_call_per_slice(self, geometry, rng):
        """One ``l2_flags_wb_multi`` call over a home-sorted stream equals
        one ``kernel_hit_flags_wb`` call per slice, writeback positions
        indexed into the whole stream."""
        from repro.arch.native import multi_slice_flags_wb

        n_parts = 5
        multi = [make_pair(geometry)[1] for _ in range(n_parts)]
        single = [make_pair(geometry)[1] for _ in range(n_parts)]
        parts = [
            line_stream(rng, geometry, n=int(rng.integers(0, 800)), write_frac=0.7)
            for _ in range(n_parts)
        ]
        for rounds in range(2):
            bounds = np.cumsum([0] + [len(p[0]) for p in parts]).tolist()
            lines = np.concatenate([p[0] for p in parts])
            writes = np.concatenate([p[1] for p in parts])
            flags, wb_pos, stats4 = multi_slice_flags_wb(
                multi, bounds, lines, writes
            )
            want_flags, want_wb = [], []
            for p, cache in enumerate(single):
                f, wb = cache.kernel_hit_flags_wb(*parts[p])
                want_flags.append(f)
                want_wb.append(wb + bounds[p])
            np.testing.assert_array_equal(flags, np.concatenate(want_flags))
            np.testing.assert_array_equal(wb_pos, np.concatenate(want_wb))
            assert int(stats4[2::4].sum()) == int(np.concatenate(want_flags).sum())
            for a, b in zip(multi, single):
                assert a.stats == b.stats
                assert a.valid_lines == b.valid_lines
                assert a.dirty_lines == b.dirty_lines
                np.testing.assert_array_equal(a.tag_matrix(), b.tag_matrix())
                np.testing.assert_array_equal(a.dirty_matrix(), b.dirty_matrix())
            parts = parts[::-1]


@pytest.fixture(params=TLB_ENTRIES)
def tlb_config(request) -> TlbConfig:
    return TlbConfig(entries=request.param)


def make_tlb_pair(config):
    from repro.arch.native import NativeTlb

    return Tlb(config, "ref"), NativeTlb(config, "nat")


def page_stream(rng, config, n=2000):
    pages = rng.integers(0, 3 * config.entries + 1, size=n, dtype=np.int64)
    for i in range(1, n):
        if rng.random() < 0.3:
            pages[i] = pages[i - 1]
    return pages


def assert_same_tlb(ref, nat):
    assert ref.stats == nat.stats
    assert ref.lru_entries() == nat.lru_entries()
    assert ref.occupancy == nat.occupancy


class TestTlbKernels:
    def test_access_batch(self, tlb_config, rng):
        ref, nat = make_tlb_pair(tlb_config)
        pages = page_stream(rng, tlb_config)
        misses = sum(not ref.access(p) for p in pages.tolist())
        assert nat.access_batch(pages) == misses
        assert_same_tlb(ref, nat)

    def test_access_batch_flags(self, tlb_config, rng):
        ref, nat = make_tlb_pair(tlb_config)
        pages = page_stream(rng, tlb_config)
        want = np.asarray([not ref.access(p) for p in pages.tolist()], dtype=np.int8)
        np.testing.assert_array_equal(nat.access_batch_flags(pages), want)
        assert_same_tlb(ref, nat)

    def test_scalar_access_and_membership(self, tlb_config, rng):
        ref, nat = make_tlb_pair(tlb_config)
        for p in page_stream(rng, tlb_config, n=600).tolist():
            assert ref.access(p) == nat.access(p)
        for p in range(3 * tlb_config.entries + 1):
            assert (p in ref) == (p in nat)
        assert_same_tlb(ref, nat)

    def test_invalidate_page_interleaved(self, tlb_config, rng):
        """Re-homing drops single translations between batches; the
        freed slot is refilled before any LRU victim is chosen."""
        ref, nat = make_tlb_pair(tlb_config)
        for _ in range(10):
            pages = page_stream(rng, tlb_config, n=200)
            for p in pages.tolist():
                ref.access(p)
            nat.access_batch(pages)
            for p in rng.integers(0, 3 * tlb_config.entries + 1, size=3).tolist():
                assert ref.invalidate_page(p) == nat.invalidate_page(p)
            assert_same_tlb(ref, nat)

    def test_invalidate_all(self, tlb_config, rng):
        ref, nat = make_tlb_pair(tlb_config)
        pages = page_stream(rng, tlb_config)
        for p in pages.tolist():
            ref.access(p)
        nat.access_batch_flags(pages)
        assert ref.invalidate_all() == nat.invalidate_all()
        assert ref.invalidate_all() == nat.invalidate_all() == 0
        assert_same_tlb(ref, nat)
        for p in pages[:300].tolist():
            ref.access(p)
        nat.access_batch(pages[:300])
        assert_same_tlb(ref, nat)


class TestFirstTouch:
    @pytest.mark.parametrize("table_size", [None, 1, 2])
    def test_matches_first_occurrence_order(self, rng, table_size):
        """Distinct values in first-occurrence order, their first
        positions and the inverse map; a tiny table grows until the
        distinct values fit."""
        from repro.arch.native import first_touch

        pages = rng.integers(0, 300, size=4000, dtype=np.int64)
        pages[1000:1500] = pages[999]  # runs take the repeat shortcut
        uniq, first, inverse = first_touch(pages, table_size)
        want = list(dict.fromkeys(pages.tolist()))
        assert uniq.tolist() == want
        assert first.tolist() == [pages.tolist().index(p) for p in want]
        np.testing.assert_array_equal(uniq[inverse], pages)

    def test_empty_and_negative(self):
        from repro.arch.native import first_touch

        uniq, first, inverse = first_touch(np.empty(0, dtype=np.int64))
        assert len(uniq) == len(first) == len(inverse) == 0
        pages = np.asarray([-3, 5, -3, -3, 7, 5], dtype=np.int64)
        uniq, first, inverse = first_touch(pages, 1)
        assert uniq.tolist() == [-3, 5, 7]
        assert first.tolist() == [0, 1, 4]
        assert inverse.tolist() == [0, 1, 0, 0, 2, 1]


#: Request-leg constants of the epoch parity tests (dyadic, like the
#: hierarchy's quantized distances).
HOP2, L2_LAT, DRAM_LAT = 4.0, 11.0, 108.0


class EpochScenario:
    """A random schedule over several cores, slices, context groups and
    replica sets, replayed through :class:`EpochKernels` epoch by epoch
    and through the scalar models one event at a time."""

    def __init__(self, rng, config, tlb_config, n_seg=40, n_slots=3,
                 n_tiles=5, n_groups=3, n_mc=2, line_span=None):
        from repro.arch.native import EpochKernels, NativeCache

        self.config, self.tlb_config = config, tlb_config
        line_span = line_span or 6 * config.n_lines
        lens = rng.integers(0, 120, size=n_seg)
        lens[rng.random(n_seg) < 0.2] = 0  # zero-event segments
        self.bounds = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        n = int(self.bounds[-1])
        self.slot = rng.integers(0, n_slots, size=n_seg)
        self.group = rng.integers(0, n_groups, size=n_seg)
        # Groups 0 and 1 share replica set 0, group 2 has set 1, and a
        # quarter of the segments do not replicate at all.
        self.rep = np.where(self.group < 2, 0, 1)
        self.rep[rng.random(n_seg) < 0.25] = -1
        self.lines = rng.integers(0, line_span, size=n).astype(np.int64)
        repeat = rng.random(n) < 0.3
        self.lines[1:][repeat[1:]] = self.lines[:-1][repeat[1:]]
        self.writes = (rng.random(n) < 0.5).astype(np.int8)
        self.pages = self.lines // 4 + rng.integers(0, 2, size=n)
        # Slices beyond the first two only appear late in the schedule.
        self.homes = rng.integers(0, 2, size=n).astype(np.int32)
        late = np.arange(n) > n // 2
        self.homes[late] = rng.integers(0, n_tiles, size=int(late.sum()))
        self.mcs = rng.integers(0, n_mc, size=n).astype(np.int32)
        self.dcore = rng.integers(0, 64 * 6, size=(n_groups, n_tiles)) / 64.0
        self.dmc = rng.integers(0, 64 * 6, size=(n_groups, n_tiles, n_mc)) / 64.0
        # Non-empty replica sets at the first epoch's start, holding
        # lines the schedule will hit.
        start = [set(self.lines[::7].tolist()[:40]), set()]
        self.ref_sets = [set(s) for s in start]
        self.nat_sets = [set(s) for s in start]

        self.ref_l1 = [SetAssocCache(config, f"L1[{i}]") for i in range(n_slots)]
        self.ref_tlb = [Tlb(tlb_config, f"TLB[{i}]") for i in range(n_slots)]
        self.ref_l2 = {}
        self.nat_l2 = {}
        self.nat_private = []

        def make_l2(tile):
            assert tile not in self.nat_l2, "slice created twice"
            self.nat_l2[tile] = NativeCache(config, f"L2[{tile}]")
            return self.nat_l2[tile]

        self.kernels = EpochKernels(
            seg_bounds=self.bounds, seg_slot=self.slot, seg_group=self.group,
            seg_rep=self.rep, lines=self.lines, writes=self.writes,
            pages=self.pages, homes=self.homes, mcs=self.mcs,
            n_slots=n_slots, l1_config=config, tlb_entries=tlb_config.entries,
            l2_config=config, make_l2=make_l2, dcore=self.dcore,
            dmc=self.dmc, hop2=HOP2, l2_lat=L2_LAT, dram_lat=DRAM_LAT,
            rep_sets=self.nat_sets,
        )
        self.bound = set()

    def reference(self, seg_a, seg_b):
        """Per-segment counters of the scalar models, one event at a time.

        Returns them with the number of lines the epoch adds to the
        replica sets.
        """
        n_mc = self.dmc.shape[2]
        priv, l2, cycles, mc = [], [], [], []
        new_lines = 0
        for s in range(seg_a, seg_b):
            slot, g, rep = int(self.slot[s]), int(self.group[s]), int(self.rep[s])
            l1, tlb = self.ref_l1[slot], self.ref_tlb[slot]
            c_priv, c_l2, c_cyc, c_mc = [0, 0, 0], [0, 0, 0], 0.0, [0] * n_mc
            a, b = int(self.bounds[s]), int(self.bounds[s + 1])
            for k in range(a, b):
                line, w = int(self.lines[k]), bool(self.writes[k])
                if k == a or self.pages[k] != self.pages[k - 1]:
                    c_priv[0] += not tlb.access(int(self.pages[k]))
                wb = l1.stats.writebacks
                hit = l1.access(line, w)
                c_priv[2] += l1.stats.writebacks - wb
                if hit:
                    continue
                c_priv[1] += 1
                home = int(self.homes[k])
                cache = self.ref_l2.setdefault(home, SetAssocCache(self.config))
                wb = cache.stats.writebacks
                hit = cache.access(line, w)
                c_l2[2] += cache.stats.writebacks - wb
                base = HOP2 * self.dcore[g, home] + L2_LAT
                if hit:
                    c_l2[0] += 1
                    if rep >= 0 and line in self.ref_sets[rep]:
                        c_cyc += HOP2 + L2_LAT
                    else:
                        if rep >= 0:
                            self.ref_sets[rep].add(line)
                            new_lines += 1
                        c_cyc += base
                else:
                    c_l2[1] += 1
                    m = int(self.mcs[k])
                    c_cyc += base + HOP2 * self.dmc[g, home, m] + DRAM_LAT
                    c_mc[m] += 1
            priv.append(c_priv)
            l2.append(c_l2)
            cycles.append(c_cyc)
            mc.append(c_mc)
        return (priv, l2, cycles, mc), new_lines

    def run(self, seg_a, seg_b, table_size=None):
        from repro.arch.native import NativeCache, NativeTlb

        for s in range(seg_a, seg_b):
            slot = int(self.slot[s])
            if self.bounds[s + 1] > self.bounds[s] and slot not in self.bound:
                self.bound.add(slot)
                l1 = NativeCache(self.config, f"L1[{slot}]")
                tlb = NativeTlb(self.tlb_config, f"TLB[{slot}]")
                self.nat_private.append((slot, l1, tlb))
                self.kernels.bind_core(slot, l1, tlb)
        return self.kernels.run(seg_a, seg_b, table_size)

    def check(self, got, want):
        priv, l2, cycles, mc = want
        assert got.priv.tolist() == priv
        assert got.l2.tolist() == l2
        assert got.cycles.tolist() == cycles
        assert got.mc.tolist() == mc
        assert self.nat_sets == self.ref_sets
        # An L2 slice exists iff an L1 miss was homed there.
        assert set(self.nat_l2) == set(self.ref_l2)
        for tile, cache in self.nat_l2.items():
            assert_same_cache(self.ref_l2[tile], cache)
        for slot, l1, tlb in self.nat_private:
            assert_same_cache(self.ref_l1[slot], l1)
            assert_same_tlb(self.ref_tlb[slot], tlb)
        used = {int(self.slot[s]) for s in range(len(self.slot))
                if self.bounds[s + 1] > self.bounds[s]}
        assert {slot for slot, _, _ in self.nat_private} <= used


def epoch_cuts(rng, n_seg, pieces=5):
    cuts = np.sort(rng.choice(np.arange(1, n_seg), size=pieces - 1, replace=False))
    bounds = [0, *cuts.tolist(), n_seg]
    return list(zip(bounds[:-1], bounds[1:]))


class TestEpochKernels:
    def test_epochs_match_scalar_models(self, geometry, tlb_config, rng):
        """Several cores and slices interleaved, zero-event segments,
        non-empty replica sets at the start, two sets in one epoch."""
        sc = EpochScenario(rng, geometry, tlb_config)
        for seg_a, seg_b in epoch_cuts(rng, len(sc.slot)):
            want, _ = sc.reference(seg_a, seg_b)
            sc.check(sc.run(seg_a, seg_b), want)

    def test_minimum_replica_table(self, geometry, rng):
        """A table just larger than the epoch's new replica lines forces
        probe collisions and still dedupes exactly; one slot fewer is
        refused."""
        sc = EpochScenario(rng, geometry, TlbConfig(entries=8),
                           line_span=2 * geometry.n_lines + 8)
        for seg_a, seg_b in epoch_cuts(rng, len(sc.slot), pieces=3):
            want, new_lines = sc.reference(seg_a, seg_b)
            size = 1 << new_lines.bit_length()
            sc.check(sc.run(seg_a, seg_b, table_size=size), want)

    def test_too_small_replica_table_refused(self, rng):
        config = CacheConfig(1024, 2, 64)
        sc = EpochScenario(rng, config, TlbConfig(entries=8),
                           line_span=2 * config.n_lines)
        _, new_lines = sc.reference(0, len(sc.slot))
        assert new_lines >= 2
        with pytest.raises(ValueError, match="replica table"):
            sc.run(0, len(sc.slot), table_size=1 << (new_lines.bit_length() - 1))

    def test_empty_epochs(self, rng):
        """Epochs of zero-event segments touch nothing and count zeros."""
        from repro.arch.native import EpochKernels

        config = CacheConfig(1024, 2, 64)
        created = []
        kernels = EpochKernels(
            seg_bounds=np.zeros(4, dtype=np.int64),
            seg_slot=np.zeros(3, dtype=np.int64),
            seg_group=np.zeros(3, dtype=np.int64),
            seg_rep=np.zeros(3, dtype=np.int64),
            lines=np.empty(0, dtype=np.int64), writes=np.empty(0, dtype=np.int8),
            pages=np.empty(0, dtype=np.int64), homes=np.empty(0, dtype=np.int32),
            mcs=np.empty(0, dtype=np.int32), n_slots=1, l1_config=config,
            tlb_entries=4, l2_config=config, make_l2=created.append,
            dcore=np.zeros((1, 2)), dmc=np.zeros((1, 2, 2)),
            hop2=HOP2, l2_lat=L2_LAT, dram_lat=DRAM_LAT, rep_sets=[{5}],
        )
        got = kernels.run(0, 3)
        assert got.priv.tolist() == [[0, 0, 0]] * 3
        assert got.l2.tolist() == [[0, 0, 0]] * 3
        assert got.cycles.tolist() == [0.0] * 3
        assert got.mc.tolist() == [[0, 0]] * 3
        assert created == []

"""Unit parity of the compiled replay kernels against the scalar models.

The vector engine *is* the native kernels, so every entry point of
:class:`~repro.arch.native.NativeCache`, :func:`multi_slice_flags_wb`
and :class:`~repro.arch.native.NativeTlb` is checked here directly
against the reference :class:`SetAssocCache` / :class:`Tlb` driven one
event at a time: per-event hit and writeback positions, stats, the
incrementally tracked occupancy counters, and the full LRU contents
with dirty flags.  Each check runs over cache geometries from
direct-mapped to single-set fully associative (and TLB capacities from
one entry up), which the hierarchy-level equivalence suite reaches only
for the two fixed L1/L2 shapes of the evaluation machines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cache import SetAssocCache
from repro.arch.native import native_available
from repro.arch.tlb import Tlb
from repro.config import CacheConfig, TlbConfig

pytestmark = pytest.mark.skipif(
    not native_available(), reason="needs native kernels"
)

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

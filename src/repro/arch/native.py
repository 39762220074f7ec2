"""Compiled kernels of the vector replay engine.

The batch replay engine's inner loops — LRU set-associative cache walks
over per-set tag/dirty/age matrices — are branchy and sequential.  When
a C compiler is available this module builds (once, cached under
``.cache/native`` next to the repository sources) a small shared
library with the batch kernels and exposes :class:`NativeCache`, whose
canonical state *is* the NumPy matrices:

``tags``
    ``(n_sets, assoc)`` int64, the resident line id per way (-1 empty).
``dirty``
    ``(n_sets, assoc)`` int8 modified flags.
``age``
    ``(n_sets, assoc)`` int64 recency stamps from a monotonically
    increasing per-cache clock; the eviction victim is the valid way
    with the smallest stamp, which is exactly the tail of the reference
    implementation's MRU-first list.

The kernels implement bit-for-bit the semantics of
:class:`repro.arch.cache.SetAssocCache` (hit/miss, LRU victim choice,
dirty propagation, eviction/writeback counting), which is what the
scalar-vs-vector equivalence suite checks.  They come in four groups:

* per-cache batches — ``l1_filter``/``l1_filter_wb`` (miss positions)
  and ``l2_flags``/``l2_flags_wb`` (hit flags), behind the
  :class:`NativeCache` ``kernel_*`` methods that
  :meth:`~repro.arch.hierarchy.MemoryHierarchy.run_trace` calls on
  long streams;
* ``l2_flags_wb_multi`` (:func:`multi_slice_flags_wb`): one call over a
  slice-sorted stream through many slices, used by the IRONHIDE
  calibration planner;
* ``tlb_misses``/``tlb_flags`` behind :class:`NativeTlb`;
* the batch replayer's kernels: ``first_touch`` (:func:`first_touch`,
  first occurrences in linear time for planning) and the two epoch
  passes ``epoch_private`` and ``epoch_shared``
  (:class:`EpochKernels`), which replay a whole epoch of a schedule —
  every core's TLB and L1, then every L2 slice with replica accounting
  — in trace order.

"Vector engine" means these kernels: if no compiler is present, the
build fails for any reason, or ``REPRO_NO_NATIVE`` is set,
:func:`native_available` returns False and
:class:`repro.arch.hierarchy.MemoryHierarchy` runs the scalar oracle
instead.  The reason is kept retrievable via :func:`build_error` (the
compiler's stderr included) and printed once per process with the
hierarchy's fallback warning.  No third-party packages are involved —
only ``ctypes`` and the system toolchain.

Builds always use ``-Wall -Wextra`` (the kernels are warning-clean and
must stay that way).  Setting ``REPRO_NATIVE_SANITIZE=1`` selects a
hardened build — ``-fsanitize=address,undefined -fno-sanitize-recover
-Werror`` — used by the ``--sanitize`` tier phase to run the whole
equivalence suite over instrumented kernels.  Sanitized and plain
shared objects coexist in the build cache because the compile flags are
folded into the library digest.  Loading an ASan-instrumented library
into a non-ASan interpreter requires the ASan runtime to be preloaded
(``LD_PRELOAD=$(cc -print-file-name=libasan.so)``); without it the
loader would abort the host process, so :func:`load_native` refuses the
attempt and falls back instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.cache import CacheStats, primed_lines_for_set
from repro.config import CacheConfig

_C_SOURCE = r"""
#include <stdint.h>

typedef int64_t i64;
typedef int32_t i32;
typedef int8_t  i8;

/* LRU set-associative cache access over tag/dirty/age matrices.
 * tags[set*assoc + way] == -1 marks an empty way.  On a hit the age is
 * restamped; on a miss the first empty way (or the minimum-age victim)
 * is (re)filled.
 *
 * Every kernel reports stats_out = {evictions, writebacks, n_wb,
 * dirtied}: `dirtied` counts clean->dirty transitions plus dirty
 * fills, so the caller can maintain the cache's dirty-line occupancy
 * incrementally (dirty_delta = dirtied - writebacks) and the purge
 * models never have to scan the matrices.  `n_wb` is only meaningful
 * for the _wb variants (0 otherwise).
 *
 * l1_filter: records the indices of missing events in miss_pos and
 * returns how many there were.
 * l2_flags:  records a 1/0 hit flag per event in flags and returns the
 * number of hits. */

static inline i64 do_access(i64 line, i8 w,
                            i64 *tags, i8 *dirty, i64 *age,
                            i64 *clock, i64 set_mask, i64 assoc,
                            i64 *evictions, i64 *writebacks, i64 *dirtied)
{
    i64 base = (line & set_mask) * assoc;
    i64 hit_way = -1, empty_way = -1;
    for (i64 j = 0; j < assoc; j++) {
        i64 t = tags[base + j];
        if (t == line) { hit_way = j; break; }
        if (t == -1 && empty_way == -1) empty_way = j;
    }
    if (hit_way >= 0) {
        age[base + hit_way] = ++(*clock);
        if (w && !dirty[base + hit_way]) (*dirtied)++;
        dirty[base + hit_way] |= w;
        return 1;
    }
    i64 slot = empty_way;
    if (slot < 0) {
        slot = 0;
        i64 amin = age[base];
        for (i64 j = 1; j < assoc; j++)
            if (age[base + j] < amin) { amin = age[base + j]; slot = j; }
        (*evictions)++;
        if (dirty[base + slot]) (*writebacks)++;
    }
    tags[base + slot] = line;
    dirty[base + slot] = w;
    if (w) (*dirtied)++;
    age[base + slot] = ++(*clock);
    return 0;
}

i64 l1_filter(i64 n, const i64 *lines, const i8 *writes,
              i64 *tags, i8 *dirty, i64 *age, i64 *clock_io,
              i64 set_mask, i64 assoc,
              i64 *miss_pos, i64 *stats_out)
{
    i64 clock = *clock_io, n_miss = 0, evictions = 0, writebacks = 0;
    i64 dirtied = 0;
    for (i64 k = 0; k < n; k++) {
        if (!do_access(lines[k], writes[k], tags, dirty, age, &clock,
                       set_mask, assoc, &evictions, &writebacks, &dirtied))
            miss_pos[n_miss++] = k;
    }
    *clock_io = clock;
    stats_out[0] = evictions;
    stats_out[1] = writebacks;
    stats_out[2] = 0;
    stats_out[3] = dirtied;
    return n_miss;
}

i64 l2_flags(i64 n, const i64 *lines, const i8 *writes,
             i64 *tags, i8 *dirty, i64 *age, i64 *clock_io,
             i64 set_mask, i64 assoc,
             i8 *flags, i64 *stats_out)
{
    i64 clock = *clock_io, hits = 0, evictions = 0, writebacks = 0;
    i64 dirtied = 0;
    for (i64 k = 0; k < n; k++) {
        i64 h = do_access(lines[k], writes[k], tags, dirty, age, &clock,
                          set_mask, assoc, &evictions, &writebacks, &dirtied);
        flags[k] = (i8)h;
        hits += h;
    }
    *clock_io = clock;
    stats_out[0] = evictions;
    stats_out[1] = writebacks;
    stats_out[2] = 0;
    stats_out[3] = dirtied;
    return hits;
}

/* _wb variants: additionally record which events caused a dirty-line
 * writeback (wb_pos, indices into the batch), so a batched replay can
 * attribute writebacks to the segment whose access evicted the line. */

i64 l1_filter_wb(i64 n, const i64 *lines, const i8 *writes,
                 i64 *tags, i8 *dirty, i64 *age, i64 *clock_io,
                 i64 set_mask, i64 assoc,
                 i64 *miss_pos, i64 *wb_pos, i64 *stats_out)
{
    i64 clock = *clock_io, n_miss = 0, n_wb = 0, evictions = 0, writebacks = 0;
    i64 dirtied = 0;
    for (i64 k = 0; k < n; k++) {
        i64 wb_before = writebacks;
        if (!do_access(lines[k], writes[k], tags, dirty, age, &clock,
                       set_mask, assoc, &evictions, &writebacks, &dirtied))
            miss_pos[n_miss++] = k;
        if (writebacks != wb_before)
            wb_pos[n_wb++] = k;
    }
    *clock_io = clock;
    stats_out[0] = evictions;
    stats_out[1] = writebacks;
    stats_out[2] = n_wb;
    stats_out[3] = dirtied;
    return n_miss;
}

i64 l2_flags_wb(i64 n, const i64 *lines, const i8 *writes,
                i64 *tags, i8 *dirty, i64 *age, i64 *clock_io,
                i64 set_mask, i64 assoc,
                i8 *flags, i64 *wb_pos, i64 *stats_out)
{
    i64 clock = *clock_io, hits = 0, n_wb = 0, evictions = 0, writebacks = 0;
    i64 dirtied = 0;
    for (i64 k = 0; k < n; k++) {
        i64 wb_before = writebacks;
        i64 h = do_access(lines[k], writes[k], tags, dirty, age, &clock,
                          set_mask, assoc, &evictions, &writebacks, &dirtied);
        flags[k] = (i8)h;
        hits += h;
        if (writebacks != wb_before)
            wb_pos[n_wb++] = k;
    }
    *clock_io = clock;
    stats_out[0] = evictions;
    stats_out[1] = writebacks;
    stats_out[2] = n_wb;
    stats_out[3] = dirtied;
    return hits;
}

/* Multi-slice variant: one call services the whole home-sorted miss
 * stream of an epoch.  Part p covers stream positions
 * [bounds[p], bounds[p+1]) and replays through the slice whose state
 * buffers are at tags_ptrs[p]/dirty_ptrs[p]/age_ptrs[p]/clock_ptrs[p]
 * (raw addresses, one entry per part).  Per part, stats4[4p..4p+3] =
 * {evictions, writebacks, hits, dirtied}; wb_pos collects the
 * positions (into the sorted stream) of dirty-line writebacks across
 * all parts; returns their count.  Bit-identical to one l2_flags_wb
 * call per part. */

i64 l2_flags_wb_multi(i64 n_parts, const i64 *bounds,
                      const i64 *tags_ptrs, const i64 *dirty_ptrs,
                      const i64 *age_ptrs, const i64 *clock_ptrs,
                      const i64 *lines, const i8 *writes,
                      i64 set_mask, i64 assoc,
                      i8 *flags, i64 *wb_pos, i64 *stats4)
{
    i64 total_wb = 0;
    for (i64 p = 0; p < n_parts; p++) {
        i64 *tags = (i64 *)tags_ptrs[p];
        i8  *dirty = (i8 *)dirty_ptrs[p];
        i64 *age = (i64 *)age_ptrs[p];
        i64 *clock_io = (i64 *)clock_ptrs[p];
        i64 clock = *clock_io;
        i64 hits = 0, evictions = 0, writebacks = 0, dirtied = 0;
        for (i64 k = bounds[p]; k < bounds[p + 1]; k++) {
            i64 wb_before = writebacks;
            i64 h = do_access(lines[k], writes[k], tags, dirty, age, &clock,
                              set_mask, assoc, &evictions, &writebacks,
                              &dirtied);
            flags[k] = (i8)h;
            hits += h;
            if (writebacks != wb_before)
                wb_pos[total_wb++] = k;
        }
        *clock_io = clock;
        stats4[4 * p + 0] = evictions;
        stats4[4 * p + 1] = writebacks;
        stats4[4 * p + 2] = hits;
        stats4[4 * p + 3] = dirtied;
    }
    return total_wb;
}

/* Fully-associative LRU TLB over page-change events.  entries/age are
 * capacity-sized arrays (-1 = empty).  Returns the number of misses.
 * The _flags variant also writes a per-event 1/0 miss flag. */
static inline i64 tlb_one(i64 page, i64 *entries, i64 *age,
                          i64 *clock, i64 capacity)
{
    i64 hit = -1, empty = -1;
    for (i64 j = 0; j < capacity; j++) {
        i64 t = entries[j];
        if (t == page) { hit = j; break; }
        if (t == -1 && empty == -1) empty = j;
    }
    if (hit >= 0) {
        age[hit] = ++(*clock);
        return 0;
    }
    i64 slot = empty;
    if (slot < 0) {
        slot = 0;
        i64 amin = age[0];
        for (i64 j = 1; j < capacity; j++)
            if (age[j] < amin) { amin = age[j]; slot = j; }
    }
    entries[slot] = page;
    age[slot] = ++(*clock);
    return 1;
}

i64 tlb_misses(i64 n, const i64 *pages,
               i64 *entries, i64 *age, i64 *clock_io, i64 capacity)
{
    i64 clock = *clock_io, misses = 0;
    for (i64 k = 0; k < n; k++)
        misses += tlb_one(pages[k], entries, age, &clock, capacity);
    *clock_io = clock;
    return misses;
}

i64 tlb_flags(i64 n, const i64 *pages,
              i64 *entries, i64 *age, i64 *clock_io, i64 capacity,
              i8 *miss_flags)
{
    i64 clock = *clock_io, misses = 0;
    for (i64 k = 0; k < n; k++) {
        i64 m = tlb_one(pages[k], entries, age, &clock, capacity);
        miss_flags[k] = (i8)m;
        misses += m;
    }
    *clock_io = clock;
    return misses;
}

/* Home slot of a key in an open-addressing table of table_mask + 1
 * slots (a power of two); salt separates keys of different sets. */
static inline i64 hash_slot(i64 key, i64 salt, i64 table_mask)
{
    uint64_t x = (uint64_t)key * 0x9E3779B97F4A7C15ull
                 ^ (uint64_t)salt * 0xC2B2AE3D27D4EB4Full;
    x ^= x >> 29;
    return (i64)(x & (uint64_t)table_mask);
}

/* first_touch: the distinct values of pages[0..n) in order of first
 * occurrence, in one linear pass.  Writes them to uniq, the position of
 * each one's first occurrence to first_pos and, for every k, the index
 * into uniq of pages[k] to inverse; returns the number of distinct
 * values.  The open-addressing table (table_mask + 1 slots of uniq
 * indices, initialised here) is the caller's; the kernel returns -1
 * instead of filling it past half, and the caller retries larger. */

i64 first_touch(i64 n, const i64 *pages, i64 table_mask, i64 *table,
                i64 *uniq, i64 *first_pos, i64 *inverse)
{
    for (i64 i = 0; i <= table_mask; i++) table[i] = -1;
    i64 n_uniq = 0, prev_idx = -1;
    for (i64 k = 0; k < n; k++) {
        i64 p = pages[k];
        if (prev_idx >= 0 && uniq[prev_idx] == p) {
            inverse[k] = prev_idx;
            continue;
        }
        i64 i = hash_slot(p, 0, table_mask);
        while (table[i] != -1 && uniq[table[i]] != p)
            i = (i + 1) & table_mask;
        if (table[i] == -1) {
            if (2 * (n_uniq + 1) > table_mask + 1) return -1;
            table[i] = n_uniq;
            uniq[n_uniq] = p;
            first_pos[n_uniq] = k;
            n_uniq++;
        }
        prev_idx = table[i];
        inverse[k] = prev_idx;
    }
    return n_uniq;
}

/* Batch-replay epoch kernels.  An epoch is n_seg consecutive segments
 * of a planned schedule; segment s owns the schedule's events
 * [seg_bounds[s], seg_bounds[s+1]) (absolute indices, so the event
 * arrays are passed whole).  Cache state is reached through pointer
 * tables of raw addresses: l1_ptrs[4*slot .. 4*slot+3] = {tags, dirty,
 * age, clock} of a core slot's L1, tlb_ptrs[3*slot .. 3*slot+2] =
 * {entries, age, clock} of its TLB, and l2_ptrs[4*tile ..] likewise for
 * each L2 slice (0 = slice not created yet).
 *
 * epoch_private: every event through its segment's core TLB (on page
 * changes, reset at segment starts) and L1, in trace order.  Records
 * the schedule positions of L1 misses in miss_pos (returns their
 * count), flags need_l2[home] for each missing event homed in a slice
 * without a table entry, and accumulates per segment seg_priv[3*s + k]
 * = {tlb misses, L1 misses, L1 writebacks} and per core slot
 * core_out[7*slot + k] = {accesses, misses, evictions, writebacks,
 * dirtied, tlb lookups, tlb misses}. */

i64 epoch_private(i64 n_seg, const i64 *seg_bounds, const i64 *seg_slot,
                  const i64 *lines, const i8 *writes, const i64 *pages,
                  const i32 *homes,
                  const i64 *l1_ptrs, const i64 *tlb_ptrs, const i64 *l2_ptrs,
                  i64 set_mask, i64 assoc, i64 tlb_capacity,
                  i64 *miss_pos, i8 *need_l2, i64 *seg_priv, i64 *core_out)
{
    i64 n_miss = 0;
    for (i64 s = 0; s < n_seg; s++) {
        i64 a = seg_bounds[s], b = seg_bounds[s + 1];
        i64 tlb_miss = 0, lookups = 0, l1_miss = 0, l1_wb = 0;
        i64 evictions = 0, writebacks = 0, dirtied = 0;
        if (a < b) {
            i64 slot = seg_slot[s];
            i64 *tags = (i64 *)l1_ptrs[4 * slot + 0];
            i8  *dirty = (i8 *)l1_ptrs[4 * slot + 1];
            i64 *age = (i64 *)l1_ptrs[4 * slot + 2];
            i64 *clock_io = (i64 *)l1_ptrs[4 * slot + 3];
            i64 *t_entries = (i64 *)tlb_ptrs[3 * slot + 0];
            i64 *t_age = (i64 *)tlb_ptrs[3 * slot + 1];
            i64 *t_clock_io = (i64 *)tlb_ptrs[3 * slot + 2];
            i64 clock = *clock_io, t_clock = *t_clock_io;
            for (i64 k = a; k < b; k++) {
                if (k == a || pages[k] != pages[k - 1]) {
                    lookups++;
                    tlb_miss += tlb_one(pages[k], t_entries, t_age, &t_clock,
                                        tlb_capacity);
                }
                i64 wb_before = writebacks;
                if (!do_access(lines[k], writes[k], tags, dirty, age, &clock,
                               set_mask, assoc, &evictions, &writebacks,
                               &dirtied)) {
                    miss_pos[n_miss++] = k;
                    l1_miss++;
                    if (!l2_ptrs[4 * (i64)homes[k]]) need_l2[homes[k]] = 1;
                }
                if (writebacks != wb_before) l1_wb++;
            }
            *clock_io = clock;
            *t_clock_io = t_clock;
            core_out[7 * slot + 0] += b - a;
            core_out[7 * slot + 1] += l1_miss;
            core_out[7 * slot + 2] += evictions;
            core_out[7 * slot + 3] += writebacks;
            core_out[7 * slot + 4] += dirtied;
            core_out[7 * slot + 5] += lookups;
            core_out[7 * slot + 6] += tlb_miss;
        }
        seg_priv[3 * s + 0] = tlb_miss;
        seg_priv[3 * s + 1] = l1_miss;
        seg_priv[3 * s + 2] = l1_wb;
    }
    return n_miss;
}

/* epoch_shared: the L1 misses (miss_pos, ascending) through their home
 * L2 slices in trace order.  Per segment accumulates seg_l2[3*s + k] =
 * {L2 hits, L2 misses, L2 writebacks}, seg_cycles[s] (the L2/DRAM part
 * of mem_cycles; every term is a dyadic rational, so the sum is exact
 * in any order) and seg_mc[n_mc*s + mc] (DRAM requests per
 * controller); per slice slice_out[5*tile + k] = {accesses, hits,
 * evictions, writebacks, dirtied}.  Request legs read the segment's
 * context group tables: dcore[g*n_tiles + home] hops to the home slice,
 * dmc[(g*n_tiles + home)*n_mc + mc] hops on to the controller.
 *
 * Replica accounting for segments with seg_rep[s] >= 0: an L2 hit on a
 * line neither flagged in already[m] (already in the replica set at
 * epoch start; NULL = none is) nor seen earlier in this epoch pays the
 * home round trip and becomes a new line (new_lines/new_reps); any
 * other hit pays hop2 + l2_lat.  New lines are deduped in an
 * open-addressing table over (replica set, line) keys (table_lines[i]
 * == -1 marks an empty slot; initialised here).  Its capacity,
 * table_mask + 1, is the caller's and must exceed the number of new
 * lines, since one slot has to stay empty for a probe to end.  Returns
 * the number of new lines, or -1 if they would overflow the table. */

i64 epoch_shared(i64 n_seg, const i64 *seg_bounds, const i64 *seg_group,
                 const i64 *seg_rep,
                 i64 n_miss, const i64 *miss_pos, const i8 *already,
                 const i64 *lines, const i8 *writes, const i32 *homes,
                 const i32 *mcs,
                 const i64 *l2_ptrs, i64 set_mask, i64 assoc,
                 i64 n_tiles, i64 n_mc, const double *dcore,
                 const double *dmc,
                 double hop2, double l2_lat, double dram_lat,
                 i64 table_mask, i64 *table_lines, i64 *table_reps,
                 i64 *new_lines, i64 *new_reps,
                 i64 *seg_l2, double *seg_cycles, i64 *seg_mc,
                 i64 *slice_out)
{
    if (table_lines)
        for (i64 i = 0; i <= table_mask; i++) table_lines[i] = -1;
    double replica_cost = hop2 + l2_lat;
    i64 n_new = 0, s = 0;
    for (i64 m = 0; m < n_miss; m++) {
        i64 k = miss_pos[m];
        while (s + 1 < n_seg && k >= seg_bounds[s + 1]) s++;
        i64 home = homes[k], line = lines[k];
        i64 *tags = (i64 *)l2_ptrs[4 * home + 0];
        i8  *dirty = (i8 *)l2_ptrs[4 * home + 1];
        i64 *age = (i64 *)l2_ptrs[4 * home + 2];
        i64 *clock_io = (i64 *)l2_ptrs[4 * home + 3];
        i64 evictions = 0, writebacks = 0, dirtied = 0;
        i64 h = do_access(line, writes[k], tags, dirty, age, clock_io,
                          set_mask, assoc, &evictions, &writebacks, &dirtied);
        slice_out[5 * home + 0] += 1;
        slice_out[5 * home + 1] += h;
        slice_out[5 * home + 2] += evictions;
        slice_out[5 * home + 3] += writebacks;
        slice_out[5 * home + 4] += dirtied;
        seg_l2[3 * s + 2] += writebacks;
        i64 g = seg_group[s];
        double base = hop2 * dcore[g * n_tiles + home] + l2_lat;
        if (h) {
            seg_l2[3 * s + 0] += 1;
            i64 rep = seg_rep[s];
            double cost = base;
            if (rep >= 0) {
                if (already && already[m]) {
                    cost = replica_cost;
                } else {
                    i64 i = hash_slot(line, rep, table_mask);
                    while (table_lines[i] != -1
                           && !(table_lines[i] == line && table_reps[i] == rep))
                        i = (i + 1) & table_mask;
                    if (table_lines[i] != -1) {
                        cost = replica_cost;
                    } else {
                        if (n_new >= table_mask) return -1;
                        table_lines[i] = line;
                        table_reps[i] = rep;
                        new_lines[n_new] = line;
                        new_reps[n_new] = rep;
                        n_new++;
                    }
                }
            }
            seg_cycles[s] += cost;
        } else {
            i64 mc = mcs[k];
            seg_l2[3 * s + 1] += 1;
            seg_cycles[s] += base + hop2 * dmc[(g * n_tiles + home) * n_mc + mc]
                             + dram_lat;
            seg_mc[n_mc * s + mc] += 1;
        }
    }
    return n_new;
}
"""

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_build_error: Optional[str] = None


def sanitize_requested() -> bool:
    """True when ``REPRO_NATIVE_SANITIZE`` selects the hardened build."""
    return os.environ.get("REPRO_NATIVE_SANITIZE", "") not in ("", "0")


def compile_flags() -> List[str]:
    """Compiler flags for the current build mode.

    ``-Wall -Wextra`` always; the sanitize mode adds ASan+UBSan with
    ``-fno-sanitize-recover=all`` (any report is fatal, so the
    equivalence suite cannot pass over a corrupting kernel) and
    promotes warnings to errors.
    """
    flags = ["-O2", "-shared", "-fPIC", "-Wall", "-Wextra"]
    if sanitize_requested():
        flags += [
            "-g", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all", "-Werror",
        ]
    return flags


def _asan_preloaded() -> bool:
    """True when the ASan runtime is already in the process image."""
    return "asan" in os.environ.get("LD_PRELOAD", "")


def _build_dir() -> str:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    return os.path.join(root, ".cache", "native")


def _load() -> Optional[ctypes.CDLL]:
    flags = compile_flags()
    # The flags are part of the digest so plain and sanitized builds
    # coexist in the cache instead of fighting over one filename.
    digest = hashlib.sha1(
        (" ".join(flags) + "\n" + _C_SOURCE).encode()
    ).hexdigest()[:16]
    build_dir = _build_dir()
    lib_path = os.path.join(build_dir, f"replaykernels_{digest}.so")
    if not os.path.exists(lib_path):
        os.makedirs(build_dir, exist_ok=True)
        src_path = os.path.join(build_dir, f"replaykernels_{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        fd, tmp = tempfile.mkstemp(dir=build_dir, suffix=".so")
        os.close(fd)
        try:
            cmd = ["cc", *flags, "-o", tmp, src_path]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"kernel build failed (rc {proc.returncode}): "
                    f"{' '.join(cmd)}\n{proc.stderr.strip()}"
                )
            os.replace(tmp, lib_path)  # atomic: parallel workers may race
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    if sanitize_requested() and not _asan_preloaded():
        # dlopening an ASan library without the runtime preloaded
        # aborts the interpreter outright — refuse and fall back.
        raise RuntimeError(
            "REPRO_NATIVE_SANITIZE=1 needs the ASan runtime preloaded: "
            "rerun under LD_PRELOAD=$(cc -print-file-name=libasan.so)"
        )
    lib = ctypes.CDLL(lib_path)
    # All pointers are passed as raw addresses (ndarray.ctypes.data);
    # c_void_p argtypes keep the per-call marshalling cost negligible.
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    for fn in (lib.l1_filter, lib.l2_flags):
        fn.restype = i64
        fn.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr]
    for fn in (lib.l1_filter_wb, lib.l2_flags_wb):
        fn.restype = i64
        fn.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr, ptr]
    lib.l2_flags_wb_multi.restype = i64
    lib.l2_flags_wb_multi.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr, ptr
    ]
    lib.tlb_misses.restype = i64
    lib.tlb_misses.argtypes = [i64, ptr, ptr, ptr, ptr, i64]
    lib.tlb_flags.restype = i64
    lib.tlb_flags.argtypes = [i64, ptr, ptr, ptr, ptr, i64, ptr]
    lib.first_touch.restype = i64
    lib.first_touch.argtypes = [i64, ptr, i64, ptr, ptr, ptr, ptr]
    f64 = ctypes.c_double
    lib.epoch_private.restype = i64
    lib.epoch_private.argtypes = [
        i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, i64,
        ptr, ptr, ptr, ptr,
    ]
    lib.epoch_shared.restype = i64
    lib.epoch_shared.argtypes = [
        i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64,
        i64, i64, ptr, ptr, f64, f64, f64, i64, ptr, ptr, ptr, ptr,
        ptr, ptr, ptr, ptr,
    ]
    return lib


def native_available() -> bool:
    """True if the compiled kernels could be built and loaded."""
    return load_native() is not None


def build_error() -> Optional[str]:
    """Why the native build/load fell back (None when it succeeded)."""
    return _build_error


def load_native() -> Optional[ctypes.CDLL]:
    """Build/load the kernel library; returns None when impossible.

    A failed build or load is remembered in :func:`build_error` (full
    compiler diagnostics included); the hierarchy then runs the scalar
    oracle and reports the reason once on stderr.
    """
    global _lib, _load_attempted, _build_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    try:
        _lib = _load()
    except Exception as exc:
        _build_error = str(exc)
        _lib = None
    return _lib


class NativeCache:
    """Matrix-backed LRU cache serviced by the compiled batch kernels.

    API-compatible with :class:`repro.arch.cache.SetAssocCache`, plus
    the ``kernel_*`` batch entry points; see the module docstring for
    the state layout.
    """

    def __init__(self, config: CacheConfig, name: str = "ncache"):
        lib = load_native()
        if lib is None:  # pragma: no cover - guarded by factory
            raise RuntimeError("native kernels unavailable")
        self._lib = lib
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.assoc = config.associativity
        self._set_mask = self.n_sets - 1
        self.tags = np.full(self.n_sets * self.assoc, -1, dtype=np.int64)
        self.dirty = np.zeros(self.n_sets * self.assoc, dtype=np.int8)
        self.age = np.zeros(self.n_sets * self.assoc, dtype=np.int64)
        self._clock = np.zeros(1, dtype=np.int64)
        # {evictions, writebacks, n_wb, dirtied} as reported per batch.
        self._stats_out = np.zeros(4, dtype=np.int64)
        # Occupancy counters, maintained from the kernels' stats so the
        # purge models never scan the matrices.
        self._valid_count = 0
        self._dirty_count = 0
        self.stats = CacheStats()
        # The state buffers are never reallocated (fill() mutates in
        # place), so their raw addresses can be cached once.
        self._state_ptrs = (
            self.tags.ctypes.data, self.dirty.ctypes.data,
            self.age.ctypes.data, self._clock.ctypes.data,
        )
        self._stats_ptr = self._stats_out.ctypes.data
        # Reusable single-event buffers for the scalar access() path,
        # with their raw addresses cached like the state buffers'.
        self._one_line = np.zeros(1, dtype=np.int64)
        self._one_write = np.zeros(1, dtype=np.int8)
        self._one_out = np.zeros(1, dtype=np.int64)
        self._one_ptrs = (
            self._one_line.ctypes.data, self._one_write.ctypes.data,
            self._one_out.ctypes.data,
        )

    # ------------------------------------------------------------------
    # Batch kernels
    # ------------------------------------------------------------------
    def kernel_filter_misses(self, lines: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Access a batch; returns the positions (into the batch) that missed."""
        n = len(lines)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.int8)
        miss_pos = np.empty(n, dtype=np.int64)
        n_miss = self._lib.l1_filter(
            n, lines.ctypes.data, writes.ctypes.data,
            *self._state_ptrs, self._set_mask, self.assoc,
            miss_pos.ctypes.data, self._stats_ptr,
        )
        self._fold_batch_stats(n, n - n_miss)
        return miss_pos[:n_miss]

    def kernel_hit_flags(self, lines: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Access a batch; returns a 1/0 hit flag per event."""
        n = len(lines)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.int8)
        flags = np.empty(n, dtype=np.int8)
        hits = self._lib.l2_flags(
            n, lines.ctypes.data, writes.ctypes.data,
            *self._state_ptrs, self._set_mask, self.assoc,
            flags.ctypes.data, self._stats_ptr,
        )
        self._fold_batch_stats(n, hits)
        return flags

    def _fold_batch_stats(self, n: int, hits: int) -> None:
        """Fold one kernel call over ``n`` events into stats + occupancy
        (see :func:`_fold_stats`), reading its ``stats_out``."""
        out = self._stats_out
        _fold_stats(self, n, hits, int(out[0]), int(out[1]), int(out[3]))

    def kernel_filter_misses_wb(
        self, lines: np.ndarray, writes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`kernel_filter_misses`, also returning the positions
        of events that caused a dirty-line writeback."""
        n = len(lines)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.int8)
        miss_pos = np.empty(n, dtype=np.int64)
        wb_pos = np.empty(n, dtype=np.int64)
        n_miss = self._lib.l1_filter_wb(
            n, lines.ctypes.data, writes.ctypes.data,
            *self._state_ptrs, self._set_mask, self.assoc,
            miss_pos.ctypes.data, wb_pos.ctypes.data, self._stats_ptr,
        )
        self._fold_batch_stats(n, n - n_miss)
        return miss_pos[:n_miss], wb_pos[: int(self._stats_out[2])]

    def kernel_hit_flags_wb(
        self, lines: np.ndarray, writes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`kernel_hit_flags`, also returning writeback positions."""
        n = len(lines)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=np.int8)
        flags = np.empty(n, dtype=np.int8)
        wb_pos = np.empty(n, dtype=np.int64)
        hits = self._lib.l2_flags_wb(
            n, lines.ctypes.data, writes.ctypes.data,
            *self._state_ptrs, self._set_mask, self.assoc,
            flags.ctypes.data, wb_pos.ctypes.data, self._stats_ptr,
        )
        self._fold_batch_stats(n, hits)
        return flags, wb_pos[: int(self._stats_out[2])]

    # ------------------------------------------------------------------
    # SetAssocCache-compatible scalar API
    # ------------------------------------------------------------------
    def access(self, line_id: int, is_write: bool) -> bool:
        self._one_line[0] = line_id
        self._one_write[0] = 1 if is_write else 0
        line_ptr, write_ptr, out_ptr = self._one_ptrs
        n_miss = self._lib.l1_filter(
            1, line_ptr, write_ptr, *self._state_ptrs, self._set_mask,
            self.assoc, out_ptr, self._stats_ptr,
        )
        self._fold_batch_stats(1, 1 - n_miss)
        return n_miss == 0

    def touch_many(self, line_ids, writes) -> int:
        lines = np.asarray(list(line_ids), dtype=np.int64)
        w = np.asarray(list(writes), dtype=np.int8)
        return len(self.kernel_filter_misses(lines, w))

    def _row(self, set_index: int) -> slice:
        base = set_index * self.assoc
        return slice(base, base + self.assoc)

    def contains(self, line_id: int) -> bool:
        return bool((self.tags[self._row(line_id & self._set_mask)] == line_id).any())

    def probe_latency_class(self, line_id: int) -> bool:
        return self.contains(line_id)

    @property
    def valid_lines(self) -> int:
        """Resident line count (incrementally tracked, O(1))."""
        return self._valid_count

    @property
    def dirty_lines(self) -> int:
        """Modified-line count (incrementally tracked, O(1))."""
        return self._dirty_count

    def resident_lines(self) -> List[int]:
        """All line ids currently cached, per set MRU-first."""
        out: List[int] = []
        for s in range(self.n_sets):
            out.extend(tag for tag, _ in self.set_entries(s))
        return out

    def invalidate_all(self) -> Tuple[int, int]:
        """Flush-and-invalidate; returns (valid, dirty) line counts.

        Counts come from the occupancy counters; an already-empty cache
        skips the matrix resets entirely.
        """
        valid = self._valid_count
        dirty = self._dirty_count
        if valid:
            self.tags.fill(-1)
            self.dirty.fill(0)
            self.age.fill(0)
        self._valid_count = 0
        self._dirty_count = 0
        self.stats.invalidations += valid
        self.stats.flushes += 1
        self.stats.writebacks += dirty
        return valid, dirty

    def clean_all(self) -> int:
        """Write back all dirty lines without invalidating; returns count.

        A clean cache returns immediately off the occupancy counter.
        """
        dirty = self._dirty_count
        if dirty:
            self.dirty.fill(0)
            self._dirty_count = 0
        self.stats.writebacks += dirty
        return dirty

    def evict_line(self, line_id: int) -> bool:
        row = self._row(line_id & self._set_mask)
        ways = np.nonzero(self.tags[row] == line_id)[0]
        if not len(ways):
            return False
        way = (line_id & self._set_mask) * self.assoc + int(ways[0])
        if self.dirty[way]:
            self.stats.writebacks += 1
            self._dirty_count -= 1
        self.tags[way] = -1
        self.dirty[way] = 0
        self.age[way] = 0
        self.stats.evictions += 1
        self._valid_count -= 1
        return True

    def evict_line_range(self, base_line: int, count: int) -> int:
        """Evict every resident line in ``[base_line, base_line+count)``.

        Vectorized over the range's sets — one gather/compare instead
        of a Python loop with one :meth:`evict_line` lookup per line;
        identical stats, occupancy and final contents.  Used by the
        page re-homing / migration path (one frame per call).
        """
        if self._valid_count == 0:
            return 0
        lines = np.arange(base_line, base_line + count, dtype=np.int64)
        sets = lines & self._set_mask
        flat = (sets * self.assoc)[:, None] + np.arange(self.assoc)
        hit = self.tags[flat] == lines[:, None]
        idx = flat[hit]
        evicted = int(len(idx))
        if not evicted:
            return 0
        wbs = int(np.count_nonzero(self.dirty[idx]))
        self.tags[idx] = -1
        self.dirty[idx] = 0
        self.age[idx] = 0
        self.stats.evictions += evicted
        self.stats.writebacks += wbs
        self._valid_count -= evicted
        self._dirty_count -= wbs
        return evicted

    def fill_set(self, set_index: int, tag_base: int) -> List[int]:
        primed = primed_lines_for_set(self.n_sets, self.assoc, set_index, tag_base)
        for line_id in primed:
            self.access(line_id, False)
        return primed

    # ------------------------------------------------------------------
    # Matrix exports / equivalence helpers
    # ------------------------------------------------------------------
    def tag_matrix(self) -> np.ndarray:
        return self.tags.reshape(self.n_sets, self.assoc).copy()

    def dirty_matrix(self) -> np.ndarray:
        return self.dirty.reshape(self.n_sets, self.assoc).astype(np.int64)

    def age_matrix(self) -> np.ndarray:
        return self.age.reshape(self.n_sets, self.assoc).copy()

    def set_entries(self, set_index: int) -> List[List[int]]:
        """Set contents as ``[tag, dirty]`` pairs, MRU-first."""
        row = self._row(set_index)
        tags = self.tags[row]
        valid = np.nonzero(tags != -1)[0]
        order = valid[np.argsort(-self.age[row][valid], kind="stable")]
        base = set_index * self.assoc
        return [
            [int(self.tags[base + w]), int(self.dirty[base + w])] for w in order
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NativeCache({self.name}, {self.config.size_bytes}B, "
            f"{self.assoc}-way, {self.valid_lines} valid)"
        )


def multi_slice_flags_wb(
    caches: list,
    bounds: "list[int]",
    lines_sorted: np.ndarray,
    writes_sorted: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``l2_flags_wb_multi`` kernel call over a home-sorted stream.

    ``caches[p]`` services stream positions ``[bounds[p], bounds[p+1])``
    (all caches must share one geometry).  Folds each part's stats and
    occupancy deltas into its cache — bit-identical to one
    ``kernel_hit_flags_wb`` call per part — and returns
    ``(hit_flags, wb_positions, stats4)``, the last being the raw
    per-part ``{evictions, writebacks, hits, dirtied}`` counters for
    callers that aggregate per-window numbers themselves.  The
    calibration planner replays its probe windows through it.
    """
    n = len(lines_sorted)
    n_parts = len(caches)
    first = caches[0]
    ptrs = [c._state_ptrs for c in caches]
    tags_ptrs = np.fromiter((p[0] for p in ptrs), dtype=np.int64, count=n_parts)
    dirty_ptrs = np.fromiter((p[1] for p in ptrs), dtype=np.int64, count=n_parts)
    age_ptrs = np.fromiter((p[2] for p in ptrs), dtype=np.int64, count=n_parts)
    clock_ptrs = np.fromiter((p[3] for p in ptrs), dtype=np.int64, count=n_parts)
    bounds_arr = np.asarray(bounds, dtype=np.int64)
    lines_sorted = np.ascontiguousarray(lines_sorted, dtype=np.int64)
    writes_sorted = np.ascontiguousarray(writes_sorted, dtype=np.int8)
    flags = np.empty(n, dtype=np.int8)
    wb_pos = np.empty(n, dtype=np.int64)
    stats4 = np.empty(4 * n_parts, dtype=np.int64)
    n_wb = first._lib.l2_flags_wb_multi(
        n_parts, bounds_arr.ctypes.data,
        tags_ptrs.ctypes.data, dirty_ptrs.ctypes.data,
        age_ptrs.ctypes.data, clock_ptrs.ctypes.data,
        lines_sorted.ctypes.data, writes_sorted.ctypes.data,
        first._set_mask, first.assoc,
        flags.ctypes.data, wb_pos.ctypes.data, stats4.ctypes.data,
    )
    sizes = np.diff(bounds_arr).tolist()
    for cache, n_p, (evictions, writebacks, hits, dirtied) in zip(
        caches, sizes, stats4.reshape(-1, 4).tolist()
    ):
        _fold_stats(cache, n_p, hits, evictions, writebacks, dirtied)
    return flags, wb_pos[:n_wb], stats4


class NativeTlb:
    """Matrix-backed fully-associative LRU TLB (compiled kernel).

    Mirrors :class:`repro.arch.tlb.Tlb` — same hit/miss behaviour, same
    stats — with entry/age arrays instead of an OrderedDict so the batch
    replay path can classify a whole page-change stream in one call.
    """

    def __init__(self, config, name: str = "ntlb"):
        from repro.arch.tlb import TlbStats

        lib = load_native()
        if lib is None:  # pragma: no cover - guarded by factory
            raise RuntimeError("native kernels unavailable")
        self._lib = lib
        self.config = config
        self.name = name
        self.entries = np.full(config.entries, -1, dtype=np.int64)
        self.age = np.zeros(config.entries, dtype=np.int64)
        self._clock = np.zeros(1, dtype=np.int64)
        self._ptrs = (
            self.entries.ctypes.data, self.age.ctypes.data,
            self._clock.ctypes.data,
        )
        self._one = np.zeros(1, dtype=np.int64)
        self._one_ptr = self._one.ctypes.data
        self.stats = TlbStats()

    def access_batch(self, vpages: np.ndarray) -> int:
        """Look up a batch of pages; returns the number of misses."""
        vpages = np.ascontiguousarray(vpages, dtype=np.int64)
        n = len(vpages)
        misses = self._lib.tlb_misses(
            n, vpages.ctypes.data, *self._ptrs, self.config.entries
        )
        self.stats.hits += n - misses
        self.stats.misses += misses
        return misses

    def access_batch_flags(self, vpages: np.ndarray) -> np.ndarray:
        """Look up a batch of pages; returns a per-event 1/0 miss flag."""
        vpages = np.ascontiguousarray(vpages, dtype=np.int64)
        n = len(vpages)
        flags = np.empty(n, dtype=np.int8)
        misses = self._lib.tlb_flags(
            n, vpages.ctypes.data, *self._ptrs, self.config.entries,
            flags.ctypes.data,
        )
        self.stats.hits += n - misses
        self.stats.misses += misses
        return flags

    def access(self, vpage: int) -> bool:
        """Look up a virtual page; returns True on hit."""
        self._one[0] = vpage
        misses = self._lib.tlb_misses(
            1, self._one_ptr, *self._ptrs, self.config.entries
        )
        self.stats.hits += 1 - misses
        self.stats.misses += misses
        return misses == 0

    def invalidate_all(self) -> int:
        """Flush the TLB; returns the number of entries dropped."""
        dropped = int((self.entries != -1).sum())
        self.entries.fill(-1)
        self.age.fill(0)
        self.stats.flushes += 1
        return dropped

    def invalidate_page(self, vpage: int) -> bool:
        """Drop one translation (page re-homing support)."""
        idx = np.nonzero(self.entries == vpage)[0]
        if not len(idx):
            return False
        self.entries[idx[0]] = -1
        self.age[idx[0]] = 0
        return True

    def lru_entries(self) -> List[int]:
        """Resident pages ordered least- to most-recently used."""
        valid = np.nonzero(self.entries != -1)[0]
        order = valid[np.argsort(self.age[valid], kind="stable")]
        return [int(p) for p in self.entries[order]]

    @property
    def occupancy(self) -> int:
        return int((self.entries != -1).sum())

    def __contains__(self, vpage: int) -> bool:
        return bool((self.entries == vpage).any())


def first_touch(
    pages: np.ndarray, table_size: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values in order of first occurrence, in linear time.

    Returns ``(uniq, first_pos, inverse)``: ``pages[first_pos] == uniq``
    and ``uniq[inverse] == pages``.  The hash table starts at
    ``table_size`` slots (a power of two; default sized from ``n``) and
    doubles whenever the kernel reports it half full.
    """
    pages = np.ascontiguousarray(pages, dtype=np.int64)
    n = len(pages)
    if table_size is None:
        table_size = 1 << (n // 8 + 16).bit_length()
    uniq = np.empty(n, dtype=np.int64)
    first_pos = np.empty(n, dtype=np.int64)
    inverse = np.empty(n, dtype=np.int64)
    lib = load_native()
    while True:
        table = np.empty(table_size, dtype=np.int64)
        n_uniq = lib.first_touch(
            n, pages.ctypes.data, table_size - 1, table.ctypes.data,
            uniq.ctypes.data, first_pos.ctypes.data, inverse.ctypes.data,
        )
        if n_uniq >= 0:
            return uniq[:n_uniq], first_pos[:n_uniq], inverse
        table_size *= 2


class EpochCounters(NamedTuple):
    """Per-segment counters of one :meth:`EpochKernels.run` call.

    ``priv[s]`` = (TLB misses, L1 misses, L1 writebacks), ``l2[s]`` =
    (L2 hits, L2 misses, L2 writebacks), ``cycles[s]`` the L2/DRAM part
    of ``mem_cycles`` (TLB walks excluded) and ``mc[s][c]`` the DRAM
    requests sent to controller ``c``.
    """

    priv: np.ndarray
    l2: np.ndarray
    cycles: np.ndarray
    mc: np.ndarray


class EpochKernels:
    """The two native passes of a planned schedule's epochs.

    Holds everything that is fixed for the whole schedule — the event
    arrays, the per-segment core slot, context group and replica set,
    the request-leg tables and latency constants, the replica sets and
    the pointer tables of the caches — so :meth:`run` marshals only the
    epoch's segment range.  :meth:`run` calls ``epoch_private`` (every
    event through its core's TLB and L1), creates the L2 slices its
    misses need through ``make_l2``, calls ``epoch_shared`` (the misses
    through their home slices, with replica accounting), and folds
    stats and occupancy into every cache it touched and the new replica
    lines into their sets.  The result equals replaying each segment
    through :class:`~repro.arch.cache.SetAssocCache` /
    :class:`~repro.arch.tlb.Tlb` one event at a time.

    Arguments, all indexed by position in the schedule:

    ``seg_bounds``
        ``n_seg + 1`` event offsets; segment ``s`` owns events
        ``[seg_bounds[s], seg_bounds[s + 1])``.
    ``seg_slot`` / ``seg_group`` / ``seg_rep``
        Per segment: its core slot (bound with :meth:`bind_core` before
        the slot's first event), context group (row of ``dcore`` /
        ``dmc``) and replica set (index into ``rep_sets``, -1 = none).
    ``lines``, ``writes``, ``pages``, ``homes``, ``mcs``
        Per event: physical line (int64), write flag (int8), virtual
        page (int64), home slice and memory controller (int32).
    ``dcore`` / ``dmc``
        ``(n_groups, n_tiles)`` hops to each home slice and
        ``(n_groups, n_tiles, n_mc)`` hops on to each controller.
    """

    def __init__(
        self,
        *,
        seg_bounds: np.ndarray,
        seg_slot: np.ndarray,
        seg_group: np.ndarray,
        seg_rep: np.ndarray,
        lines: np.ndarray,
        writes: np.ndarray,
        pages: np.ndarray,
        homes: np.ndarray,
        mcs: np.ndarray,
        n_slots: int,
        l1_config: CacheConfig,
        tlb_entries: int,
        l2_config: CacheConfig,
        make_l2: Callable[[int], NativeCache],
        dcore: np.ndarray,
        dmc: np.ndarray,
        hop2: float,
        l2_lat: float,
        dram_lat: float,
        rep_sets: Sequence[set],
    ):
        lib = load_native()
        if lib is None:  # pragma: no cover - guarded by the engine
            raise RuntimeError("native kernels unavailable")
        self._lib = lib
        i64, i32 = np.int64, np.int32
        # Kept referenced: the kernels read them through raw addresses.
        self._arrays = arrays = (
            np.ascontiguousarray(seg_bounds, dtype=i64),
            np.ascontiguousarray(seg_slot, dtype=i64),
            np.ascontiguousarray(seg_group, dtype=i64),
            np.ascontiguousarray(seg_rep, dtype=i64),
            np.ascontiguousarray(lines, dtype=i64),
            np.ascontiguousarray(writes, dtype=np.int8),
            np.ascontiguousarray(pages, dtype=i64),
            np.ascontiguousarray(homes, dtype=i32),
            np.ascontiguousarray(mcs, dtype=i32),
            np.ascontiguousarray(dcore, dtype=np.float64),
            np.ascontiguousarray(dmc, dtype=np.float64),
        )
        self._seg_bounds, self._seg_rep, self._lines = arrays[0], arrays[3], arrays[4]
        (self._bounds_p, self._slot_p, self._group_p, self._rep_p,
         self._lines_p, self._writes_p, self._pages_p, self._homes_p,
         self._mcs_p, self._dcore_p, self._dmc_p) = (a.ctypes.data for a in arrays)
        _, self._n_tiles, self._n_mc = np.shape(dmc)
        self._n_slots = n_slots
        self._l1_geom = (l1_config.n_sets - 1, l1_config.associativity)
        self._tlb_entries = tlb_entries
        self._l2_geom = (l2_config.n_sets - 1, l2_config.associativity)
        self._make_l2 = make_l2
        self._costs = (float(hop2), float(l2_lat), float(dram_lat))
        self.rep_sets = list(rep_sets)
        self._any_rep = bool((self._seg_rep >= 0).any())
        self.l1_ptrs = np.zeros(4 * n_slots, dtype=i64)
        self.tlb_ptrs = np.zeros(3 * n_slots, dtype=i64)
        self.l2_ptrs = np.zeros(4 * self._n_tiles, dtype=i64)
        self._cores: List[Optional[Tuple[NativeCache, NativeTlb]]] = [None] * n_slots
        self._slices: List[Optional[NativeCache]] = [None] * self._n_tiles

    def bind_core(self, slot: int, l1: NativeCache, tlb: NativeTlb) -> None:
        """Point core slot ``slot`` at its L1 and TLB."""
        self._cores[slot] = (l1, tlb)
        self.l1_ptrs[4 * slot : 4 * slot + 4] = l1._state_ptrs
        self.tlb_ptrs[3 * slot : 3 * slot + 3] = tlb._ptrs

    def run(self, seg_a: int, seg_b: int,
            table_size: Optional[int] = None) -> EpochCounters:
        """Replay segments ``[seg_a, seg_b)``; see the class docstring.

        ``table_size`` overrides the replica dedupe table's capacity (a
        power of two above the epoch's new replica lines; the default
        is above twice its L1 misses).
        """
        lib = self._lib
        n_seg = seg_b - seg_a
        n_tiles, n_mc = self._n_tiles, self._n_mc
        e0 = int(self._seg_bounds[seg_a])
        e1 = int(self._seg_bounds[seg_b])
        bounds_p = self._bounds_p + 8 * seg_a
        miss_pos = np.empty(e1 - e0, dtype=np.int64)
        need_l2 = np.zeros(n_tiles, dtype=np.int8)
        seg_priv = np.empty(3 * n_seg, dtype=np.int64)
        core_out = np.zeros(7 * self._n_slots, dtype=np.int64)
        n_miss = lib.epoch_private(
            n_seg, bounds_p, self._slot_p + 8 * seg_a,
            self._lines_p, self._writes_p, self._pages_p, self._homes_p,
            self.l1_ptrs.ctypes.data, self.tlb_ptrs.ctypes.data,
            self.l2_ptrs.ctypes.data, *self._l1_geom, self._tlb_entries,
            miss_pos.ctypes.data, need_l2.ctypes.data, seg_priv.ctypes.data,
            core_out.ctypes.data,
        )
        rows = core_out.reshape(-1, 7)
        for slot in np.flatnonzero(rows[:, 0]).tolist():
            acc, miss, evictions, writebacks, dirtied, lookups, tlb_miss = (
                rows[slot].tolist()
            )
            l1, tlb = self._cores[slot]
            _fold_stats(l1, acc, acc - miss, evictions, writebacks, dirtied)
            tlb.stats.hits += lookups - tlb_miss
            tlb.stats.misses += tlb_miss

        seg_l2 = np.zeros(3 * n_seg, dtype=np.int64)
        seg_cycles = np.zeros(n_seg, dtype=np.float64)
        seg_mc = np.zeros(n_mc * n_seg, dtype=np.int64)
        counters = EpochCounters(
            seg_priv.reshape(-1, 3), seg_l2.reshape(-1, 3), seg_cycles,
            seg_mc.reshape(-1, n_mc),
        )
        if not n_miss:
            return counters
        for tile in np.flatnonzero(need_l2).tolist():
            cache = self._make_l2(tile)
            self._slices[tile] = cache
            self.l2_ptrs[4 * tile : 4 * tile + 4] = cache._state_ptrs

        miss_pos = miss_pos[:n_miss]
        already = self._already(seg_a, seg_b, miss_pos)
        table_mask = 0
        table_lines = table_reps = new_lines = new_reps = None
        if self._any_rep:
            if table_size is None:
                table_size = 1 << (2 * n_miss).bit_length()
            table_mask = table_size - 1
            table_lines = np.empty(table_size, dtype=np.int64)
            table_reps = np.empty(table_size, dtype=np.int64)
            new_lines = np.empty(n_miss, dtype=np.int64)
            new_reps = np.empty(n_miss, dtype=np.int64)
        slice_out = np.zeros(5 * n_tiles, dtype=np.int64)
        n_new = lib.epoch_shared(
            n_seg, bounds_p, self._group_p + 8 * seg_a, self._rep_p + 8 * seg_a,
            n_miss, miss_pos.ctypes.data,
            None if already is None else already.ctypes.data,
            self._lines_p, self._writes_p, self._homes_p, self._mcs_p,
            self.l2_ptrs.ctypes.data, *self._l2_geom, n_tiles, n_mc,
            self._dcore_p, self._dmc_p, *self._costs, table_mask,
            _data(table_lines), _data(table_reps), _data(new_lines),
            _data(new_reps), seg_l2.ctypes.data, seg_cycles.ctypes.data,
            seg_mc.ctypes.data, slice_out.ctypes.data,
        )
        if n_new < 0:
            raise ValueError(
                f"replica table of {table_size} slots is too small for the "
                "epoch's new replica lines"
            )
        rows = slice_out.reshape(-1, 5)
        for tile in np.flatnonzero(rows[:, 0]).tolist():
            acc, hits, evictions, writebacks, dirtied = rows[tile].tolist()
            _fold_stats(self._slices[tile], acc, hits, evictions, writebacks,
                        dirtied)
        if n_new:
            lines = new_lines[:n_new]
            reps = new_reps[:n_new]
            for rep in np.unique(reps).tolist():
                self.rep_sets[rep].update(lines[reps == rep].tolist())
        return counters

    def _already(self, seg_a: int, seg_b: int,
                 miss_pos: np.ndarray) -> Optional[np.ndarray]:
        """Per miss, 1 if its line is in its segment's replica set.

        None when every replica set is empty at epoch start (the common
        case after a purge), so no line is looked up at all.
        """
        live = [r for r, rs in enumerate(self.rep_sets) if rs]
        if not live:
            return None
        seg_of = np.searchsorted(
            self._seg_bounds[seg_a : seg_b + 1], miss_pos, side="right"
        ) - 1
        rep_of = self._seg_rep[seg_a + seg_of]
        already = np.zeros(len(miss_pos), dtype=np.int8)
        for rep in live:
            sel = np.flatnonzero(rep_of == rep)
            if len(sel):
                contains = self.rep_sets[rep].__contains__
                already[sel] = np.fromiter(
                    map(contains, self._lines[miss_pos[sel]].tolist()),
                    dtype=bool, count=len(sel),
                )
        return already


def _data(arr: Optional[np.ndarray]) -> Optional[int]:
    """Raw address of an optional buffer (None passes NULL)."""
    return None if arr is None else arr.ctypes.data


def _fold_stats(cache: NativeCache, accesses: int, hits: int,
                evictions: int, writebacks: int, dirtied: int) -> None:
    """Fold one kernel pass's counters into a cache's stats and occupancy.

    Every miss fills one way and every eviction frees one, so the valid
    delta is ``misses - evictions``; the dirty delta is ``dirtied -
    writebacks`` (see the C source).
    """
    st = cache.stats
    misses = accesses - hits
    st.hits += hits
    st.misses += misses
    st.evictions += evictions
    st.writebacks += writebacks
    cache._valid_count += misses - evictions
    cache._dirty_count += dirtied - writebacks

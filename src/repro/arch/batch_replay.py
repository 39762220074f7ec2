"""Interaction-batched trace replay over a schedule of segments.

The per-call replay path (:meth:`MemoryHierarchy.run_trace`) pays fixed
Python overhead per invocation: argument conversion, run-length
compression, ``np.unique`` translation, homing and entitlement checks.
Figure runs issue six such calls per interaction (two workload traces
and four IPC transfers), so for the short interactive traces the paper
evaluates, per-call overhead dominates end-to-end wall time.

:class:`BatchReplayer` removes that overhead by planning a whole run at
once.  A *schedule* is an ordered list of :class:`Segment`\\ s — each one
the exact address stream a per-call replay would have been handed, with
the context it would have run under.  The plan phase performs, once and
vectorized over the entire schedule:

* run-length compression (reset at segment starts, so the event list is
  exactly the concatenation of the per-call event lists);
* page translation, reproducing the per-call allocation order — for
  every virtual page the allocation priority is ``(segment of first
  touch, page number)``, which is precisely the order the per-call
  loop's sorted-unique translation would have allocated frames in, even
  when several page tables share DRAM region pools.  First touches come
  from one linear dict pass over the events (no sort over events; only
  the unique pages are ordered);
* L2 homing (round-robin cursors advanced in the same first-touch
  order) and entitlement checks.

Execution happens in *epochs* — contiguous segment ranges with no
intervening purge/flush — each replayed by two native passes of
:class:`~repro.arch.native.EpochKernels`:

1. the *private pass* runs every event through its segment's core TLB
   (on page changes) and L1, in trace order, and reports the L1-miss
   positions plus per-segment TLB-miss, L1-miss and L1-writeback counts;
2. the L2 slices those misses are homed in are created (lazily, as the
   per-call path would);
3. the *shared pass* runs the misses through their home slices, still
   in trace order (so no sort by slice is needed), and accumulates per
   segment the L2 hits, misses and writebacks, the L2/DRAM cycles and
   the per-controller DRAM requests.  It also does replica accounting:
   the first hit on a line outside the context's replica set pays the
   home round trip and joins the set, later hits pay one hop.  Groups
   that share a replica set share that sequence in global order.

No NumPy work per event happens in an epoch; what is left in Python is
per core, per slice and per segment.  The replica sets stay Python
``set``\\ s (purges, re-homing and the scalar oracle use them): the
shared pass takes an "already replicated" flag per miss, computed only
while a set is non-empty, and its new lines are folded back with one
``set.update`` per set.
Purge events (MI6's per-crossing flushes) act as epoch barriers: the
machine replays up to the barrier, applies the purge against the live
cache state, and continues.  Epochs are chosen maximal — exactly one
per purge crossing — since splitting never changes per-segment
results; everything an epoch would otherwise rebuild (latency
constants, distance tables, replica groupings) is hoisted into the
plan.

The result is bit-identical to calling :meth:`run_trace` once per
segment in schedule order: identical :class:`TraceResult` counters
(all cycle terms are dyadic rationals, so summation order cannot change
``mem_cycles``), identical cache/TLB contents and stats, identical
replica bookkeeping, and the same caches created (an L1/TLB iff its
core had an event, an L2 slice iff an L1 miss was homed there).
``tests/test_replay_equivalence.py`` enforces this both at the
``run_trace_batched`` level and over full machine runs;
``tests/test_native_kernels.py`` checks the two passes themselves.

Contexts are grouped by replay-relevant key (page table, representative
core, core/slice sets, homing policy, replication set, NUMA flag), so
the fresh per-transfer view objects the IPC buffer creates all land in
one group.  Segments sharing a group share one round-robin homing
cursor; this matches the per-call path whenever the group's frames are
already homed (always true for the pre-homed IPC buffer).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.hierarchy import MemoryHierarchy, ProcessContext, TraceResult
from repro.arch.native import EpochKernels, first_touch


@dataclass
class Segment:
    """One per-call replay unit: a context and its address stream."""

    ctx: ProcessContext
    addrs: np.ndarray
    writes: Optional[np.ndarray] = None


def _group_key(ctx: ProcessContext) -> Tuple:
    """Replay-relevant identity of a context (see module docstring)."""
    return (
        id(ctx.vm),
        ctx.rep_core,
        tuple(ctx.cores),
        tuple(ctx.slices),
        ctx.homing,
        ctx.enforce,
        ctx.domain,
        ctx.replication,
        id(ctx._replicated) if ctx._replicated is not None else None,
        ctx.numa_mc,
    )


class BatchReplayer:
    """Plans a segment schedule once, then replays it epoch by epoch."""

    def __init__(self, hier: MemoryHierarchy, segments: Sequence[Segment]):
        if hier.engine != "vector":
            raise ValueError("BatchReplayer requires the vector replay engine")
        self.hier = hier
        self.segments = list(segments)
        self._plan()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(self) -> None:
        """Plan the whole schedule once (see the module docstring).

        Computes run-length-compressed events, allocation-order-exact
        translation, homing/entitlement per context group, and the
        schedule-wide state of the epoch kernels (per-segment core slot,
        group and replica set; per-group distance tables; latency
        constants), so :meth:`run_epoch` only dispatches.
        """
        hier = self.hier
        segs = self.segments
        n_seg = len(segs)

        lens = np.fromiter((len(s.addrs) for s in segs), dtype=np.int64, count=n_seg)
        self._seg_lens = lens.tolist()
        acc_off = np.zeros(n_seg + 1, dtype=np.int64)
        np.cumsum(lens, out=acc_off[1:])
        total = int(acc_off[-1])

        # Context groups, page tables and representative cores, each
        # numbered in order of first appearance.
        group_index: Dict[Tuple, int] = {}
        self.group_ctx: List[ProcessContext] = []
        vm_index: Dict[int, int] = {}
        vms = []
        slot_index: Dict[int, int] = {}
        seg_group = np.empty(n_seg, dtype=np.int64)
        seg_vm = np.empty(n_seg, dtype=np.int64)
        seg_slot = np.empty(n_seg, dtype=np.int64)
        for k, seg in enumerate(segs):
            ctx = seg.ctx
            key = _group_key(ctx)
            gi = group_index.get(key)
            if gi is None:
                gi = len(self.group_ctx)
                group_index[key] = gi
                self.group_ctx.append(ctx)
                if ctx.replication:
                    hier._replica_refs[id(ctx)] = weakref.ref(ctx)
            seg_group[k] = gi
            vi = vm_index.setdefault(id(ctx.vm), len(vms))
            if vi == len(vms):
                vms.append(ctx.vm)
            seg_vm[k] = vi
            seg_slot[k] = slot_index.setdefault(ctx.rep_core, len(slot_index))

        self.seg_ev_start = np.zeros(n_seg + 1, dtype=np.int64)
        self._kernels: Optional[EpochKernels] = None
        if total == 0:
            return

        all_addrs = np.concatenate([np.ascontiguousarray(s.addrs, dtype=np.int64)
                                    for s in segs if len(s.addrs)])
        all_writes = np.concatenate([
            s.writes.astype(np.int8, copy=False)
            if s.writes is not None else np.zeros(len(s.addrs), dtype=np.int8)
            for s in segs if len(s.addrs)
        ])
        vlines = all_addrs >> hier._line_shift

        # Run-length compression, reset at segment starts so the global
        # event list is the exact concatenation of the per-call lists.
        change = np.empty(total, dtype=bool)
        change[0] = True
        np.not_equal(vlines[1:], vlines[:-1], out=change[1:])
        change[acc_off[:-1][lens > 0]] = True
        ev_idx = np.flatnonzero(change)
        n_ev = len(ev_idx)

        seg_ev_start = np.searchsorted(ev_idx, acc_off)
        self.seg_ev_start = seg_ev_start
        ev_per_seg = np.diff(seg_ev_start)
        self._ev_per_seg = ev_per_seg.tolist()
        self._compressed = (lens - ev_per_seg).tolist()

        ev_vlines = vlines[ev_idx]
        ev_writes = np.maximum.reduceat(all_writes, ev_idx)
        ev_vpages = ev_vlines >> hier._lp_shift

        def seg_of(positions: np.ndarray) -> np.ndarray:
            return np.searchsorted(seg_ev_start, positions, side="right") - 1

        def touches(evpos: Optional[np.ndarray]) -> Tuple:
            """First touches of the events at ``evpos`` (None = all):
            ``(evpos, unique pages, their first events, their first-touch
            segments, per-event index into the unique pages)``."""
            uniq, first, inverse = first_touch(
                ev_vpages if evpos is None else ev_vpages[evpos]
            )
            at = first if evpos is None else evpos[first]
            return evpos, uniq, at, seg_of(at), inverse

        # Translation: reproduce the per-call allocation order globally.
        ev_vm = np.repeat(seg_vm, ev_per_seg) if len(vms) > 1 else None
        per_vm: Dict[int, Tuple] = {}
        for vi in range(len(vms)):
            evpos = None if ev_vm is None else np.flatnonzero(ev_vm == vi)
            if evpos is not None and not len(evpos):
                continue
            per_vm[vi] = touches(evpos)
        ap = np.concatenate([t[1] for t in per_vm.values()])
        af = np.concatenate([t[3] for t in per_vm.values()])
        order = np.lexsort((ap, af))
        ap, af = ap[order], af[order]
        # One ensure_mapped call per first-touch segment: the frame
        # allocator round-robins regions *within* one call, so the
        # per-call path's batching (each call allocates exactly its own
        # new pages, sorted) must be reproduced call for call.
        cuts = [0, *(np.flatnonzero(af[1:] != af[:-1]) + 1).tolist(), len(ap)]
        seg_vm_l = seg_vm.tolist()
        for a, b in zip(cuts[:-1], cuts[1:]):
            vms[seg_vm_l[int(af[a])]].ensure_mapped(ap[a:b])
        ev_frames = np.empty(n_ev, dtype=np.int64)
        for vi, (evpos, uniq, _, _, inverse) in per_vm.items():
            frames = np.fromiter(
                map(vms[vi].page_table.__getitem__, uniq.tolist()),
                dtype=np.int64, count=len(uniq),
            )[inverse]
            if evpos is None:
                ev_frames = frames
            else:
                ev_frames[evpos] = frames

        # Homing and entitlement per context group, in first-touch order.
        # A VM used by exactly one group has the same events and first
        # touches in both passes, so the translation pass's are reused
        # (the two process contexts — the largest event streams —
        # always qualify).
        vm_groups = np.bincount(
            [vm_index[id(ctx.vm)] for ctx in self.group_ctx], minlength=len(vms)
        )
        ev_grp = None
        for gi, ctx in enumerate(self.group_ctx):
            vi = vm_index[id(ctx.vm)]
            if vm_groups[vi] == 1:
                if vi not in per_vm:
                    continue
                _, uniq, at, first_seg, _ = per_vm[vi]
            else:
                if ev_grp is None:
                    ev_grp = np.repeat(seg_group, ev_per_seg)
                evpos = np.flatnonzero(ev_grp == gi)
                if not len(evpos):
                    continue
                _, uniq, at, first_seg, _ = touches(evpos)
            frames_first = ev_frames[at[np.lexsort((uniq, first_seg))]]
            hier.ensure_homed(frames_first, ctx)
            if ctx.enforce:
                hier._check_entitlement(frames_first, ctx)

        # Schedule-wide kernel state.  Request legs use the group's
        # cluster-average core distance to the home slice and its
        # NUMA-nearest or home-bound controller distance, the same
        # tables the per-call loop reads.
        cfg = hier.config
        self._walk = cfg.tlb.miss_walk_latency
        rep_index: Dict[int, int] = {}
        rep_sets: List[set] = []
        group_rep = []
        for ctx in self.group_ctx:
            rep = -1
            if ctx.replication and ctx._replicated is not None:
                rep = rep_index.setdefault(id(ctx._replicated), len(rep_sets))
                if rep == len(rep_sets):
                    rep_sets.append(ctx._replicated)
            group_rep.append(rep)
        self._kernels = EpochKernels(
            seg_bounds=seg_ev_start,
            seg_slot=seg_slot,
            seg_group=seg_group,
            seg_rep=np.asarray(group_rep, dtype=np.int64)[seg_group],
            lines=ev_frames * hier._lines_per_page + (ev_vlines & hier._lp_mask),
            writes=ev_writes,
            pages=ev_vpages,
            homes=hier.home_table[ev_frames],
            mcs=hier._mc_of_region[ev_frames // hier._frames_per_region],
            n_slots=len(slot_index),
            l1_config=cfg.l1,
            tlb_entries=cfg.tlb.entries,
            l2_config=cfg.l2_slice,
            make_l2=hier.l2_slice,
            dcore=np.asarray([hier._avg_core_distances(tuple(ctx.cores))
                              for ctx in self.group_ctx]),
            dmc=np.asarray([hier._mc_distance_rows(ctx.numa_mc)
                            for ctx in self.group_ctx]),
            hop2=2 * (cfg.noc.hop_latency + cfg.noc.router_latency),
            l2_lat=cfg.l2_slice.hit_latency,
            dram_lat=cfg.mem.dram_latency + cfg.mem.mc_service_latency,
            rep_sets=rep_sets,
        )
        # Each core's L1 and TLB are created when its first event's
        # epoch runs, as the per-call path creates them on first use.
        first_seg: Dict[int, int] = {}
        for k in np.flatnonzero(ev_per_seg).tolist():
            first_seg.setdefault(int(seg_slot[k]), k)
        cores = list(slot_index)
        self._core_binds = [(k, slot, cores[slot]) for slot, k in first_seg.items()]
        self._next_bind = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_epoch(self, seg_a: int, seg_b: int) -> List[TraceResult]:
        """Replay segments ``[seg_a, seg_b)``; returns one result each.

        Epochs must be invoked in order and cover the schedule exactly
        once; purges/flushes may only happen between epochs.
        """
        hier = self.hier
        results = [TraceResult(accesses=n) for n in self._seg_lens[seg_a:seg_b]]
        if self.seg_ev_start[seg_a] == self.seg_ev_start[seg_b]:
            return results

        kernels = self._kernels
        binds = self._core_binds
        while self._next_bind < len(binds) and binds[self._next_bind][0] < seg_b:
            _, slot, core = binds[self._next_bind]
            kernels.bind_core(slot, hier.l1_for(core), hier.tlb_for(core))
            self._next_bind += 1

        counters = kernels.run(seg_a, seg_b)
        walk = self._walk
        controllers = hier.controllers
        for r, (tlb_miss, l1_miss, l1_wb), (l2_hit, l2_miss, l2_wb), cycles, \
                mc_row, events, compressed in zip(
                    results, counters.priv.tolist(), counters.l2.tolist(),
                    counters.cycles.tolist(), counters.mc.tolist(),
                    self._ev_per_seg[seg_a:seg_b],
                    self._compressed[seg_a:seg_b]):
            r.l1_misses = l1_miss
            r.l1_hits = events - l1_miss + compressed
            r.l2_hits = l2_hit
            r.l2_misses = l2_miss
            r.tlb_misses = tlb_miss
            r.l1_writebacks = l1_wb
            r.l2_writebacks = l2_wb
            r.mem_cycles = int(walk * tlb_miss + cycles)
            if l2_miss:
                r.mc_requests = {mc: n for mc, n in enumerate(mc_row) if n}
                for mc, n in r.mc_requests.items():
                    controllers[mc].record_traffic(n, 0)
        return results

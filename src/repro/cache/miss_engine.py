"""Batched miss-chain engine: the reference loop and its miss chain, fused.

In the simulator's per-reference loops every store and every L1 miss goes
through ``CacheHierarchy.access`` — a chain of six-plus Python calls per
miss (``access`` → ``_fill_to_l1`` → ``_fill_to_l2`` → ``_insert_llc`` →
``demand_fill``/``write_back`` → channel arithmetic), each re-resolving
attributes the previous frame already held. Profiling a gcc row shows the
per-call overhead of exactly this chain dominating end-to-end time.

This module replaces those loops, for one core and for N, with a
**drain**: a single closure that runs every core's references from one
epoch/crash boundary to the next with the entire miss chain transcribed
inline — L1/L2/LLC probes, victim selection in eviction order, NVM
channel recurrences as local-integer arithmetic, the scheme's
store/write-back callbacks either transcribed (when provably the known
bodies) or called at the exact scalar call sites — plus *deferred batch
bookkeeping*:

* stat counters accumulate in locals and land once per drain call
  (delta-commutative with anything an out-of-line callee bumps);
* PiCL undo entries for cross-epoch stores defer only the FIFO append:
  the bloom filter and pending-address set (the structures the eviction
  hazard probe reads) update eagerly per entry, while the ``_entries``
  extend and entries-created counter land in one batch per run — the
  hazard probe stays live with zero pre-probe work;
* the running core's clock, stall cycles and instruction count, and
  ``system._next_token``/``total_instructions``, live in locals and are
  written back at turn ends, chunk ends, the boundary and on exit.

**Scheduling.** Cores switch by :meth:`Simulation._run_multi_core`'s
exact rule: the core with the smallest ``(cycle, core_id)`` heap key
runs a *turn* while its clock stays below the (deliberately stale) heap
top, ties going to the lower core id, and the turn ends with one
``heapreplace``. Each core's L1/L2 structures are one precomputed *lane*
tuple, unpacked once per turn. Within a turn the references run in
segments cut at the next epoch/crash boundary (``bisect`` on the chunk's
cumulative instruction counts), so the per-reference body carries no
boundary test, only the turn test. With one core the heap is empty, the
turn never ends, and a segment is a whole boundary-free stretch of the
chunk.

**Bit-identity argument.** The drain visits references in exactly the
scalar order and mutates all *shared* structures (tag dicts, LRU lists,
dirty dicts, EID index, NVM image, undo log) at exactly the scalar
program points. Deferral is restricted to state nothing reads mid-drain
(no scheme callback reads a core clock, an instruction count or a
hierarchy counter: callees receive ``now`` explicitly), and every
deferral is forced down before any point that could observe it:

* pending undo entries are merged into ``buffer._entries`` before any
  hazard-triggered ``buffer.flush``, before any ``buffer.add`` that
  could cross capacity (so the flush fires at the scalar trigger entry
  with the scalar issue cycle; the capacity test counts
  ``_entries + pend``), before every fault-plan notify, and at drain
  exit — in particular they are always down before any site can raise
  ``CrashSignal``, so crash snapshots are token-exact. The bloom filter
  and pending-address set never lag at all (eager updates), so the
  hazard probe needs no pre-merge;
* channel timing state is held in locals but synced to the ``_Channel``
  object around every external call (undo flushes and scheme callbacks
  issue NVM traffic of their own); a live-flag keeps the exit sync from
  clobbering updates made by a callee that raised;
* counters/cycles/tokens flush in a ``finally``, so even a mid-drain
  ``CrashSignal`` leaves exactly the scalar crash-time values. The two
  scalar loops leave different crash-time clocks: the single-core loop
  syncs instruction counts lazily (at boundaries and chunk ends) and the
  clock only after a reference, while the multi-core loop commits the
  reference's compute gap (clock and instructions) before its access
  chain. The drain keeps the single-core convention in its body and
  applies the multi-core one on the ``CrashSignal`` path only;
* same-line run tails coalesce (``access_repeat`` inline) only when the
  tail's last clock still passes the turn test — clocks only grow, so no
  reference of the tail would have ended the turn — and a tail never
  runs past the segment end.

**Safety conditions** (checked by :func:`build_engine`; any failure
falls back to the simulator's per-reference loops, bit-identically):

* ``REPRO_BATCH_MISS`` not ``0`` (the escape hatch);
* no DRAM cache in front of NVM, plain single-channel ``NvmDevice``
  (the banked/open-page device has per-bank state the inline recurrence
  does not model);
* the hierarchy's eviction sink is the scheme itself.

Lines another core owns are handled at the scalar program points: an
LLC hit on one calls ``CacheHierarchy._snoop_invalidate`` out of line,
and an LLC victim's private copies are back-invalidated on its owner's
lane.

Scheme dispatch is derived from method identity
(:meth:`repro.baselines.base.CrashConsistencyScheme.miss_engine_profile`)
and from the scheme's per-segment ``store_dispatch()``: unknown
overrides degrade to out-of-line calls at the scalar call sites, so a
new scheme is automatically safe, just not automatically fast.

The EID-index discard on LLC eviction is deliberately **never** deferred:
with a deferred discard, an old line and a same-address successor with
the same EID would share a bucket slot, and the late discard would pop
the successor's entry — index drift the fail-fast ``retag`` would only
catch much later. ``EidIndex.verify_against`` is the differential oracle
for exactly this class of bug.
"""

import heapq
import os
from bisect import bisect_left

from repro.baselines.base import CrashConsistencyScheme
from repro.cache.line import CacheLine, LineState
from repro.common.eid import EpochId
from repro.common.errors import SimulationError
from repro.core.picl import PiclScheme
from repro.core.undo import UndoEntry
from repro.fault.plan import CrashSignal
from repro.mem.nvm import AccessCategory, NvmDevice
from repro.trace.synthetic import TraceCursor

#: write-back dispatch: out-of-line call / inline base body / inline PiCL body
_WB_CALL, _WB_BASE, _WB_PICL = 0, 1, 2

#: Turn-test key when no other core waits: above any reachable clock.
_NEVER = 1 << 62


def build_engine(sim):
    """Build the miss-chain engine for ``sim``, or None when ineligible."""
    if os.environ.get("REPRO_BATCH_MISS", "1") == "0":
        return None
    hierarchy = sim.hierarchy
    if hierarchy.sink is not sim.scheme:
        return None
    controller = hierarchy.controller
    if controller.dram_cache is not None:
        return None
    device = controller.device
    # Exactly the plain closed-page device whose channel recurrence the
    # drain transcribes; the banked open-page subclass (and any future
    # device) keeps the scalar path.
    if type(device) is not NvmDevice or device._only_channel is None:
        return None
    return MissChainEngine(sim, controller, device)


class MissChainEngine:
    """Per-simulation state, the reference loop and the drain factory."""

    def __init__(self, sim, controller, device):
        hierarchy = sim.hierarchy
        self.sim = sim
        self.hierarchy = hierarchy
        self.system = sim.system
        self.scheme = sim.scheme
        self.controller = controller
        self.device = device
        self.llc = hierarchy.llc

        sink = hierarchy.sink
        wb = type(sink).write_back
        if wb is CrashConsistencyScheme.write_back:
            self.wb_mode = _WB_BASE
        elif wb is PiclScheme.write_back:
            self.wb_mode = _WB_PICL
        else:
            self.wb_mode = _WB_CALL
        profile = sink.miss_engine_profile()
        self.fill_token_overridden = profile["fill_token"]
        # PiCL state (None-safe for every other scheme).
        self.buffer = getattr(sink, "buffer", None)

    # ------------------------------------------------------------------
    # the reference loop
    # ------------------------------------------------------------------

    def run(self, crash_at_instructions):
        """Drive every core's trace to completion (or to the crash point).

        One drain call per epoch/crash boundary: the drain returns once a
        reference's retirement crosses ``boundary``, with all state
        synced, and the boundary work (commit, stop-the-world stall,
        crash) happens here exactly as in the scalar loops. After a
        multi-core boundary the running core resumes its turn only if
        its post-stall clock still passes the turn test (``retest``).
        """
        sim = self.sim
        system = self.system
        scheme = self.scheme
        cores = sim.cores
        epoch_span = sim.config.epoch_instructions * len(cores)
        next_epoch = epoch_span
        crash = crash_at_instructions
        hierarchy = self.hierarchy
        lanes = []
        for core_id, trace in enumerate(sim.traces):
            l1 = hierarchy._l1[core_id]
            l2 = hierarchy._l2[core_id]
            lanes.append(
                (
                    cores[core_id],
                    TraceCursor(trace, metadata=True),
                    l1,
                    l1._tags,
                    l1._sets,
                    l1._dirty_lines,
                    l2,
                    l2._tags,
                    l2._sets,
                    l2._dirty_lines,
                )
            )
        # Core 0 runs first; the others wait at key (0, id), which is
        # already a valid heap.
        heap = [(0, core_id) for core_id in range(1, len(cores))]
        current = [0]
        drain = self.make_drain(lanes, heap, current)
        retest = False
        while True:
            boundary = next_epoch
            if crash is not None and crash < boundary:
                boundary = crash
            if not drain(boundary, scheme.store_dispatch(), retest):
                return
            total = system.total_instructions
            if total >= next_epoch:
                stall = scheme.on_epoch_boundary(cores[current[0]].cycle)
                system.broadcast_stall(stall)
                next_epoch += epoch_span
            if crash is not None and total >= crash:
                sim.crashed = True
                return
            retest = True

    # ------------------------------------------------------------------
    # the drain
    # ------------------------------------------------------------------

    def make_drain(self, lanes, heap, current):
        """Build the fused drain over ``lanes`` (one tuple per core).

        Returns ``drain(boundary, sfilter, retest) -> bool``: runs
        references, switching cores by the heap rule, until one retires
        at or past ``boundary`` instructions (returns True, with
        ``current[0]`` the core that crossed it) or every trace is done
        (returns False). ``sfilter`` is the scheme's ``store_dispatch()``
        and fixes the store dispatch for the whole call (the SystemEID
        only moves at boundaries). ``retest`` applies the turn test to
        the running core before its first reference — the scalar loop's
        test after a boundary reference.
        """
        hierarchy = self.hierarchy
        system = self.system
        scheme = self.scheme
        controller = self.controller
        device = self.device
        llc = self.llc
        buffer = self.buffer
        bloom = buffer.bloom if buffer is not None else None
        channel = device._only_channel
        l1 = hierarchy._l1[0]
        l2 = hierarchy._l2[0]

        def drain(
            boundary,
            sfilter,
            retest,
            # Default-arg binding: the body runs per reference and locals
            # beat closure derefs.
            lanes=lanes,
            heap=heap,
            current=current,
            heappop=heapq.heappop,
            heapreplace=heapq.heapreplace,
            bisect_left=bisect_left,
            NEVER=_NEVER,
            eager=len(lanes) > 1,
            system=system,
            scheme=scheme,
            snoop=hierarchy._snoop_invalidate,
            track=system.track_reference,
            arch_image=system.arch_image,
            modified=LineState.MODIFIED,
            # Private-cache geometry (identical on every core).
            l1_shift=l1._line_shift,
            l1_mask=l1._set_mask,
            l1_assoc=l1.assoc,
            l1_latency=l1.hit_latency,
            l2_shift=l2._line_shift,
            l2_mask=l2._set_mask,
            l2_assoc=l2.assoc,
            l2_latency=l2.hit_latency,
            # LLC
            llc=llc,
            llc_tags=llc._tags,
            llc_sets=llc._sets,
            llc_dirty=llc._dirty_lines,
            llc_shift=llc._line_shift,
            llc_mask=llc._set_mask,
            llc_assoc=llc.assoc,
            llc_latency=llc.hit_latency,
            index=llc.eid_index,
            buckets=llc.eid_index.buckets if llc.eid_index is not None else None,
            index_refresh=(
                llc.eid_index.refresh if llc.eid_index is not None else None
            ),
            # NVM / controller
            channel=channel,
            read_occ=device._line_read_occupancy,
            write_occ=device._line_write_occupancy,
            icap=device._interference_cap,
            qlimit=device._queue_limit,
            img_lines=controller.image._lines,
            smf=hierarchy.store_miss_factor,
            # dispatch
            wb_mode=self.wb_mode,
            ft=(hierarchy.sink.fill_token if self.fill_token_overridden else None),
            sink_on_store=hierarchy.sink.on_store,
            sink_repeat=hierarchy.sink.on_store_repeat,
            sink_wb=hierarchy.sink.write_back,
            # PiCL inline state
            buffer=buffer,
            bloom=bloom,
            bloom_add=(bloom.add if bloom is not None else None),
            created=(buffer._entries_created if buffer is not None else None),
            epochs=getattr(scheme, "epochs", None),
            bwords=(bloom._words if bloom is not None else None),
            bmask=(bloom._mask if bloom is not None else None),
            bloom2=(bloom is not None and bloom.n_hashes == 2),
            capacity=(buffer.capacity if buffer is not None else 0),
            # fault plans (installed before run())
            h_fault=hierarchy.fault_plan,
            s_fault=getattr(scheme, "fault_plan", None),
            # stat slots (deferred via local deltas, flushed in finally)
            stats_add=hierarchy.stats.add,
            false_pos="undo.bloom_false_positives",
            s_l1_hits=hierarchy._l1_hits,
            s_loads=hierarchy._loads,
            s_stores=hierarchy._stores,
            s_l1_miss=hierarchy._l1_misses,
            s_l2_hits=hierarchy._l2_hits,
            s_l2_miss=hierarchy._l2_misses,
            s_llc_hits=hierarchy._llc_hits,
            s_llc_miss=hierarchy._llc_misses,
            s_llc_dirty=hierarchy._llc_dirty_evictions,
            s_llc_clean=hierarchy._llc_clean_evictions,
            s_l1_ev=l1._evictions,
            s_l2_ev=l2._evictions,
            s_llc_ev=llc._evictions,
            s_fills=controller._demand_fills,
            s_wbs=controller._writebacks,
            s_iops_dr=device._iops_slots[AccessCategory.DEMAND_READ],
            s_iops_wb=device._iops_slots[AccessCategory.WRITEBACK],
            s_bytes_r=device._bytes_read,
            s_bytes_w=device._bytes_written,
            s_cross=getattr(scheme, "_cross_epoch_stores", None),
            CacheLine=CacheLine,
            new_line=CacheLine.__new__,
            EXCLUSIVE=LineState.EXCLUSIVE,
            EID_NONE=EpochId.NONE,
            SimulationError=SimulationError,
            CrashSignal=CrashSignal,
            UndoEntry=UndoEntry,
        ):
            # Store dispatch for this call (see store_dispatch): True ->
            # scheme-silent (base on_store, inline no-op); False -> call
            # sink.on_store per store; int -> PiCL's plain mode, with the
            # full cross-epoch branch transcribed inline.
            if sfilter is True:
                smode = 0
            elif sfilter is False:
                smode = 1
            else:
                smode = 2
                sys_eid = sfilter
            # Deferred accumulators.
            ntok = system._next_token
            total = system.total_instructions
            seq_delta = 0
            d_l1_hits = d_loads = d_stores = d_l1_miss = 0
            d_l2_hits = d_l2_miss = d_llc_hits = d_llc_miss = 0
            d_llc_dirty = d_llc_clean = d_l1_ev = d_l2_ev = d_llc_ev = 0
            d_fills = d_wbs = d_iops_dr = d_iops_wb = 0
            d_bytes_r = d_bytes_w = d_cross = 0
            # Deferred undo entries. Only the FIFO extend (and the
            # entries-created counter) is deferred: the pending set and
            # bloom filter — the two structures the hazard probe reads —
            # update eagerly per entry, so ``pend`` merges down only at a
            # real flush point (hazard flush, capacity crossing, fault
            # notify, drain exit), not before every probe. ``pend`` is
            # nonempty only in smode 2, i.e. only when the sink is PiCL.
            pend = []
            # Channel recurrence state as local ints; ch_live flags when
            # the locals (not the object) are authoritative.
            rbu = channel.read_busy_until
            wbk = channel.write_backlog
            bua = channel.backlog_updated_at
            ch_live = True
            core_id = current[0]
            if retest and heap:
                clock = lanes[core_id][0].cycle
                top, top_id = heap[0]
                if clock > top or (clock == top and core_id > top_id):
                    core_id = heapreplace(heap, (clock, core_id))[1]
            switch = True
            fix = None
            try:
                while True:
                    if switch:
                        # -- a turn begins: bind the core's lane and chunk
                        switch = False
                        (
                            core,
                            cursor,
                            l1,
                            l1_tags,
                            l1_sets,
                            l1_dirty,
                            l2,
                            l2_tags,
                            l2_sets,
                            l2_dirty,
                        ) = lanes[core_id]
                        gaps, addrs, writes, cum, run_left, write_left, n = cursor.chunk
                        i = cursor.pos
                        # System instructions after chunk reference j:
                        # ``tbase + cum[j]``.
                        tbase = total - cursor.done
                        ccycle = core.cycle
                        if heap:
                            top, top_id = heap[0]
                            wins = core_id < top_id
                        else:
                            top = NEVER
                            wins = False
                    if i >= n:
                        # -- chunk end: sync the counts (the single-core
                        #    loop's crash-time convention), load the next
                        if n:
                            done = cum[n - 1]
                            cursor.done = done
                            total = tbase + done
                            system.total_instructions = total
                            cursor.pos = n
                        if not cursor.advance():
                            core.finished = True
                            core.cycle = ccycle
                            if not heap:
                                return False
                            core_id = heappop(heap)[1]
                            switch = True
                            continue
                        gaps, addrs, writes, cum, run_left, write_left, n = cursor.chunk
                        i = 0
                        tbase = total
                    # The segment ends at (and includes) the first
                    # reference whose retirement reaches the boundary —
                    # usually beyond the chunk, which needs no search.
                    if tbase + cum[n - 1] < boundary:
                        seg_end = n
                    else:
                        seg_end = bisect_left(cum, boundary - tbase, i) + 1
                        if seg_end > n:
                            seg_end = n
                    while i < seg_end:
                        cycle = ccycle + gaps[i]
                        addr = addrs[i]
                        w = writes[i]
                        if w:
                            # Token drawn before the access chain, as the
                            # scalar loops do — a crash mid-fill must leave
                            # the scalar _next_token.
                            token = ntok
                            ntok = token + 1
                        line = l1_tags.get(addr)
                        if line is not None:
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            if cache_set[0] is not line:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                            d_l1_hits += 1
                            wait = l1_latency
                        else:
                            # ==== _fill_to_l1, transcribed ====
                            d_l1_miss += 1
                            fstall = 0
                            source = l2_tags.get(addr)
                            if source is not None:
                                cache_set = l2_sets[(addr >> l2_shift) & l2_mask]
                                if cache_set[0] is not source:
                                    cache_set.remove(source)
                                    cache_set.insert(0, source)
                                lat = l2_latency
                                d_l2_hits += 1
                            else:
                                d_l2_miss += 1
                                # ==== _fill_to_l2, transcribed ====
                                llc_line = llc_tags.get(addr)
                                if llc_line is not None:
                                    cache_set = llc_sets[
                                        (addr >> llc_shift) & llc_mask
                                    ]
                                    if cache_set[0] is not llc_line:
                                        cache_set.remove(llc_line)
                                        cache_set.insert(0, llc_line)
                                    lat2 = llc_latency
                                    d_llc_hits += 1
                                    owner = llc_line.owner
                                    if owner is not None and owner != core_id:
                                        # Another core holds it privately:
                                        # the scalar snoop, out of line.
                                        snoop(llc_line)
                                else:
                                    d_llc_miss += 1
                                    if ft is not None:
                                        # (pend is provably empty here: ft is
                                        # non-None only for redo schemes, whose
                                        # store filter forces smode 1.)
                                        channel.read_busy_until = rbu
                                        channel.write_backlog = wbk
                                        channel.backlog_updated_at = bua
                                        ch_live = False
                                        override = ft(addr)
                                        rbu = channel.read_busy_until
                                        wbk = channel.write_backlog
                                        bua = channel.backlog_updated_at
                                        ch_live = True
                                    else:
                                        override = None
                                    # NvmDevice.read_line / _Channel.read,
                                    # transcribed on locals.
                                    if cycle > bua:
                                        wbk -= cycle - bua
                                        if wbk < 0:
                                            wbk = 0
                                        bua = cycle
                                    start = rbu if rbu > cycle else cycle
                                    start += wbk if wbk < icap else icap
                                    finish = start + read_occ
                                    rbu = finish
                                    d_iops_dr += 1
                                    d_bytes_r += 64
                                    d_fills += 1
                                    mem_lat = finish - cycle
                                    if override is not None:
                                        token_f = override
                                        stats_add("llc.fills_from_log")
                                    else:
                                        # MemoryImage.read inline (0 is
                                        # INITIAL_TOKEN; _lines never rebinds
                                        # outside restore()).
                                        token_f = img_lines.get(addr, 0)
                                    # CacheLine.__init__, slot-by-slot (one
                                    # fresh line per NVM fill).
                                    llc_line = new_line(CacheLine)
                                    llc_line.addr = addr
                                    llc_line.state = EXCLUSIVE
                                    llc_line._dirty = False
                                    llc_line.token = token_f
                                    llc_line.eid = EID_NONE
                                    llc_line.owner = None
                                    llc_line.sub_eids = None
                                    llc_line._home = None
                                    # ==== _insert_llc, transcribed ====
                                    cache_set = llc_sets[
                                        (addr >> llc_shift) & llc_mask
                                    ]
                                    cache_set.insert(0, llc_line)
                                    llc_tags[addr] = llc_line
                                    llc_line._home = llc
                                    # (fresh line: clean, untagged — the dirty
                                    # dict / EID index inserts are dead code)
                                    if len(cache_set) > llc_assoc:
                                        victim = cache_set.pop()
                                        vaddr = victim.addr
                                        del llc_tags[vaddr]
                                        victim._home = None
                                        if victim._dirty:
                                            del llc_dirty[vaddr]
                                        # EidIndex.discard, inline — never
                                        # deferred (see module docstring).
                                        if index is not None:
                                            if victim.sub_eids is not None:
                                                index.sub.pop(vaddr, None)
                                            elif victim.eid >= 0:
                                                bucket = buckets.get(victim.eid)
                                                if bucket is not None:
                                                    bucket.pop(vaddr, None)
                                                    if not bucket:
                                                        del buckets[victim.eid]
                                        d_llc_ev += 1
                                        # ==== _back_invalidate, transcribed
                                        # on the owner's lane (any core).
                                        owner = victim.owner
                                        if owner is not None:
                                            (
                                                _c,
                                                _cur,
                                                _l1,
                                                o1_tags,
                                                o1_sets,
                                                o1_dirty,
                                                _l2,
                                                o2_tags,
                                                o2_sets,
                                                o2_dirty,
                                            ) = lanes[owner]
                                            l1_copy = o1_tags.pop(vaddr, None)
                                            if l1_copy is not None:
                                                o1_sets[
                                                    (vaddr >> l1_shift) & l1_mask
                                                ].remove(l1_copy)
                                                l1_copy._home = None
                                                if l1_copy._dirty:
                                                    del o1_dirty[vaddr]
                                            l2_copy = o2_tags.pop(vaddr, None)
                                            if l2_copy is not None:
                                                o2_sets[
                                                    (vaddr >> l2_shift) & l2_mask
                                                ].remove(l2_copy)
                                                l2_copy._home = None
                                                if l2_copy._dirty:
                                                    del o2_dirty[vaddr]
                                            if l1_copy is not None and l1_copy._dirty:
                                                src = l1_copy
                                            elif l2_copy is not None and l2_copy._dirty:
                                                src = l2_copy
                                            else:
                                                src = None
                                            if src is not None:
                                                # _merge_lines inline: the LLC
                                                # victim is detached (_home is
                                                # None), so the dirty-dict and
                                                # EID-index arms are dead.
                                                victim.token = src.token
                                                victim._dirty = True
                                                victim.eid = src.eid
                                                if src.sub_eids is not None:
                                                    victim.sub_eids = list(
                                                        src.sub_eids
                                                    )
                                            victim.owner = None
                                        if victim._dirty:
                                            d_llc_dirty += 1
                                            vtok = victim.token
                                            if h_fault is not None:
                                                # Merge pend so a crash here
                                                # observes the exact scalar
                                                # buffer contents.
                                                if pend:
                                                    buffer._entries.extend(pend)
                                                    created.value += len(pend)
                                                    pend = []
                                                h_fault.notify("llc_eviction")
                                            if wb_mode == 2:
                                                # PiclScheme.write_back +
                                                # eviction_hazard, transcribed.
                                                # Bloom and pending-set were
                                                # updated eagerly at pend time,
                                                # so the probe is live without
                                                # merging pend first.
                                                hstall = 0
                                                if buffer._entries or pend:
                                                    if bloom2:
                                                        h1 = (
                                                            vaddr * 2654435761
                                                        ) & 0xFFFFFFFF
                                                        pos = h1 & bmask
                                                        maybe = (
                                                            bwords[pos >> 6]
                                                            >> (pos & 63)
                                                        ) & 1
                                                        if maybe:
                                                            pos = (
                                                                h1
                                                                + (
                                                                    (
                                                                        (vaddr >> 6)
                                                                        * 40503
                                                                        + 0x9E3779B9
                                                                    )
                                                                    & 0xFFFFFFFF
                                                                )
                                                            ) & bmask
                                                            maybe = (
                                                                bwords[pos >> 6]
                                                                >> (pos & 63)
                                                            ) & 1
                                                    else:
                                                        maybe = bloom.might_contain(
                                                            vaddr
                                                        )
                                                    if maybe:
                                                        if (
                                                            vaddr
                                                            not in buffer._pending_addrs
                                                        ):
                                                            stats_add(false_pos)
                                                        stats_add("undo.forced_flushes")
                                                        if pend:
                                                            buffer._entries.extend(
                                                                pend
                                                            )
                                                            created.value += len(pend)
                                                            pend = []
                                                        channel.read_busy_until = rbu
                                                        channel.write_backlog = wbk
                                                        channel.backlog_updated_at = bua
                                                        ch_live = False
                                                        hstall = buffer.flush(cycle)
                                                        rbu = channel.read_busy_until
                                                        wbk = channel.write_backlog
                                                        bua = channel.backlog_updated_at
                                                        ch_live = True
                                                if s_fault is not None:
                                                    if pend:
                                                        buffer._entries.extend(pend)
                                                        created.value += len(pend)
                                                        pend = []
                                                    s_fault.notify("pre_inplace")
                                                wnow = cycle + hstall
                                            elif wb_mode == 1:
                                                hstall = 0
                                                wnow = cycle
                                            else:
                                                # (pend is provably empty: pend
                                                # appends only in smode 2, which
                                                # implies wb_mode 2.)
                                                channel.read_busy_until = rbu
                                                channel.write_backlog = wbk
                                                channel.backlog_updated_at = bua
                                                ch_live = False
                                                fstall += sink_wb(vaddr, vtok, cycle)
                                                rbu = channel.read_busy_until
                                                wbk = channel.write_backlog
                                                bua = channel.backlog_updated_at
                                                ch_live = True
                                                wnow = None
                                            if wnow is not None:
                                                # controller.writeback /
                                                # _Channel.post_write on locals.
                                                if wnow > bua:
                                                    wbk -= wnow - bua
                                                    if wbk < 0:
                                                        wbk = 0
                                                    bua = wnow
                                                if wbk > qlimit:
                                                    st = wbk - qlimit
                                                    t2 = wnow + st
                                                    if t2 > bua:
                                                        wbk -= t2 - bua
                                                        if wbk < 0:
                                                            wbk = 0
                                                        bua = t2
                                                else:
                                                    st = 0
                                                wbk += write_occ
                                                d_iops_wb += 1
                                                d_bytes_w += 64
                                                img_lines[vaddr] = vtok
                                                d_wbs += 1
                                                fstall += hstall + st
                                        else:
                                            d_llc_clean += 1
                                    lat2 = llc_latency + mem_lat
                                llc_line.owner = core_id
                                # copy_fill inline (LLC → L2).
                                source = new_line(CacheLine)
                                source.addr = addr
                                source.state = EXCLUSIVE
                                source._dirty = False
                                source.token = llc_line.token
                                source.eid = llc_line.eid
                                source.owner = None
                                sub = llc_line.sub_eids
                                source.sub_eids = (
                                    list(sub) if sub is not None else None
                                )
                                source._home = None
                                cache_set = l2_sets[(addr >> l2_shift) & l2_mask]
                                cache_set.insert(0, source)
                                l2_tags[addr] = source
                                source._home = l2
                                # (copy_fill lines are clean: no dirty insert)
                                if len(cache_set) > l2_assoc:
                                    victim = cache_set.pop()
                                    vaddr = victim.addr
                                    del l2_tags[vaddr]
                                    victim._home = None
                                    if victim._dirty:
                                        del l2_dirty[vaddr]
                                    d_l2_ev += 1
                                    # l1.remove(vaddr), inline (L1 has no EID
                                    # index).
                                    dropped = l1_tags.pop(vaddr, None)
                                    if dropped is not None:
                                        l1_sets[
                                            (vaddr >> l1_shift) & l1_mask
                                        ].remove(dropped)
                                        dropped._home = None
                                        if dropped._dirty:
                                            del l1_dirty[vaddr]
                                    if dropped is not None and dropped._dirty:
                                        # _merge_lines inline: the L2 victim is
                                        # detached (_home None) — only the data
                                        # fold is live.
                                        victim.token = dropped.token
                                        victim._dirty = True
                                        victim.eid = dropped.eid
                                        if dropped.sub_eids is not None:
                                            victim.sub_eids = list(
                                                dropped.sub_eids
                                            )
                                    if victim._dirty:
                                        target = llc_tags.get(vaddr)
                                        if target is None:
                                            raise SimulationError(
                                                "inclusion violated: L2 victim "
                                                "%#x absent from LLC" % vaddr
                                            )
                                        # _merge_lines inline: target lives in
                                        # the LLC — dirty dict and EID-index
                                        # refresh are live.
                                        target.token = victim.token
                                        if not target._dirty:
                                            target._dirty = True
                                            llc_dirty[vaddr] = target
                                        old = target.eid
                                        new_eid = victim.eid
                                        had_sub = target.sub_eids is not None
                                        target.eid = new_eid
                                        if victim.sub_eids is not None:
                                            target.sub_eids = list(
                                                victim.sub_eids
                                            )
                                        if new_eid != old or (
                                            target.sub_eids is not None
                                            and not had_sub
                                        ):
                                            if index is not None:
                                                index_refresh(
                                                    target, old, had_sub
                                                )
                                lat = lat2 + l2_latency
                            # copy_fill inline (L2 → L1).
                            line = new_line(CacheLine)
                            line.addr = addr
                            line.state = EXCLUSIVE
                            line._dirty = False
                            line.token = source.token
                            line.eid = source.eid
                            line.owner = None
                            sub = source.sub_eids
                            line.sub_eids = list(sub) if sub is not None else None
                            line._home = None
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            cache_set.insert(0, line)
                            l1_tags[addr] = line
                            line._home = l1
                            # (copy_fill lines are clean: no dirty insert)
                            if len(cache_set) > l1_assoc:
                                victim = cache_set.pop()
                                vaddr = victim.addr
                                del l1_tags[vaddr]
                                victim._home = None
                                d_l1_ev += 1
                                if victim._dirty:
                                    del l1_dirty[vaddr]
                                    # _merge_down into L2
                                    target = l2_tags.get(vaddr)
                                    if target is None:
                                        raise SimulationError(
                                            "inclusion violated: L1 victim %#x "
                                            "absent from l2" % vaddr
                                        )
                                    # _merge_lines inline: target lives in the
                                    # L2 — dirty dict live, no EID index on
                                    # private caches.
                                    target.token = victim.token
                                    if not target._dirty:
                                        target._dirty = True
                                        l2_dirty[vaddr] = target
                                    target.eid = victim.eid
                                    if victim.sub_eids is not None:
                                        target.sub_eids = list(victim.sub_eids)
                            fill_lat = lat + l1_latency
                            if w:
                                wait = int(fill_lat * smf) + fstall
                            else:
                                wait = fill_lat + fstall
                        # ==== the store continuation of access() ====
                        if w:
                            if smode == 2:
                                # PiclScheme.on_store, plain mode, transcribed:
                                # cheap same-epoch branch, else the full branch
                                # with the undo append deferred into ``pend``.
                                seq_delta += 1
                                if line.eid != sys_eid:
                                    vf = line.eid
                                    if vf < 0:
                                        vf = epochs.persisted_eid
                                    entry = UndoEntry(addr, line.token, vf, sys_eid)
                                    if (
                                        len(buffer._entries) + len(pend) + 1
                                        >= capacity
                                    ):
                                        # The capacity-reaching entry goes
                                        # through add() so the flush fires at
                                        # the scalar trigger with the scalar
                                        # issue cycle (add() itself does the
                                        # bloom/pending/created work for it).
                                        if pend:
                                            buffer._entries.extend(pend)
                                            created.value += len(pend)
                                            pend = []
                                        channel.read_busy_until = rbu
                                        channel.write_backlog = wbk
                                        channel.backlog_updated_at = bua
                                        ch_live = False
                                        wait += buffer.add(entry, cycle)
                                        rbu = channel.read_busy_until
                                        wbk = channel.write_backlog
                                        bua = channel.backlog_updated_at
                                        ch_live = True
                                    else:
                                        # Defer the FIFO append, but update the
                                        # hazard-probe structures eagerly —
                                        # BloomFilter.add (2-hash, unrolled)
                                        # and the pending-address set.
                                        pend.append(entry)
                                        buffer._pending_addrs.add(addr)
                                        if bloom2:
                                            h1 = (addr * 2654435761) & 0xFFFFFFFF
                                            pos = h1 & bmask
                                            bwords[pos >> 6] |= 1 << (pos & 63)
                                            pos = (
                                                h1
                                                + (
                                                    ((addr >> 6) * 40503 + 0x9E3779B9)
                                                    & 0xFFFFFFFF
                                                )
                                            ) & bmask
                                            bwords[pos >> 6] |= 1 << (pos & 63)
                                            bloom._population += 1
                                        else:
                                            bloom_add(addr)
                                    # apply_store on the L1 line (64 B, no
                                    # EID index on private caches).
                                    line.eid = sys_eid
                                    d_cross += 1
                                    # Undo forwarding: retag the LLC copy,
                                    # EID-index exact (apply_store inline).
                                    llc_fwd = llc_tags.get(addr)
                                    if llc_fwd is None:
                                        raise SimulationError(
                                            "inclusion violated: stored line "
                                            "%#x absent from LLC" % addr
                                        )
                                    if llc_fwd is not line:
                                        # apply_store on the LLC copy:
                                        # EidIndex.retag transcribed (strict
                                        # KeyError on drift, like the index).
                                        old = llc_fwd.eid
                                        if old != sys_eid:
                                            llc_fwd.eid = sys_eid
                                            if llc_fwd.sub_eids is None:
                                                if old >= 0:
                                                    bucket = buckets[old]
                                                    del bucket[addr]
                                                    if not bucket:
                                                        del buckets[old]
                                                bucket = buckets.get(sys_eid)
                                                if bucket is None:
                                                    bucket = buckets[sys_eid] = {}
                                                bucket[addr] = llc_fwd
                            elif smode == 1:
                                # (pend is provably empty in smode 1.)
                                channel.read_busy_until = rbu
                                channel.write_backlog = wbk
                                channel.backlog_updated_at = bua
                                ch_live = False
                                wait += sink_on_store(core_id, line, cycle)
                                rbu = channel.read_busy_until
                                wbk = channel.write_backlog
                                bua = channel.backlog_updated_at
                                ch_live = True
                            # smode 0: base on_store is a no-op.
                            line.token = token
                            if not line._dirty:
                                line._dirty = True
                                l1_dirty[addr] = line
                            line.state = modified
                            d_stores += 1
                            if track:
                                arch_image[addr] = token
                        else:
                            d_loads += 1
                        ccycle = cycle + wait
                        # ==== run-coalescing tail (access_repeat inline) ====
                        k = run_left[i]
                        i += 1
                        if k:
                            # The tail is i .. i + k - 1, cut at the segment
                            # end; ``write_left`` counts its stores.
                            run_end = i + k
                            if run_end > seg_end:
                                run_end = seg_end
                                k = run_end - i
                                kw = write_left[i - 1] - write_left[run_end - 1]
                            else:
                                kw = write_left[i - 1]
                            wait = k * l1_latency
                            tcycle = (
                                ccycle + (cum[run_end - 1] - cum[i - 1]) - k + wait
                            )
                            # Coalesce only a tail that stays inside the
                            # turn: clocks only grow, so no reference of
                            # it would have ended the turn either.
                            if k and (tcycle < top or (tcycle == top and wins)):
                                if kw:
                                    # The head access just made ``line``
                                    # resident and MRU (fills insert at the
                                    # front, hits move to it, and no scheme
                                    # callback evicts L1 lines), so the
                                    # scalar probe is provably true and
                                    # skipped; the dirty/MODIFIED guard is
                                    # real — the head may have been a load.
                                    ok = False
                                    if line._dirty and line.state == modified:
                                        if smode == 0:
                                            ok = True
                                        elif smode == 2:
                                            if line.eid == sys_eid:
                                                seq_delta += kw
                                                ok = True
                                        else:
                                            # (pend is provably empty in
                                            # smode 1.)
                                            channel.read_busy_until = rbu
                                            channel.write_backlog = wbk
                                            channel.backlog_updated_at = bua
                                            ch_live = False
                                            ok = (
                                                sink_repeat(core_id, line, kw, ccycle)
                                                is not None
                                            )
                                            rbu = channel.read_busy_until
                                            wbk = channel.write_backlog
                                            bua = channel.backlog_updated_at
                                            ch_live = True
                                    if ok:
                                        last_token = ntok + kw - 1
                                        line.token = last_token
                                        d_stores += kw
                                        d_l1_hits += k
                                        d_loads += k - kw
                                        ntok += kw
                                        if track:
                                            arch_image[addr] = last_token
                                        ccycle = tcycle
                                        i = run_end
                                        continue
                                else:
                                    d_l1_hits += k
                                    d_loads += k
                                    ccycle = tcycle
                                    i = run_end
                                    continue
                        # -- the turn test: stay while a push-then-pop
                        #    would hand this core straight back
                        if ccycle >= top and (ccycle > top or not wins):
                            break
                    else:
                        # -- the segment ran out inside the turn: a chunk
                        #    end (loop on) or the boundary
                        if seg_end == n and tbase + cum[n - 1] < boundary:
                            continue
                    # -- the turn ends at reference i - 1, the boundary
                    #    reference or one whose clock passed the heap top
                    done = cum[i - 1]
                    total = tbase + done
                    cursor.pos = i
                    cursor.done = done
                    core.cycle = ccycle
                    if total >= boundary:
                        system.total_instructions = total
                        current[0] = core_id
                        return True
                    core_id = heapreplace(heap, (ccycle, core_id))[1]
                    switch = True
            except CrashSignal:
                if eager:
                    # The multi-core loop committed the crashing
                    # reference's compute gap before its access chain.
                    fix = i
                raise
            finally:
                if pend:
                    buffer._entries.extend(pend)
                    created.value += len(pend)
                if ch_live:
                    channel.read_busy_until = rbu
                    channel.write_backlog = wbk
                    channel.backlog_updated_at = bua
                # Instruction counts are kept by the cursors (synced at
                # turn ends, chunk ends and the boundary). Stall cycles
                # are derived, not accumulated: a core's clock is its
                # retired gaps plus its memory waits plus its commit
                # stalls, and the gaps are its instructions minus its
                # references.
                for lane in lanes:
                    other, trace = lane[0], lane[1]
                    other.instructions = trace.base + trace.done
                    other.mem_stall_cycles = (
                        other.cycle
                        - other.commit_stall_cycles
                        - other.instructions
                        + trace.refs
                        + trace.pos
                    )
                # The running core from its locals; a multi-core crash
                # also counts the crashing reference's gap.
                done = cum[i - 1] if i else 0
                core.mem_stall_cycles = (
                    ccycle
                    - core.commit_stall_cycles
                    - (cursor.base + done)
                    + cursor.refs
                    + i
                )
                if fix is not None:
                    ccycle += gaps[fix]
                    core.instructions = cursor.base + done + gaps[fix]
                    system.total_instructions = tbase + done
                core.cycle = ccycle
                system._next_token = ntok
                # Deltas flush exactly once — here — whether the drain
                # completes or dies on a crash.
                if seq_delta:
                    scheme._store_seq += seq_delta
                if d_l1_hits:
                    s_l1_hits.value += d_l1_hits
                if d_loads:
                    s_loads.value += d_loads
                if d_stores:
                    s_stores.value += d_stores
                if d_l1_miss:
                    s_l1_miss.value += d_l1_miss
                if d_l2_hits:
                    s_l2_hits.value += d_l2_hits
                if d_l2_miss:
                    s_l2_miss.value += d_l2_miss
                if d_llc_hits:
                    s_llc_hits.value += d_llc_hits
                if d_llc_miss:
                    s_llc_miss.value += d_llc_miss
                if d_llc_dirty:
                    s_llc_dirty.value += d_llc_dirty
                if d_llc_clean:
                    s_llc_clean.value += d_llc_clean
                if d_l1_ev:
                    s_l1_ev.value += d_l1_ev
                if d_l2_ev:
                    s_l2_ev.value += d_l2_ev
                if d_llc_ev:
                    s_llc_ev.value += d_llc_ev
                if d_fills:
                    s_fills.value += d_fills
                if d_wbs:
                    s_wbs.value += d_wbs
                if d_iops_dr:
                    s_iops_dr.value += d_iops_dr
                if d_iops_wb:
                    s_iops_wb.value += d_iops_wb
                if d_bytes_r:
                    s_bytes_r.value += d_bytes_r
                if d_bytes_w:
                    s_bytes_w.value += d_bytes_w
                if d_cross:
                    s_cross.value += d_cross

        return drain

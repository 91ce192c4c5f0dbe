"""The simulation driver.

Builds a system from a :class:`repro.sim.config.SystemConfig`, attaches a
scheme, and drives one synthetic trace per core through it. Cores are
interleaved in turns by always advancing the one with the earliest
``(cycle, core_id)`` heap key, so shared resources (LLC, NVM channels) see
a roughly time-ordered request stream. Keys are not refreshed after a
stop-the-world stall, so waiting cores are ordered by their pre-stall
clocks (see :meth:`Simulation._run_multi_core`).

Epoch boundaries fire when the system-wide instruction count crosses
multiples of ``epoch_instructions * n_cores`` (for a single core this is
exactly the paper's instruction-count epochs); overflow-forced commits
happen inside the schemes' ``on_store`` hooks. Scheduled-commit stalls are
stop-the-world (charged to every core); overflow stalls are charged to the
offending core, with the other cores slowed naturally by NVM backpressure.

Crash injection: pass ``crash_at_instructions`` to stop mid-run, or a
:class:`repro.fault.CrashPlan` as ``crash_plan`` to power-fail at a
*semantic* event (mid-undo-flush, eviction-before-log-write, mid-ACS
scan, …); then call :meth:`Simulation.crash_and_recover` to lose all
volatile state, run the scheme's recovery, and get back the recovered
image together with the reference snapshot it must match.
"""

import heapq
from bisect import bisect_left

import numpy as np

from repro.baselines import Frm, IdealNvm, Journaling, ShadowPaging, ThyNvm
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import LineState
from repro.cache.miss_engine import build_engine as build_miss_engine
from repro.common.errors import ConfigurationError
from repro.common.stats import StatCounters
from repro.core.picl import PiclScheme
from repro.cpu.core import CoreState
from repro.fault.plan import CrashSignal
from repro.cpu.system import System
from repro.mem.controller import MemoryController
from repro.sim.results import SimulationResult
from repro.trace.profiles import get_profile
from repro.trace.synthetic import make_trace

#: Address-space stride between cores (programs never share lines).
_CORE_ADDR_STRIDE = 1 << 40

#: Columnar interpreter: shortest all-fast stretch (in references *and* in
#: coalescing groups) worth bulk application; anything shorter replays
#: through the scalar body, whose run-coalescing covers it in O(groups).
_BULK_MIN = 8

#: Bulk stretches spanning at least this many coalescing groups use the
#: numpy reductions in bulk_span; sparser ones use its plain-Python
#: group-at-a-time path (less per-call setup).
_NUMPY_BULK_MIN = 64

#: Classification window bounds: the lookahead doubles from the initial
#: size while windows stay fully fast and productive, and halves when
#: bulk application comes up short.
_WINDOW_INIT = 256
_WINDOW_MIN = 128
_WINDOW_MAX = 4096

#: After this many consecutive unproductive windows the interpreter
#: disengages into a scalar burst before probing again, so miss-heavy
#: phases pay ~zero classification overhead. Bursts start at
#: _DISENGAGE_REFS references and double up to _DISENGAGE_MAX while
#: re-probes keep failing (geometric backoff), so a workload the columnar
#: path never helps converges to pure scalar speed while still noticing a
#: phase change within ~_DISENGAGE_MAX references.
_SHORT_LIMIT = 2
_DISENGAGE_REFS = 4096
_DISENGAGE_MAX = 65536

SCHEME_NAMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


class _TraceCursor:
    """Positional reader over a trace's chunks.

    Indexes the chunk's parallel gap/addr/write lists directly so the
    interleaved multi-core loop never materializes a per-reference tuple.
    """

    __slots__ = ("_chunks", "gaps", "addrs", "writes", "pos", "n")

    def __init__(self, trace):
        self._chunks = trace.chunks()
        self.gaps = self.addrs = self.writes = ()
        self.pos = 0
        self.n = 0

    def advance(self):
        """Load the next chunk; returns False when the trace is exhausted."""
        chunk = next(self._chunks, None)
        if chunk is None:
            return False
        self.gaps = chunk.gaps
        self.addrs = chunk.addrs
        self.writes = chunk.writes
        self.pos = 0
        self.n = len(chunk.gaps)
        return True


def build_scheme(name, system, config):
    """Instantiate a scheme by name with the config's parameters."""
    if name == "ideal":
        return IdealNvm(system)
    if name == "journaling":
        return Journaling(
            system, config.journal_table_entries, config.table_assoc
        )
    if name == "shadow":
        return ShadowPaging(
            system, config.shadow_table_entries, config.table_assoc
        )
    if name == "frm":
        return Frm(system)
    if name == "thynvm":
        return ThyNvm(
            system,
            config.thynvm_block_entries,
            config.thynvm_page_entries,
            config.table_assoc,
        )
    if name == "picl":
        return PiclScheme(system, config.picl)
    raise ConfigurationError(
        "unknown scheme %r; known: %s" % (name, ", ".join(SCHEME_NAMES))
    )


class Simulation:
    """One system + one scheme + one trace per core.

    ``shared_memory=False`` (the default, the paper's multiprogram rate
    mode) gives every core a disjoint address space; ``True`` makes all
    cores address one shared working set — a multithreaded workload whose
    cross-core stores exercise coherence, undo forwarding, and recovery
    under sharing.
    """

    def __init__(
        self,
        config,
        scheme_name,
        benchmarks,
        n_instructions,
        seed=1234,
        shared_memory=False,
    ):
        if isinstance(benchmarks, str):
            benchmarks = [benchmarks]
        if len(benchmarks) != config.n_cores:
            raise ConfigurationError(
                "%d benchmarks for %d cores" % (len(benchmarks), config.n_cores)
            )
        self.shared_memory = shared_memory
        self.config = config
        self.scheme_name = scheme_name
        self.benchmarks = list(benchmarks)
        self.n_instructions = n_instructions
        self.stats = StatCounters()
        self.controller = MemoryController(config.nvm, self.stats)
        self.hierarchy = CacheHierarchy(
            self.controller,
            n_cores=config.n_cores,
            l1_size=config.l1_size,
            l1_assoc=config.l1_assoc,
            l1_latency=config.l1_latency,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l2_latency=config.l2_latency,
            llc_size_per_core=config.llc_size_per_core,
            llc_assoc=config.llc_assoc,
            llc_latency=config.llc_latency,
            line_size=config.line_size,
            store_miss_factor=config.store_miss_factor,
            stats=self.stats,
        )
        self.cores = [CoreState(i) for i in range(config.n_cores)]
        self.system = System(
            self.controller,
            self.hierarchy,
            self.cores,
            stats=self.stats,
            epoch_handler_cycles=config.epoch_handler_cycles,
            track_reference=config.track_reference,
            reference_depth=config.reference_depth,
        )
        self.scheme = build_scheme(scheme_name, self.system, config)
        self.traces = []
        for core_id, name in enumerate(self.benchmarks):
            profile = config.scale_profile(get_profile(name))
            addr_base = 0 if shared_memory else core_id * _CORE_ADDR_STRIDE
            self.traces.append(
                make_trace(
                    profile,
                    n_instructions,
                    seed=seed + core_id * 101,
                    addr_base=addr_base,
                )
            )
        self.crashed = False
        #: The semantic crash site that fired (None for clean runs and
        #: instruction-count crashes).
        self.crash_site = None
        self._ran = False

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def run(self, crash_at_instructions=None, crash_plan=None):
        """Drive the traces to completion (or to the crash point).

        ``crash_plan`` injects a semantic-event crash (see
        :mod:`repro.fault.plan`): instruction-count plans fold into
        ``crash_at_instructions``; site plans install hooks on the
        hierarchy/scheme and power-fail by raising ``CrashSignal`` from
        inside the crash window. A plan whose site is never reached lets
        the run complete (check ``crash_plan.fired``).
        """
        if self._ran:
            raise ConfigurationError("a Simulation object runs exactly once")
        self._ran = True
        if crash_plan is not None:
            if crash_plan.at_instructions is not None:
                if crash_at_instructions is None:
                    crash_at_instructions = crash_plan.at_instructions
                else:
                    crash_at_instructions = min(
                        crash_at_instructions, crash_plan.at_instructions
                    )
            else:
                crash_plan.install(self)
        try:
            if len(self.cores) == 1:
                # REPRO_VECTOR (default on) attaches a numpy tag mirror to
                # the single core's L1 at construction; its presence
                # selects the columnar interpreter. REPRO_VECTOR=0 leaves
                # it detached and restores the scalar loop.
                if self.hierarchy._l1[0]._vec is not None:
                    self._run_single_core_vector(crash_at_instructions)
                else:
                    self._run_single_core(crash_at_instructions)
            else:
                self._run_multi_core(crash_at_instructions)
            if not self.crashed:
                stall = self.scheme.finalize(self.system.max_cycle())
                self.system.broadcast_stall(stall)
        except CrashSignal as signal:
            self.crashed = True
            self.crash_site = signal.site
        return self.result()

    def _run_single_core(self, crash_at_instructions):
        """The dominant case: one core, batched over boundary-free segments.

        Each chunk is segmented at the epoch/crash boundaries up front
        (via its cumulative instruction counts, ``bisect`` against the
        next boundary), so the inner loop runs check-free: no per-reference
        epoch or crash comparison. Within a segment, a run of consecutive
        references to one line (``chunk.run_ends``) is dispatched through
        :meth:`repro.cache.hierarchy.CacheHierarchy.access_repeat` — the
        coalescing fast path that charges ``count × hit_latency`` when the
        repeats provably cannot change cache or scheme state, and returns
        None (forcing exact one-by-one replay) when they could. Instruction
        counters are synced at segment boundaries only; nothing observes
        them in between. Results are bit-identical to the per-reference
        loop (asserted by tests/sim/test_batching.py).
        """
        system = self.system
        scheme = self.scheme
        hierarchy = self.hierarchy
        access = hierarchy.access
        access_repeat = hierarchy.access_repeat
        # The L1 read-hit path of ``access`` is inlined below (same shape,
        # same counters) — it is the single most common operation of a run,
        # and the call itself is measurable at this volume.
        l1 = hierarchy._l1[0]
        l1_tags = l1._tags
        l1_sets = l1._sets
        l1_shift = l1._line_shift
        l1_mask = l1._set_mask
        l1_latency = l1.hit_latency
        l1_hits = hierarchy._l1_hits
        loads = hierarchy._loads
        core = self.cores[0]
        epoch_span = self.config.epoch_instructions
        next_epoch = epoch_span
        track = system.track_reference
        arch_image = system.arch_image
        total = system.total_instructions
        crash = crash_at_instructions

        for chunk in self.traces[0].chunks():
            chunk.ensure_metadata()
            gaps = chunk.gaps
            addrs = chunk.addrs
            writes = chunk.writes
            cum = chunk.cum_instructions
            run_ends = chunk.run_ends
            wcum = chunk.write_cum
            n = len(gaps)
            base = total
            index = 0
            while index < n:
                # The segment ends at (and includes) the first reference
                # whose retirement crosses the next epoch or crash point.
                limit = next_epoch - base
                if crash is not None and crash - base < limit:
                    limit = crash - base
                seg_end = bisect_left(cum, limit, index) + 1
                if seg_end > n:
                    seg_end = n
                while index < seg_end:
                    gap = gaps[index]
                    cycle = core.cycle + gap
                    addr = addrs[index]
                    if writes[index]:
                        token = system._next_token
                        system._next_token = token + 1
                        wait = access(0, addr, True, token, cycle)
                        if track:
                            arch_image[addr] = token
                    else:
                        line = l1_tags.get(addr)
                        if line is not None:
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            if cache_set[0] is not line:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                            l1_hits.value += 1
                            loads.value += 1
                            wait = l1_latency
                        else:
                            wait = access(0, addr, False, 0, cycle)
                    core.cycle = cycle + wait
                    core.mem_stall_cycles += wait
                    run_end = run_ends[index]
                    if run_end > seg_end:
                        run_end = seg_end
                    index += 1
                    if run_end > index:
                        # Tail of a same-line run: after the access above
                        # the line is L1-resident at MRU, so the repeats
                        # may coalesce. Tokens are only consumed (and the
                        # reference image only updated) once the fast path
                        # commits to the whole tail.
                        k = run_end - index
                        kw = wcum[run_end - 1] - wcum[index - 1]
                        if kw:
                            last_token = system._next_token + kw - 1
                            wait = access_repeat(
                                0, addr, k - kw, kw, last_token, core.cycle
                            )
                            if wait is None:
                                continue
                            system._next_token += kw
                            if track:
                                arch_image[addr] = last_token
                        else:
                            wait = access_repeat(0, addr, k, 0, 0, core.cycle)
                            if wait is None:
                                continue
                        core.cycle += (cum[run_end - 1] - cum[index - 1]) - k + wait
                        core.mem_stall_cycles += wait
                        index = run_end
                total = base + cum[index - 1]
                if total >= next_epoch:
                    system.total_instructions = total
                    core.instructions = total
                    stall = scheme.on_epoch_boundary(core.cycle)
                    system.broadcast_stall(stall)
                    next_epoch += epoch_span
                if crash is not None and total >= crash:
                    system.total_instructions = total
                    core.instructions = total
                    self.crashed = True
                    return
            system.total_instructions = total
            core.instructions = total
        core.finished = True

    def _run_single_core_vector(self, crash_at_instructions):
        """Columnar interpreter: classify lookahead windows array-at-a-time.

        Builds on the segmented loop above but replaces its per-reference
        walk. Within each boundary-free segment the loop repeatedly:

        1. **Classifies a window.** Set indices and an L1 tag probe for the
           next ``window`` references in numpy against the L1's live tag
           mirror (:class:`repro.cache.vector_mirror.L1TagMirror`). A
           reference is *fast* when it is a classified L1 hit the scheme
           cannot observe: every load hit, plus store hits the scheme's
           ``vector_store_filter`` declares silent (all of them, none, or
           only lines tagged with a given EID — PiCL's same-epoch branch).
           Everything else is *residual*.
        2. **Bulk-applies all-fast stretches.** A stretch of consecutive
           fast references is applied at once: cycle/stall arithmetic from
           the cumulative metadata, bulk counter bumps, MRU reordering in
           last-touch order, last-write tokens per line — exactly the
           state the references would have left one by one. Applying a
           fast stretch cannot change residency or EIDs, so it can never
           invalidate its own classification.
        3. **Replays residuals exactly** through the verbatim scalar body,
           so misses, evictions, undo logging, and crash-plan sites behave
           identically. A residual's evictions CAN invalidate the rest of
           the window (a classified hit whose line just left — the
           stale-positive direction; see vector_mirror's docstring), so the
           mirror logs removals and the loop rescans the remaining window
           for any victim, reclassifying from the current position when one
           appears. Residual side effects can also flip references the
           *other* way (a cross-epoch store retags its line silent); those
           stay residual and replay exactly, which is merely conservative.

        The loop is self-tuning: the window doubles while classification
        keeps paying off (long fast prefixes) and shrinks when prefixes
        come up short; after a few consecutive short prefixes it disengages
        into a pure scalar burst before probing again, so miss-heavy
        workloads pay near-zero classification overhead.

        Bit-identical to the scalar loop — same counters, tokens, cycles,
        recovery images — asserted by tests/sim/test_vectorized.py.
        """
        system = self.system
        scheme = self.scheme
        hierarchy = self.hierarchy
        access = hierarchy.access
        access_repeat = hierarchy.access_repeat
        l1 = hierarchy._l1[0]
        vec = l1._vec
        l1_tags = l1._tags
        l1_sets = l1._sets
        l1_dirty = l1._dirty_lines
        l1_shift = l1._line_shift
        l1_mask = l1._set_mask
        l1_latency = l1.hit_latency
        l1_hits = hierarchy._l1_hits
        loads = hierarchy._loads
        stores = hierarchy._stores
        modified = LineState.MODIFIED
        tags2d = vec.tags2d
        eids2d = vec.eids2d
        removed = vec.removed
        core = self.cores[0]
        epoch_span = self.config.epoch_instructions
        next_epoch = epoch_span
        track = system.track_reference
        arch_image = system.arch_image
        total = system.total_instructions
        crash = crash_at_instructions
        bulk_min = _BULK_MIN
        window = _WINDOW_INIT
        shorts = 0
        scalar_budget = 0
        burst_len = _DISENGAGE_REFS
        productive = False
        # Batched miss-chain engine (repro.cache.miss_engine): residual
        # spans drain through one fused loop instead of the per-miss call
        # chain. None when ineligible (REPRO_BATCH_MISS=0, multi-channel
        # NVM, DRAM cache, foreign sink) — every call site below then
        # falls back to scalar_span, byte-identically.
        engine = build_miss_engine(self)

        for chunk in self.traces[0].chunks():
            chunk.ensure_metadata()
            chunk.ensure_arrays()
            gaps = chunk.gaps
            addrs = chunk.addrs
            writes = chunk.writes
            cum = chunk.cum_instructions
            run_ends = chunk.run_ends
            rcum = chunk.run_cum
            wcum = chunk.write_cum
            np_addrs = chunk.np_addrs
            np_writes = chunk.np_writes
            n = len(gaps)
            base = total

            def scalar_span(
                i,
                stop,
                seg_end,
                # Default-arg binding: the body runs per reference, and
                # locals are materially faster than closure derefs there.
                gaps=gaps,
                addrs=addrs,
                writes=writes,
                cum=cum,
                run_ends=run_ends,
                wcum=wcum,
                core=core,
                system=system,
                access=access,
                access_repeat=access_repeat,
                track=track,
                arch_image=arch_image,
                l1_tags=l1_tags,
                l1_sets=l1_sets,
                l1_shift=l1_shift,
                l1_mask=l1_mask,
                l1_latency=l1_latency,
                l1_hits=l1_hits,
                loads=loads,
            ):
                """The verbatim scalar body over [i, stop); returns new i.

                Run-coalescing tails may legitimately advance past ``stop``
                (never past ``seg_end``) — the caller's window bookkeeping
                skips anything already consumed.
                """
                while i < stop:
                    gap = gaps[i]
                    cycle = core.cycle + gap
                    addr = addrs[i]
                    if writes[i]:
                        token = system._next_token
                        system._next_token = token + 1
                        wait = access(0, addr, True, token, cycle)
                        if track:
                            arch_image[addr] = token
                    else:
                        line = l1_tags.get(addr)
                        if line is not None:
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            if cache_set[0] is not line:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                            l1_hits.value += 1
                            loads.value += 1
                            wait = l1_latency
                        else:
                            wait = access(0, addr, False, 0, cycle)
                    core.cycle = cycle + wait
                    core.mem_stall_cycles += wait
                    run_end = run_ends[i]
                    if run_end > seg_end:
                        run_end = seg_end
                    i += 1
                    if run_end > i:
                        k = run_end - i
                        kw = wcum[run_end - 1] - wcum[i - 1]
                        if kw:
                            last_token = system._next_token + kw - 1
                            wait = access_repeat(
                                0, addr, k - kw, kw, last_token, core.cycle
                            )
                            if wait is None:
                                continue
                            system._next_token += kw
                            if track:
                                arch_image[addr] = last_token
                        else:
                            wait = access_repeat(0, addr, k, 0, 0, core.cycle)
                            if wait is None:
                                continue
                        core.cycle += (
                            cum[run_end - 1] - cum[i - 1]
                        ) - k + wait
                        core.mem_stall_cycles += wait
                        i = run_end
                return i

            def bulk_span(
                s,
                r,
                nruns,
                # Same default-arg binding as scalar_span: the group loops
                # below run once per coalescing group.
                addrs=addrs,
                cum=cum,
                run_ends=run_ends,
                wcum=wcum,
                core=core,
                system=system,
                scheme=scheme,
                track=track,
                arch_image=arch_image,
                l1_tags=l1_tags,
                l1_sets=l1_sets,
                l1_dirty=l1_dirty,
                l1_shift=l1_shift,
                l1_mask=l1_mask,
                l1_latency=l1_latency,
                l1_hits=l1_hits,
                loads=loads,
                stores=stores,
                modified=modified,
            ):
                """Apply the all-fast stretch [s, r) at once.

                The aggregate arithmetic (cycles, stalls, counters, token
                range) is O(1) off the cumulative metadata; per-line state
                (MRU order, last-write token, dirty bit) is applied once
                per *distinct* line. The Python path iterates coalescing
                groups (``run_ends`` jumps), never references, so its cost
                matches the scalar loop's O(runs) — the numpy reductions
                take over above a run-count crossover.
                """
                k = r - s
                prev_cum = cum[s - 1] if s else 0
                base_w = wcum[s - 1] if s else 0
                nw = wcum[r - 1] - base_w
                core.cycle += (cum[r - 1] - prev_cum) - k + k * l1_latency
                core.mem_stall_cycles += k * l1_latency
                l1_hits.bump(k)
                loads.bump(k - nw)
                if nruns < _NUMPY_BULK_MIN:
                    # MRU: one move-to-front per distinct line, ascending
                    # last-touch, so the final order matches k individual
                    # touches (re-inserting moves a key to the end).
                    order = {}
                    j = s
                    while j < r:
                        addr = addrs[j]
                        if addr in order:
                            del order[addr]
                        order[addr] = None
                        j = run_ends[j]
                    for addr in order:
                        line = l1_tags[addr]
                        cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                        if cache_set[0] is not line:
                            cache_set.remove(line)
                            cache_set.insert(0, line)
                    if nw:
                        nt = system._next_token
                        system._next_token = nt + nw
                        # A line's surviving token is its last store in the
                        # stretch: the last write of the last run that
                        # stores to it, whose ordinal is the cumulative
                        # write count at that run's end (intermediates are
                        # unobservable — same argument as access_repeat's
                        # last_token). Dict insertion order = first-store
                        # order, matching the dirty dict's scalar order.
                        last = {}
                        j = s
                        prev_w = base_w
                        while j < r:
                            e = run_ends[j]
                            if e > r:
                                e = r
                            wend = wcum[e - 1]
                            if wend != prev_w:
                                last[addrs[j]] = nt + (wend - base_w) - 1
                                prev_w = wend
                            j = e
                        for addr, tok in last.items():
                            line = l1_tags[addr]
                            line.token = tok
                            if not line._dirty:
                                line._dirty = True
                                l1_dirty[addr] = line
                            line.state = modified
                            if track:
                                arch_image[addr] = tok
                        stores.bump(nw)
                        scheme.on_store_bulk(nw)
                    return
                a_seg = np_addrs[s:r]
                ru, ridx = np.unique(a_seg[::-1], return_index=True)
                for addr in ru[np.argsort(ridx)[::-1]].tolist():
                    line = l1_tags[addr]
                    cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                    if cache_set[0] is not line:
                        cache_set.remove(line)
                        cache_set.insert(0, line)
                if nw:
                    nt = system._next_token
                    system._next_token = nt + nw
                    waddr = a_seg[np.flatnonzero(np_writes[s:r])]
                    wu, widx = np.unique(waddr[::-1], return_index=True)
                    last_tok = (nt + (nw - 1) - widx).tolist()
                    wu_list = wu.tolist()
                    first_idx = np.unique(waddr, return_index=True)[1]
                    for j in np.argsort(first_idx).tolist():
                        addr = wu_list[j]
                        tok = last_tok[j]
                        line = l1_tags[addr]
                        line.token = tok
                        if not line._dirty:
                            line._dirty = True
                            l1_dirty[addr] = line
                        line.state = modified
                        if track:
                            arch_image[addr] = tok
                    stores.bump(nw)
                    scheme.on_store_bulk(nw)

            if engine is not None:
                drain = engine.make_drain(gaps, addrs, writes, cum, run_ends, wcum)

            index = 0
            while index < n:
                limit = next_epoch - base
                if crash is not None and crash - base < limit:
                    limit = crash - base
                seg_end = bisect_left(cum, limit, index) + 1
                if seg_end > n:
                    seg_end = n
                # ``is True``/``is False`` below: an EID filter value of 0
                # or 1 must not be mistaken for the booleans. The filter is
                # fixed within a segment (the SystemEID only moves at
                # boundaries, which are segment ends by construction).
                sfilter = scheme.vector_store_filter()
                i = index
                while i < seg_end:
                    if scalar_budget > 0:
                        stop = i + scalar_budget
                        if stop > seg_end:
                            stop = seg_end
                        if engine is not None:
                            # The drain maintains the mirror queues at its
                            # inlined fill/evict sites for free, so bursts
                            # keep the mirror attached — no stale rebuild
                            # at the next sync.
                            ni = drain(i, stop, seg_end, sfilter)
                        else:
                            # Detach the mirror for the burst: the hot
                            # cache paths then pay zero queue-append tax
                            # (byte-identical to REPRO_VECTOR=0), and the
                            # next sync rebuilds from the live tags
                            # instead of replaying what the burst changed.
                            l1._vec = None
                            try:
                                ni = scalar_span(i, stop, seg_end)
                            finally:
                                l1._vec = vec
                                vec.stale = True
                        scalar_budget -= ni - i
                        i = ni
                        continue
                    if seg_end - i < bulk_min:
                        if engine is not None:
                            i = drain(i, seg_end, seg_end, sfilter)
                        else:
                            i = scalar_span(i, seg_end, seg_end)
                        break
                    # -- classify the next window against the mirror,
                    #    reconciled here (and only here) with the live tags
                    vec.sync(l1_tags)
                    wb = i
                    we = wb + window
                    if we > seg_end:
                        we = seg_end
                    a_win = np_addrs[wb:we]
                    sidx = (a_win >> l1_shift) & l1_mask
                    eq = tags2d[sidx] == a_win[:, None]
                    hit = eq.any(axis=1)
                    if sfilter is True:
                        fast = hit
                    elif sfilter is False:
                        fast = hit & ~np_writes[wb:we]
                    else:
                        fast = np.where(
                            np_writes[wb:we],
                            (eq & (eids2d[sidx] == sfilter)).any(axis=1),
                            hit,
                        )
                    bad = (np.flatnonzero(~fast) + wb).tolist()
                    n_bad = len(bad)
                    if engine is not None and n_bad * 4 >= we - wb:
                        # Residual-dense window (≥25%): the walk's bulk
                        # stretches cannot pay for themselves between
                        # misses, so hand the whole window to the drain
                        # (exact path, no stale-positive bookkeeping
                        # needed). Counted as unproductive below, which
                        # steers persistently miss-heavy phases into
                        # drain bursts with zero classification cost.
                        i = drain(wb, we, seg_end, sfilter)
                        removed.clear()
                        bulked_runs = 0
                    else:
                        # Fast positions (absolute) and their addresses,
                        # for the stale-positive guard below: only a
                        # victim that the *remaining fast* part of the
                        # window references can invalidate the
                        # classification — residual positions replay
                        # exactly regardless.
                        fpos = np.flatnonzero(fast) + wb
                        fast_addrs = a_win[fast]
                        removed.clear()
                        # -- walk the window: bulk fast stretches, replay
                        #    residuals, revalidate after each residual
                        bptr = 0
                        bulked_runs = 0
                        while i < we:
                            while bptr < n_bad and bad[bptr] < i:
                                bptr += 1
                            nxt = bad[bptr] if bptr < n_bad else we
                            if nxt - i >= bulk_min:
                                # Size the stretch in coalescing groups,
                                # not references: the scalar loop replays
                                # a same-line run in O(1), so a long but
                                # run-sparse stretch is cheaper replayed.
                                nruns = rcum[nxt - 1] - (rcum[i - 1] if i else 0)
                                if nruns >= bulk_min:
                                    bulk_span(i, nxt, nruns)
                                    bulked_runs += nruns
                                    i = nxt
                                    if i >= we:
                                        break
                            stop = nxt + 1
                            if stop > seg_end:
                                stop = seg_end
                            if engine is not None:
                                i = drain(i, stop, seg_end, sfilter)
                            else:
                                i = scalar_span(i, stop, seg_end)
                            if removed:
                                # Stale-positive guard: a classified-fast
                                # position whose line was just evicted is
                                # no longer safe to bulk — demote it to
                                # residual by splicing it into the bad
                                # list (demotion is always safe:
                                # residuals replay exactly). Re-adds need
                                # no check — a classified miss replays
                                # exactly anyway.
                                if i < we:
                                    j = int(np.searchsorted(fpos, i))
                                    if j < len(fpos):
                                        tail = fast_addrs[j:]
                                        stale = None
                                        for victim in removed:
                                            m = tail == victim
                                            if m.any():
                                                if stale is None:
                                                    stale = m
                                                else:
                                                    stale |= m
                                        if stale is not None:
                                            extra = fpos[j:][stale].tolist()
                                            bad = sorted(bad[bptr:] + extra)
                                            n_bad = len(bad)
                                            bptr = 0
                                removed.clear()
                    # -- self-tuning: how much of the window's coalescing
                    #    work was actually bulk-applied?
                    creached = rcum[i - 1] - (rcum[wb - 1] if wb else 0)
                    if bulked_runs * 2 >= creached:
                        shorts = 0
                        productive = True
                        burst_len = _DISENGAGE_REFS
                        if n_bad == 0 and window < _WINDOW_MAX:
                            window *= 2
                    else:
                        if window > _WINDOW_MIN:
                            window //= 2
                        shorts += 1
                        if shorts >= _SHORT_LIMIT:
                            # Classification is not paying off: run a
                            # scalar burst before probing again. Back off
                            # geometrically while probes keep failing.
                            shorts = 0
                            if not productive and burst_len < _DISENGAGE_MAX:
                                burst_len *= 2
                            productive = False
                            scalar_budget = burst_len
                index = seg_end
                total = base + cum[index - 1]
                if total >= next_epoch:
                    system.total_instructions = total
                    core.instructions = total
                    stall = scheme.on_epoch_boundary(core.cycle)
                    system.broadcast_stall(stall)
                    next_epoch += epoch_span
                if crash is not None and total >= crash:
                    system.total_instructions = total
                    core.instructions = total
                    self.crashed = True
                    return
            system.total_instructions = total
            core.instructions = total
        core.finished = True

    def _run_multi_core(self, crash_at_instructions):
        """Interleave cores in turns, always advancing the earliest clock.

        The core with the smallest ``(cycle, core_id)`` key runs next; ties
        break by core id. A *turn* keeps running one core while its key
        stays below the heap top — exactly the references a push-then-pop
        per reference would have handed straight back to it — and ends with
        a single ``heapreplace`` that re-keys it and pops its successor. A
        core whose trace runs out leaves with a plain ``heappop``.

        Heap keys are deliberately *not* refreshed after a stop-the-world
        stall (``broadcast_stall``): cores waiting in the heap keep their
        pre-stall keys and are ordered against the stalling core's
        post-stall clock, so the core that crossed an epoch boundary can be
        deferred by up to one stall's worth of cycles. This is pinned
        behaviour — refreshing the keys would move the fig10 bytes — and
        tests/sim/test_multicore_loop.py holds it to the per-reference loop.

        Within a turn the L1 read-hit path of ``access`` is inlined as in
        :meth:`_run_single_core`; stores and L1 misses go through
        :meth:`CacheHierarchy.access`. Before each such call the core's
        clock and instruction count already include the reference's compute
        gap and the system instruction count does not yet include the
        reference; a ``CrashSignal`` raised inside the call leaves them so.
        """
        system = self.system
        scheme = self.scheme
        hierarchy = self.hierarchy
        access = hierarchy.access
        l1s = hierarchy._l1
        l1_hits = hierarchy._l1_hits
        loads = hierarchy._loads
        cores = self.cores
        epoch_span = self.config.epoch_instructions * self.config.n_cores
        next_epoch = epoch_span
        crash = crash_at_instructions
        boundary = next_epoch if crash is None else min(next_epoch, crash)
        track = system.track_reference
        arch_image = system.arch_image
        total = system.total_instructions
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        cursors = [_TraceCursor(trace) for trace in self.traces]
        heap = [(0, core_id) for core_id in range(len(cores))]
        heapq.heapify(heap)
        _cycle, core_id = heappop(heap)

        while True:
            # -- take a turn: bind the popped core's state to locals
            core = cores[core_id]
            cursor = cursors[core_id]
            gaps = cursor.gaps
            addrs = cursor.addrs
            writes = cursor.writes
            pos = cursor.pos
            n = cursor.n
            l1 = l1s[core_id]
            l1_tags = l1._tags
            l1_sets = l1._sets
            l1_shift = l1._line_shift
            l1_mask = l1._set_mask
            l1_latency = l1.hit_latency
            if heap:
                top_cycle, top_id = heap[0]
                wins_tie = core_id < top_id
            else:
                top_cycle = float("inf")
                wins_tie = False
            while True:
                if pos >= n:
                    if not cursor.advance():
                        core.finished = True
                        if not heap:
                            system.total_instructions = total
                            return
                        _cycle, core_id = heappop(heap)
                        break
                    gaps = cursor.gaps
                    addrs = cursor.addrs
                    writes = cursor.writes
                    pos = 0
                    n = cursor.n
                gap = gaps[pos]
                addr = addrs[pos]
                cycle = core.cycle + gap
                if writes[pos]:
                    core.cycle = cycle
                    core.instructions += gap
                    system.total_instructions = total
                    token = system._next_token
                    system._next_token = token + 1
                    wait = access(core_id, addr, True, token, cycle)
                    if track:
                        arch_image[addr] = token
                    core.instructions += 1
                else:
                    line = l1_tags.get(addr)
                    if line is not None:
                        cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                        if cache_set[0] is not line:
                            cache_set.remove(line)
                            cache_set.insert(0, line)
                        l1_hits.value += 1
                        loads.value += 1
                        wait = l1_latency
                        core.instructions += gap + 1
                    else:
                        core.cycle = cycle
                        core.instructions += gap
                        system.total_instructions = total
                        wait = access(core_id, addr, False, 0, cycle)
                        core.instructions += 1
                pos += 1
                cycle += wait
                core.cycle = cycle
                core.mem_stall_cycles += wait
                total += gap + 1
                if total >= boundary:
                    system.total_instructions = total
                    if total >= next_epoch:
                        stall = scheme.on_epoch_boundary(cycle)
                        system.broadcast_stall(stall)
                        next_epoch += epoch_span
                        cycle = core.cycle
                    if crash is not None and total >= crash:
                        self.crashed = True
                        return
                    boundary = next_epoch if crash is None else min(next_epoch, crash)
                # -- stay in the turn while a push-then-pop would hand this
                #    core straight back (the heap top is left stale on
                #    purpose, see the docstring)
                if cycle < top_cycle or (cycle == top_cycle and wins_tie):
                    continue
                # -- end the turn
                cursor.pos = pos
                _cycle, core_id = heapreplace(heap, (cycle, core_id))
                break

    def result(self):
        """Package the current counters into a SimulationResult."""
        return SimulationResult(
            self.scheme_name,
            self.benchmarks,
            self.config,
            cycles=self.system.max_cycle(),
            instructions=self.system.total_instructions,
            stats=self.stats,
            per_core_cycles=[core.cycle for core in self.cores],
        )

    # ------------------------------------------------------------------
    # crash / recovery harness
    # ------------------------------------------------------------------

    def crash_and_recover(self):
        """Power-fail now, recover, and return (image, commit_id, reference).

        ``reference`` is the architectural snapshot the recovered image
        must equal ({} for the initial state; None when the config did not
        enable reference tracking or the snapshot fell out of the window).
        """
        self.system.crash()
        image, commit_id = self.scheme.recover()
        if commit_id is None:
            reference = None
        elif commit_id < 0:
            reference = {}
        else:
            reference = self.system.commit_snapshot(commit_id)
        return image, commit_id, reference

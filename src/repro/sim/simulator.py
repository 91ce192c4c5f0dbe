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

from repro.baselines import Frm, IdealNvm, Journaling, ShadowPaging, ThyNvm
from repro.cache.hierarchy import CacheHierarchy
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
from repro.trace.synthetic import TraceCursor, make_trace

#: Address-space stride between cores (programs never share lines).
_CORE_ADDR_STRIDE = 1 << 40

SCHEME_NAMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


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

        When the batched miss-chain engine is eligible
        (:func:`repro.cache.miss_engine.build_engine`), the whole run is
        one call to :meth:`MissChainEngine.run`, which hands each
        epoch/crash segment to its fused drain. Otherwise the
        per-reference body below runs it; it is also the
        ``REPRO_BATCH_MISS=0`` oracle the engine is tested against
        (tests/sim/test_batched_miss.py).

        Each chunk is segmented at the epoch/crash boundaries up front
        (via its cumulative instruction counts, ``bisect`` against the
        next boundary), so the inner loop runs check-free: no per-reference
        epoch or crash comparison. Instruction counters are synced at
        segment boundaries only; nothing observes them in between. A run
        of consecutive references to one line (``chunk.run_ends``) is
        dispatched through
        :meth:`repro.cache.hierarchy.CacheHierarchy.access_repeat` — the
        coalescing fast path that charges ``count × hit_latency`` when the
        repeats provably cannot change cache or scheme state, and returns
        None (forcing exact one-by-one replay) when they could. Results are
        bit-identical to the per-reference loop (asserted by
        tests/sim/test_batching.py).
        """
        # Batched miss-chain engine (repro.cache.miss_engine): None when
        # ineligible (REPRO_BATCH_MISS=0, open-page or multi-channel NVM,
        # DRAM cache, foreign sink), which selects the per-reference body.
        engine = build_miss_engine(self)
        if engine is not None:
            engine.run(crash_at_instructions)
            return
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
                        core.cycle += (
                            cum[run_end - 1] - cum[index - 1]
                        ) - k + wait
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

        When the batched miss-chain engine is eligible, the whole run is
        one call to :meth:`MissChainEngine.run`
        (:mod:`repro.cache.miss_engine`), which schedules turns by exactly
        this rule with the access chain fused inline. The body below is
        the ``REPRO_BATCH_MISS=0`` oracle the engine is tested against
        (tests/sim/test_multicore_loop.py) and the path for every config
        :func:`repro.cache.miss_engine.build_engine` declines.

        Within a turn the L1 read-hit path of ``access`` is inlined as in
        :meth:`_run_single_core`; stores and L1 misses go through
        :meth:`CacheHierarchy.access`. Before each such call the core's
        clock and instruction count already include the reference's compute
        gap and the system instruction count does not yet include the
        reference; a ``CrashSignal`` raised inside the call leaves them so.
        """
        engine = build_miss_engine(self)
        if engine is not None:
            engine.run(crash_at_instructions)
            return
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
        cursors = [TraceCursor(trace) for trace in self.traces]
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

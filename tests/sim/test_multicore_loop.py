"""Bit-identity of the multi-core loops: naive, turn-batched, engine.

Three loops run every multi-core simulation, and all three must agree on
every observable:

* ``naive_multi_core`` (below): the original one-reference-per-heap-pop
  loop, kept verbatim as the reference semantics, including its quirks
  (ties break by core id; heap keys are not refreshed after a
  stop-the-world stall);
* :meth:`Simulation._run_multi_core`'s own body, which runs each core in
  turns — as many references as it can before its ``(cycle, core_id)``
  key passes the heap top — with the L1 read-hit path inlined; it is the
  ``REPRO_BATCH_MISS=0`` oracle and the fallback for declined configs;
* the miss-chain engine (:mod:`repro.cache.miss_engine`, the default),
  which schedules the same turns with the whole access chain fused
  inline, deferred counters, run coalescing inside a turn, out-of-line
  snoops of lines another core owns, back-invalidation on the owner's
  lane, and the multi-core crash-time convention applied on the
  ``CrashSignal`` path.

Every case asserts three-way equality (result, full ``stats_dict()``,
per-core cycle/instructions/stalls/finished, ``_next_token``,
``total_instructions``, ``arch_image``, commit snapshots, crash site,
and recovery where the run crashed) on all six schemes for 2- and 8-core
unequal-length traces, shared memory (with a small LLC, so LLC hits snoop
and LLC victims back-invalidate another core's dirty copies), an
instruction crash, every semantic crash site, PiCL's out-of-line store
dispatch (capped log, sub-block tracking) and a bloom-hazard forced undo
flush.
"""

import dataclasses
import functools
import heapq
import os

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.miss_engine import build_engine
from repro.fault.harness import ACS_OVERRIDES
from repro.fault.plan import (
    SEMANTIC_SITES,
    SITE_ACS_SCAN,
    SITE_LLC_EVICTION,
    SITE_UNDO_FLUSH,
    CrashPlan,
)
from repro.sim.config import SystemConfig
from repro.sim.simulator import _CORE_ADDR_STRIDE, SCHEME_NAMES, Simulation
from repro.trace.profiles import get_profile
from repro.trace.synthetic import TraceCursor, make_trace


def small_config(n_cores, **overrides):
    # Short epochs: a dozen scheduled commits (and their stop-the-world
    # stalls) inside traces of a few thousand references.
    defaults = dict(
        n_cores=n_cores,
        epoch_instructions=1000,
        track_reference=True,
        reference_depth=64,
    )
    defaults.update(overrides)
    return SystemConfig().scaled(512, **defaults)


def naive_multi_core(sim, crash_at_instructions):
    """The per-reference heap loop: one ``heappop`` + ``heappush`` each.

    The pre-turn ``_run_multi_core``, kept verbatim as the reference
    semantics the turn loop must reproduce bit-for-bit.
    """
    system = sim.system
    hierarchy = sim.hierarchy
    scheme = sim.scheme
    cores = sim.cores
    epoch_span = sim.config.epoch_instructions * sim.config.n_cores
    next_epoch = epoch_span
    cursors = [TraceCursor(trace) for trace in sim.traces]
    heap = [(0, core_id) for core_id in range(len(cores))]
    heapq.heapify(heap)

    while heap:
        _cycle, core_id = heapq.heappop(heap)
        cursor = cursors[core_id]
        pos = cursor.pos
        if pos >= cursor.n:
            if not cursor.advance():
                cores[core_id].finished = True
                continue
            pos = 0
        gap = cursor.gaps[pos]
        addr = cursor.addrs[pos]
        is_write = cursor.writes[pos]
        cursor.pos = pos + 1
        core = cores[core_id]
        core.advance_compute(gap)
        if is_write:
            token = system.new_token()
            wait = hierarchy.access(core_id, addr, True, token, core.cycle)
            system.note_store(addr, token)
        else:
            wait = hierarchy.access(core_id, addr, False, 0, core.cycle)
        core.advance_memory(wait)
        system.total_instructions += gap + 1
        if system.total_instructions >= next_epoch:
            stall = scheme.on_epoch_boundary(core.cycle)
            system.broadcast_stall(stall)
            next_epoch += epoch_span
        if (
            crash_at_instructions is not None
            and system.total_instructions >= crash_at_instructions
        ):
            sim.crashed = True
            break
        heapq.heappush(heap, (core.cycle, core_id))


def build(config, scheme, benchmarks, lengths, seed, shared_memory=False):
    """A Simulation whose core ``i`` runs ``lengths[i]`` instructions."""
    sim = Simulation(
        config, scheme, benchmarks, lengths[0], seed=seed,
        shared_memory=shared_memory,
    )
    for core_id, (name, n) in enumerate(zip(benchmarks, lengths)):
        if n != lengths[0]:
            sim.traces[core_id] = make_trace(
                config.scale_profile(get_profile(name)),
                n,
                seed=seed + core_id * 101,
                addr_base=0 if shared_memory else core_id * _CORE_ADDR_STRIDE,
            )
    return sim


def naive_multi_run(*args, crash_at=None, crash_plan=None, **kwargs):
    """Run :func:`build`'s simulation through the per-reference loop.

    ``Simulation.run`` still supplies the crash-plan install, the
    ``CrashSignal`` handling and the final commit; only the loop differs.
    """
    sim = build(*args, **kwargs)
    sim._run_multi_core = functools.partial(naive_multi_core, sim)
    sim.run(crash_at_instructions=crash_at, crash_plan=crash_plan)
    return sim


def mode_run(batch_miss, *args, crash_at=None, crash_plan=None, **kwargs):
    """Run through ``_run_multi_core`` with ``REPRO_BATCH_MISS`` pinned.

    ``"0"`` selects the turn loop's own body, ``"1"`` the engine; the gate
    must actually take effect, or a case would compare a loop with
    itself.
    """
    saved = os.environ.get("REPRO_BATCH_MISS")
    os.environ["REPRO_BATCH_MISS"] = batch_miss
    try:
        sim = build(*args, **kwargs)
        assert (build_engine(sim) is not None) == (batch_miss == "1")
        sim.run(crash_at_instructions=crash_at, crash_plan=crash_plan)
    finally:
        if saved is None:
            os.environ.pop("REPRO_BATCH_MISS", None)
        else:
            os.environ["REPRO_BATCH_MISS"] = saved
    return sim


def three_runs(*args, plan_factory=None, **kwargs):
    """(naive, turn loop, engine) runs of one case, each with a fresh plan."""
    runs = []
    for run in (
        naive_multi_run,
        functools.partial(mode_run, "0"),
        functools.partial(mode_run, "1"),
    ):
        plan = plan_factory() if plan_factory is not None else None
        sim = run(*args, crash_plan=plan, **kwargs)
        if plan is not None:
            assert plan.fired
        runs.append(sim)
    return runs


def assert_identical(naive, turned):
    """Every observable of the two simulations must match exactly."""
    a, b = naive.result(), turned.result()
    assert (a.cycles, a.instructions, a.per_core_cycles) == (
        b.cycles,
        b.instructions,
        b.per_core_cycles,
    )
    assert a.stats_dict() == b.stats_dict()
    for core_a, core_b in zip(naive.cores, turned.cores):
        assert (
            core_a.cycle,
            core_a.instructions,
            core_a.mem_stall_cycles,
            core_a.commit_stall_cycles,
            core_a.finished,
        ) == (
            core_b.cycle,
            core_b.instructions,
            core_b.mem_stall_cycles,
            core_b.commit_stall_cycles,
            core_b.finished,
        )
    sys_a, sys_b = naive.system, turned.system
    assert sys_a._next_token == sys_b._next_token
    assert sys_a.total_instructions == sys_b.total_instructions
    assert sys_a.arch_image == sys_b.arch_image
    assert sys_a._commit_snapshots == sys_b._commit_snapshots
    assert (naive.crashed, naive.crash_site) == (turned.crashed, turned.crash_site)


def assert_all_identical(runs, recover=True):
    """Three-way equality; crashed runs must also recover identically."""
    naive = runs[0]
    for other in runs[1:]:
        assert_identical(naive, other)
    if recover and naive.crashed:
        recovered = [sim.crash_and_recover() for sim in runs]
        for image, commit, ref in recovered[1:]:
            assert (image, commit, ref) == recovered[0]


TWO = ["lbm", "gcc"]
TWO_LENGTHS = [12_000, 5_000]
EIGHT = ["h264ref", "soplex", "hmmer", "bzip2", "gcc", "mcf", "perlbench", "lbm"]
EIGHT_LENGTHS = [4_000, 2_500, 3_000, 1_500, 4_000, 2_000, 3_500, 1_000]


def shared_small_llc_config():
    # The LLC holds only one L2's worth of lines per core, so a shared
    # working set keeps evicting lines another core holds dirty.
    config = small_config(2)
    return dataclasses.replace(config, llc_size_per_core=config.l2_size)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
class TestTurnLoopIdentity:
    def test_two_cores_unequal_lengths(self, scheme):
        args = (small_config(2), scheme, TWO, TWO_LENGTHS, 5)
        runs = three_runs(*args)
        assert_all_identical(runs)
        engine = runs[2]
        assert all(core.finished for core in engine.cores)
        # The short trace really does finish first.
        assert engine.cores[1].instructions < engine.cores[0].instructions

    def test_eight_cores_unequal_lengths(self, scheme):
        args = (small_config(8), scheme, EIGHT, EIGHT_LENGTHS, 17)
        assert_all_identical(three_runs(*args))

    def test_shared_memory(self, scheme):
        args = (small_config(2), scheme, ["gcc", "gcc"], [8_000, 6_000], 3)
        assert_all_identical(three_runs(*args, shared_memory=True))

    def test_shared_memory_small_llc(self, scheme):
        # LLC hits on a line the other core owns take the snoop; LLC
        # victims the other core holds dirty are back-invalidated on its
        # lane, folding its data into the write-back.
        args = (shared_small_llc_config(), scheme, ["mcf", "mcf"], [8_000, 8_000], 3)
        runs = three_runs(*args, shared_memory=True)
        assert_all_identical(runs)
        stats = runs[2].result().stats_dict()
        assert stats["llc.snoops"] > 0
        assert stats["llc.evictions"] > 0

    def test_instruction_crash(self, scheme):
        args = (small_config(2), scheme, TWO, TWO_LENGTHS, 9)
        crash_at = 9_137  # mid-epoch, past the first scheduled boundary
        runs = three_runs(*args, crash_at=crash_at)
        assert all(sim.crashed for sim in runs)
        assert_all_identical(runs, recover=scheme != "ideal")

    def test_semantic_crash_site(self, scheme):
        # The dirty-LLC-eviction window is shared by every scheme and sits
        # inside the access chain, so the signal lands mid-reference. The
        # checkpointing schemes flush at commits, so their first dirty
        # eviction is the one every scheme reaches.
        args = (small_config(2), scheme, TWO, TWO_LENGTHS, 11)
        runs = three_runs(
            *args, plan_factory=lambda: CrashPlan.on_event(SITE_LLC_EVICTION)
        )
        assert runs[2].crash_site == SITE_LLC_EVICTION
        assert_all_identical(runs, recover=scheme != "ideal")


def picl_config(**picl_overrides):
    config = small_config(2)
    return dataclasses.replace(
        config, picl=dataclasses.replace(config.picl, **picl_overrides)
    )


class TestPiclDispatch:
    """PiCL configurations that leave plain mode make the engine call
    ``on_store``/``on_store_repeat`` per store (the out-of-line dispatch)
    on two cores; a tiny bloom filter forces hazard-triggered undo
    flushes on the eviction path."""

    @pytest.mark.parametrize("bench", ["gcc", "lbm"])
    def test_capped_log(self, bench):
        config = picl_config(log_max_bytes=64 * 1024 * 1024)
        args = (config, "picl", [bench, "mcf"], [10_000, 8_000], 33)
        assert_all_identical(three_runs(*args))

    @pytest.mark.parametrize("bench", ["gcc", "lbm"])
    def test_sub_block_tracking(self, bench):
        config = picl_config(tracking_granularity=16)
        args = (config, "picl", [bench, "mcf"], [10_000, 8_000], 21)
        assert_all_identical(three_runs(*args))

    def test_bloom_forced_flush(self):
        config = picl_config(bloom_bits=64)
        runs = three_runs(config, "picl", ["gcc", "mcf"], [12_000, 12_000], 3)
        assert_all_identical(runs)
        assert runs[2].result().stats_dict()["undo.forced_flushes"] > 0


@pytest.mark.parametrize("site", SEMANTIC_SITES)
def test_semantic_sites_two_cores(site):
    # Every crash window on two cores, through recovery: short epochs so
    # the epoch-driven windows open several times, the fault harness's
    # oversized LLC for the mid-ACS window, and a torn undo flush that
    # lands one entry of its burst.
    overrides = dict(ACS_OVERRIDES)
    if site != SITE_ACS_SCAN:
        del overrides["llc_size_per_core"]
    config = SystemConfig().scaled(
        256, n_cores=2, track_reference=True, reference_depth=64, **overrides
    )
    tear = 1 if site == SITE_UNDO_FLUSH else None
    runs = three_runs(
        config,
        "picl",
        ["libquantum", "gcc"],
        [90_000, 90_000],
        9,
        plan_factory=lambda: CrashPlan.on_event(site, occurrence=5, tear_entries=tear),
    )
    assert all(sim.crashed and sim.crash_site == site for sim in runs)
    assert_all_identical(runs)


def test_eight_core_engine_makes_no_access_calls(monkeypatch):
    # An eligible eight-core run never enters the scalar chain: every
    # reference is served by the engine's fused drain.
    calls = []
    original = CacheHierarchy.access

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CacheHierarchy, "access", counting)
    monkeypatch.setenv("REPRO_BATCH_MISS", "1")
    sim = build(small_config(8), "picl", EIGHT, EIGHT_LENGTHS, 17)
    assert build_engine(sim) is not None
    sim.run()
    assert calls == []
    assert sim.result().stats_dict()["loads"] > 0
    # The same run on the scalar turn loop goes through access().
    monkeypatch.setenv("REPRO_BATCH_MISS", "0")
    build(small_config(8), "picl", EIGHT, EIGHT_LENGTHS, 17).run()
    assert calls

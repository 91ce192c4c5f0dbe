"""Bit-identity of the turn-batched multi-core loop.

:meth:`Simulation._run_multi_core` runs each core in turns — as many
references as it can before its ``(cycle, core_id)`` key passes the heap
top — with the L1 read-hit path inlined. That is an optimization, not a
model change: it must schedule exactly the references, in exactly the
order, that the original one-reference-per-heap-pop loop did, including
that loop's quirks (ties break by core id; heap keys are not refreshed
after a stop-the-world stall). This file keeps a faithful copy of that
loop (``naive_multi_core``, driven by ``naive_multi_run``) and asserts
exact equality of every observable on all six schemes: clean runs with
unequal-length traces (cores finish at different times), shared memory,
an instruction-count crash, and a semantic crash site with recovery.
"""

import functools
import heapq

import pytest

from repro.fault.plan import SITE_LLC_EVICTION, CrashPlan
from repro.sim.config import SystemConfig
from repro.sim.simulator import (
    _CORE_ADDR_STRIDE,
    SCHEME_NAMES,
    Simulation,
    _TraceCursor,
)
from repro.trace.profiles import get_profile
from repro.trace.synthetic import make_trace


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
    cursors = [_TraceCursor(trace) for trace in sim.traces]
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


def turn_run(*args, crash_at=None, crash_plan=None, **kwargs):
    sim = build(*args, **kwargs)
    sim.run(crash_at_instructions=crash_at, crash_plan=crash_plan)
    return sim


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


def assert_same_recovery(naive, turned):
    image_a, commit_a, ref_a = naive.crash_and_recover()
    image_b, commit_b, ref_b = turned.crash_and_recover()
    assert commit_a == commit_b
    assert image_a == image_b
    assert ref_a == ref_b


TWO = ["lbm", "gcc"]
TWO_LENGTHS = [12_000, 5_000]
EIGHT = ["h264ref", "soplex", "hmmer", "bzip2", "gcc", "mcf", "perlbench", "lbm"]
EIGHT_LENGTHS = [4_000, 2_500, 3_000, 1_500, 4_000, 2_000, 3_500, 1_000]


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
class TestTurnLoopIdentity:
    def test_two_cores_unequal_lengths(self, scheme):
        args = (small_config(2), scheme, TWO, TWO_LENGTHS, 5)
        naive, turned = naive_multi_run(*args), turn_run(*args)
        assert_identical(naive, turned)
        assert all(core.finished for core in turned.cores)
        # The short trace really does finish first.
        assert turned.cores[1].instructions < turned.cores[0].instructions

    def test_eight_cores_unequal_lengths(self, scheme):
        args = (small_config(8), scheme, EIGHT, EIGHT_LENGTHS, 17)
        assert_identical(naive_multi_run(*args), turn_run(*args))

    def test_shared_memory(self, scheme):
        args = (small_config(2), scheme, ["gcc", "gcc"], [8_000, 6_000], 3)
        naive = naive_multi_run(*args, shared_memory=True)
        turned = turn_run(*args, shared_memory=True)
        assert_identical(naive, turned)

    def test_instruction_crash(self, scheme):
        args = (small_config(2), scheme, TWO, TWO_LENGTHS, 9)
        crash_at = 9_137  # mid-epoch, past the first scheduled boundary
        naive = naive_multi_run(*args, crash_at=crash_at)
        turned = turn_run(*args, crash_at=crash_at)
        assert naive.crashed and turned.crashed
        assert_identical(naive, turned)
        if scheme != "ideal":
            assert_same_recovery(naive, turned)

    def test_semantic_crash_site(self, scheme):
        # The dirty-LLC-eviction window is shared by every scheme and sits
        # inside ``access``, so the signal lands mid-reference. The
        # checkpointing schemes flush at commits, so their first dirty
        # eviction is the one every scheme reaches.
        args = (small_config(2), scheme, TWO, TWO_LENGTHS, 11)
        plans = [CrashPlan.on_event(SITE_LLC_EVICTION) for _ in "ab"]
        naive = naive_multi_run(*args, crash_plan=plans[0])
        turned = turn_run(*args, crash_plan=plans[1])
        assert plans[0].fired and plans[1].fired
        assert turned.crash_site == SITE_LLC_EVICTION
        assert_identical(naive, turned)
        if scheme != "ideal":
            assert_same_recovery(naive, turned)

"""Bit-identity of the default engine stack against the reference stack.

Every flag in :data:`repro.sim.parallel.ENGINE_FLAGS` selects a fast
path that must be bit-identical to a reference implementation:
``REPRO_BATCH_MISS`` hands each epoch/crash segment to the fused
miss-chain drain, on one core or N (``=0`` runs the per-reference loops),
and ``REPRO_BRUTE_SCAN=1`` replaces the dirty-line dict and the LLC EID
index with the original full-cache sweeps. ``tests/sim/test_batched_miss.py``
and ``tests/cache/test_eid_index.py`` each diff one flag with the other
left at its default; this file flips them *together* and diffs whole
simulations: every fast path at once (the configuration every figure is
produced with) against every reference at once, so an interaction
between the drain and the indexed scans cannot hide behind a per-flag
suite. The observables are cycles, stalls, tokens, the architectural
image, the full stat snapshot, and crash-recovery output.

(The file name is historical: this matrix first checked the columnar
single-core interpreter, which the miss-chain drain replaced.)

The matrix crosses every scheme with benchmarks spanning hit-dominated,
run-structured and miss-heavy traces, plus the PiCL configs that force
its store filter off (sub-block granularity, capped log), mid-epoch
crashes, a two-core system, and a hypothesis fuzz over the
workload-profile space.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.miss_engine import build_engine
from repro.common.units import MB
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace import profiles
from repro.trace.profiles import WorkloadProfile


def small_config(**overrides):
    defaults = dict(track_reference=True, reference_depth=32)
    defaults.update(overrides)
    return SystemConfig().scaled(256, **defaults)


N = 60_000  # a few scheduled epochs at scale 256

SCHEMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")

#: Flag bindings of the two stacks. The reference stack's brute sweeps
#: are read when the caches are built, the batch flag when the loop
#: starts a run, so both stay pinned across construction and ``run()``.
FAST = {"REPRO_BATCH_MISS": "1", "REPRO_BRUTE_SCAN": ""}
REFERENCE = {"REPRO_BATCH_MISS": "0", "REPRO_BRUTE_SCAN": "1"}


def run_mode(fast, config, scheme, benches, n, seed, crash_at=None):
    """Run one simulation on the fast or the reference stack.

    The flags are restored afterwards so the two stacks cannot leak
    into each other (or into other tests).
    """
    flags = FAST if fast else REFERENCE
    saved = {name: os.environ.get(name) for name in flags}
    os.environ.update(flags)
    try:
        sim = Simulation(config, scheme, list(benches), n, seed=seed)
        # The flags must actually take effect, or the test compares one
        # stack against itself.
        assert sim.hierarchy._brute_scan == (not fast)
        assert (build_engine(sim) is not None) == fast
        sim.run(crash_at_instructions=crash_at)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return sim


def assert_identical(reference, fast):
    """Every observable of the two simulations must match exactly."""
    a, b = reference.result(), fast.result()
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.per_core_cycles == b.per_core_cycles
    assert [c.mem_stall_cycles for c in reference.cores] == [
        c.mem_stall_cycles for c in fast.cores
    ]
    assert reference.system._next_token == fast.system._next_token
    assert reference.system.arch_image == fast.system.arch_image
    assert reference.stats.snapshot() == fast.stats.snapshot()


# Scheme x benchmark points: hmmer (hit-dominated; nearly every
# reference is an L1 hit inside the drain), lbm/h264ref (long same-line
# runs; the drain's run-coalescing tail), gcc/mcf/astar (miss-heavy;
# frequent LLC evictions exercise the EID-index discards the brute
# sweep cross-checks).
PAIRS = [
    ("ideal", "hmmer"),
    ("journaling", "mcf"),
    ("shadow", "gcc"),
    ("frm", "lbm"),
    ("thynvm", "astar"),
    ("picl", "hmmer"),
    ("picl", "gcc"),
    ("picl", "h264ref"),
]


class TestBitIdentity:
    @pytest.mark.parametrize("scheme,bench", PAIRS)
    def test_full_run_identical(self, scheme, bench):
        config = small_config()
        reference = run_mode(False, config, scheme, [bench], N, seed=77)
        fast = run_mode(True, config, scheme, [bench], N, seed=77)
        assert_identical(reference, fast)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_run_identical(self, scheme):
        config = small_config()
        crash_at = N // 2 + 137  # mid-epoch, not on a boundary
        reference = run_mode(
            False, config, scheme, ["gcc"], N, seed=9, crash_at=crash_at
        )
        fast = run_mode(True, config, scheme, ["gcc"], N, seed=9, crash_at=crash_at)
        assert reference.crashed and fast.crashed
        assert_identical(reference, fast)
        image_a, commit_a, ref_a = reference.crash_and_recover()
        image_b, commit_b, ref_b = fast.crash_and_recover()
        assert commit_a == commit_b
        assert image_a == image_b
        assert ref_a == ref_b

    def test_sub_block_granularity_identical(self):
        # 16 B tracking puts lines into the EID index's sub-block bucket
        # and forces PiCL's store filter off inside the drain.
        config = small_config()
        config = dataclasses.replace(
            config, picl=dataclasses.replace(config.picl, tracking_granularity=16)
        )
        reference = run_mode(False, config, "picl", ["lbm"], N, seed=21)
        fast = run_mode(True, config, "picl", ["lbm"], N, seed=21)
        assert_identical(reference, fast)

    def test_capped_log_identical(self):
        # A hard log cap makes every store check log pressure, so the
        # drain dispatches stores out of line and forced ACS passes
        # sweep (or index-scan) the LLC mid-epoch.
        config = small_config()
        config = dataclasses.replace(
            config,
            picl=dataclasses.replace(config.picl, log_max_bytes=64 * 1024 * 1024),
        )
        reference = run_mode(False, config, "picl", ["lbm"], N, seed=33)
        fast = run_mode(True, config, "picl", ["lbm"], N, seed=33)
        assert_identical(reference, fast)


class TestMultiCore:
    def test_multi_core_identical(self):
        # Multi-core runs take the engine on the fast stack and the
        # turn-batched heap loop with brute-force sweeps on the reference
        # stack; the results must still agree.
        config = dataclasses.replace(small_config(), n_cores=2)
        reference = run_mode(False, config, "picl", ["gcc", "mcf"], 20_000, seed=1)
        fast = run_mode(True, config, "picl", ["gcc", "mcf"], 20_000, seed=1)
        assert_identical(reference, fast)


# Workload space for the fuzz: every axis the trace generator exposes,
# constrained exactly as WorkloadProfile.__post_init__ demands.
_fuzz_profiles = st.builds(
    lambda mem, wf, seq, chase_scale, ws, alpha, run, sb, zb_scale: WorkloadProfile(
        "_fuzz",
        mem_ratio=mem,
        write_frac=wf,
        working_set_bytes=ws * MB,
        seq_frac=seq,
        chase_frac=min((1.0 - seq) * chase_scale, 1.0 - seq),
        zipf_alpha=alpha,
        category="fuzz",
        seq_run=run,
        write_seq_bias=sb,
        write_zipf_bias=min((1.0 - sb) * zb_scale, 1.0 - sb),
    ),
    mem=st.floats(0.05, 1.0),
    wf=st.floats(0.0, 1.0),
    seq=st.floats(0.0, 1.0),
    chase_scale=st.floats(0.0, 1.0),
    ws=st.integers(1, 64),
    alpha=st.floats(0.05, 1.5),
    run=st.integers(1, 16),
    sb=st.floats(0.0, 1.0),
    zb_scale=st.floats(0.0, 1.0),
)


class TestFuzz:
    @settings(max_examples=10, deadline=None)
    @given(
        profile=_fuzz_profiles,
        scheme=st.sampled_from(SCHEMES),
        seed=st.integers(0, 2**20),
    )
    def test_random_workloads_identical(self, profile, scheme, seed):
        # Simulation resolves benchmarks by name, so park the generated
        # profile in the registry for the duration of the two runs. The
        # trace memo keys on the profile value (a frozen dataclass), so
        # same-name profiles with different parameters never collide.
        profiles._BY_NAME["_fuzz"] = profile
        try:
            reference = run_mode(
                False, small_config(), scheme, ["_fuzz"], 20_000, seed=seed
            )
            fast = run_mode(True, small_config(), scheme, ["_fuzz"], 20_000, seed=seed)
        finally:
            del profiles._BY_NAME["_fuzz"]
        assert_identical(reference, fast)

"""Bit-identity of the batched miss-chain engine.

``REPRO_BATCH_MISS`` (default on) hands each epoch segment of the
single-core run to the fused drain of :mod:`repro.cache.miss_engine`:
the whole L1/L2/LLC/NVM chain transcribed into one loop with deferred
batch bookkeeping. ``REPRO_BATCH_MISS=0`` runs the loop's per-reference
body instead, where every store and L1 miss goes through
``CacheHierarchy.access``. The drain is an optimization, not a model
change, so this file drives the drain (``=1``) and the scalar loop
(``=0``) over the same points and asserts exact equality of every
observable: cycles, stalls, tokens, the architectural image, the full
stat snapshot, and crash-recovery output.

Beyond the scheme x benchmark matrix, the suite aims at exactly the
state the engine defers or transcribes:

* semantic crash sites *inside* a drained segment (LLC-eviction window,
  torn undo flush, the pre-in-place window) — the deferred undo run and
  channel locals must land before any ``CrashSignal`` can observe them;
* PiCL's store-filter regimes (plain / sub-block / capped log), which
  select the three store-dispatch modes of the drain;
* the gates (flag off, banked open-page device, multi-channel decline;
  multi-core attaches) — ineligible configs must fall back to the scalar
  loop;
* the EID-index differential oracle: after an engine run the LLC EID
  index must verify clean against a brute-force sweep of the live LLC;
* a hypothesis fuzz over the workload-profile space, so the drain's
  segment interleavings are exercised on shapes no curated benchmark
  hits, including its hit-dominated and long-run shapes.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.miss_engine import build_engine
from repro.common.units import MB
from repro.fault.plan import CrashPlan
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


def run_mode(
    batched,
    config,
    scheme,
    bench,
    n,
    seed,
    crash_at=None,
    plan=None,
    expect_engine=None,
):
    """Run one simulation with the miss-chain engine on or off.

    ``REPRO_BATCH_MISS`` is read when the single-core loop starts a
    run, so it stays pinned across construction *and* ``run()`` — and is
    restored after, so the two modes cannot leak into each other.
    ``expect_engine`` overrides the default gate check (engine attached
    iff ``batched``) for configs the engine deliberately declines.
    """
    saved = os.environ.get("REPRO_BATCH_MISS")
    os.environ["REPRO_BATCH_MISS"] = "1" if batched else "0"
    if expect_engine is None:
        expect_engine = batched
    try:
        sim = Simulation(config, scheme, [bench], n, seed=seed)
        # The gate must actually take effect, or the test compares the
        # drain against itself (or the scalar loop against itself).
        assert (build_engine(sim) is not None) == expect_engine
        sim.run(crash_at_instructions=crash_at, crash_plan=plan)
    finally:
        if saved is None:
            os.environ.pop("REPRO_BATCH_MISS", None)
        else:
            os.environ["REPRO_BATCH_MISS"] = saved
    return sim


def assert_identical(scalar, batched):
    """Every observable of the two simulations must match exactly."""
    a, b = scalar.result(), batched.result()
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.per_core_cycles == b.per_core_cycles
    assert scalar.cores[0].mem_stall_cycles == batched.cores[0].mem_stall_cycles
    assert scalar.system._next_token == batched.system._next_token
    assert scalar.system.arch_image == batched.system.arch_image
    assert scalar.stats.snapshot() == batched.stats.snapshot()


# Scheme x benchmark points spanning the regimes the drain runs: miss-
# heavy (gcc/mcf/astar), hit-dominated (hmmer, where nearly every
# reference is an L1 hit) and long same-line runs (lbm/h264ref, the
# inline run-coalescing tail). Every scheme appears, covering all three
# store-dispatch modes and both write-back transcriptions.
PAIRS = [
    ("ideal", "gcc"),
    ("ideal", "hmmer"),
    ("journaling", "mcf"),
    ("shadow", "gcc"),
    ("frm", "astar"),
    ("frm", "lbm"),
    ("thynvm", "mcf"),
    ("thynvm", "astar"),
    ("picl", "gcc"),
    ("picl", "astar"),
    ("picl", "hmmer"),
    ("picl", "lbm"),
    ("picl", "h264ref"),
]


class TestBitIdentity:
    @pytest.mark.parametrize("scheme,bench", PAIRS)
    def test_full_run_identical(self, scheme, bench):
        config = small_config()
        scalar = run_mode(False, config, scheme, bench, N, seed=77)
        batched = run_mode(True, config, scheme, bench, N, seed=77)
        assert_identical(scalar, batched)

    def test_sub_block_granularity_identical(self):
        # 16 B tracking forces the store filter off, so every store in a
        # drained segment goes through the out-of-line on_store call site
        # and every run tail through on_store_repeat (lbm: long runs).
        config = small_config()
        config = dataclasses.replace(
            config, picl=dataclasses.replace(config.picl, tracking_granularity=16)
        )
        for bench in ("gcc", "lbm"):
            scalar = run_mode(False, config, "picl", bench, N, seed=21)
            batched = run_mode(True, config, "picl", bench, N, seed=21)
            assert_identical(scalar, batched)

    def test_capped_log_identical(self):
        # A hard log cap disables plain mode: the drain must dispatch
        # stores out of line and never touch the deferred undo run.
        config = small_config()
        config = dataclasses.replace(
            config,
            picl=dataclasses.replace(config.picl, log_max_bytes=64 * 1024 * 1024),
        )
        for bench in ("gcc", "lbm"):
            scalar = run_mode(False, config, "picl", bench, N, seed=33)
            batched = run_mode(True, config, "picl", bench, N, seed=33)
            assert_identical(scalar, batched)


class TestCrashSites:
    """Crashes landing *inside* a drained segment must observe the exact
    scalar-loop state: deferred counters, cycles, tokens, and the
    pending undo run all land (via the drain's ``finally`` and pre-site
    merges) before the signal propagates."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_instruction_crash_identical(self, scheme):
        config = small_config()
        crash_at = N // 2 + 137  # mid-epoch, not on a boundary
        scalar = run_mode(
            False, config, scheme, "gcc", N, seed=9, crash_at=crash_at
        )
        batched = run_mode(
            True, config, scheme, "gcc", N, seed=9, crash_at=crash_at
        )
        assert scalar.crashed and batched.crashed
        assert_identical(scalar, batched)
        image_a, commit_a, ref_a = scalar.crash_and_recover()
        image_b, commit_b, ref_b = batched.crash_and_recover()
        assert commit_a == commit_b
        assert image_a == image_b
        assert ref_a == ref_b

    # Occurrences chosen deep enough that the site fires in a miss-heavy
    # phase, well past the cold-start fills.
    SITE_PLANS = [
        ("llc_eviction", "picl", dict(occurrence=300)),
        ("llc_eviction", "journaling", dict(occurrence=15)),
        ("undo_flush", "picl", dict(occurrence=3, tear_entries=7)),
        ("pre_inplace", "picl", dict(occurrence=200)),
    ]

    @pytest.mark.parametrize("site,scheme,kwargs", SITE_PLANS)
    def test_semantic_site_crash_identical(self, site, scheme, kwargs):
        config = small_config()
        plan_a = CrashPlan.on_event(site, **kwargs)
        plan_b = CrashPlan.on_event(site, **kwargs)
        scalar = run_mode(
            False, config, scheme, "gcc", N, seed=5, plan=plan_a
        )
        batched = run_mode(
            True, config, scheme, "gcc", N, seed=5, plan=plan_b
        )
        # Both modes must reach the site the same number of times, and
        # these occurrences are chosen so the site actually fires.
        assert plan_a.fired and plan_b.fired
        assert scalar.crashed == batched.crashed
        assert_identical(scalar, batched)
        if scalar.crashed:
            image_a, commit_a, ref_a = scalar.crash_and_recover()
            image_b, commit_b, ref_b = batched.crash_and_recover()
            assert commit_a == commit_b
            assert image_a == image_b
            assert ref_a == ref_b


class TestGate:
    def test_engine_attached_by_default(self):
        sim = Simulation(small_config(), "picl", ["gcc"], 1_000, seed=1)
        assert build_engine(sim) is not None

    def test_flag_disables(self, monkeypatch):
        sim = Simulation(small_config(), "picl", ["gcc"], 1_000, seed=1)
        monkeypatch.setenv("REPRO_BATCH_MISS", "0")
        assert build_engine(sim) is None

    def test_multi_core_attached(self, monkeypatch):
        # The engine runs N cores too (tests/sim/test_multicore_loop.py
        # holds it to the turn loop); the flag still switches it off.
        config = dataclasses.replace(small_config(), n_cores=2)
        sim = Simulation(config, "picl", ["gcc", "mcf"], 1_000, seed=1)
        assert build_engine(sim) is not None
        monkeypatch.setenv("REPRO_BATCH_MISS", "0")
        assert build_engine(sim) is None

    def test_open_page_device_declines(self):
        # The banked open-page device has per-bank row state the inline
        # channel recurrence does not model.
        config = small_config()
        config = dataclasses.replace(
            config, nvm=dataclasses.replace(config.nvm, page_policy="open")
        )
        sim = Simulation(config, "picl", ["gcc"], 1_000, seed=1)
        assert build_engine(sim) is None

    def test_multi_channel_declines(self):
        config = small_config()
        config = dataclasses.replace(
            config, nvm=dataclasses.replace(config.nvm, n_channels=2)
        )
        sim = Simulation(config, "picl", ["gcc"], 1_000, seed=1)
        assert build_engine(sim) is None

    @pytest.mark.parametrize("config_fn", [
        lambda c: dataclasses.replace(
            c, nvm=dataclasses.replace(c.nvm, page_policy="open")
        ),
        lambda c: dataclasses.replace(
            c, nvm=dataclasses.replace(c.nvm, n_channels=2)
        ),
    ])
    def test_declined_configs_still_identical(self, config_fn):
        # With the engine declined, REPRO_BATCH_MISS=1 and =0 must run
        # the very same per-reference body — the flag is inert, not harmful.
        config = config_fn(small_config())
        scalar = run_mode(False, config, "picl", "gcc", 20_000, seed=3)
        batched_flag = run_mode(
            True, config, "picl", "gcc", 20_000, seed=3, expect_engine=False
        )
        assert_identical(scalar, batched_flag)


class TestIndexOracle:
    """The LLC EID index must survive the drain's inline discards and
    retags exactly: after a full engine run a brute-force diff against
    the live LLC must be clean."""

    def test_index_verifies_clean(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_MISS", "1")
        sim = Simulation(small_config(), "picl", ["gcc"], N, seed=13)
        assert build_engine(sim) is not None
        sim.run()
        llc = sim.hierarchy.llc
        assert llc.eid_index.verify_against(llc) == []


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
            scalar = run_mode(
                False, small_config(), scheme, "_fuzz", 20_000, seed=seed
            )
            batched = run_mode(
                True, small_config(), scheme, "_fuzz", 20_000, seed=seed
            )
        finally:
            del profiles._BY_NAME["_fuzz"]
        assert_identical(scalar, batched)

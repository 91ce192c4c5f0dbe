"""Bit-identity of the columnar single-core interpreter.

``REPRO_VECTOR`` (default on) swaps :meth:`Simulation._run_single_core`
for the columnar loop in ``_run_single_core_vector``: windows of the
reference stream are classified array-at-a-time against the L1 tag
mirror, all-fast stretches are applied in bulk, and everything else
replays through the exact per-reference path. Like the batching PR
before it, this is an optimization, not a model change — so this file
drives the scalar (``REPRO_VECTOR=0``) and columnar interpreters over
the same points and asserts exact equality of every observable: cycles,
stalls, tokens, the architectural image, the full stat snapshot, and
crash-recovery output.

The matrix deliberately crosses every scheme (each has a different
``vector_store_filter`` contract: always-fast, never-fast, and
EID-conditional) with benchmarks spanning hit-dominated, run-structured,
and miss-heavy traces, plus the configs that force the store filter off
(sub-block granularity, capped log). A hypothesis fuzz then walks the
workload-profile space itself so the classifier's window/repair logic is
exercised on shapes no curated benchmark hits.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.miss_engine import build_engine
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace import profiles
from repro.trace.profiles import WorkloadProfile
from repro.common.units import MB


def small_config(**overrides):
    defaults = dict(track_reference=True, reference_depth=32)
    defaults.update(overrides)
    return SystemConfig().scaled(256, **defaults)


N = 60_000  # a few scheduled epochs at scale 256

SCHEMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


def run_mode(vector, config, scheme, bench, n, seed, crash_at=None):
    """Run one simulation with the columnar interpreter on or off.

    ``REPRO_VECTOR`` is read when the hierarchy is built, so the
    environment must be set before ``Simulation`` is constructed — and
    restored afterwards so the two modes cannot leak into each other.
    """
    previous = os.environ.get("REPRO_VECTOR")
    os.environ["REPRO_VECTOR"] = "1" if vector else "0"
    try:
        sim = Simulation(config, scheme, [bench], n, seed=seed)
    finally:
        if previous is None:
            del os.environ["REPRO_VECTOR"]
        else:
            os.environ["REPRO_VECTOR"] = previous
    # The gate must actually have taken effect, or the test compares the
    # scalar interpreter against itself.
    assert (sim.hierarchy._l1[0]._vec is not None) == vector
    sim.run(crash_at_instructions=crash_at)
    return sim


def assert_identical(scalar, columnar):
    """Every observable of the two simulations must match exactly."""
    a, b = scalar.result(), columnar.result()
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.per_core_cycles == b.per_core_cycles
    assert scalar.cores[0].mem_stall_cycles == columnar.cores[0].mem_stall_cycles
    assert scalar.system._next_token == columnar.system._next_token
    assert scalar.system.arch_image == columnar.system.arch_image
    assert scalar.stats.snapshot() == columnar.stats.snapshot()


# Scheme x benchmark points chosen for coverage of the classifier's
# regimes: hmmer (hit-dominated; the bulk path carries nearly every
# window), lbm/h264ref (long same-line runs; the run-based cost model),
# gcc/mcf/astar (miss-heavy; disengage bursts and repair demotions).
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
        scalar = run_mode(False, config, scheme, bench, N, seed=77)
        columnar = run_mode(True, config, scheme, bench, N, seed=77)
        assert_identical(scalar, columnar)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_run_identical(self, scheme):
        config = small_config()
        crash_at = N // 2 + 137  # mid-epoch, not on a boundary
        scalar = run_mode(False, config, scheme, "gcc", N, seed=9, crash_at=crash_at)
        columnar = run_mode(True, config, scheme, "gcc", N, seed=9, crash_at=crash_at)
        assert scalar.crashed and columnar.crashed
        assert_identical(scalar, columnar)
        image_a, commit_a, ref_a = scalar.crash_and_recover()
        image_b, commit_b, ref_b = columnar.crash_and_recover()
        assert commit_a == commit_b
        assert image_a == image_b
        assert ref_a == ref_b

    def test_sub_block_granularity_identical(self):
        # 16 B tracking makes picl's store filter decline every store, so
        # the columnar loop only bulks loads; stores all go residual.
        config = small_config()
        config = dataclasses.replace(
            config, picl=dataclasses.replace(config.picl, tracking_granularity=16)
        )
        scalar = run_mode(False, config, "picl", "lbm", N, seed=21)
        columnar = run_mode(True, config, "picl", "lbm", N, seed=21)
        assert_identical(scalar, columnar)

    def test_capped_log_identical(self):
        # A hard log cap makes every store check log pressure; the store
        # filter must refuse and the columnar loop must still agree.
        config = small_config()
        config = dataclasses.replace(
            config,
            picl=dataclasses.replace(config.picl, log_max_bytes=64 * 1024 * 1024),
        )
        scalar = run_mode(False, config, "picl", "lbm", N, seed=33)
        columnar = run_mode(True, config, "picl", "lbm", N, seed=33)
        assert_identical(scalar, columnar)


class TestGate:
    def test_mirror_attached_by_default(self):
        sim = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        assert sim.hierarchy._l1[0]._vec is not None

    def test_mirror_detached_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR", "0")
        sim = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        assert sim.hierarchy._l1[0]._vec is None

    def test_multi_core_stays_scalar(self):
        # REPRO_VECTOR selects the columnar path for single-core runs
        # only: multi-core systems always take the scalar heap loop, so
        # no private L1 carries a mirror and the miss engine declines.
        config = dataclasses.replace(small_config(), n_cores=2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        assert all(l1._vec is None for l1 in sim.hierarchy._l1)
        assert build_engine(sim) is None


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
            scalar = run_mode(False, small_config(), scheme, "_fuzz", 20_000, seed=seed)
            columnar = run_mode(True, small_config(), scheme, "_fuzz", 20_000, seed=seed)
        finally:
            del profiles._BY_NAME["_fuzz"]
        assert_identical(scalar, columnar)

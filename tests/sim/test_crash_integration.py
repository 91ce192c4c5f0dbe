"""End-to-end crash/recovery: full simulator, every scheme, many crash points.

This is the integration version of the harness-level property tests:
realistic synthetic traces through the full hierarchy + scheme + NVM, a
crash injected mid-run, and recovery checked token-exactly against the
architectural snapshot of the scheme's last commit.
"""

import pytest

from helpers import images_equal
from repro.fault.harness import ACS_OVERRIDES
from repro.fault.plan import (
    SEMANTIC_SITES,
    SITE_ACS_SCAN,
    SITE_UNDO_FLUSH,
    CrashPlan,
)
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation

RECOVERABLE_SCHEMES = ("picl", "frm", "journaling", "shadow", "thynvm")


def small_config(**overrides):
    defaults = dict(track_reference=True, reference_depth=64)
    defaults.update(overrides)
    return SystemConfig().scaled(256, **defaults)


N = 80_000


@pytest.mark.parametrize("scheme", RECOVERABLE_SCHEMES)
@pytest.mark.parametrize("crash_fraction", [0.15, 0.5, 0.9])
def test_crash_recovery_end_to_end(scheme, crash_fraction):
    sim = Simulation(small_config(), scheme, ["gcc"], N, seed=42)
    sim.run(crash_at_instructions=int(N * crash_fraction))
    image, commit_id, reference = sim.crash_and_recover()
    assert reference is not None, "no snapshot for commit %r" % (commit_id,)
    assert images_equal(image, reference)


#: (scheme, n_cores, shared_memory, semantic site or None for an
#: instruction-count crash halfway through the run). The site cases put a
#: power failure inside each narrow crash window of the multi-core heap
#: loop; the torn undo flush lands only one entry of its burst.
MULTICORE_CASES = (
    [pytest.param(scheme, 4, False, None, id=scheme) for scheme in RECOVERABLE_SCHEMES]
    + [
        pytest.param("picl", 2, False, site, id="picl-2core-" + site)
        for site in SEMANTIC_SITES
    ]
    + [pytest.param("picl", 4, True, None, id="picl-shared")]
)


@pytest.mark.parametrize("scheme, n_cores, shared, site", MULTICORE_CASES)
def test_crash_recovery_multicore(scheme, n_cores, shared, site):
    if site is None:
        config = small_config(n_cores=n_cores)
        benchmarks = ["gcc", "lbm", "gamess", "astar"][:n_cores]
        n = 30_000
    else:
        # Short epochs so the epoch-driven windows (undo flushes, ACS
        # passes) open several times within the run; the mid-ACS window
        # also needs the fault harness's oversized LLC and a streaming
        # write set that outlives the ACS gap.
        overrides = dict(ACS_OVERRIDES)
        if site != SITE_ACS_SCAN:
            del overrides["llc_size_per_core"]
        config = small_config(n_cores=n_cores, **overrides)
        benchmarks = ["libquantum", "gcc"]
        n = 90_000
    sim = Simulation(config, scheme, benchmarks, n, seed=9, shared_memory=shared)
    if site is None:
        sim.run(crash_at_instructions=n_cores * n // 2)
    else:
        tear = 1 if site == SITE_UNDO_FLUSH else None
        plan = CrashPlan.on_event(site, occurrence=5, tear_entries=tear)
        sim.run(crash_plan=plan)
        assert plan.fired and sim.crash_site == site
    assert sim.crashed
    image, commit_id, reference = sim.crash_and_recover()
    assert reference is not None
    assert images_equal(image, reference)


@pytest.mark.parametrize("bench_name", ["lbm", "astar", "gamess", "mcf"])
def test_picl_recovery_across_workload_characters(bench_name):
    sim = Simulation(small_config(), "picl", [bench_name], N, seed=7)
    sim.run(crash_at_instructions=int(N * 0.7))
    image, _commit_id, reference = sim.crash_and_recover()
    assert reference is not None
    assert images_equal(image, reference)


def test_picl_recovery_with_tiny_acs_gap():
    config = small_config()
    import dataclasses

    config.picl = dataclasses.replace(config.picl, acs_gap=0)
    sim = Simulation(config, "picl", ["gcc"], N, seed=3)
    sim.run(crash_at_instructions=N // 2)
    image, _commit_id, reference = sim.crash_and_recover()
    assert reference is not None
    assert images_equal(image, reference)


def test_picl_recovery_with_max_acs_gap():
    config = small_config()
    import dataclasses

    config.picl = dataclasses.replace(config.picl, acs_gap=8)
    sim = Simulation(config, "picl", ["gcc"], N, seed=3)
    sim.run(crash_at_instructions=int(N * 0.9))
    image, _commit_id, reference = sim.crash_and_recover()
    assert reference is not None
    assert images_equal(image, reference)


def test_crash_before_first_commit_recovers_initial_state():
    sim = Simulation(small_config(), "picl", ["gcc"], N, seed=1)
    sim.run(crash_at_instructions=1000)
    image, commit_id, reference = sim.crash_and_recover()
    assert commit_id == -1
    assert reference == {}
    assert images_equal(image, {})

"""Shared row definitions and protocol for the throughput microbenchmark.

One place defines the measured workload rows so the pytest bench
(``test_perf_throughput.py``), the CI regression check
(``check_perf_regression.py``), and the profiler wrapper
(``profile_hotpath.py``) all time exactly the same simulations.

Rows come in two groups:

* the historical rows (scale=128; three single-core workloads plus the
  eight-core W2 mix) that every PR's table has carried, and
* two ACS-heavy rows (scale=16, oversized LLC, short epochs) where the
  persist scan dominates: a single-core lbm run with 4 MB of LLC and
  2048-instruction epochs, and an eight-core W2 mix with 4 MB of LLC per
  core and 512-instruction epochs. These are the rows that regress if
  the EID-index scan paths ever fall back to sweeping the cache.

A third group (``make_misschain_rows``: single-core plain rows ordered
miss-heavy first, then eight-core W2 mix rows) times
``REPRO_BATCH_MISS=0`` vs ``=1`` strictly interleaved: the simulator's
per-reference loops (the single-core body, the turn-batched multi-core
heap loop) against the batched miss-chain engine — the matrix in
``BENCH_misschain.json``.

The protocol is best-of-N passes per row (noise on shared hardware is
strictly additive, so the fastest pass is the stable statistic), fixed
seeds, and rates in refs/sec. ``overall`` aggregates every row: summed
references over summed best-pass times.
"""

import json
import os
import time

from repro.common.units import MB
from repro.sim.config import SystemConfig
from repro.sim.sweep import run_mix, run_single

SEED = 20180101

#: Schema tag for BENCH_scan.json, bumped when rows/protocol change.
PROTOCOL = "throughput-v2"

#: Schema tag for BENCH_misschain.json (REPRO_BATCH_MISS=0 vs =1: the
#: per-reference loops vs the engine, single-core and eight-core rows).
MISSCHAIN_PROTOCOL = "misschain-v3"


def make_rows():
    """The measured rows: (label, scheme, workload, config, n, is_mix, acs)."""
    cfg = SystemConfig().scaled(128)
    n = cfg.epoch_instructions * 4
    cfg8 = SystemConfig().scaled(128, n_cores=8)
    n8 = cfg8.epoch_instructions * 2
    acs1 = SystemConfig().scaled(
        16, llc_size_per_core=4 * MB, epoch_instructions=2048
    )
    acs8 = SystemConfig().scaled(
        16, n_cores=8, llc_size_per_core=4 * MB, epoch_instructions=512
    )
    return [
        ("ideal/gcc", "ideal", "gcc", cfg, n, False, False),
        ("picl/gcc", "picl", "gcc", cfg, n, False, False),
        ("picl/lbm", "picl", "lbm", cfg, n, False, False),
        ("picl/W2", "picl", "W2", cfg8, n8, True, False),
        ("picl/lbm/acs", "picl", "lbm", acs1, 2048 * 192, False, True),
        ("picl/W2/acs", "picl", "W2", acs8, 2048 * 96, True, True),
    ]


def run_row(row):
    """Run one row once; returns (references, elapsed seconds)."""
    _label, scheme, workload, config, n, is_mix, _acs = row
    start = time.perf_counter()
    if is_mix:
        result = run_mix(config, scheme, workload, n, seed=SEED)
    else:
        result = run_single(config, scheme, workload, n, seed=SEED)
    elapsed = time.perf_counter() - start
    return result.stat("loads") + result.stat("stores"), elapsed


def make_misschain_rows():
    """The batched-miss-chain matrix rows, gcc (miss-heavy) first.

    Single-core plain rows at the historical scale 128, ordered by how
    much the row exercises the miss chain: the gcc rows lead because they
    are the ones the batched engine exists for (sparse access pattern,
    most references reach L2/LLC/NVM), then the long-run rows (lbm,
    h264ref), then hit-dominated hmmer, where nearly every reference is
    an L1 hit and the drain competes with the scalar loop's inlined hit
    path. Then the eight-core W2 mix (Fig 10's shape) at the same scale
    for three schemes: Ideal, PiCL (inline store body) and Journaling
    (out-of-line ``on_store``), where the engine competes with the
    turn-batched heap loop and turns average under three references.
    """
    cfg = SystemConfig().scaled(128)
    n = cfg.epoch_instructions * 4
    cfg8 = SystemConfig().scaled(128, n_cores=8)
    n8 = cfg8.epoch_instructions * 2
    return [
        ("picl/gcc", "picl", "gcc", cfg, n, False, False),
        ("ideal/gcc", "ideal", "gcc", cfg, n, False, False),
        ("picl/lbm", "picl", "lbm", cfg, n, False, False),
        ("picl/h264ref", "picl", "h264ref", cfg, n, False, False),
        ("picl/hmmer", "picl", "hmmer", cfg, n, False, False),
        ("ideal/hmmer", "ideal", "hmmer", cfg, n, False, False),
        ("ideal/W2", "ideal", "W2", cfg8, n8, True, False),
        ("picl/W2", "picl", "W2", cfg8, n8, True, False),
        ("journaling/W2", "journaling", "W2", cfg8, n8, True, False),
    ]


def run_row_engine(row, batched):
    """Run one row with the batched miss-chain engine forced on or off.

    ``REPRO_BATCH_MISS`` is read when the simulation runs, so it is
    pinned around the run and restored after (one measurement cannot
    leak its mode into the next).
    """
    saved = os.environ.get("REPRO_BATCH_MISS")
    os.environ["REPRO_BATCH_MISS"] = "1" if batched else "0"
    try:
        return run_row(row)
    finally:
        if saved is None:
            del os.environ["REPRO_BATCH_MISS"]
        else:
            os.environ["REPRO_BATCH_MISS"] = saved


def measure_misschain(passes=2, rows=None):
    """Measure each row with the miss-chain engine off and on, interleaved.

    Every pass runs both modes back to back per row so they see
    identical machine conditions, and the fastest pass per mode is kept
    (noise is additive). Returns (measurements, overall); ``speedup`` is
    per-reference-loop time over batched-engine time.
    """
    if rows is None:
        rows = make_misschain_rows()
    measurements = []
    totals = {"refs": 0, "scalar": 0.0, "batched": 0.0}
    for row in rows:
        refs = None
        best = {False: None, True: None}
        for _ in range(passes):
            for batched in (False, True):
                row_refs, elapsed = run_row_engine(row, batched)
                refs = row_refs
                if best[batched] is None or elapsed < best[batched]:
                    best[batched] = elapsed
        measurements.append(
            {
                "label": row[0],
                "refs": refs,
                "scalar_seconds": best[False],
                "batched_seconds": best[True],
                "scalar_refs_per_sec": refs / best[False],
                "batched_refs_per_sec": refs / best[True],
                "speedup": best[False] / best[True],
            }
        )
        totals["refs"] += refs
        totals["scalar"] += best[False]
        totals["batched"] += best[True]
    overall = {
        "scalar_refs_per_sec": totals["refs"] / totals["scalar"],
        "batched_refs_per_sec": totals["refs"] / totals["batched"],
        "speedup": totals["scalar"] / totals["batched"],
    }
    return measurements, overall


def misschain_payload(measurements, overall, note=""):
    """The machine-readable BENCH_misschain.json payload."""
    return {
        "protocol": MISSCHAIN_PROTOCOL,
        "seed": SEED,
        "note": note,
        "rows": {
            m["label"]: {
                "refs": m["refs"],
                "scalar_seconds": round(m["scalar_seconds"], 4),
                "batched_seconds": round(m["batched_seconds"], 4),
                "scalar_refs_per_sec": round(m["scalar_refs_per_sec"]),
                "batched_refs_per_sec": round(m["batched_refs_per_sec"]),
                "speedup": round(m["speedup"], 3),
            }
            for m in measurements
        },
        "overall": {
            "scalar_refs_per_sec": round(overall["scalar_refs_per_sec"]),
            "batched_refs_per_sec": round(overall["batched_refs_per_sec"]),
            "speedup": round(overall["speedup"], 3),
        },
    }


def measure(passes=2, rows=None):
    """Run each row ``passes`` times, keep its fastest pass.

    Returns (measurements, overall refs/sec) where each measurement is a
    dict with label/refs/seconds/refs_per_sec/acs_heavy. ``overall`` is
    summed refs over summed best times across every row.
    """
    if rows is None:
        rows = make_rows()
    measurements = []
    total_refs = 0
    total_time = 0.0
    for row in rows:
        refs = None
        best = None
        for _ in range(passes):
            row_refs, elapsed = run_row(row)
            refs = row_refs
            if best is None or elapsed < best:
                best = elapsed
        measurements.append(
            {
                "label": row[0],
                "refs": refs,
                "seconds": best,
                "refs_per_sec": refs / best,
                "acs_heavy": row[6],
            }
        )
        total_refs += refs
        total_time += best
    return measurements, total_refs / total_time


def bench_payload(measurements, overall, baseline=None, note=""):
    """The machine-readable BENCH_scan.json payload."""
    payload = {
        "protocol": PROTOCOL,
        "seed": SEED,
        "note": note,
        "rows": {
            m["label"]: {
                "refs": m["refs"],
                "seconds": round(m["seconds"], 4),
                "refs_per_sec": round(m["refs_per_sec"]),
                "acs_heavy": m["acs_heavy"],
            }
            for m in measurements
        },
        "overall_refs_per_sec": round(overall),
    }
    if baseline is not None:
        payload["baseline"] = baseline
    return payload


def write_bench_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_json(path):
    with open(path) as handle:
        return json.load(handle)

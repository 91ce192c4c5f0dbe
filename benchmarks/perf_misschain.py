"""Measure the batched miss-chain engine and write BENCH_misschain.json.

Runs the misschain matrix (``perf_common.make_misschain_rows``, gcc
rows first, eight-core W2 rows last) with ``REPRO_BATCH_MISS=0`` (the
simulator's per-reference loops) and ``=1`` (the miss-chain engine)
strictly interleaved, keeping the fastest pass per mode, and writes
``benchmarks/results/BENCH_misschain.json``.

The committed JSON is the PR-acceptance artifact for the engine: the
gcc rows must show >=1.5x and the overall aggregate >=1.3x. ``--check``
turns those thresholds into a hard exit code for local verification;
CI instead consumes the speedups through
``check_perf_regression.py`` (warn-only, per-row), because absolute
thresholds on shared runners flake while the interleaved ratio only
drifts when the engine itself regresses.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf_misschain.py --passes 3
    PYTHONPATH=src python benchmarks/perf_misschain.py --check
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

import perf_common  # noqa: E402

RESULTS = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_misschain.json"
)

#: Rows the engine was built for; --check holds these to >=1.5x.
GCC_ROWS = ("picl/gcc", "ideal/gcc")
GCC_SPEEDUP = 1.5
OVERALL_SPEEDUP = 1.3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--passes", type=int, default=3,
        help="interleaved passes per row, best kept per mode (default 3)",
    )
    parser.add_argument(
        "--output", default=RESULTS,
        help="where to write BENCH_misschain.json",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless the gcc rows reach %.1fx and the "
        "overall aggregate %.1fx" % (GCC_SPEEDUP, OVERALL_SPEEDUP),
    )
    args = parser.parse_args(argv)

    # Time real simulation work, not result-cache reads.
    os.environ.setdefault("REPRO_NO_CACHE", "1")

    measurements, overall = perf_common.measure_misschain(passes=args.passes)
    print("%-14s %12s %12s %9s" % (
        "row", "scalar r/s", "batched r/s", "speedup"))
    for m in measurements:
        print("%-14s %12.0f %12.0f %8.2fx" % (
            m["label"],
            m["scalar_refs_per_sec"],
            m["batched_refs_per_sec"],
            m["speedup"],
        ))
    print("%-14s %12.0f %12.0f %8.2fx" % (
        "overall",
        overall["scalar_refs_per_sec"],
        overall["batched_refs_per_sec"],
        overall["speedup"],
    ))

    perf_common.write_bench_json(
        args.output,
        perf_common.misschain_payload(
            measurements,
            overall,
            note="%s; perf_misschain passes=%d"
            % (perf_common.MISSCHAIN_PROTOCOL, args.passes),
        ),
    )
    print("wrote %s" % args.output)

    if args.check:
        failures = []
        by_label = {m["label"]: m for m in measurements}
        for label in GCC_ROWS:
            speedup = by_label[label]["speedup"]
            if speedup < GCC_SPEEDUP:
                failures.append(
                    "%s: %.2fx < %.1fx" % (label, speedup, GCC_SPEEDUP)
                )
        if overall["speedup"] < OVERALL_SPEEDUP:
            failures.append(
                "overall: %.2fx < %.1fx"
                % (overall["speedup"], OVERALL_SPEEDUP)
            )
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        print(
            "OK: gcc rows >= %.1fx, overall >= %.1fx"
            % (GCC_SPEEDUP, OVERALL_SPEEDUP)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CI throughput check: warn (never fail) on large refs/sec drops.

Runs the shared throughput rows (``perf_common.make_rows``), writes a
fresh ``BENCH_scan.json``, and compares each row's refs/sec against the
committed ``benchmarks/results/BENCH_scan.json``. It then runs the
batched miss-chain matrix (``perf_common.make_misschain_rows``,
``REPRO_BATCH_MISS=0`` vs ``=1`` interleaved), writes a fresh
``BENCH_misschain.json``, and warns when a row's *speedup* falls
materially below the committed one — the interleaved ratio, not
absolute refs/sec, is the only number comparable across machines. The
comparison is per row, never only the aggregate: parity rows (hmmer)
would otherwise mask a regression on the rows the engine exists for.
After every matrix it
rolls the ``overall`` block of each ``BENCH_*.json`` into one
``BENCH_summary.json``, so the uploaded artifact has a single
diffable index of every protocol's headline numbers. A
drop beyond the threshold (default 20%) prints a warning — in
GitHub-annotation form when running under Actions — but the exit code
stays 0.

Non-gating on purpose: the committed baseline was measured on one
machine and CI runners are slower, noisier, and heterogeneous, so an
absolute refs/sec gate would flake constantly. The warning makes a
regression visible in the log and the uploaded JSON makes it diffable;
a human decides whether it is real. Re-measure locally with
``pytest benchmarks/test_perf_throughput.py`` (best-of-2) before
trusting any single CI number.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/check_perf_regression.py
    PYTHONPATH=src python benchmarks/check_perf_regression.py \
        --passes 2 --threshold 0.1
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

import perf_common  # noqa: E402

RESULTS = os.path.join(os.path.dirname(__file__), "results", "BENCH_scan.json")
MISSCHAIN = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_misschain.json"
)
SUMMARY = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_summary.json"
)


def warn(message):
    if os.environ.get("GITHUB_ACTIONS") == "true":
        print("::warning title=throughput regression::%s" % message)
    else:
        print("WARNING: %s" % message)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--passes", type=int, default=1,
        help="passes per row, best kept (default 1: CI is about drift, "
        "not precision)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="warn when a row's refs/sec drops by more than this fraction "
        "of the committed baseline (default 0.2)",
    )
    parser.add_argument(
        "--baseline", default=RESULTS,
        help="committed BENCH_scan.json to compare against",
    )
    parser.add_argument(
        "--output", default=RESULTS,
        help="where to write this run's BENCH_scan.json",
    )
    parser.add_argument(
        "--misschain-baseline", default=MISSCHAIN,
        help="committed BENCH_misschain.json to compare against",
    )
    parser.add_argument(
        "--misschain-output", default=MISSCHAIN,
        help="where to write this run's BENCH_misschain.json",
    )
    parser.add_argument(
        "--skip-misschain", action="store_true",
        help="skip the REPRO_BATCH_MISS matrix",
    )
    parser.add_argument(
        "--summary-output", default=SUMMARY,
        help="where to write the BENCH_summary.json index",
    )
    parser.add_argument(
        "--skip-distributed", action="store_true",
        help="skip the distributed-vs-local fig09 wall-clock check",
    )
    parser.add_argument(
        "--distributed-threshold", type=float, default=1.2,
        help="warn when the distributed fig09 wall-clock exceeds this "
        "multiple of the local-pool run (default 1.2)",
    )
    args = parser.parse_args(argv)

    # Time real simulation work, not result-cache reads.
    os.environ.setdefault("REPRO_NO_CACHE", "1")

    baseline = None
    if os.path.exists(args.baseline):
        baseline = perf_common.load_bench_json(args.baseline)
        if baseline.get("protocol") != perf_common.PROTOCOL:
            print(
                "baseline protocol %r != %r; skipping comparison"
                % (baseline.get("protocol"), perf_common.PROTOCOL)
            )
            baseline = None
    else:
        print("no committed baseline at %s; recording only" % args.baseline)

    measurements, overall = perf_common.measure(passes=args.passes)
    print("%-14s %12s %12s" % ("row", "refs/sec", "vs-baseline"))
    regressions = 0
    for m in measurements:
        ratio = ""
        if baseline is not None:
            base = baseline["rows"].get(m["label"], {}).get("refs_per_sec")
            if base:
                ratio = "%.2fx" % (m["refs_per_sec"] / base)
                if m["refs_per_sec"] < base * (1.0 - args.threshold):
                    regressions += 1
                    warn(
                        "%s: %.0f refs/sec vs baseline %d (%.0f%% drop)"
                        % (
                            m["label"],
                            m["refs_per_sec"],
                            base,
                            100.0 * (1.0 - m["refs_per_sec"] / base),
                        )
                    )
        print("%-14s %12.0f %12s" % (m["label"], m["refs_per_sec"], ratio))
    print("%-14s %12.0f" % ("overall", overall))

    perf_common.write_bench_json(
        args.output,
        perf_common.bench_payload(
            measurements,
            overall,
            baseline=baseline.get("baseline") if baseline else None,
            note="%s; check_perf_regression passes=%d"
            % (perf_common.PROTOCOL, args.passes),
        ),
    )
    print("wrote %s" % args.output)

    if not args.skip_misschain:
        regressions += check_misschain(args)
    if not args.skip_distributed:
        regressions += check_distributed(args)

    write_summary(args.summary_output)

    if regressions:
        warn(
            "%d row(s) dropped >%.0f%% vs committed baseline — likely "
            "machine variance if isolated; investigate if it tracks a "
            "hot-path change" % (regressions, 100 * args.threshold)
        )
    return 0


def check_misschain(args):
    """Run the REPRO_BATCH_MISS matrix and compare speedups, warn-only.

    Per-row speedups: the overall aggregate alone would let the
    hit-dominated hmmer rows mask a collapse on the gcc rows the engine
    exists for.
    """
    baseline = None
    if os.path.exists(args.misschain_baseline):
        baseline = perf_common.load_bench_json(args.misschain_baseline)
        if baseline.get("protocol") != perf_common.MISSCHAIN_PROTOCOL:
            print(
                "misschain baseline protocol %r != %r; skipping comparison"
                % (baseline.get("protocol"), perf_common.MISSCHAIN_PROTOCOL)
            )
            baseline = None
    else:
        print(
            "no committed baseline at %s; recording only"
            % args.misschain_baseline
        )

    passes = max(2, args.passes)  # a ratio from single passes is all noise
    measurements, overall = perf_common.measure_misschain(passes=passes)
    print("%-14s %12s %12s %9s %12s" % (
        "row", "scalar r/s", "batched r/s", "speedup", "vs-baseline"))
    regressions = 0
    for m in measurements:
        ratio = ""
        if baseline is not None:
            base = baseline["rows"].get(m["label"], {}).get("speedup")
            if base:
                ratio = "%.2fx" % (m["speedup"] / base)
                if m["speedup"] < base * (1.0 - args.threshold):
                    regressions += 1
                    warn(
                        "%s: miss-chain speedup %.2fx vs baseline %.2fx "
                        "(%.0f%% drop)"
                        % (
                            m["label"],
                            m["speedup"],
                            base,
                            100.0 * (1.0 - m["speedup"] / base),
                        )
                    )
        print(
            "%-14s %12.0f %12.0f %8.2fx %12s"
            % (
                m["label"],
                m["scalar_refs_per_sec"],
                m["batched_refs_per_sec"],
                m["speedup"],
                ratio,
            )
        )
    print("%-14s %12.0f %12.0f %8.2fx" % (
        "overall",
        overall["scalar_refs_per_sec"],
        overall["batched_refs_per_sec"],
        overall["speedup"],
    ))

    perf_common.write_bench_json(
        args.misschain_output,
        perf_common.misschain_payload(
            measurements,
            overall,
            note="%s; check_perf_regression passes=%d"
            % (perf_common.MISSCHAIN_PROTOCOL, passes),
        ),
    )
    print("wrote %s" % args.misschain_output)
    return regressions


def write_summary(path):
    """Roll every ``BENCH_*.json`` overall block into one index file.

    The summary is regenerated from whatever result files exist on disk
    after the matrices ran (committed baselines for skipped matrices,
    fresh measurements otherwise), so it is always a complete, diffable
    snapshot: one entry per artifact with its protocol, note, and
    headline ``overall`` numbers, keyed by file stem and sorted for a
    stable diff.
    """
    results_dir = os.path.dirname(path)
    summary = {"protocol": "bench-summary-v1", "benches": {}}
    for name in sorted(os.listdir(results_dir)):
        if not name.startswith("BENCH_") or not name.endswith(".json"):
            continue
        if os.path.join(results_dir, name) == path:
            continue
        payload = perf_common.load_bench_json(
            os.path.join(results_dir, name)
        )
        stem = name[len("BENCH_"):-len(".json")]
        entry = {
            "protocol": payload.get("protocol"),
            "note": payload.get("note", ""),
            "rows": len(payload.get("rows", {})),
        }
        overall = payload.get("overall")
        if isinstance(overall, dict):
            entry["overall"] = overall
        elif overall is not None:
            entry["overall"] = {"refs_per_sec": overall}
        summary["benches"][stem] = entry
    perf_common.write_bench_json(path, summary)
    print("wrote %s" % path)


def check_distributed(args):
    """Time a fleet-served ci fig09 against the local-pool path, warn-only.

    The fleet must never make the common case slower: a 3-worker
    distributed run of the ci-preset figure should land within
    ``--distributed-threshold`` (default 1.2x) of the same daemon
    configuration with zero workers, where every unit runs on the local
    thread pool. Heartbeats, placement, and the extra serialize/ship hop
    are the overhead under test; anything past the threshold on a quiet
    machine means the fleet plumbing regressed. Warn-only for the same
    reason as the throughput rows: CI wall-clocks are noisy.
    """
    from repro.service.client import ServiceClient, wait_until_ready

    figure_args = ["fig09", "--preset", "ci"]
    home = tempfile.mkdtemp(prefix="rdist-", dir="/tmp")
    daemon = None
    workers = []
    sock = None

    def start_daemon(tag):
        spool = os.path.join(home, "spool-%s" % tag)
        sock = os.path.join(home, "%s.sock" % tag)
        env = dict(os.environ)
        env.setdefault("PYTHONPATH", "src")
        # Time real execution on both sides: no result cache, and a
        # fresh spool so the second run's digests cannot join the first.
        env["REPRO_NO_CACHE"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--spool", spool, "--socket", sock, "--jobs", "2",
            ],
            env=env,
        )
        wait_until_ready(socket_path=sock, timeout=60)
        return proc, sock, env

    def stop_daemon(proc, sock):
        if proc is not None and proc.poll() is None:
            try:
                with ServiceClient(socket_path=sock) as client:
                    client.shutdown()
                proc.wait(timeout=30)
            except Exception:
                proc.kill()
                proc.wait()

    def timed_submit(sock, env):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "submit"]
            + figure_args
            + ["--socket", sock],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=1200,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                "repro submit exited %d\n%s"
                % (proc.returncode, proc.stderr.decode())
            )
        return time.monotonic() - start

    try:
        daemon, sock, env = start_daemon("local")
        local = timed_submit(sock, env)
        stop_daemon(daemon, sock)
        daemon = None

        daemon, sock, env = start_daemon("fleet")
        for index in range(3):
            workers.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--socket", sock, "--name", "perf-w%d" % index,
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with ServiceClient(socket_path=sock) as client:
                if client.status()["workers"]["live"] >= 3:
                    break
            time.sleep(0.1)
        else:
            raise RuntimeError("fleet never reached 3 live workers")
        distributed = timed_submit(sock, env)
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        if daemon is not None:
            stop_daemon(daemon, sock)
        shutil.rmtree(home, ignore_errors=True)

    ratio = distributed / local if local else float("inf")
    print("%-14s %12s %12s %9s" % (
        "fig09 ci", "local-pool s", "3-worker s", "ratio"))
    print("%-14s %12.1f %12.1f %8.2fx" % ("wall-clock", local, distributed, ratio))
    if ratio > args.distributed_threshold:
        warn(
            "distributed fig09 wall-clock %.1fs is %.2fx the local-pool "
            "run (%.1fs); threshold %.2fx — fleet overhead regressed "
            "(or a noisy runner)"
            % (distributed, ratio, local, args.distributed_threshold)
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

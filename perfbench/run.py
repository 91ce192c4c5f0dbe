"""Figure-level benchmark of the PiCL reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig09-ci --seed 1 --seconds 20 --trace 0

Each measurement is a fresh Python process (``perfbench/child.py``) that
regenerates one figure grid serially with a cold trace memo and an empty
result cache. ``--trace 0`` prints the end-to-end metrics: the workload is
regenerated until ``--seconds`` have passed (at least once) and a handful
of extra processes time set-up alone; medians are reported. ``--trace 1``
runs one untraced and one traced process and prints the per-layer metrics
from the traced one's spans.

Every run checks its output: a point fails if it raises, if its stats
digest differs from ``golden.json`` (default seed only), or if its crash
cell reports ``failed`` or never triggered; traced and untraced runs of
the same seed must agree digest for digest and count for count. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--write-golden`` regenerates ``golden.json`` for one workload at the
default seed; do that only when a change to the model is meant to change
its output.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import metrics
from child import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(ROOT, ".perfbench_run")

#: The ``ci`` preset's seed; the golden digests are taken at it.
DEFAULT_SEED = 20180101

#: Extra processes per ``--trace 0`` run that stop after set-up.
SETUP_PROBES = 4

#: Every run must finish well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

#: Variables that select program behaviour and are cleared before each
#: process, on top of ``repro.sim.parallel.ENGINE_FLAGS``.
CLEARED_VARS = (
    "REPRO_JOBS",
    "REPRO_PRESET",
    "REPRO_NO_TRACE_MEMO",
    "REPRO_NO_CACHE",
    "REPRO_CACHE_DIR",
)


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def provenance():
    """Host and toolchain facts; the commit only where ``ROOT`` is a git tree."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
    }


def clean_env(engine_flags):
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in engine_flags and key not in CLEARED_VARS
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Runner:
    """Spawns workload processes for one benchmark invocation."""

    def __init__(self, workload, seed, env, started):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.started = started
        self.dir = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
        self.count = 0

    def spawn(self, mode):
        """Run one child; returns ``(report, stdout_sha256)``."""
        self.count += 1
        out = os.path.join(self.dir, "report-%d.json" % self.count)
        cache_dir = os.path.join(self.dir, "cache-%d" % self.count)
        os.makedirs(cache_dir)
        budget = DEADLINE_S - (time.perf_counter() - self.started)
        if budget <= 0:
            raise BenchmarkError("out of time before starting a %s run" % mode)
        command = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--cache-dir", cache_dir,
            "--out", out,
            "--t0",
        ]
        t0 = time.perf_counter()
        try:
            done = subprocess.run(
                command + [repr(t0)],
                env=self.env,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=budget,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError("%s run exceeded the deadline" % mode)
        shutil.rmtree(cache_dir, ignore_errors=True)
        if done.returncode != 0:
            raise BenchmarkError(
                "%s run exited %d: %s"
                % (mode, done.returncode, done.stderr.decode(errors="replace")[-2000:])
            )
        with open(out) as handle:
            report = json.load(handle)
        if report["error"]:
            sys.stderr.write(done.stderr.decode(errors="replace"))
        return report, hashlib.sha256(done.stdout).hexdigest()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def check(report, output_sha, golden):
    """Validate one workload process.

    Returns ``(attempted, failed, problems)``: points attempted, points
    failed, and run-level problems (each makes the run incorrect).
    """
    problems = []
    if report["error"]:
        problems.append("run raised " + report["error"])
    if not report["guard_ok"]:
        problems.append("an identity-dispatched attribute was replaced")
    records = metrics.points(metrics.spans_of(report))
    failed = 0
    for record in records:
        run = record.get("run")
        bad = "error" in record or run is None or record.get("status") == "failed"
        # As `repro fault-sweep` does, an untriggered crash cell fails: its
        # crash window never opened, so nothing was validated.
        bad |= record.get("triggered") is False
        if run is not None and not run["crashed"]:
            # A run that neither crashed nor finished its budget stopped early.
            bad |= run["instructions"] < run["expected_instructions"]
        if golden is not None:
            bad |= record["key"] not in golden["points"]
            bad |= run is not None and golden["points"].get(record["key"]) != run["digest"]
            if "status" in record:
                bad |= golden["cells"].get(record["key"]) != record["status"]
        failed += bad
    if golden is not None:
        if output_sha != golden["output"]:
            problems.append("printed output differs from the golden digest")
        if len(records) != len(golden["points"]):
            problems.append(
                "%d points run, golden has %d" % (len(records), len(golden["points"]))
            )
    if report["error"] and not any("error" in record for record in records):
        failed += 1  # the failure happened outside any point
    return max(len(records), 1), failed, problems


def digests(report, output_sha):
    """The digests two commits compare: output, points and crash cells."""
    records = metrics.points(metrics.spans_of(report))
    return {
        "output": output_sha,
        "points": {r["key"]: r.get("run", {}).get("digest") for r in records},
        "cells": {r["key"]: r["status"] for r in records if "status" in r},
    }


def agree(first, second):
    """Problems if two processes of one seed disagree on any exact count."""
    problems = []
    a, b = digests(*first), digests(*second)
    if a != b:
        problems.append("digests differ between runs of the same seed")
    totals_a = metrics.count_totals(metrics.spans_of(first[0]))
    totals_b = metrics.count_totals(metrics.spans_of(second[0]))
    if totals_a != totals_b:
        drift = sorted(k for k in set(totals_a) | set(totals_b) if totals_a.get(k) != totals_b.get(k))
        problems.append("exact counts drifted between runs: " + ", ".join(drift[:8]))
    return problems


def load_golden(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN) as handle:
        return json.load(handle)["workloads"][workload]


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------


def end_to_end_run(runner, seconds):
    """Untraced runs for about ``seconds`` (at least one) plus set-up probes.

    Another run starts only if time is left and it should end within half
    of ``seconds`` past the target, so a workload a little shorter than
    ``seconds`` is not run twice.
    """
    limit = min(1.5 * seconds, DEADLINE_S / 2)
    runs = []
    while True:
        runs.append(runner.spawn("untraced"))
        elapsed = time.perf_counter() - runner.started
        if elapsed >= seconds or elapsed + metrics.host_wall(runs[-1][0]) > limit:
            break
    setups = [runner.spawn("setup")[0] for _ in range(SETUP_PROBES)]
    return runs, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from a source checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.sim.parallel import ENGINE_FLAGS

    runner = Runner(args.workload, args.seed, clean_env(ENGINE_FLAGS), started)
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    try:
        if args.write_golden:
            return write_golden(runner)
        golden = load_golden(args.workload, args.seed)
        problems = []
        attempted = failed = 0
        if args.trace:
            runs = [runner.spawn("untraced"), runner.spawn("traced")]
            values = metrics.per_layer(runs[1][0], runs[0][0])
            units = {name: unit for name, unit, _b, _m in metrics.PER_LAYER}
        else:
            runs, setups = end_to_end_run(runner, args.seconds)
            values, tail_info = metrics.end_to_end([r for r, _sha in runs], setups)
            print(
                "runs=%d setup_samples=%d point_tail_s=p%d of %d points host_wall_s=%s"
                % (
                    len(runs),
                    len(runs) + len(setups),
                    tail_info["percentile"],
                    tail_info["samples"],
                    ",".join("%.3f" % metrics.host_wall(r) for r, _sha in runs),
                )
            )
            units = {name: unit for name, unit, _b, _bound in metrics.END_TO_END}
        for report, sha in runs:
            a, f, p = check(report, sha, golden)
            attempted, failed, problems = attempted + a, failed + f, problems + p
        for other in runs[1:]:
            problems += agree(runs[0], other)
        if args.seed != DEFAULT_SEED:
            found = digests(*runs[0])
            combined = hashlib.sha256(json.dumps(found, sort_keys=True).encode()).hexdigest()
            print("digests: output=%s all=%s" % (found["output"], combined))
            path = os.path.join(WORK, "digests-%s-%d.json" % (args.workload, args.seed))
            with open(path, "w") as handle:
                json.dump(found, handle, indent=1, sort_keys=True)
        if args.trace:
            path = os.path.join(WORK, "spans-%s-%d.json" % (args.workload, args.seed))
            with open(path, "w") as handle:
                json.dump(runs[1][0]["spans"], handle)
    except BenchmarkError as exc:
        print("perfbench: " + str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    for problem in problems:
        print("problem: " + problem)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def write_golden(runner):
    """Record the default seed's digests for ``runner.workload``."""
    if runner.seed != DEFAULT_SEED:
        raise BenchmarkError("golden digests are taken at --seed %d" % DEFAULT_SEED)
    report, sha = runner.spawn("untraced")
    _attempted, failed, problems = check(report, sha, None)
    if failed or problems:
        raise BenchmarkError("refusing to record a failing run: %s" % problems)
    try:
        with open(GOLDEN) as handle:
            golden = json.load(handle)
    except FileNotFoundError:
        golden = {"seed": DEFAULT_SEED, "workloads": {}}
    golden["workloads"][runner.workload] = dict(digests(report, sha), provenance=provenance())
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %s in %s" % (runner.workload, GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark workload in a fresh Python process.

``run.py`` starts this script once per measurement, so every run begins
with an empty trace memo and an empty result-cache directory::

    python3 perfbench/child.py --workload fig09-ci --seed 20180101 \\
        --mode untraced --t0 <perf_counter at spawn> --cache-dir D --out R

The script builds the workload's grid from the ``ci`` preset with its seed
replaced, hands the grid to the program serially (``jobs=1``), prints the
figure exactly as the ``repro`` CLI does, and writes a JSON report to
``--out``: spans, ``t0`` (the parent's ``time.perf_counter()`` just before
spawning; on Linux that clock is ``CLOCK_MONOTONIC``, shared by all
processes), the times the first ``Simulation`` was built (``setup_end``)
and the workload ended (``end``), the calibration samples taken at the
start, before every point and at the end (see ``calibrate.py``), and peak
RSS. All times are raw ``perf_counter`` readings; ``metrics.py`` converts
them to reference seconds.

Modes:

* ``untraced`` — spans only at point granularity, the unit of
  ``point_p50_s``; each span carries its result's stats digest.
* ``traced`` — additionally spans around every layer's public entry
  points (see :func:`install_layer_spans`).
* ``setup`` — stop as soon as the first ``Simulation`` is constructed.
"""

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
import traceback

from calibrate import Calibrator
from tracer import SCHEME_CLASSES, Patcher, Recorder, identity_snapshot


#: Calibration samples taken at the start and at the end of a process.
CALIBRATION_EDGE = 3


class SetupReached(BaseException):
    """Raised in ``setup`` mode once the first Simulation exists.

    A BaseException, so the sweep runner's per-point ``except Exception``
    attribution passes it through untouched.
    """


def stats_digest(stats):
    """sha256 of a result's full ``stats_dict()``, key order fixed."""
    canonical = json.dumps(sorted(stats.items()))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# workloads: build the grid, run it, print the figure
# ----------------------------------------------------------------------


def run_fig09(preset, cache):
    from repro.experiments import fig09
    from repro.experiments.report import print_header

    print_header(fig09.TITLE, preset, preset.config())
    print(fig09.format_result(fig09.run(preset, jobs=1, cache=cache)))


def run_fig10(preset, cache):
    from repro.experiments import fig10
    from repro.experiments.report import print_header

    # fig10.main's banner; the module exposes no constant for it.
    print_header(
        "Fig 10: eight-thread multiprogram execution time normalized to "
        "Ideal NVM (lower is better)",
        preset,
        preset.config(n_cores=8),
    )
    print(fig10.format_result(fig10.run(preset, jobs=1, cache=cache)))


def run_crash_matrix(preset, cache):
    from repro.experiments import recovery_validation
    from repro.experiments.report import print_header

    # `repro fault-sweep --full`: the full matrix, not the 29-cell quick
    # one. Its 85 cells fill the band around the median cell time, where a
    # few garbage-collector pauses, placed by the seed, otherwise move
    # point_p50_s by up to 30%. The banner and summary are the ones
    # recovery_validation.main prints; main raises on failed or
    # untriggered cells, which check() in run.py counts instead.
    print_header(
        "Crash-injection recovery validation (full matrix)", preset, preset.config()
    )
    outcomes = recovery_validation.run(preset, full=True)
    print(recovery_validation.format_result(outcomes))
    print()
    print(
        "%d cells: %d ok, %d corruption detected, %d failed, %d untriggered"
        % (
            len(outcomes),
            sum(1 for o in outcomes if o.status == "ok"),
            sum(1 for o in outcomes if o.status == "detected"),
            sum(1 for o in outcomes if not o.passed),
            sum(1 for o in outcomes if not o.triggered),
        )
    )


RUNNERS = {
    "fig09-ci": run_fig09,
    "fig10-ci": run_fig10,
    "crash-matrix-ci": run_crash_matrix,
}
WORKLOADS = tuple(RUNNERS)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def install_point_spans(patcher, workload, setup_only, calibrator):
    """Spans every mode records: points, Simulation construction and runs.

    A calibration sample precedes every point, outside its span.
    """
    from repro.fault import harness
    from repro.sim.parallel import RunPoint
    from repro.sim.simulator import Simulation

    if workload == "crash-matrix-ci":

        def cell_attrs(args, kwargs):
            _config, scheme, event = args[:3]
            return {"key": "%s/%s" % (event.name, scheme), "scheme": scheme}

        def cell_result(span, args, kwargs, outcome):
            span.attrs["status"] = outcome.status
            span.attrs["triggered"] = outcome.triggered

        patcher.wrap(harness, "run_cell", "point", cell_attrs, cell_result)
        patcher.call_first(harness, "run_cell", calibrator.sample)
    else:

        def point_attrs(args, kwargs):
            point = args[0]
            key = "%s/%s" % ("+".join(point.benchmarks), point.scheme_name)
            return {"key": key, "scheme": point.scheme_name}

        patcher.wrap(RunPoint, "execute", "point", point_attrs)
        patcher.call_first(RunPoint, "execute", calibrator.sample)

    def built(span, args, kwargs, result):
        if setup_only:
            raise SetupReached()

    def ran(span, args, kwargs, result):
        sim = args[0]
        stats = result.stats_dict()
        span.attrs.update(
            scheme=sim.scheme_name,
            refs=stats.get("loads", 0) + stats.get("stores", 0),
            instructions=result.instructions,
            expected_instructions=sim.n_instructions * len(sim.benchmarks),
            crashed=sim.crashed,
            digest=stats_digest(stats),
            stats=stats,
        )

    patcher.wrap(Simulation, "__init__", "sim.build", after=built)
    patcher.wrap(Simulation, "run", "sim.run", after=ran)


def install_layer_spans(patcher):
    """Spans around each layer's public entry points (traced mode)."""
    from repro.core import picl
    from repro.experiments import recovery_validation
    from repro.fault import harness
    from repro.sim import parallel, simulator
    from repro.trace import synthetic

    def trace_key(args, kwargs):
        profile, n_instructions = args[:2]
        seed = kwargs.get("seed", args[2] if len(args) > 2 else 0)
        addr_base = kwargs.get("addr_base", args[3] if len(args) > 3 else 0)
        return (profile, n_instructions, seed, addr_base)

    def trace_before(args, kwargs):
        return {"memo_hit": trace_key(args, kwargs) in synthetic._trace_memo}

    def trace_after(span, args, kwargs, result):
        grew = trace_key(args, kwargs) in synthetic._trace_memo
        span.attrs["generated"] = grew and not span.attrs.pop("memo_hit")

    def report_counts(span, args, kwargs, result):
        _image, report = result
        span.attrs["scanned"] = report.entries_scanned
        span.attrs["applied"] = report.entries_applied

    # make_trace is patched where the simulator imported it.
    patcher.wrap(simulator, "make_trace", "trace.make", trace_before, trace_after)
    # run_keyed calls run_points inside its own module; the crash matrix
    # runner is patched where recovery_validation imported it.
    patcher.wrap(parallel, "run_points", "runner")
    patcher.wrap(recovery_validation, "run_crash_matrix", "runner")
    patcher.wrap(simulator.Simulation, "crash_and_recover", "recovery.crash_and_recover")
    for name in SCHEME_CLASSES:
        patcher.wrap(getattr(simulator, name), "recover", "recovery.recover")
    patcher.wrap(picl, "recover_image", "recovery.recover_image", after=report_counts)
    patcher.wrap(harness, "check_recovered", "recovery.check")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced", "setup"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.experiments.presets import get_preset
    from repro.sim.parallel import ResultCache

    calibrator = Calibrator()
    calibrator.sample(CALIBRATION_EDGE)
    recorder = Recorder()
    patcher = Patcher(recorder)
    before = identity_snapshot()
    install_point_spans(patcher, args.workload, args.mode == "setup", calibrator)
    if args.mode == "traced":
        install_layer_spans(patcher)
    guard_ok = identity_snapshot() == before

    preset = dataclasses.replace(get_preset("ci"), seed=args.seed)
    report = {"guard_ok": guard_ok, "error": None}
    try:
        RUNNERS[args.workload](preset, ResultCache(args.cache_dir))
        sys.stdout.flush()
    except SetupReached:
        pass
    except Exception as exc:  # reported as a failed run, not a crash
        traceback.print_exc()
        report["error"] = "%s: %s" % (type(exc).__name__, exc)
    report["end"] = time.perf_counter()
    calibrator.sample(CALIBRATION_EDGE)
    patcher.restore()
    builds = [span for span in recorder.spans if span.name == "sim.build"]
    report["t0"] = args.t0
    report["setup_end"] = builds[0].end if builds else report["end"]
    report["calibration"] = calibrator.samples
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["spans"] = [span.to_json() for span in recorder.spans]
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

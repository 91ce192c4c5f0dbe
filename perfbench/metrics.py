"""Metric definitions and their computation from a run's spans.

``END_TO_END`` and ``PER_LAYER`` are the source of truth for the metric
lists in ``BENCHMARK.json`` (a test keeps the two in step). Each per-layer
metric names the end-to-end metric and workload it should move; a
prediction of "zero" means the layer does no work on that workload.
"""

import math
import statistics

from calibrate import ReferenceClock
from tracer import Span

SCHEMES = ("ideal", "picl", "journaling", "shadow", "frm", "thynvm")

#: (name, unit, better, bound). Every time is in reference seconds (see
#: ``calibrate``). Host throughput on a shared two-vCPU machine drifts by
#: tens of percent over minutes, and the calibration removes most but not
#: all of it, so timings get the widest bound allowed (0.25); memory does
#: not drift.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("refs_per_s", "refs/s", "higher", 0.25),
    ("point_p50_s", "s", "lower", 0.25),
    ("point_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_FIGS = "fig09-ci, fig10-ci"
_ALL = "fig09-ci, fig10-ci, crash-matrix-ci"

#: (name, unit, better, moves)
PER_LAYER = (
    ("trace.make_s", "s", "lower", "wall_s on " + _FIGS),
    ("trace.calls", "count", "lower", "wall_s on " + _FIGS),
    ("trace.generated", "count", "lower", "wall_s on " + _FIGS),
    ("sim.build_s", "s", "lower", "point_p50_s on crash-matrix-ci"),
    ("sim.run_s", "s", "lower", "refs_per_s and wall_s on " + _ALL),
)
PER_LAYER += tuple(
    ("sim.run_s." + scheme, "s", "lower", "refs_per_s and wall_s on " + _ALL)
    for scheme in SCHEMES
)
PER_LAYER += (("sim.ns_per_ref", "ns", "lower", "refs_per_s and wall_s on " + _ALL),)
PER_LAYER += tuple(
    ("scheme.%s.extra_s" % scheme, "s", "lower", "wall_s on " + _FIGS)
    for scheme in SCHEMES[1:]
)
PER_LAYER += (
    ("scheme.commits", "count", "lower", "wall_s on " + _FIGS),
    ("scheme.log_bytes", "bytes", "lower", "wall_s on " + _FIGS),
    ("scheme.undo_flushes", "count", "lower", "wall_s on " + _FIGS),
    ("scheme.cross_epoch_stores", "count", "lower", "wall_s on " + _FIGS),
    ("scheme.acs_writebacks", "count", "lower", "wall_s on " + _FIGS),
    ("scheme.stall_cycles", "cycles", "lower", "wall_s on " + _FIGS),
    ("cache.refs", "count", "higher", "point_tail_s on fig09-ci"),
    ("cache.l1_miss_frac", "fraction", "lower", "point_tail_s on fig09-ci"),
    ("cache.llc_misses", "count", "lower", "point_tail_s on fig09-ci"),
    ("cache.llc_dirty_evictions", "count", "lower", "point_tail_s on fig09-ci"),
    ("mem.nvm_ops", "count", "lower", "point_tail_s on " + _FIGS),
    ("mem.nvm_bytes", "bytes", "lower", "point_tail_s on " + _FIGS),
    ("recovery.s", "s", "lower", "wall_s on crash-matrix-ci; zero elsewhere"),
    ("recovery.calls", "count", "lower", "wall_s on crash-matrix-ci; zero elsewhere"),
    ("recovery.entries_scanned", "count", "lower", "wall_s on crash-matrix-ci; zero elsewhere"),
    ("recovery.entries_applied", "count", "lower", "wall_s on crash-matrix-ci; zero elsewhere"),
    ("fault.triggered", "count", "higher", "wall_s on crash-matrix-ci; zero elsewhere"),
    ("runner.overhead_s", "s", "lower", "wall_s on " + _FIGS),
    ("tracing.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
)


def spans_of(report):
    """The report's spans with their times in reference seconds."""
    clock = ReferenceClock(report["calibration"])
    spans = [Span.from_json(row) for row in report["spans"]]
    for span in spans:
        span.start, span.end = clock(span.start), clock(span.end)
    return spans


def wall_and_setup(report):
    """Reference seconds from spawn to the end and to the first Simulation."""
    clock = ReferenceClock(report["calibration"])
    start = clock(report["t0"])
    return clock(report["end"]) - start, clock(report["setup_end"]) - start


def host_wall(report):
    """Plain host seconds from spawn to the end, calibration included."""
    return report["end"] - report["t0"]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of one single-threaded span never overlap, so their
    durations add up without double counting.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, n)`` using the nearest-rank definition,
    or ``(50, median, n)`` when there are too few samples for a tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 50, statistics.median(ordered), n
    percentile = (100 * (n - 10)) // n
    rank = math.ceil(percentile * n / 100)
    return percentile, ordered[rank - 1], n


def points(spans):
    """One record per point span, joined with its Simulation run."""
    records = []
    index_of = {}
    for index, span in enumerate(spans):
        if span.name == "point":
            index_of[index] = len(records)
            records.append(dict(span.attrs, seconds=span.duration))
    for span in spans:
        if span.name == "sim.run":
            parent = span.parent
            while parent >= 0 and parent not in index_of:
                parent = spans[parent].parent
            if parent >= 0:
                records[index_of[parent]]["run"] = span.attrs
    return records


def count_totals(spans):
    """Every stats counter summed over the run's Simulation runs."""
    totals = {}
    for span in spans:
        if span.name == "sim.run" and "stats" in span.attrs:
            for key, value in span.attrs["stats"].items():
                totals[key] = totals.get(key, 0) + value
    return totals


def _sum_prefix(totals, prefix):
    return sum(value for key, value in totals.items() if key.startswith(prefix))


def end_to_end(reports, setups):
    """End-to-end metrics over untraced processes of one workload.

    Each metric is computed per process and the median over ``reports``
    is reported, so the tail percentile depends only on the grid, not on
    how many times it ran. ``setup_s`` is the median over ``reports`` and
    ``setups``, the set-up-only processes. Returns ``(metrics, tail_info)``.
    """
    per_process = {}
    for report in reports:
        wall, setup = wall_and_setup(report)
        records = points(spans_of(report))
        times = [record["seconds"] for record in records]
        refs = sum(record.get("run", {}).get("refs", 0) for record in records)
        percentile, tail_value, n = tail(times)
        one = {
            "wall_s": wall,
            "refs_per_s": refs / (wall - setup),
            "point_p50_s": statistics.median(times),
            "point_tail_s": tail_value,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        for name, value in one.items():
            per_process.setdefault(name, []).append(value)
    result = {name: statistics.median(values) for name, values in per_process.items()}
    result["setup_s"] = statistics.median(wall_and_setup(r)[1] for r in reports + setups)
    return result, {"percentile": percentile, "samples": n}


def per_layer(traced, untraced):
    """Per-layer metrics from a traced process and its untraced twin."""
    spans = spans_of(traced)
    own = self_times(spans)
    totals = count_totals(spans)
    refs = totals.get("loads", 0) + totals.get("stores", 0)

    def total(name, key=None):
        return sum(
            (key(span) if key else span.duration)
            for span in spans
            if span.name == name
        )

    run_by_scheme = {scheme: 0.0 for scheme in SCHEMES}
    runs_by_scheme = {scheme: 0 for scheme in SCHEMES}
    for span, self_s in zip(spans, own):
        if span.name == "sim.run":
            scheme = span.attrs["scheme"]
            run_by_scheme[scheme] += self_s
            runs_by_scheme[scheme] += 1
    run_s = sum(run_by_scheme.values())
    # recovery.s: the outermost recovery spans, so nesting is not counted twice.
    recovery_s = 0.0
    for span in spans:
        if span.name.startswith("recovery.") and not (
            span.parent >= 0 and spans[span.parent].name.startswith("recovery.")
        ):
            recovery_s += span.duration
    point_s = total("point")
    metrics = {
        "trace.make_s": total("trace.make"),
        "trace.calls": sum(1 for span in spans if span.name == "trace.make"),
        "trace.generated": sum(
            1 for span in spans if span.name == "trace.make" and span.attrs.get("generated")
        ),
        "sim.build_s": sum(s for span, s in zip(spans, own) if span.name == "sim.build"),
        "sim.run_s": run_s,
        "sim.ns_per_ref": run_s / refs * 1e9 if refs else 0.0,
    }
    for scheme in SCHEMES:
        metrics["sim.run_s." + scheme] = run_by_scheme[scheme]
    for scheme in SCHEMES[1:]:
        # Defined only where every trace ran under Ideal and this scheme.
        paired = runs_by_scheme["ideal"] and runs_by_scheme[scheme] == runs_by_scheme["ideal"]
        metrics["scheme.%s.extra_s" % scheme] = (
            run_by_scheme[scheme] - run_by_scheme["ideal"] if paired else 0.0
        )
    metrics.update(
        {
            "scheme.commits": totals.get("commits", 0),
            "scheme.log_bytes": totals.get("log.bytes_appended", 0),
            "scheme.undo_flushes": totals.get("undo.buffer_flushes", 0),
            "scheme.cross_epoch_stores": totals.get("picl.cross_epoch_stores", 0),
            "scheme.acs_writebacks": totals.get("acs.writebacks", 0),
            "scheme.stall_cycles": _sum_prefix(totals, "stall."),
            "cache.refs": refs,
            "cache.l1_miss_frac": totals.get("l1.misses", 0) / refs if refs else 0.0,
            "cache.llc_misses": totals.get("llc.misses", 0),
            "cache.llc_dirty_evictions": totals.get("llc.dirty_evictions", 0),
            "mem.nvm_ops": _sum_prefix(totals, "nvm.iops."),
            "mem.nvm_bytes": totals.get("nvm.bytes_read", 0) + totals.get("nvm.bytes_written", 0),
            "recovery.s": recovery_s,
            "recovery.calls": sum(1 for span in spans if span.name == "recovery.recover"),
            "recovery.entries_scanned": total(
                "recovery.recover_image", lambda span: span.attrs.get("scanned", 0)
            ),
            "recovery.entries_applied": total(
                "recovery.recover_image", lambda span: span.attrs.get("applied", 0)
            ),
            "fault.triggered": sum(
                1 for span in spans if span.name == "point" and span.attrs.get("triggered")
            ),
            "runner.overhead_s": total("runner") - point_s,
            "tracing.overhead_s": wall_and_setup(traced)[0] - wall_and_setup(untraced)[0],
        }
    )
    return metrics

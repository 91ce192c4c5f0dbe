"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q

The slow test runs the full crash matrix once (about 25 s).
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import child
import metrics
import run
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def fake_report(digest="d1", status=None, instructions=100, triggered=True):
    """A one-point report as child.py writes it."""
    clock = iter(range(100)).__next__
    recorder = tracer.Recorder(clock=clock)
    attrs = {"key": "gcc/picl", "scheme": "picl"}
    if status is not None:
        attrs["status"] = status
        attrs["triggered"] = triggered
    point = recorder.begin("point", attrs)
    run_span = recorder.begin("sim.run")
    run_span.attrs.update(
        scheme="picl",
        refs=10,
        instructions=instructions,
        expected_instructions=100,
        crashed=False,
        digest=digest,
        stats={"loads": 6, "stores": 4},
    )
    recorder.end(run_span)
    recorder.end(point)
    return {
        "error": None,
        "guard_ok": True,
        "t0": 0.0,
        "setup_end": 1.0,
        "end": 5.0,
        "calibration": [[-1.0, -1.0 + calibrate.NOMINAL_S]],
        "peak_rss_mb": 50.0,
        "spans": [span.to_json() for span in recorder.spans],
    }


GOLDEN = {"output": "out", "points": {"gcc/picl": "d1"}, "cells": {}}


def test_matching_golden_passes():
    assert run.check(fake_report(), "out", GOLDEN) == (1, 0, [])


def test_tampered_point_digest_is_caught():
    golden = copy.deepcopy(GOLDEN)
    golden["points"]["gcc/picl"] = "tampered"
    attempted, failed, _problems = run.check(fake_report(), "out", golden)
    assert (attempted, failed) == (1, 1)


def test_tampered_output_digest_is_caught():
    _attempted, failed, problems = run.check(fake_report(), "tampered", GOLDEN)
    assert failed == 0 and problems == ["printed output differs from the golden digest"]


def test_failed_cell_and_short_run_count_as_failures():
    assert run.check(fake_report(status="ok"), "out", None)[1] == 0
    assert run.check(fake_report(status="failed"), "out", None)[1] == 1
    assert run.check(fake_report(status="ok", triggered=False), "out", None)[1] == 1
    assert run.check(fake_report(instructions=99), "out", None)[1] == 1


def test_count_drift_between_runs_is_an_error():
    first = fake_report()
    second = fake_report()
    second["spans"][1][4]["stats"]["loads"] = 7
    problems = run.agree((first, "out"), (second, "out"))
    assert problems == ["exact counts drifted between runs: loads"]
    assert run.agree((first, "out"), (fake_report(), "out")) == []


def test_tail_keeps_ten_points_beyond_it():
    for n in (11, 29, 48, 174):
        percentile, value, count = metrics.tail(range(1, n + 1))
        assert count == n
        assert sum(1 for v in range(1, n + 1) if v > value) >= 10
        assert sum(1 for v in range(1, n + 1) if v > value) < 10 + n / 100
    assert metrics.tail([1.0, 3.0, 2.0]) == (50, 2.0, 3)


def test_self_time_subtracts_children():
    spans = [
        tracer.Span("point", 0.0, -1, {}),
        tracer.Span("sim.build", 1.0, 0, {}),
        tracer.Span("trace.make", 1.5, 1, {}),
        tracer.Span("sim.run", 3.0, 0, {}),
    ]
    for span, end in zip(spans, (10.0, 3.0, 2.5, 9.0)):
        span.end = end
    assert metrics.self_times(spans) == [2.0, 1.0, 1.0, 6.0]


def test_reference_clock_rescales_and_skips_samples():
    nominal = calibrate.NOMINAL_S
    # A host at half speed: the kernel takes twice its nominal time.
    samples = [[10.0 * j, 10.0 * j + 2 * nominal] for j in range(3)]
    clock = calibrate.ReferenceClock(samples)
    assert clock(samples[0][0]) == 0.0
    # The clock stands still during a sample and runs at half rate between.
    assert clock(samples[1][0]) == clock(samples[1][1])
    gap = samples[1][0] - samples[0][1]
    assert clock(samples[1][0]) == pytest.approx(gap / 2)
    # Before the first and after the last sample: the nearest gap's rate.
    assert clock(-4.0) == pytest.approx(-2.0)
    assert clock(samples[2][1] + 4.0) - clock(samples[2][1]) == pytest.approx(2.0)


def test_reference_seconds_follow_the_local_kernel_time():
    nominal = calibrate.NOMINAL_S
    # Kernel at nominal speed for 8 samples, then at a third of it.
    took = [nominal] * 8 + [3 * nominal] * 8
    samples, t = [], 0.0
    for duration in took:
        samples.append([t, t + duration])
        t += duration + 1.0
    clock = calibrate.ReferenceClock(samples)
    assert clock(samples[2][0]) - clock(samples[1][1]) == pytest.approx(1.0)
    assert clock(samples[14][0]) - clock(samples[13][1]) == pytest.approx(1.0 / 3)


def test_patcher_refuses_identity_dispatched_attributes():
    from repro.baselines.base import CrashConsistencyScheme
    from repro.mem.nvm import NvmDevice

    patcher = tracer.Patcher(tracer.Recorder())
    for name in tracer.FORBIDDEN_ATTRS:
        with pytest.raises(ValueError):
            patcher.wrap(CrashConsistencyScheme, name, "x")
    with pytest.raises(ValueError):
        patcher.wrap(NvmDevice, "access", "x")


def test_traced_spans_leave_dispatch_identities_alone():
    before = tracer.identity_snapshot()
    patcher = tracer.Patcher(tracer.Recorder())
    child.install_point_spans(patcher, "fig09-ci", False, calibrate.Calibrator())
    child.install_layer_spans(patcher)
    try:
        assert tracer.identity_snapshot() == before
    finally:
        patcher.restore()
    from repro.sim.simulator import Simulation

    assert not hasattr(Simulation.run, "__wrapped__")


def test_benchmark_json_matches_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig09-ci", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tampered_golden_fails_a_real_run(tmp_path, monkeypatch, capsys):
    with open(run.GOLDEN) as handle:
        golden = json.load(handle)
    cells = golden["workloads"]["crash-matrix-ci"]["points"]
    key = sorted(cells)[0]
    cells[key] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", str(path))
    assert run.main(["--workload", "crash-matrix-ci", "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 85

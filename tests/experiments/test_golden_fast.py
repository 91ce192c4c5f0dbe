"""Golden output digests, fast subset: the ci outputs cheap enough for tier-1.

``benchmarks/results/golden_ci.sha256`` pins the sha256 of every ci-preset
figure, table and fault-sweep output; CI regenerates all of them and
checks the file. ``table3`` (analytic) and ``recovery`` (a handful of short
PiCL runs through the single-core loop and the recovery path) take about
two seconds together, so they are also printed here, in-process through
the CLI entry point, and held to the same digests.
"""

import hashlib
import os

import pytest

from repro.cli import main

GOLDEN = os.path.join(
    os.path.dirname(__file__),
    os.pardir,
    os.pardir,
    "benchmarks",
    "results",
    "golden_ci.sha256",
)


def golden_digests():
    """Map output file name -> committed sha256 hex digest."""
    digests = {}
    with open(GOLDEN) as handle:
        for line in handle:
            if line.strip():
                digest, name = line.split()
                digests[name] = digest
    return digests


@pytest.mark.parametrize("command", ["table3", "recovery"])
def test_ci_output_matches_golden_digest(command, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert main([command, "--preset", "ci", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == golden_digests()["%s_ci.txt" % command]

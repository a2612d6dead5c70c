"""Tiny-size runs of every workload: checks pass, counts repeat exactly."""

from __future__ import annotations

import json
import subprocess
import sys
import types

import pytest

from perfbench import harness
from perfbench.layers import PER_LAYER
from perfbench.workloads import WORKLOAD_CLASSES

from perfbench.tests.conftest import ROOT

SECONDS = 0.4

#: Per-layer metrics that are counts of work, which a seed fixes.
COUNTS = [
    "core.bytes_shipped",
    "formatter.rebuild.calls",
    "compress.decode.calls",
    "compress.decode.bytes_out",
    "storage.device.reads",
    "storage.device.bytes_read",
    "storage.device.bytes_written",
    "storage.device.modeled_busy_s",
    "index.segments",
    "index.postings",
    "delivery.events",
    "delivery.underruns",
]


def options():
    return types.SimpleNamespace(
        seconds=SECONDS, serve_rates=[40.0, 80.0, 120.0], p99_limit_ms=50.0
    )


def run(name, trace, seed=3):
    return harness.run(WORKLOAD_CLASSES[name], seed, SECONDS, trace, options())


@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run(name, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _unit in harness.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["browse", "ingest", "stream"])
def test_same_seed_traced_runs_repeat_every_count(name):
    first, second = (run(name, trace=True)["metrics"] for _ in range(2))
    assert list(first) == [name for name, _unit, _better in PER_LAYER]
    assert {k: first[k]["value"] for k in COUNTS} == {
        k: second[k]["value"] for k in COUNTS
    }
    assert first["trace.attributed_fraction"]["value"] > 0.5
    layers_untouched = {
        "browse": ("index", "cluster", "obs", "delivery"),
        "stream": ("cluster", "obs", "index"),
    }.get(name, ())
    for metric, value in first.items():
        if metric.split(".")[0] in layers_untouched:
            assert value["value"] == 0, metric
    if name == "stream":
        # Framed extents ship undecoded.
        assert first["compress.decode.calls"]["value"] == 0


def test_traced_serve_run_passes_its_checks():
    result = run("serve", trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["obs.spans_per_request"]["value"] > 0


def test_command_fails_without_the_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--serve-rates", "100,200,300",
         "--p99-limit-ms", "15", "--workload", "browse", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    with pytest.raises(json.JSONDecodeError):
        json.loads((done.stdout.strip().splitlines() or [""])[-1])

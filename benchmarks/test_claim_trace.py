"""C-TRACE — tracing is cheap enough to leave on, and explains the time.

The ISSUE-9 bargain for `repro.obs`: on the C-OPEN workload (repeated
cold opens, decoded cache defeated), running with a `SpanRecorder`
attached may cost at most **5%** wall clock over running untraced,
while the spans it records must let `CriticalPath` attribute at least
**95%** of a traced request's end-to-end latency to instrumented
layers — overhead you pay only if it buys you the "where did the time
go" answer.

Three claims:

1. **Overhead** — the median over many cold opens of (traced open's
   wall clock / its untraced twin's, timed back to back) <= 1.05.
2. **Attribution** — a cold open traced across workstation -> router
   -> replica device -> workstation decode -> link yields one connected
   tree whose critical path reproduces `open_cost_s` within 1% and
   attributes >= 95% of it.
3. **Round-trip** — the exported Chrome-trace JSON (the CI artifact)
   reconstructs the span list exactly.

Rows go to ``bench_results.txt``; the machine-readable summary to
``BENCH_TRACE.json``; the exported span tree of the measured cold open
to ``bench_trace_spans.json`` (uploaded by the bench-smoke CI job).
"""

from __future__ import annotations

import gc
import json
import pathlib
import statistics
import time

import pytest

from repro.cluster import ClusterNode, ClusterRouter
from repro.core.manager import PresentationManager
from repro.obs import (
    CriticalPath,
    SpanRecorder,
    from_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.scenarios import build_object_library
from repro.server import Archiver, NetworkLink
from repro.workstation.station import Workstation

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_JSON = _ROOT / "BENCH_TRACE.json"
_TRACE_JSON = _ROOT / "bench_trace_spans.json"
_BENCH: dict = {}

#: The acceptance bounds the subsystem is held to.
MAX_OVERHEAD = 1.05
MIN_ATTRIBUTED = 0.95
#: Paired cold opens per overhead measurement.
OPENS = 768


@pytest.fixture(scope="module", autouse=True)
def _write_json():
    """Emit whatever this run measured as BENCH_TRACE.json."""
    yield
    if _BENCH:
        _JSON.write_text(json.dumps(_BENCH, indent=2, sort_keys=True) + "\n")


def _library_archiver(visual=4, audio=0):
    archiver = Archiver()
    build_object_library(archiver, visual_count=visual, audio_count=audio)
    return archiver


def _visual_ids(archiver):
    return [
        object_id
        for object_id in archiver.object_ids()
        if archiver.record(object_id).descriptor.driving_mode == "visual"
    ]


def _cold_open_s(manager, object_id):
    """Wall seconds for one cold open (decoded cache defeated)."""
    manager.decoded_cache.invalidate(object_id)
    start = time.perf_counter()
    manager.open(object_id)
    return time.perf_counter() - start


def _measure_overhead(*, visual, opens):
    """Median of per-open paired ratios, traced over untraced.

    Both managers sit on identically-built libraries.  Each pair opens
    the same object cold on both, back to back, with the order flipped
    every sweep over the objects, so drift (thermal ramp, cache warmth)
    hits both modes equally and each object goes first on both.  A
    stall of the shared host spoils only the few pairs it lands in,
    which the median over ``opens`` pairs ignores.  Returns the median
    ratio, each mode's median open and the traced recorder.
    """
    plain_archiver = _library_archiver(visual=visual)
    traced_archiver = _library_archiver(visual=visual)
    plain = PresentationManager(
        plain_archiver, Workstation(), link=NetworkLink()
    )
    obs = SpanRecorder()
    traced = PresentationManager(
        traced_archiver, Workstation(), link=NetworkLink(), obs=obs
    )
    plain_ids = _visual_ids(plain_archiver)
    traced_ids = _visual_ids(traced_archiver)
    # Warm-up: first opens pay one-time costs (numpy buffers, codec
    # tables) that are not the steady state either mode runs in.
    for plain_id, traced_id in zip(plain_ids, traced_ids):
        _cold_open_s(plain, plain_id)
        _cold_open_s(traced, traced_id)
    plain_times, traced_times = [], []
    # Collector pauses land on whichever open is running when the
    # threshold trips; freezing the collector keeps them out of the
    # traced-vs-untraced comparison entirely.
    gc.collect()
    gc.disable()
    try:
        for index in range(opens):
            sweep, slot = divmod(index, len(plain_ids))
            if sweep % 2 == 0:
                plain_times.append(_cold_open_s(plain, plain_ids[slot]))
                traced_times.append(_cold_open_s(traced, traced_ids[slot]))
            else:
                traced_times.append(_cold_open_s(traced, traced_ids[slot]))
                plain_times.append(_cold_open_s(plain, plain_ids[slot]))
    finally:
        gc.enable()
    ratio = statistics.median(
        traced_s / plain_s for plain_s, traced_s in zip(plain_times, traced_times)
    )
    return (
        ratio,
        statistics.median(plain_times),
        statistics.median(traced_times),
        obs,
    )


def _traced_cluster_open():
    """One cold open over a 3-node R=2 compressed cluster, traced."""
    scratch = Archiver()
    objects = build_object_library(scratch, visual_count=3, audio_count=1)
    nodes = [ClusterNode(i) for i in range(3)]
    router = ClusterRouter(nodes, replication=2)
    for obj in objects:
        router.store(obj)
    obs = SpanRecorder()
    manager = PresentationManager(router, Workstation(), obs=obs)
    session = manager.open(objects[0].object_id)
    return obs, session


def test_tracing_overhead_within_bound(results):
    """Claim (1): <= 5% wall-clock overhead on the C-OPEN workload."""
    ratio, plain_s, traced_s, obs = _measure_overhead(visual=4, opens=OPENS)
    spans_per_open = len(obs) / (OPENS + 4)
    _BENCH["overhead"] = {
        "pairs": OPENS,
        "plain_median_s": round(plain_s, 6),
        "traced_median_s": round(traced_s, 6),
        "median_paired_ratio": round(ratio, 4),
        "bound": MAX_OVERHEAD,
        "spans_per_open": round(spans_per_open, 2),
    }
    results.record(
        "C-TRACE tracing overhead",
        f"{OPENS} paired cold opens: median untraced {plain_s * 1000:.2f}ms, "
        f"traced {traced_s * 1000:.2f}ms, median paired ratio {ratio:.3f} "
        f"(bound {MAX_OVERHEAD}), {spans_per_open:.1f} spans/open",
    )
    assert ratio <= MAX_OVERHEAD


def test_critical_path_attribution(results):
    """Claim (2): >= 95% of a traced cluster open is attributed."""
    obs, session = _traced_cluster_open()
    cp = CriticalPath.from_recorder(obs)
    assert cp.end_to_end_s == pytest.approx(session.open_cost_s, rel=0.01)
    attributed = cp.attributed_fraction
    layers = {
        item.kind.value: round(item.seconds, 6)
        for item in cp.layer_breakdown()
    }
    _BENCH["attribution"] = {
        "end_to_end_s": round(cp.end_to_end_s, 6),
        "open_cost_s": round(session.open_cost_s, 6),
        "attributed_fraction": round(attributed, 4),
        "bound": MIN_ATTRIBUTED,
        "layer_self_time_s": layers,
        "spans": len(obs),
    }
    results.record(
        "C-TRACE critical path",
        f"cluster cold open {cp.end_to_end_s * 1000:.2f}ms, "
        f"{attributed:.1%} attributed across {len(obs)} spans; "
        "top layer: "
        + max(layers, key=layers.get),
    )
    assert attributed >= MIN_ATTRIBUTED


def test_export_round_trip_artifact(results):
    """Claim (3): the CI-artifact JSON reconstructs the spans exactly."""
    obs, _ = _traced_cluster_open()
    write_chrome_trace(_TRACE_JSON, obs.spans())
    restored = from_chrome_trace(json.loads(_TRACE_JSON.read_text()))
    canonical = sorted(obs.spans(), key=lambda s: (s.trace_id, s.span_id))
    assert restored == canonical
    events = to_chrome_trace(obs.spans())["traceEvents"]
    _BENCH["export"] = {
        "events": len(events),
        "artifact": _TRACE_JSON.name,
        "round_trip_exact": True,
    }
    results.record(
        "C-TRACE export",
        f"{len(events)} span events round-trip exactly via "
        f"{_TRACE_JSON.name}",
    )


@pytest.mark.bench_smoke
def test_smoke_trace(results):
    """Reduced-size C-TRACE for the CI bench-smoke job.

    Overhead bound on a smaller open sweep plus the exact exporter
    round-trip of a traced cluster open (the uploaded artifact).
    """
    ratio, _, _, _ = _measure_overhead(visual=2, opens=OPENS)
    assert ratio <= MAX_OVERHEAD
    obs, session = _traced_cluster_open()
    cp = CriticalPath.from_recorder(obs)
    assert cp.end_to_end_s == pytest.approx(session.open_cost_s, rel=0.01)
    assert cp.attributed_fraction >= MIN_ATTRIBUTED
    write_chrome_trace(_TRACE_JSON, obs.spans())
    restored = from_chrome_trace(json.loads(_TRACE_JSON.read_text()))
    assert restored == sorted(
        obs.spans(), key=lambda s: (s.trace_id, s.span_id)
    )
    _BENCH["smoke"] = {
        "ratio": round(ratio, 4),
        "bound": MAX_OVERHEAD,
        "attributed_fraction": round(cp.attributed_fraction, 4),
        "spans_exported": len(obs),
        "artifact": _TRACE_JSON.name,
    }
    results.record(
        "C-TRACE tracing overhead",
        f"smoke: ratio {ratio:.3f} (bound {MAX_OVERHEAD}), "
        f"{cp.attributed_fraction:.1%} attributed, "
        f"{len(obs)} spans exported",
    )

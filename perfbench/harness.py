"""Run orchestration shared by the four workloads.

One invocation runs one workload in its own process:

1. **set-up**, repeated ``SETUP_REPEATS`` times from the seed (the
   median is ``setup_s``; the last build is kept);
2. **warm-up**, a fixed, seed-determined amount of work;
3. either the **untraced timed phase** (``--trace 0``), which yields
   the end-to-end metrics, or the **traced run** (``--trace 1``), which
   alternates untraced and traced blocks of a fixed op count and yields
   the per-layer metrics;
4. the **output checks**, outside any timed region.

Set-up times and the timed phase's latencies are divided by the host's
slowness when they were taken (:mod:`perfbench.hostspeed`), so they
read in seconds of the reference host at full speed.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import gc
import math
import pathlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from repro.server.metrics import percentile

from perfbench.hostspeed import probe, slowness
from perfbench.layers import PER_LAYER, layer_self_ms, patch_table, self_time_metrics
from perfbench.spans import NameStats, Tracer, attributed_fraction, by_name, write_spans

clock = time.perf_counter

SETUP_REPEATS = 5
#: The timed phase is a fixed amount of work cut into this many windows
#: of equal work (serve: its steps cut into windows of equal offered
#: load).
WINDOWS = 40
#: Statistics pool the fastest ``1 / FAST_SHARE`` of the windows.
FAST_SHARE = 4
#: Traced runs alternate this many untraced/traced block pairs, flipping
#: the order every pair so drift hits both modes alike.
TRACE_PAIRS = 4

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("open_p50_ms", "ms"),
    ("open_p99_ms", "ms"),
    ("browse_p50_ms", "ms"),
    ("browse_p99_ms", "ms"),
    ("store_p50_ms", "ms"),
    ("store_p99_ms", "ms"),
    ("search_p50_ms", "ms"),
    ("search_p99_ms", "ms"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_max_rate_per_s", "1/s"),
    ("modeled_p95_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"),
]

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def error_rate(failed: int, attempted: int) -> float:
    """Add-one (Laplace) estimate of the failure probability.

    ``(failed + 1) / (attempted + 2)`` never reads 0, so a clean run is
    a small positive rate that shrinks as more attempts pass.
    """
    return (failed + 1) / (attempted + 2)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Samples:
    """Host-clock latencies per op class, tagged with their window.

    A workload enters each window as its fixed work proceeds
    (:meth:`enter`) and calls :meth:`add` once per timed op.  A timed
    phase probes the host as each window starts and once after the
    last (:meth:`finish`); every statistic first divides each latency
    by the slowness of its window (:meth:`scaled`).

    Statistics then pool the samples of the *fast* windows, the
    ``1 / fast_share`` of the windows the program ran fastest in once
    scaled.  Every window holds the same work, so a window that is
    still slow after scaling was slowed by something the probes around
    it missed, such as a neighbour preempting the program for part of
    the window.  A change that slows the program slows every window,
    the fast ones too.
    """

    #: ``(window, op class, seconds, ops, kind)`` of every timed op.
    records: list[tuple] = field(default_factory=list)
    window: int = 0
    ops: int = 0
    failed: int = 0
    #: Whether entering a window probes the host (timed phases only).
    probing: bool = False
    #: ``(window, probe seconds)`` in the order taken; the closing
    #: probe of :meth:`finish` has window ``None``.
    probes: list[tuple] = field(default_factory=list)
    #: Statistics pool the fastest ``1 / fast_share`` of the windows.
    fast_share: int = FAST_SHARE
    #: Reads a window's slowness from its ops' latency ratios (see
    #: :meth:`fast_records`).
    window_rank: object = statistics.median

    def enter(self, window: int) -> None:
        """Start ``window``, probing the host first if this phase probes."""
        if self.probing and (not self.probes or self.probes[-1][0] != window):
            self.probes.append((window, probe()))
        self.window = window

    def finish(self) -> None:
        """Take the closing probe after the last window."""
        if self.probing:
            self.probes.append((None, probe()))

    def add(self, op_class: str, seconds: float, ops: int = 1, kind=None) -> None:
        """Record one op.  ``kind`` (default: its class) groups the ops
        whose latencies are alike, for :meth:`fast_records`."""
        kind = op_class if kind is None else kind
        self.records.append((self.window, op_class, seconds, ops, kind))
        self.ops += ops

    @property
    def busy_s(self) -> float:
        """Seconds spent in timed ops, unscaled."""
        return math.fsum(record[2] for record in self.records)

    def window_slowness(self) -> dict[int, float]:
        """Host slowness of every window.

        A probed window's slowness is that of the mean of the probe at
        its start and the next one.  A window entered without a probe
        takes the slowness of the last probed window before it; without
        any probe, a window's slowness is 1.
        """
        probed = {
            window: slowness((before + after) / 2)
            for (window, before), (_next, after) in zip(self.probes, self.probes[1:])
            if window is not None
        }
        result: dict[int, float] = {}
        current = 1.0
        for window in sorted({record[0] for record in self.records} | set(probed)):
            current = probed.get(window, current)
            result[window] = current
        return result

    def scaled(self) -> list[tuple]:
        """The records, each latency divided by its window's slowness."""
        scale = self.window_slowness()
        return [
            (window, op_class, seconds / scale[window], ops, kind)
            for window, op_class, seconds, ops, kind in self.records
        ]

    def fast_records(self) -> list[tuple]:
        """Scaled records of the fast windows.

        A window's slowness left after scaling is the median (or
        :attr:`window_rank`), over its ops, of each op's latency over
        the median latency of its kind in the whole run: a reading that
        the mix of op kinds in the window, and its rare slow ops,
        barely move.
        """
        records = self.scaled()
        by_kind: dict = {}
        for _w, _c, seconds, _n, kind in records:
            by_kind.setdefault(kind, []).append(seconds)
        typical = {kind: statistics.median(v) or 1.0 for kind, v in by_kind.items()}
        ratios: dict[int, list[float]] = {}
        for window, _c, seconds, _n, kind in records:
            ratios.setdefault(window, []).append(seconds / typical[kind])
        ranked = sorted(ratios, key=lambda w: self.window_rank(ratios[w]))
        fast = set(ranked[: max(len(ranked) // self.fast_share, 1)])
        return [record for record in records if record[0] in fast]

    def fast_windows(self) -> set[int]:
        return {record[0] for record in self.fast_records()}

    def latencies(self, op_class: str) -> list[float]:
        """Scaled latencies of ``op_class`` in the fast windows."""
        return [
            seconds for _w, cls, seconds, _n, _k in self.fast_records()
            if cls == op_class
        ]

    def ms(self, op_class: str, p: float) -> float:
        """The ``p``-th percentile in ms over the fast windows."""
        return percentile(self.latencies(op_class), p) * 1e3

    def ops_per_busy_s(self) -> float:
        """Ops completed per scaled second spent in ops, fast windows."""
        records = self.fast_records()
        ops = sum(record[3] for record in records)
        busy = math.fsum(record[2] for record in records)
        return ops / busy if busy > 0 else 0.0

    def count(self, op_class: str) -> int:
        return sum(1 for record in self.records if record[1] == op_class)


def run_units(unit, units: int) -> Samples:
    """Run ``unit(samples)`` ``units`` times, cut into ``WINDOWS`` windows,
    probing the host as each window starts."""
    samples = Samples(probing=True)
    for index in range(units):
        samples.enter(index * WINDOWS // units)
        unit(samples)
    samples.finish()
    return samples


def role_metrics(samples: Samples, first: str, follow_up: str) -> dict[str, float]:
    """The six latency pairs, each mapped onto one of two op classes.

    Every workload reports every metric.  ``open``, ``store`` and
    ``serve`` read the workload's *first* op class (the op that starts
    a unit of user work and pays the cold path); ``browse`` and
    ``search`` read its *follow-up* class.  On its home workload each
    pair reads exactly what its name says.
    """
    metrics = {}
    for name, op_class in (
        ("open", first), ("store", first), ("serve", first),
        ("browse", follow_up), ("search", follow_up),
    ):
        metrics[f"{name}_p50_ms"] = samples.ms(op_class, 50)
        metrics[f"{name}_p99_ms"] = samples.ms(op_class, 99)
    return metrics


def slowness_summary(samples: Samples) -> str:
    """The spread of the host slowness a timed phase was scaled by."""
    values = sorted(samples.window_slowness().values())
    if not samples.probes or not values:
        return "not probed"
    return (
        f"min {values[0]:.3f}, median {statistics.median(values):.3f}, "
        f"max {values[-1]:.3f} over {len(values)} windows"
    )


# ----------------------------------------------------------------------
# program counters
# ----------------------------------------------------------------------


@dataclass
class Stack:
    """The program objects a workload drives, for counter snapshots."""

    platters: list = field(default_factory=list)
    journals: list = field(default_factory=list)
    managers: list = field(default_factory=list)
    caches: list = field(default_factory=list)
    caching_archivers: list = field(default_factory=list)
    indexes: list = field(default_factory=list)
    nodes: list = field(default_factory=list)
    routers: list = field(default_factory=list)
    frontends: list = field(default_factory=list)
    #: Counter totals of objects the workload has let go of.
    retired: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        """Counters read from the snapshots the program exposes."""
        disks = self.platters + self.journals
        caches = [cache.stats.snapshot() for cache in self.caches]
        flights = [ca.flight_stats.snapshot() for ca in self.caching_archivers]
        counters = {
            "reads": sum(d.stats.reads for d in disks),
            "bytes_read": sum(d.stats.bytes_read for d in disks),
            "bytes_written": sum(d.stats.bytes_written for d in disks),
            "busy_s": sum(d.stats.busy_time_s for d in disks),
            "media_raw": sum(d.stats.media_raw_bytes for d in self.platters),
            "dc_hits": sum(m.decoded_cache.hits for m in self.managers),
            "dc_misses": sum(m.decoded_cache.misses for m in self.managers),
            "shipped": sum(m.bytes_shipped for m in self.managers),
            "cache_hits": sum(c.hits for c in caches),
            "cache_misses": sum(c.misses for c in caches),
            "flight_fetches": sum(f.device_fetches for f in flights),
            "piggybacks": sum(f.piggybacks for f in flights),
            "failovers": sum(r.metrics.snapshot().failovers for r in self.routers),
            "rejected": sum(f.metrics.snapshot().rejected for f in self.frontends),
        }
        for key, value in self.retired.items():
            counters[key] += value
        counters["node_served"] = [node.served for node in self.nodes]
        return counters

    def retire(self) -> None:
        """Fold the current objects' counters into the totals; drop them."""
        totals = self.snapshot()
        del totals["node_served"]
        self.retired = totals
        for name in ("platters", "journals", "managers", "caches",
                     "caching_archivers", "indexes", "nodes", "routers",
                     "frontends"):
            setattr(self, name, [])


def counter_delta(before: dict, after: dict) -> dict:
    delta = {}
    for key, value in after.items():
        if isinstance(value, list):
            delta[key] = [b - a for a, b in zip(before[key], value)]
        else:
            delta[key] = value - before[key]
    return delta


def add_deltas(total: dict | None, delta: dict) -> dict:
    if total is None:
        return delta
    for key, value in delta.items():
        if isinstance(value, list):
            total[key] = [a + b for a, b in zip(total[key], value)]
        else:
            total[key] += value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(delta: dict, stack: Stack) -> dict[str, float]:
    """Per-layer metrics derived from program counters."""
    served = delta["node_served"]
    mean_served = statistics.fmean(served) if served else 0.0
    return {
        "core.decoded_cache.hit_ratio": _ratio(
            delta["dc_hits"], delta["dc_hits"] + delta["dc_misses"]
        ),
        "core.bytes_shipped": delta["shipped"],
        "compress.ratio": _ratio(
            sum(d.stats.media_raw_bytes for d in stack.platters),
            sum(d.stats.media_stored_bytes for d in stack.platters),
        ),
        "storage.device.reads": delta["reads"],
        "storage.device.bytes_read": delta["bytes_read"],
        "storage.device.bytes_written": delta["bytes_written"],
        "storage.device.modeled_busy_s": delta["busy_s"],
        "storage.bytes_written_per_user_byte": _ratio(
            delta["bytes_written"], delta["media_raw"]
        ),
        "server.frontend.rejected": delta["rejected"],
        "server.flight.piggyback_ratio": _ratio(
            delta["piggybacks"], delta["piggybacks"] + delta["flight_fetches"]
        ),
        "server.cache.hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "index.segments": sum(index.segment_count for index in stack.indexes),
        "index.postings": sum(index.posting_count for index in stack.indexes),
        "cluster.node_reads_max_over_mean": _ratio(
            max(served, default=0), mean_served
        ),
        "cluster.failovers": delta["failovers"],
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------


def queue_waits_ms(spans) -> list[float]:
    """Submit → worker entry, matched by frontend request id."""
    submitted = {
        s.key: s.start for s in spans if s.name == "server.submit" and s.key is not None
    }
    return [
        max(s.start - submitted[s.key], 0.0) * 1e3
        for s in spans
        if s.name == "server.execute" and s.key in submitted
    ]


def traced_run(workload, seconds: float) -> tuple[dict[str, float], dict, Samples]:
    """Alternate untraced and traced blocks; derive per-layer metrics."""
    tracer = Tracer()
    patches = patch_table()
    units = workload.trace_units(seconds)
    per_block = max(units // (2 * TRACE_PAIRS), 1)
    #: ``[busy seconds, ops]`` per mode.
    timing = {False: [0.0, 0], True: [0.0, 0]}
    windows: list[tuple[float, float]] = []
    delta = None
    extra: dict = {}
    ran = Samples()
    for pair in range(TRACE_PAIRS):
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            gc.collect()
            if traced:
                before = workload.stack.snapshot()
                tracer.install(patches)
            start = clock()
            try:
                samples, block_extra = workload.block(per_block)
            finally:
                end = clock()
                if traced:
                    tracer.uninstall()
            timing[traced][0] += samples.busy_s
            timing[traced][1] += samples.ops
            ran.ops += samples.ops
            ran.failed += samples.failed
            if traced:
                windows.append((start, end))
                delta = add_deltas(
                    delta, counter_delta(before, workload.stack.snapshot())
                )
                for key, value in block_extra.items():
                    extra.setdefault(key, []).extend(value)
    spans = tracer.spans
    stats = by_name(spans)
    metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
    metrics.update(self_time_metrics(stats))
    metrics.update(counter_metrics(delta, workload.stack))
    metrics.update(workload.block_metrics(extra))
    waits = queue_waits_ms(spans)
    in_windows = [
        (start, end) for start, end in tracer.gc_pauses
        if any(a <= start <= b for a, b in windows)
    ]
    untraced_rate = _ratio(timing[False][1], timing[False][0])
    traced_rate = _ratio(timing[True][1], timing[True][0])
    rebuild = stats.get("formatter.rebuild", NameStats())
    decode = stats.get("compress.decode", NameStats())
    metrics.update({
        "formatter.rebuild.calls": rebuild.calls,
        "compress.decode.calls": decode.calls,
        "compress.decode.bytes_out": decode.nbytes,
        "server.frontend.queue_wait_p50_ms": percentile(waits, 50),
        "server.frontend.queue_wait_p99_ms": percentile(waits, 99),
        "runtime.gc_pauses": len(in_windows),
        "runtime.gc_pause_ms": sum(end - start for start, end in in_windows) * 1e3,
        "trace.ops_per_s_ratio": _ratio(traced_rate, untraced_rate),
        "trace.attributed_fraction": attributed_fraction(spans, windows),
    })
    summary = {
        "spans": len(spans),
        "blocks": f"{TRACE_PAIRS} untraced + {TRACE_PAIRS} traced x {per_block} units",
        "untraced_ops_per_s": untraced_rate,
        "traced_ops_per_s": traced_rate,
        "layer_self_ms": layer_self_ms(stats),
        "calls": {name: entry.calls for name, entry in sorted(stats.items())},
    }
    write_spans(OUT_DIR / f"{workload.name}-seed{workload.seed}-spans.jsonl", spans)
    return metrics, summary, ran


# ----------------------------------------------------------------------
# one invocation
# ----------------------------------------------------------------------


def run(workload_cls, seed: int, seconds: float, trace: bool, options) -> dict:
    """Run one workload end to end; returns the result object."""
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous build go before timing the next
        gc.collect()
        before = probe()
        start = clock()
        workload = workload_cls(seed, options)
        elapsed = clock() - start
        setups.append(elapsed / slowness((before + probe()) / 2))
    try:
        workload.warm_up()
        # Everything built so far lives for the whole run: move it out
        # of the collector's generations so pauses reflect timed work.
        gc.collect()
        gc.freeze()
        if trace:
            metrics, summary, samples = traced_run(workload, seconds)
            units = {name: unit for name, unit, _better in PER_LAYER}
        else:
            samples = workload.timed(seconds)
            metrics = workload.end_to_end(samples)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = peak_rss_mb()
            summary = workload.summary(samples)
            summary["host slowness"] = slowness_summary(samples)
            units = dict(END_TO_END)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    attempted, failed = workload.check()
    attempted += samples.ops + samples.failed
    failed += samples.failed
    if not trace:
        metrics["error_rate"] = error_rate(failed, attempted)
    report(workload, metrics, units, summary, setups)
    correct = failed == 0 and all(math.isfinite(v) for v in metrics.values())
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def report(workload, metrics, units, summary, setups) -> None:
    """Human-readable lines before the JSON result."""
    print(f"# workload {workload.name}, seed {workload.seed}")
    print(
        "# set-up runs (s, scaled to the reference host): "
        + ", ".join(f"{s:.3f}" for s in setups)
    )
    for key, value in summary.items():
        if isinstance(value, dict):
            print(f"# {key}:")
            for name, item in value.items():
                print(f"#   {name:<32} {item:.4f}" if isinstance(item, float)
                      else f"#   {name:<32} {item}")
        else:
            print(f"# {key}: {value}")
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6f} {unit}")
    sys.stdout.flush()

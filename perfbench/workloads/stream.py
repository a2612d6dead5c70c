"""stream: deadline-aware delivery to 32 stations, replayed back to back.

One unit of work is one ``DeliveryPipeline(DEADLINE).run`` over
``build_streaming_workload`` scripts at the C-STREAM claim point: 32
stations, 448x448 rasters, 1 KiB pages, each station playing a voice
stream while it browses.  The seed draws ``SCRIPT_SETS`` sets of
scripts and the replays rotate through them, so neither the work per
replay nor the modeled page latencies hang on a single draw.
``MODELED_S`` seconds of modeled time take a fraction of a second of
host time, so a run replays each set many times.  Framed extents ship
undecoded, so codec changes should leave this workload alone.
"""

from __future__ import annotations

import math
import time

from repro.delivery import (
    DeliveryConfig,
    DeliveryPipeline,
    DeliveryPolicy,
    build_streaming_workload,
)
from repro.scenarios import build_object_library
from repro.server import Archiver

from repro.server.metrics import percentile

from perfbench.harness import Samples, Stack, role_metrics, run_units
from perfbench.workloads.common import LIBRARY_SEED

clock = time.perf_counter

STATIONS = 32
VISUAL_COUNT = 12
AUDIO_COUNT = 24
IMAGE_SIZE = 448
PAGE_BYTES = 1_024
CACHE_BYTES = 512_000
THINK_S = 1.2
JUMP_PROBABILITY = 0.12
#: Modeled seconds of one replay.
MODELED_S = 150.0
#: Sets of station scripts the seed draws; replays rotate through them.
SCRIPT_SETS = 4
#: Replays per second of ``--seconds`` in the timed phase: the nominal
#: speed of the machine the benchmark was built on.
REPLAYS_PER_S = 5.0
#: Replays per second the traced run is sized by.
TRACE_REPLAYS_PER_S = 2


class Stream:
    name = "stream"

    def __init__(self, seed: int, options) -> None:
        self.seed = seed
        self.archiver = Archiver()
        objects = build_object_library(
            self.archiver, visual_count=VISUAL_COUNT, audio_count=AUDIO_COUNT,
            image_size=IMAGE_SIZE, seed=LIBRARY_SEED,
        )
        self.script_sets = [
            build_streaming_workload(
                self.archiver, objects, stations=STATIONS, duration_s=MODELED_S,
                think_s=THINK_S, jump_probability=JUMP_PROBABILITY,
                page_bytes=PAGE_BYTES, seed=seed * SCRIPT_SETS + index,
            )
            for index in range(SCRIPT_SETS)
        ]
        self.config = DeliveryConfig(
            policy=DeliveryPolicy.DEADLINE, cache_bytes=CACHE_BYTES,
            page_bytes=PAGE_BYTES,
        )
        # Station i streams the same audio object in every set; only
        # the page views differ.
        streams = [s.stream for s in self.script_sets[0] if s.stream is not None]
        self.streams = len(streams)
        self.voice_chunks = sum(
            math.ceil(s.total_bytes / self.config.chunk_bytes) for s in streams
        )
        self.views = [
            sum(len(s.views) for s in scripts) for scripts in self.script_sets
        ]
        self.replays = max(int(round(options.seconds * REPLAYS_PER_S)), 1)
        self.stack = Stack(
            platters=[self.archiver.disk],
            journals=[self.archiver.journal.device],
        )
        #: ``(report, prefetch stats, script set)`` of every replay,
        #: checked at the end.
        self.reports = []
        self.warm_up_reports = []

    def replay(self, samples: Samples):
        script_set = len(self.reports) % SCRIPT_SETS
        pipeline = DeliveryPipeline(self.archiver, self.config)
        start = clock()
        report = pipeline.run(self.script_sets[script_set])
        samples.add(
            "replay", clock() - start,
            ops=report.chunks_delivered + report.page_turns, kind=script_set,
        )
        self.reports.append((report, pipeline.prefetcher.stats, script_set))
        return report

    def _failures(self, report, script_set: int) -> int:
        """Underruns, unfinished streams and page views that never turned."""
        return (
            report.underruns
            + (self.streams - report.streams_completed)
            + (self.views[script_set] - report.page_turns)
        )

    # ------------------------------------------------------------------
    # harness interface
    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        """One replay of every script set."""
        samples = Samples()
        self.warm_up_reports = [self.replay(samples) for _ in range(SCRIPT_SETS)]

    def timed(self, seconds: float) -> Samples:
        return run_units(self.replay, self.replays)

    def end_to_end(self, samples: Samples) -> dict[str, float]:
        ops_per_s = samples.ops_per_busy_s()
        metrics = role_metrics(samples, "replay", "replay")
        cold = [
            latency for report in self.warm_up_reports
            for latency in report.cold_page_latencies
        ]
        metrics.update(
            ops_per_s=ops_per_s,
            serve_max_rate_per_s=ops_per_s,
            modeled_p95_s=percentile(cold, 95),
        )
        return metrics

    def summary(self, samples: Samples) -> dict:
        return {
            "replays": samples.count("replay"),
            "per replay, first script set": {
                "voice_chunks_scripted": self.voice_chunks,
                "page_views_scripted": self.views[0],
                "chunks_delivered": self.warm_up_reports[0].chunks_delivered,
                "page_turns": self.warm_up_reports[0].page_turns,
                "underruns": self.warm_up_reports[0].underruns,
            },
            "fast windows": len(samples.fast_windows()),
        }

    def trace_units(self, seconds: float) -> int:
        return max(int(seconds * TRACE_REPLAYS_PER_S), 8)

    def block(self, replays: int):
        samples = Samples()
        first = len(self.reports)
        for _ in range(replays):
            self.replay(samples)
        return samples, {"reports": self.reports[first:]}

    def block_metrics(self, extra: dict) -> dict[str, float]:
        reports = extra.get("reports", [])
        turns = sum(r.page_turns for r, _s, _i in reports)
        executed = sum(stats.executed for _r, stats, _i in reports)
        return {
            "delivery.events": sum(
                r.chunks_delivered + r.page_turns for r, _s, _i in reports
            ),
            "delivery.prefetch_hit_ratio": (
                sum(r.prefetched_page_hits for r, _s, _i in reports) / turns
                if turns else 0.0
            ),
            "delivery.wasted_prefetch_ratio": (
                sum(r.wasted_prefetches for r, _s, _i in reports) / executed
                if executed else 0.0
            ),
            "delivery.underruns": sum(r.underruns for r, _s, _i in reports),
        }

    def check(self) -> tuple[int, int]:
        """Every scripted chunk and page view of every replay arrived."""
        attempted = sum(
            self.voice_chunks + self.views[script_set]
            for _r, _s, script_set in self.reports
        )
        failed = sum(
            self._failures(report, script_set)
            for report, _s, script_set in self.reports
        )
        return attempted, failed

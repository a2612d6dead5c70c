"""Deterministic tests for the streaming delivery subsystem.

Everything here runs on the simulated clock with hand-placed arrival
times, so deadline math, arbitration order and report contents are
exact — no tolerance games.  The statistical side (claims
under load) lives in ``benchmarks/test_claim_streaming.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.audio.pages import AudioPager
from repro.audio.signal import Recording
from repro.delivery import (
    ChunkRequest,
    ChunkScheduler,
    DeliveryConfig,
    DeliveryPipeline,
    DeliveryPolicy,
    LinkDiscipline,
    StreamSession,
    TrafficClass,
    build_streaming_workload,
    fetch_with_retry,
)
from repro.errors import (
    ArchiverError,
    DeliveryError,
    MinosError,
    RequestTimeoutError,
    ServerBusyError,
    StreamStateError,
)
from repro.scenarios.library import build_object_library
from repro.server.archiver import Archiver

# mu-law: one byte per sample, so 8000 B/s at telephone rate, and a
# 4000-byte chunk is exactly half a second of speech.
RATE = 8000.0
CHUNK = 4000


def _session(**kwargs) -> StreamSession:
    defaults = dict(
        station="ws-0", object_id="obj-1", tag="voice/seg-1",
        total_bytes=40_000, bytes_per_s=RATE, chunk_bytes=CHUNK,
        prebuffer_chunks=2, request_s=1.0,
    )
    defaults.update(kwargs)
    return StreamSession(**defaults)


class TestStreamSession:
    def test_playout_plan_covers_the_piece(self):
        session = _session(total_bytes=41_000)
        assert len(session) == 11  # ten full chunks + a 1000-byte tail
        assert sum(c.length for c in session.chunks) == 41_000
        assert session.chunks[-1].duration_s == pytest.approx(1000 / RATE)
        assert session.duration_s == pytest.approx(41_000 / RATE)

    def test_nominal_deadlines_follow_codec_rate(self):
        session = _session()  # request_s = 1.0, 0.5 s per chunk
        assert session.nominal_deadline(0) == pytest.approx(1.0)
        assert session.nominal_deadline(1) == pytest.approx(1.5)
        assert session.nominal_deadline(7) == pytest.approx(4.5)

    def test_playback_starts_when_prebuffer_fills(self):
        session = _session()
        assert session.on_delivered(0, 1.1) is None
        assert session.started_s is None
        assert session.on_delivered(1, 1.25) is None
        assert session.started_s == pytest.approx(1.25)
        assert session.startup_latency_s == pytest.approx(0.25)

    def test_on_time_delivery_never_underruns(self):
        session = _session(total_bytes=20_000)  # 5 chunks
        at = 1.1
        for seq in range(5):
            assert session.on_delivered(seq, at + 0.01 * seq) is None
        assert session.complete
        assert session.underruns == []
        assert session.total_stall_s == 0.0

    def test_late_chunk_stalls_and_shifts_later_deadlines(self):
        session = _session(total_bytes=20_000)
        session.on_delivered(0, 1.1)
        session.on_delivered(1, 1.2)  # playback starts at 1.2
        # Chunk 2 is consumed at started + offsets[2] = 1.2 + 1.0 = 2.2;
        # arriving at 2.5 stalls the speaker 0.3 s.
        event = session.on_delivered(2, 2.5)
        assert event is not None
        assert event.stall_s == pytest.approx(0.3)
        assert session.total_stall_s == pytest.approx(0.3)
        # Chunk 3's consumption instant shifted by the stall:
        # 1.2 + 0.3 + 1.5 = 3.0, so arriving at 3.0 is on time...
        assert session.on_delivered(3, 3.0) is None
        # ...and chunk 4 at 3.6 is 0.1 late (due 1.2 + 0.3 + 2.0).
        second = session.on_delivered(4, 3.6)
        assert second is not None
        assert second.stall_s == pytest.approx(0.1)

    def test_out_of_order_arrival_charges_the_gap_filler(self):
        session = _session(total_bytes=20_000)
        session.on_delivered(0, 1.1)
        session.on_delivered(1, 1.2)
        # Chunk 3 early, chunk 2 late: only chunk 2 (which extends the
        # contiguous prefix) can stall the playhead.
        assert session.on_delivered(3, 1.3) is None
        event = session.on_delivered(2, 2.4)
        assert event is not None and event.seq == 2
        assert event.stall_s == pytest.approx(0.2)

    def test_double_delivery_is_a_state_error(self):
        session = _session()
        session.on_delivered(0, 1.1)
        with pytest.raises(StreamStateError):
            session.on_delivered(0, 1.2)

    def test_chunks_for_page_maps_pager_to_chunk_range(self):
        recording = Recording(
            samples=np.zeros(40_000, dtype=np.float32), sample_rate=int(RATE)
        )
        pager = AudioPager(recording, page_seconds=2.0)
        session = _session(total_bytes=40_000, pager=pager)
        # 2-second pages over 0.5-second chunks (pager pages are
        # 1-based): page n covers chunks 4(n-1)..4(n-1)+3.
        assert session.chunks_for_page(1) == range(0, 4)
        assert session.chunks_for_page(2) == range(4, 8)

    def test_chunks_for_page_requires_a_pager(self):
        with pytest.raises(StreamStateError):
            _session().chunks_for_page(1)


class TestChunkScheduler:
    def _chunk(self, seq, station="ws-0", cls=TrafficClass.BULK, deadline=None):
        return ChunkRequest(
            seq=seq, station=station, nbytes=1000, traffic_class=cls,
            deadline_s=math.inf if deadline is None else deadline,
        )

    def test_fifo_serves_in_ready_order(self):
        sched = ChunkScheduler(LinkDiscipline.FIFO)
        late = self._chunk(1)
        late.ready_s = 2.0
        early = self._chunk(2)
        early.ready_s = 1.0
        sched.add(late)
        sched.add(early)
        assert sched.pop_next(5.0) is early
        assert sched.pop_next(5.0) is late

    def test_edf_audio_preempts_bulk(self):
        sched = ChunkScheduler(LinkDiscipline.EDF)
        bulk = self._chunk(1)
        audio = self._chunk(2, cls=TrafficClass.AUDIO, deadline=9.0)
        sched.add(bulk)
        sched.add(audio)
        assert sched.pop_next(0.0) is audio

    def test_edf_tightest_deadline_wins(self):
        sched = ChunkScheduler(LinkDiscipline.EDF)
        loose = self._chunk(1, cls=TrafficClass.AUDIO, deadline=9.0)
        tight = self._chunk(2, cls=TrafficClass.AUDIO, deadline=3.0)
        sched.add(loose)
        sched.add(tight)
        assert sched.pop_next(0.0) is tight

    def test_edf_bulk_is_fair_by_bytes_granted(self):
        sched = ChunkScheduler(LinkDiscipline.EDF)
        first = self._chunk(1, station="ws-0")
        sched.add(first)
        assert sched.pop_next(0.0) is first  # ws-0 now has 1000 granted
        a = self._chunk(2, station="ws-0")
        b = self._chunk(3, station="ws-1")
        sched.add(a)
        sched.add(b)
        assert sched.pop_next(0.0) is b  # ws-1 had none granted yet

    def test_unready_chunks_wait(self):
        sched = ChunkScheduler(LinkDiscipline.FIFO)
        chunk = self._chunk(1)
        chunk.ready_s = 4.0
        sched.add(chunk)
        assert sched.pop_next(3.9) is None
        assert sched.next_ready_s() == 4.0
        assert sched.pop_next(4.0) is chunk

    def test_cancel_where_removes_matches(self):
        sched = ChunkScheduler(LinkDiscipline.EDF)
        keep = self._chunk(1, station="ws-0")
        drop = self._chunk(2, station="ws-1")
        sched.add(keep)
        sched.add(drop)
        cancelled = sched.cancel_where(lambda c: c.station == "ws-1")
        assert cancelled == [drop]
        assert len(sched) == 1

    def test_bulk_chunks_reject_deadlines(self):
        with pytest.raises(DeliveryError):
            ChunkRequest(
                seq=1, station="ws-0", nbytes=10,
                traffic_class=TrafficClass.BULK, deadline_s=5.0,
            )


@pytest.fixture(scope="module")
def small_pipeline_run():
    """One deterministic DEADLINE replay over a small library."""
    archiver = Archiver()
    objects = build_object_library(archiver, visual_count=3, audio_count=4)
    # Page finely: compressed image pieces are ~1.2 KB, and the replay
    # should still exercise multi-page browsing and prefetch hits.
    scripts = build_streaming_workload(
        archiver, objects, stations=3, duration_s=10.0, think_s=1.0, seed=7,
        page_bytes=256,
    )
    pipeline = DeliveryPipeline(
        archiver,
        DeliveryConfig(policy=DeliveryPolicy.DEADLINE, page_bytes=256),
    )
    report = pipeline.run(scripts)
    return report, pipeline


class TestPipelineInstrumentation:
    def test_delivery_trace_events_recorded(self, small_pipeline_run):
        report, pipeline = small_pipeline_run
        assert len(report.startup_latencies) == 3
        assert report.chunks_delivered > 0
        assert report.page_turns > 0
        assert pipeline.prefetcher.stats.executed > 0

    def test_delivery_histograms_populated(self, small_pipeline_run):
        report, _ = small_pipeline_run
        assert len(report.page_latencies) == report.page_turns > 0
        assert len(report.startup_latencies) == 3
        # Every cold page turn pays at least the link latency.
        assert report.cold_page_latencies
        assert min(report.cold_page_latencies) >= 0.002

    def test_report_matches_metrics(self, small_pipeline_run):
        report, _ = small_pipeline_run
        assert report.underruns == 0
        assert report.streams_completed == 3
        assert 0 < report.prefetched_page_hits <= report.page_turns

    def test_pipeline_is_single_use(self, small_pipeline_run):
        _, pipeline = small_pipeline_run
        with pytest.raises(DeliveryError):
            pipeline.run([])

    def test_link_accounting_is_conserved(self, small_pipeline_run):
        report, pipeline = small_pipeline_run
        stats = pipeline.link.stats
        assert stats.chunks_sent == report.chunks_delivered
        assert sum(stats.chunks_by_station.values()) == stats.chunks_sent
        assert sum(stats.bytes_by_station.values()) == stats.bytes_sent
        assert 0.0 < stats.utilization(report.finished_s) <= 1.0


class TestWorkloadBuilder:
    def test_scripts_are_deterministic(self):
        archiver = Archiver()
        objects = build_object_library(archiver, visual_count=3, audio_count=2)
        a = build_streaming_workload(
            archiver, objects, stations=4, duration_s=20.0, seed=11
        )
        b = build_streaming_workload(
            archiver, objects, stations=4, duration_s=20.0, seed=11
        )
        assert a == b

    def test_scripts_nest_under_station_count(self):
        archiver = Archiver()
        objects = build_object_library(archiver, visual_count=3, audio_count=2)
        small = build_streaming_workload(
            archiver, objects, stations=2, duration_s=20.0, seed=11
        )
        large = build_streaming_workload(
            archiver, objects, stations=5, duration_s=20.0, seed=11
        )
        assert large[:2] == small

    def test_jumps_are_flagged(self):
        archiver = Archiver()
        objects = build_object_library(archiver, visual_count=3, audio_count=2)
        scripts = build_streaming_workload(
            archiver, objects, stations=6, duration_s=40.0,
            jump_probability=0.5, seed=11,
        )
        flags = [v.jump for s in scripts for v in s.views]
        assert any(flags) and not all(flags)


class _FlakyFrontend:
    """Duck-typed frontend whose first ``failures`` submissions fail."""

    def __init__(self, failures: int, exc: Exception) -> None:
        self.failures = failures
        self.exc = exc
        self.submissions = 0

    def submit(self, op, *params, station="ws-0"):
        self.submissions += 1
        outer = self

        class _F:
            def result(self, timeout=None):
                if outer.submissions <= outer.failures:
                    raise outer.exc
                return b"payload", 0.01

        return _F()


class TestFetchWithRetry:
    def test_retries_busy_then_succeeds(self):
        frontend = _FlakyFrontend(2, ServerBusyError("full"))
        payload, service = fetch_with_retry(frontend, "fetch", "obj-1")
        assert payload == b"payload"
        assert frontend.submissions == 3

    def test_retries_wall_clock_timeout(self):
        frontend = _FlakyFrontend(1, RequestTimeoutError("expired"))
        payload, _ = fetch_with_retry(frontend, "fetch", "obj-1", attempts=2)
        assert payload == b"payload"

    def test_exhausted_attempts_reraise_last_error(self):
        frontend = _FlakyFrontend(99, ServerBusyError("full"))
        with pytest.raises(ServerBusyError):
            fetch_with_retry(frontend, "fetch", "obj-1", attempts=3)
        assert frontend.submissions == 3

    def test_non_transient_errors_propagate_immediately(self):
        frontend = _FlakyFrontend(99, ArchiverError("no such object"))
        with pytest.raises(ArchiverError):
            fetch_with_retry(frontend, "fetch", "obj-1", attempts=3)
        assert frontend.submissions == 1

    def test_timeout_error_is_a_typed_archiver_error(self):
        # The two-clock contract: wall-clock expiry is an ArchiverError
        # subtype, so existing handlers keep working while delivery
        # code can catch the typed case alone.
        assert issubclass(RequestTimeoutError, ArchiverError)
        assert issubclass(RequestTimeoutError, MinosError)

"""Concurrent emission safety for the observability sinks.

ISSUE-9 satellite: hammer :class:`~repro.trace.Trace`,
:class:`~repro.server.metrics.ServerMetrics` and
:class:`~repro.obs.spans.SpanRecorder` from many OS threads (directly
and through the :class:`~repro.server.frontend.ServerFrontend` worker
pool) and assert that no record is lost, duplicated or corrupted and
that each thread's records appear in its own emission order with
non-decreasing timestamps.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import SpanKind, SpanRecorder
from repro.scenarios import build_object_library
from repro.server import Archiver, CachingArchiver, ServerFrontend
from repro.server.metrics import ServerMetrics
from repro.storage.cache import LRUCache
from repro.trace import EventKind, Trace

THREADS = 8
PER_THREAD = 200


def _run_threads(worker, count):
    errors: list[BaseException] = []
    barrier = threading.Barrier(count)

    def synced(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=synced, args=(i,)) for i in range(count)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    assert not errors, errors


class TestTraceUnderContention:
    def test_no_lost_duplicated_or_reordered_records(self):
        trace = Trace()

        def worker(index):
            for seq in range(PER_THREAD):
                trace.record(
                    time.monotonic(), EventKind.COMMAND,
                    thread=index, seq=seq,
                )

        _run_threads(worker, THREADS)
        events = list(trace)
        assert len(events) == THREADS * PER_THREAD
        keys = {(e.detail["thread"], e.detail["seq"]) for e in events}
        assert len(keys) == THREADS * PER_THREAD  # nothing lost or duplicated
        # Each thread's records appear in its own emission order with
        # non-decreasing timestamps.
        per_thread: dict[int, list] = {}
        for event in events:
            per_thread.setdefault(event.detail["thread"], []).append(event)
        for members in per_thread.values():
            seqs = [e.detail["seq"] for e in members]
            assert seqs == sorted(seqs)
            times = [e.time for e in members]
            assert times == sorted(times)

    def test_snapshot_iteration_is_coherent_during_writes(self):
        trace = Trace()
        stop = threading.Event()

        def writer():
            seq = 0
            while not stop.is_set():
                trace.record(float(seq), EventKind.COMMAND, seq=seq)
                seq += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                snapshot = list(trace)
                assert [e.detail["seq"] for e in snapshot] == list(
                    range(len(snapshot))
                )
        finally:
            stop.set()
            thread.join(timeout=10)


class TestSpanRecorderUnderContention:
    def test_ids_unique_and_dense_across_threads(self):
        recorder = SpanRecorder()

        def worker(index):
            for seq in range(PER_THREAD):
                recorder.emit(
                    None, "hammer", SpanKind.SERVER,
                    float(seq), float(seq) + 0.5,
                    thread=index, seq=seq,
                )

        _run_threads(worker, THREADS)
        spans = recorder.spans()
        total = THREADS * PER_THREAD
        assert len(spans) == total
        span_ids = {s.span_id for s in spans}
        assert len(span_ids) == total  # unique
        assert span_ids == set(range(1, total + 1))  # dense, no gaps
        trace_ids = {s.trace_id for s in spans}
        assert trace_ids == set(range(1, total + 1))
        keys = {(s.attrs["thread"], s.attrs["seq"]) for s in spans}
        assert len(keys) == total  # attrs uncorrupted

    def test_listeners_see_every_span_exactly_once(self):
        recorder = SpanRecorder()
        seen: list = []
        lock = threading.Lock()

        def listener(span):
            with lock:
                seen.append(span.span_id)

        recorder.add_listener(listener)

        def worker(index):
            for seq in range(PER_THREAD):
                recorder.emit(
                    None, "hammer", SpanKind.CACHE, 0.0, 0.0,
                    thread=index, seq=seq,
                )

        _run_threads(worker, THREADS)
        assert sorted(seen) == [s.span_id for s in recorder.spans()]
        assert len(set(seen)) == THREADS * PER_THREAD

    def test_child_spans_keep_parent_links_across_threads(self):
        recorder = SpanRecorder()
        roots = {
            index: recorder.emit(
                None, f"root-{index}", SpanKind.REQUEST, 0.0, 1.0
            )
            for index in range(THREADS)
        }

        def worker(index):
            parent = roots[index].context
            for seq in range(PER_THREAD):
                recorder.emit(
                    parent, "child", SpanKind.DEVICE, 0.0, 0.5, seq=seq
                )

        _run_threads(worker, THREADS)
        for index, root in roots.items():
            children = [
                s for s in recorder.spans()
                if s.parent_id == root.span_id
            ]
            assert len(children) == PER_THREAD
            assert all(s.trace_id == root.trace_id for s in children)


class TestWorkerPoolEmission:
    @pytest.fixture(scope="class")
    def library(self):
        archiver = Archiver()
        build_object_library(archiver, visual_count=3, audio_count=1)
        return archiver

    def test_frontend_hammer_keeps_all_sinks_exact(self, library):
        caching = CachingArchiver(library, LRUCache(50_000_000))
        obs = SpanRecorder()
        metrics = ServerMetrics()
        requests_per_station = 12
        ids = library.object_ids()
        with ServerFrontend(
            caching, workers=4, queue_depth=256, metrics=metrics, obs=obs,
        ) as frontend:

            def station(index):
                for seq in range(requests_per_station):
                    frontend.fetch_object(
                        ids[(index + seq) % len(ids)],
                        station=f"ws-{index}",
                    )

            _run_threads(station, THREADS)
        total = THREADS * requests_per_station
        # ServerMetrics: every request admitted and completed, none lost.
        snap = metrics.snapshot()
        assert snap.admitted == snap.completed == total
        assert snap.rejected == 0
        assert snap.latency.count == total
        # SpanRecorder: one server span per request, unique ids, the
        # request_id attribution intact.
        servers = [s for s in obs if s.name == "server:fetch_object"]
        assert len(servers) == total
        assert len({s.span_id for s in servers}) == total
        assert len({s.attrs["request_id"] for s in servers}) == total
        stations = {s.context.item("station") for s in servers}
        assert stations == {f"ws-{i}" for i in range(THREADS)}
        # Worker service windows are consistent: end >= start always.
        assert all(s.end_s >= s.start_s for s in obs)

"""Concurrency smoke tests: many workstations, one archiver.

Section 5's scenario run for real: N OS threads hammer the shared
serving stack.  The assertions are on *deterministic aggregates* —
device read counts (single-flight collapses duplicates), byte totals,
cache coherence — not on thread interleavings.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.formatter.builder import ObjectFormatter
from repro.scenarios import build_object_library
from repro.server import Archiver, CachingArchiver, ServerFrontend
from repro.storage.cache import LRUCache


@pytest.fixture(scope="module")
def library():
    archiver = Archiver()
    build_object_library(archiver, visual_count=3, audio_count=1)
    return archiver


def _run_threads(worker, count):
    errors: list[BaseException] = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    barrier = threading.Barrier(count)

    def synced(index):
        barrier.wait()
        wrapped(index)

    pool = [threading.Thread(target=synced, args=(i,)) for i in range(count)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    assert not errors, errors


class TestSingleFlight:
    def test_same_object_fetched_once_for_n_stations(self, library):
        caching = CachingArchiver(library, LRUCache(50_000_000))
        object_id = library.object_ids()[0]
        reads_before = library.disk.stats.reads
        results: dict[int, bytes] = {}

        def station(index):
            results[index] = caching.fetch(object_id).composition

        _run_threads(station, count=8)
        # Exactly one optical read: one leader, seven piggybacks/hits.
        assert library.disk.stats.reads - reads_before == 1
        flights = caching.flight_stats.snapshot()
        assert flights.device_fetches == 1
        assert flights.piggybacks + flights.device_fetches <= 8
        assert len(set(results.values())) == 1  # identical bytes, no tearing

    def test_overlapping_piece_ranges_no_duplicate_reads(self, library):
        caching = CachingArchiver(library, LRUCache(50_000_000))
        object_id = library.object_ids()[0]
        tag = library.record(object_id).descriptor.locations[0].tag
        length = min(64, library.data_extent(object_id, tag).length)
        reads_before = library.disk.stats.reads
        seen: list[bytes] = []
        lock = threading.Lock()

        def station(index):
            # All stations read the identical overlapping window.
            data, _ = caching.read_piece_range(object_id, tag, 0, length)
            with lock:
                seen.append(data)

        _run_threads(station, count=6)
        assert library.disk.stats.reads - reads_before == 1
        direct, _ = library.read_piece_range(object_id, tag, 0, length)
        assert all(data == direct for data in seen)

    def test_distinct_objects_read_once_each(self, library):
        caching = CachingArchiver(library, LRUCache(50_000_000))
        ids = library.object_ids()
        reads_before = library.disk.stats.reads

        def station(index):
            for object_id in ids:
                caching.fetch(object_id)

        _run_threads(station, count=6)
        # 6 stations x len(ids) fetches -> exactly len(ids) device reads.
        assert library.disk.stats.reads - reads_before == len(ids)

    def test_failed_leader_releases_followers(self, library):
        caching = CachingArchiver(library, LRUCache(50_000_000))
        failures: list[BaseException] = []
        lock = threading.Lock()

        def station(index):
            try:
                # Out-of-range absolute read: every thread must get the
                # error (leader raises, followers re-raise), nobody hangs.
                caching.read_absolute(10**12, 64)
            except Exception as exc:
                with lock:
                    failures.append(exc)

        _run_threads(station, count=4)
        assert len(failures) == 4


class TestFrontendUnderLoad:
    def test_stations_fetching_the_same_objects_get_equal_rebuilds(self, library):
        # The rebuilt objects share the decoded tier's bytes, never a
        # mutable object: every station gets its own equal rebuild.
        caching = CachingArchiver(library, LRUCache(50_000_000))
        ids = library.object_ids()
        formatter = ObjectFormatter(compression=False)

        def formed(obj):
            stored = formatter.form(obj)
            return stored.descriptor.to_bytes(), stored.composition

        expected = {i: formed(library.fetch_object(i)[0]) for i in ids}
        fetched: dict[int, list] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServerFrontend(caching, workers=4, queue_depth=128) as fe:
                def station(index):
                    fetched[index] = [
                        (i, fe.fetch_object(i, station=f"ws-{index}")[0])
                        for _ in range(3)
                        for i in ids
                    ]

                _run_threads(station, count=6)
        finally:
            sys.setswitchinterval(interval)
        pairs = [pair for each in fetched.values() for pair in each]
        assert len(pairs) == 6 * 3 * len(ids)
        assert len({id(obj) for _, obj in pairs}) == len(pairs)
        for object_id, obj in pairs:
            assert formed(obj) == expected[object_id]
        tier = caching.decoded_pieces
        assert tier.used_bytes == sum(len(tier.get(key)) for key in tier.keys())

    def test_totals_deterministic_across_stations(self, library):
        caching = CachingArchiver(library, LRUCache(50_000_000))
        ids = library.object_ids()
        reads_before = library.disk.stats.reads
        with ServerFrontend(caching, workers=4, queue_depth=128) as fe:
            def station(index):
                for object_id in ids:
                    fe.fetch(object_id, station=f"ws-{index}")

            _run_threads(station, count=5)
            snap = fe.metrics.snapshot()
        assert snap.completed == 5 * len(ids)
        assert snap.errors == 0
        # Single-flight + cache: device reads bounded by distinct objects.
        assert library.disk.stats.reads - reads_before == len(ids)
        assert snap.cache_misses <= len(ids)
        assert snap.cache_hits == snap.completed - snap.cache_misses

    def test_archiver_lock_keeps_head_accounting_sane(self, library):
        """Raw concurrent reads without cache: byte totals must add up."""
        ids = library.object_ids()
        sizes = {i: library.record(i).extent.length for i in ids}
        bytes_before = library.disk.stats.bytes_read
        rounds = 3

        def station(index):
            for object_id in ids:
                library.fetch(object_id)

        _run_threads(station, count=rounds)
        expected = rounds * sum(sizes.values())
        assert library.disk.stats.bytes_read - bytes_before == expected

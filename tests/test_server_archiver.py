"""The object archiver."""

from collections import Counter

import pytest

from repro.audio.recognition import RecognizedUtterance
from repro.errors import ArchiverError, ObjectNotFoundError, SimulatedCrash
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyDevice
from repro.faults.registry import DEVICE_WRITE
from repro.ids import IdGenerator
from repro.objects import (
    AttributeSet,
    DrivingMode,
    ImagePage,
    MultimediaObject,
    PresentationSpec,
    TextFlow,
    TextSegment,
)
from repro.images.bitmap import Bitmap
from repro.images.image import Image
from repro.formatter.builder import ObjectFormatter
from repro.images.miniature import make_miniature
from repro.scenarios import build_object_library
from repro.scenarios.city import build_city_walk_simulation
from repro.server.archiver import Archiver, CachingArchiver
from repro.storage.cache import LRUCache
from repro.storage.optical import OpticalDisk
from tests.fault_workload import make_voice_object


def _simple_object(generator, topic="alpha"):
    obj = MultimediaObject(
        object_id=generator.object_id(),
        driving_mode=DrivingMode.VISUAL,
        attributes=AttributeSet.of(topic=topic),
    )
    segment = TextSegment(
        segment_id=generator.segment_id(),
        markup=f"@title{{{topic}}}\nThis document discusses {topic} only.",
    )
    obj.add_text_segment(segment)
    image = Image(
        image_id=generator.image_id(),
        width=40,
        height=30,
        bitmap=Bitmap.from_function(40, 30, lambda x, y: (x + 2 * y) % 256),
    )
    obj.add_image(image)
    obj.presentation = PresentationSpec(
        items=[TextFlow(segment.segment_id), ImagePage(image.image_id)]
    )
    return obj.archive()


def _windowed_object(generator, topic="delta"):
    """Like :func:`_simple_object`, but the image carries a miniature
    representation, so its bitmap piece is stored raw (byte-offset row
    addressing for view windows) even with compression on."""
    obj = MultimediaObject(
        object_id=generator.object_id(),
        driving_mode=DrivingMode.VISUAL,
        attributes=AttributeSet.of(topic=topic),
    )
    segment = TextSegment(
        segment_id=generator.segment_id(),
        markup=f"@title{{{topic}}}\nThis document discusses {topic} only.",
    )
    obj.add_text_segment(segment)
    image = Image(
        image_id=generator.image_id(),
        width=40,
        height=30,
        bitmap=Bitmap.from_function(40, 30, lambda x, y: (x + 2 * y) % 256),
    )
    obj.add_image(image)
    obj.add_image(make_miniature(image, 2, generator.image_id()))
    obj.presentation = PresentationSpec(
        items=[TextFlow(segment.segment_id), ImagePage(image.image_id)]
    )
    return obj.archive()


class TestStore:
    def test_store_and_contains(self, generator):
        archiver = Archiver()
        obj = _simple_object(generator)
        record = archiver.store(obj)
        assert obj.object_id in archiver
        assert len(archiver) == 1
        assert record.extent.length > 0

    def test_editing_object_rejected(self, generator):
        archiver = Archiver()
        obj = MultimediaObject(object_id=generator.object_id())
        with pytest.raises(ArchiverError):
            archiver.store(obj)

    def test_duplicate_store_rejected(self, generator):
        archiver = Archiver()
        obj = _simple_object(generator)
        archiver.store(obj)
        with pytest.raises(ArchiverError):
            archiver.store(obj)

    def test_stored_descriptor_offsets_are_absolute(self, generator):
        archiver = Archiver()
        first = archiver.store(_simple_object(generator, "one"))
        second = archiver.store(_simple_object(generator, "two"))
        for record in (first, second):
            for location in record.descriptor.locations:
                assert location.offset >= record.composition_base
        assert second.composition_base > first.extent.length


class TestFetch:
    def test_fetch_object_roundtrip(self, generator):
        archiver = Archiver()
        obj = _simple_object(generator)
        archiver.store(obj)
        rebuilt, service = archiver.fetch_object(obj.object_id)
        assert rebuilt.object_id == obj.object_id
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)
        assert service > 0

    def test_fetch_returns_relative_descriptor(self, generator):
        archiver = Archiver()
        obj = _simple_object(generator)
        archiver.store(obj)
        result = archiver.fetch(obj.object_id)
        from repro.formatter.builder import rebuild_object

        rebuilt = rebuild_object(result.descriptor, result.composition)
        assert rebuilt.text_segments[0].markup == obj.text_segments[0].markup

    def test_missing_object(self, generator):
        archiver = Archiver()
        with pytest.raises(ObjectNotFoundError):
            archiver.fetch(generator.object_id())

    def test_fetch_object_charges_what_a_cold_cache_charges(self):
        # Twin libraries: the same objects on identical platters.
        plain = Archiver()
        objects = build_object_library(plain, visual_count=2, audio_count=1)
        twin = Archiver()
        build_object_library(twin, visual_count=2, audio_count=1)
        caching = CachingArchiver(twin, LRUCache(50_000_000))
        plain.op_counts.clear()
        for obj in objects:
            rebuilt, service = plain.fetch_object(obj.object_id)
            cached, cold = caching.fetch_object(obj.object_id)
            # Only the pieces are read: no whole-extent read on top.
            assert service == cold > 0
            formed = ObjectFormatter(compression=False).form(rebuilt)
            expected = ObjectFormatter(compression=False).form(cached)
            assert formed.descriptor.to_bytes() == expected.descriptor.to_bytes()
            assert formed.composition == expected.composition
        assert plain.op_counts == Counter(fetch_object=len(objects))

    def test_content_index_populated(self, generator):
        archiver = Archiver()
        alpha = _simple_object(generator, "alphatopic")
        beta = _simple_object(generator, "betatopic")
        archiver.store(alpha)
        archiver.store(beta)
        assert archiver.archive_index.search_terms(["alphatopic"]) == {
            alpha.object_id
        }
        assert archiver.index.search_attributes(topic="betatopic") == {
            beta.object_id
        }


class TestPartialReads:
    def test_data_extent_and_range(self, generator):
        archiver = Archiver()
        obj = _windowed_object(generator)
        archiver.store(obj)
        tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, tag)
        assert extent.length == 40 * 30
        data, service = archiver.read_piece_range(obj.object_id, tag, 0, 40)
        assert data == obj.images[0].bitmap.pixels.tobytes()[:40]
        assert service > 0

    def test_range_bounds_checked(self, generator):
        archiver = Archiver()
        obj = _windowed_object(generator)
        archiver.store(obj)
        tag = f"image/{obj.images[0].image_id}"
        with pytest.raises(ArchiverError):
            archiver.read_piece_range(obj.object_id, tag, 1195, 100)

    def test_scatter_rows(self, generator):
        archiver = Archiver()
        obj = _windowed_object(generator)
        archiver.store(obj)
        tag = f"image/{obj.images[0].image_id}"
        pixels = obj.images[0].bitmap.pixels
        ranges = [(row * 40 + 5, 10) for row in range(3)]
        rows, service = archiver.read_piece_rows(obj.object_id, tag, ranges)
        for row_index, data in enumerate(rows):
            assert data == pixels[row_index, 5:15].tobytes()
        assert service > 0

    def test_scatter_cheaper_than_separate_seeks(self, generator):
        archiver = Archiver()
        obj = _windowed_object(generator)
        archiver.store(obj)
        tag = f"image/{obj.images[0].image_id}"
        ranges = [(row * 40, 40) for row in range(20)]
        _, scatter_time = archiver.read_piece_rows(obj.object_id, tag, ranges)
        separate = 0.0
        for start, length in ranges:
            _, t = archiver.read_piece_range(obj.object_id, tag, start, length)
            separate += t
        assert scatter_time < separate

    def test_scatter_rows_charge_the_device_what_they_return(self, generator):
        archiver = Archiver()
        obj = _windowed_object(generator)
        archiver.store(obj)
        tag = f"image/{obj.images[0].image_id}"
        ranges = [(row * 40, 40) for row in range(20)]
        stats = archiver.disk.stats
        busy, reads = stats.busy_time_s, stats.reads
        _, service = archiver.read_piece_rows(obj.object_id, tag, ranges)
        assert stats.busy_time_s - busy == pytest.approx(service, rel=1e-9)
        assert stats.reads - reads == len(ranges)
        # Only the first row pays a seek; the rest are transfer only.
        geometry = archiver.disk.geometry
        transfer = 40 / geometry.transfer_bytes_per_s
        assert service - 19 * transfer > geometry.rotational_latency_s / 2


class TestCacheIntegration:
    def test_cache_hit_is_free(self, generator):
        archiver = CachingArchiver(Archiver(), LRUCache(10_000_000))
        obj = _simple_object(generator)
        archiver.store(obj)
        _, first = archiver.fetch(obj.object_id), None
        result = archiver.fetch(obj.object_id)
        assert result.service_time_s == 0.0

    def test_without_cache_every_fetch_costs(self, generator):
        archiver = Archiver()
        obj = _simple_object(generator)
        archiver.store(obj)
        archiver.fetch(obj.object_id)
        result = archiver.fetch(obj.object_id)
        assert result.service_time_s > 0

    def test_each_lookup_counts_once(self, generator):
        cache = LRUCache(10_000_000)
        caching = CachingArchiver(Archiver(), cache)
        ranges = []
        for topic in ("alpha", "beta"):
            obj = _simple_object(generator, topic)
            caching.store(obj)
            ranges += [
                (location.offset, location.length)
                for location in caching.record(obj.object_id).descriptor.locations
            ]
        single, pair = ranges[0], ranges[1:3]

        def counts():
            stats = cache.stats.snapshot()
            return stats.hits, stats.misses

        caching.read_absolute(*single)
        assert counts() == (0, 1)
        caching.read_scattered(pair)
        assert counts() == (0, 3)
        caching.read_absolute(*single)
        caching.read_scattered(pair)
        assert counts() == (3, 3)
        caching.read_scattered([single, ranges[3]])
        assert counts() == (4, 4)


def _counting_decodes(monkeypatch, archiver):
    """Wrap ``archiver.decode_piece``; returns the list of stored lengths."""
    calls = []
    real = archiver.decode_piece

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(archiver, "decode_piece", counting)
    return calls


def _formed(obj):
    formed = ObjectFormatter(compression=False).form(obj)
    return formed.descriptor.to_bytes(), formed.composition


def _library_and_walk():
    archiver = Archiver()
    objects = build_object_library(archiver, visual_count=24, audio_count=8)
    walk = build_city_walk_simulation()
    archiver.store(walk)
    return archiver, objects + [walk]


class TestDecodedTier:
    def test_warm_fetch_decodes_nothing_and_rebuilds_the_cold_object(
        self, monkeypatch
    ):
        plain, objects = _library_and_walk()
        twin, _ = _library_and_walk()
        caching = CachingArchiver(twin, LRUCache(16 << 20))
        decodes = _counting_decodes(monkeypatch, twin)
        for obj in objects:
            _, cold = caching.fetch_object(obj.object_id)
            assert cold > 0
        assert decodes
        decodes.clear()
        for obj in objects:
            warm, service = caching.fetch_object(obj.object_id)
            assert service == 0.0
            rebuilt, _ = plain.fetch_object(obj.object_id)
            assert _formed(warm) == _formed(rebuilt)
        assert decodes == []
        tier = caching.decoded_pieces
        assert tier.capacity_bytes == caching.cache.capacity_bytes
        assert all(type(tier.get(key)) is bytes for key in tier.keys())

    def test_warm_fetch_carries_recognition_attached_after_it(
        self, generator, monkeypatch
    ):
        archiver = Archiver()
        obj = make_voice_object(generator, [["alpha", "beta"]])
        archiver.store(obj)
        caching = CachingArchiver(archiver, LRUCache(1 << 20))
        cold, _ = caching.fetch_object(obj.object_id)
        assert cold.voice_segments[0].utterances == []
        utterances = [
            RecognizedUtterance(term="alpha", time=0.0),
            RecognizedUtterance(term="beta", time=1.0),
        ]
        segment_id = obj.voice_segments[0].segment_id
        caching.attach_recognition(obj.object_id, {segment_id: utterances})
        decodes = _counting_decodes(monkeypatch, archiver)
        warm, service = caching.fetch_object(obj.object_id)
        assert decodes == [] and service == 0.0
        assert warm.voice_segments[0].utterances == utterances

    def test_recover_drops_the_tier(self, monkeypatch):
        archiver = Archiver()
        objects = build_object_library(archiver, visual_count=2, audio_count=1)
        caching = CachingArchiver(archiver, LRUCache(16 << 20))
        for obj in objects:
            caching.fetch_object(obj.object_id)
        held = len(caching.cache) + len(caching.decoded_pieces)
        assert len(caching.decoded_pieces) > 0
        report = caching.recover()
        assert report.cache_entries_dropped == held
        assert len(caching.decoded_pieces) == 0
        assert caching.decoded_pieces.used_bytes == 0
        decodes = _counting_decodes(monkeypatch, archiver)
        rebuilt, service = caching.fetch_object(objects[0].object_id)
        assert decodes and service > 0
        cold, _ = archiver.fetch_object(objects[0].object_id)
        assert _formed(rebuilt) == _formed(cold)

    def test_store_after_a_torn_store_never_reuses_its_range(self, generator):
        # The platter is write-once: a store torn by a crash leaves a
        # dead extent that recovery accounts for, and the next store is
        # placed after it.  So a platter range, the tier's key, always
        # names the same bytes.
        plan = FaultPlan(
            [
                FaultSpec(
                    site=DEVICE_WRITE,
                    kind=FaultKind.TORN_WRITE,
                    hit=2,
                    tear_fraction=0.5,
                    then_crash=True,
                )
            ]
        )
        disk = FaultyDevice(OpticalDisk(), plan)
        archiver = Archiver(disk=disk, fault_plan=plan)
        caching = CachingArchiver(archiver, LRUCache(1 << 20))
        first = _simple_object(generator, "alpha")
        caching.store(first)
        caching.fetch_object(first.object_id)
        before = set(caching.decoded_pieces.keys())
        with pytest.raises(SimulatedCrash):
            caching.store(_simple_object(generator, "beta"))
        report = caching.recover()
        (dead,) = report.dead_extents
        fresh = _simple_object(generator, "gamma")
        record = caching.store(fresh)
        assert record.extent.offset >= dead.end
        for location in record.descriptor.locations:
            assert location.offset >= dead.end
            assert f"abs/{location.offset}/{location.length}" not in before
        rebuilt, _ = caching.fetch_object(fresh.object_id)
        cold, _ = archiver.fetch_object(fresh.object_id)
        assert _formed(rebuilt) == _formed(cold)
        live = [caching.record(i).extent for i in caching.object_ids()]
        for key in caching.decoded_pieces.keys():
            _, offset, length = key.split("/")
            offset, length = int(offset), int(length)
            assert offset + length <= dead.offset or offset >= dead.end
            assert any(
                extent.offset <= offset and offset + length <= extent.end
                for extent in live
            )

"""The object archiver."""

import pytest

from repro.errors import ArchiverError, ObjectNotFoundError
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
from repro.images.miniature import make_miniature
from repro.server.archiver import Archiver
from repro.storage.cache import LRUCache


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


class TestCacheIntegration:
    def test_cache_hit_is_free(self, generator):
        archiver = Archiver(cache=LRUCache(10_000_000))
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

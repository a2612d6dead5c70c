"""Transparent per-piece media compression (repro.compress).

Codec and frame units, the archiver/formatter integration (compressed
platter extents, raw windowed bitmaps, off-switch byte behaviour, voice
pieces that skip or keep the ``dvarint`` trial encode), the
accounting surface (DiskStats, the ``encode`` and ``decode:<codec>``
spans), the decode bounds against crafted frames, and the
hard-vs-transient decode error contract.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.audio import Recording
from repro.audio.codec import mu_law_decode, mu_law_encode
from repro.compress import (
    DEFLATE,
    DVARINT,
    FRAME_MAGIC,
    HEADER_SIZE,
    RLE8,
    STORED,
    codec_for_kind,
    codec_name,
    decode_frame,
    encode_piece,
    frame_codec,
    frame_raw_length,
    is_framed,
    maybe_decode,
)
from repro.compress.codecs import (
    ENCODERS,
    dvarint_decode,
    dvarint_encode,
    rle8_decode,
    rle8_encode,
)
from repro.errors import MediaCodecError, TransientIOError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.registry import COMPRESS_DECODE
from repro.ids import IdGenerator
from repro.images.bitmap import Bitmap
from repro.images.image import Image
from repro.images.miniature import make_miniature
from repro.objects import (
    AttributeSet,
    DrivingMode,
    ImagePage,
    MultimediaObject,
    PresentationSpec,
    TextFlow,
    TextSegment,
    VoiceSegment,
)
from repro.obs import SpanKind, SpanRecorder
from repro.scenarios.library import build_object_library
from repro.scenarios.office import build_office_document
from repro.server.archiver import Archiver, CachingArchiver
from repro.storage.cache import LRUCache


@pytest.fixture
def generator():
    return IdGenerator("test")


def _visual_object(generator, *, represented=False):
    obj = MultimediaObject(
        object_id=generator.object_id(),
        driving_mode=DrivingMode.VISUAL,
        attributes=AttributeSet.of(topic="compress"),
    )
    segment = TextSegment(
        segment_id=generator.segment_id(),
        markup="@title{compress}\nSmooth rasters shrink well. " * 10,
    )
    obj.add_text_segment(segment)
    image = Image(
        image_id=generator.image_id(),
        width=64,
        height=48,
        bitmap=Bitmap.from_function(64, 48, lambda x, y: (x + 3 * y) % 256),
    )
    obj.add_image(image)
    if represented:
        obj.add_image(make_miniature(image, 2, generator.image_id()))
    obj.presentation = PresentationSpec(
        items=[TextFlow(segment.segment_id), ImagePage(image.image_id)]
    )
    return obj.archive()


def _voice_object(generator, samples):
    obj = MultimediaObject(
        object_id=generator.object_id(),
        driving_mode=DrivingMode.AUDIO,
        attributes=AttributeSet.of(topic="compress"),
    )
    segment = VoiceSegment(
        segment_id=generator.segment_id(),
        recording=Recording(samples, sample_rate=8000),
    )
    obj.add_voice_segment(segment)
    obj.presentation = PresentationSpec(audio_order=[segment.segment_id])
    return obj.archive()


def _voice_frame(archiver, obj) -> bytes:
    """The stored piece of an audio object's one voice segment."""
    tag = f"voice/{obj.voice_segments[0].segment_id}"
    extent = archiver.data_extent(obj.object_id, tag)
    data, _ = archiver.read_absolute(extent.offset, extent.length)
    return data


# ----------------------------------------------------------------------
# codec units
# ----------------------------------------------------------------------


class TestCodecs:
    def test_codec_names(self):
        assert codec_name(STORED) == "stored"
        assert codec_name(RLE8) == "rle8"
        assert codec_name(DVARINT) == "dvarint"
        assert codec_name(DEFLATE) == "deflate"
        with pytest.raises(MediaCodecError):
            codec_name(99)

    def test_codec_for_kind(self):
        assert codec_for_kind("image") == RLE8
        assert codec_for_kind("voice") == DVARINT
        assert codec_for_kind("message_voice") == DVARINT
        assert codec_for_kind("label_voice") == DVARINT
        assert codec_for_kind("text") == DEFLATE
        assert codec_for_kind("meta") == DEFLATE
        assert codec_for_kind("unknown-kind") == DEFLATE

    def test_rle8_round_trip_gradient(self):
        raw = Bitmap.from_function(
            40, 30, lambda x, y: (x + 2 * y) % 256
        ).pixels.tobytes()
        packed = rle8_encode(raw)
        assert len(packed) < len(raw)
        assert rle8_decode(packed, len(raw)) == raw

    def test_rle8_round_trip_noise(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 256, 999, dtype=np.uint8).tobytes()
        assert rle8_decode(rle8_encode(raw), len(raw)) == raw

    def test_dvarint_collapses_silence(self):
        raw = b"\x7f" * 8000  # held sample: deltas are all zero
        packed = dvarint_encode(raw)
        assert len(packed) < 16
        assert dvarint_decode(packed, len(raw)) == raw

    def test_dvarint_round_trip_speech_like(self):
        rng = np.random.default_rng(4)
        samples = np.clip(
            128 + np.cumsum(rng.integers(-3, 4, 4000)), 0, 255
        ).astype(np.uint8)
        raw = samples.tobytes()
        assert dvarint_decode(dvarint_encode(raw), len(raw)) == raw

    def test_decode_rejects_wrong_declared_length(self):
        raw = b"\x01\x02\x03\x04"
        with pytest.raises(MediaCodecError):
            rle8_decode(rle8_encode(raw), len(raw) + 1)
        with pytest.raises(MediaCodecError):
            dvarint_decode(dvarint_encode(raw), len(raw) - 1)

    def test_rle8_literal_truncated(self):
        # Control 5 announces six literal bytes; two follow.
        with pytest.raises(MediaCodecError, match="literal truncated"):
            rle8_decode(b"\x05\x01\x02", 6)

    def test_rle8_run_truncated(self):
        # Control 0xFE announces a run of three; its value byte is gone.
        with pytest.raises(MediaCodecError, match="run truncated"):
            rle8_decode(b"\x00\x07\xfe", 4)

    def test_rle8_noop_control_accepted(self):
        raw = b"\x10" * 40 + bytes(range(30))
        packed = rle8_encode(raw)
        assert rle8_decode(b"\x80" + packed + b"\x80", len(raw)) == raw

    def test_rle8_expansion_past_declared_length(self):
        # A 128-byte run into a 10-byte piece, with a literal behind it.
        with pytest.raises(MediaCodecError, match="expands past"):
            rle8_decode(b"\x81\x07\x00\x01", 10)

    def test_dvarint_varint_truncated(self):
        # Zero escape whose run length has its continuation bit set.
        with pytest.raises(MediaCodecError, match="truncated"):
            dvarint_decode(b"\x05\x00\x80", 4)

    def test_dvarint_varint_overflow(self):
        # Six continuation bytes: a run length longer than 5 varint bytes.
        with pytest.raises(MediaCodecError, match="overflows"):
            dvarint_decode(b"\x05\x00" + b"\x80" * 6 + b"\x01", 4)

    def test_dvarint_six_byte_varint_rejected(self):
        # A run of 3 padded out to six varint bytes.  The run fits the
        # piece, but five bytes (35 bits) already cover any u32 length,
        # and a sixth would let a run ask for up to 2**42 bytes.
        with pytest.raises(MediaCodecError, match="overflows"):
            dvarint_decode(b"\x05\x00\x83\x80\x80\x80\x80\x00", 4)


# ----------------------------------------------------------------------
# frame format
# ----------------------------------------------------------------------


class TestFrame:
    def test_round_trip_and_header_fields(self):
        raw = bytes(range(256)) * 8
        frame, codec = encode_piece(raw, "image")
        assert is_framed(frame)
        assert frame.startswith(FRAME_MAGIC)
        assert frame_raw_length(frame) == len(raw)
        assert codec_name(frame_codec(frame)) == codec
        decoded, codec_id = decode_frame(frame)
        assert decoded == raw
        assert codec_name(codec_id) == codec

    def test_stored_fallback_never_inflates(self):
        rng = np.random.default_rng(11)
        raw = rng.integers(0, 256, 2048, dtype=np.uint8).tobytes()
        frame, codec = encode_piece(raw, "voice")
        assert codec == "stored"
        assert len(frame) == len(raw) + HEADER_SIZE

    def test_maybe_decode_passes_raw_bytes_through(self):
        raw = b"no magic here, just pixels" * 4
        assert maybe_decode(raw) is raw

    def test_truncated_frame_rejected(self):
        frame, _ = encode_piece(b"payload bytes", "text")
        with pytest.raises(MediaCodecError):
            decode_frame(frame[: HEADER_SIZE - 1])
        with pytest.raises(MediaCodecError):
            decode_frame(frame[:-1])

    def test_bad_magic_rejected(self):
        frame, _ = encode_piece(b"payload bytes", "text")
        bad = b"XXXX" + frame[4:]
        with pytest.raises(MediaCodecError):
            decode_frame(bad)
        # maybe_decode treats it as an unframed raw piece instead.
        assert maybe_decode(bad) == bad

    def test_any_single_byte_corruption_rejected(self):
        raw = b"the CRC covers codec id, raw length and payload"
        frame, _ = encode_piece(raw, "text")
        for index in range(len(frame)):
            corrupt = bytearray(frame)
            corrupt[index] ^= 0x40
            with pytest.raises(MediaCodecError):
                decode_frame(bytes(corrupt))

    def test_unknown_codec_rejected(self):
        import struct
        import zlib

        payload = b"data"
        crc = zlib.crc32(payload, zlib.crc32(struct.pack(">BI", 9, 4)))
        frame = (
            struct.pack(">4sBI", FRAME_MAGIC, 9, 4)
            + struct.pack(">I", crc)
            + payload
        )
        with pytest.raises(MediaCodecError):
            decode_frame(frame)

    def test_empty_piece(self):
        frame, _ = encode_piece(b"", "image")
        assert len(frame) == HEADER_SIZE
        assert decode_frame(frame) == (b"", STORED) or maybe_decode(frame) == b""


# ----------------------------------------------------------------------
# decode bounds: a valid CRC does not make a frame's claims trustworthy
# ----------------------------------------------------------------------


def _frame(codec_id: int, raw_len: int, payload: bytes) -> bytes:
    """A frame around any payload, with a CRC that checks out."""
    crc = zlib.crc32(payload, zlib.crc32(struct.pack(">BI", codec_id, raw_len)))
    return (
        struct.pack(">4sBI", FRAME_MAGIC, codec_id, raw_len)
        + struct.pack(">I", crc)
        + payload
    )


def _rejected_with_peak(frame: bytes) -> int:
    """Decode a frame that must fail; return the peak bytes allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(MediaCodecError, match="expands past"):
            decode_frame(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestDecodeBounds:
    def test_dvarint_zero_run_rejected_before_allocation(self):
        # A literal, then a zero-run of 64 MiB (varint 80 80 80 20),
        # declared as a 16-byte piece: 19 bytes in all.
        frame = _frame(DVARINT, 16, b"\x05\x00\x80\x80\x80\x20")
        assert len(frame) == 19
        assert _rejected_with_peak(frame) < 1 << 20

    def test_deflate_bomb_rejected_before_allocation(self):
        # ~65 KB of deflate that inflates to 64 MiB, declared as 16 bytes.
        deflater = zlib.compressobj(9)
        zeros = bytes(1 << 20)
        payload = b"".join(deflater.compress(zeros) for _ in range(64))
        payload += deflater.flush()
        assert _rejected_with_peak(_frame(DEFLATE, 16, payload)) < 1 << 20

    def test_deflate_stream_must_finish_trailing_bytes_ignored(self):
        raw = b"text markup " * 20
        payload = zlib.compress(raw)
        # Without its Adler-32 trailer the stream inflates every byte
        # but never reaches its end.
        with pytest.raises(MediaCodecError, match="truncated"):
            decode_frame(_frame(DEFLATE, len(raw), payload[:-4]))
        assert decode_frame(_frame(DEFLATE, len(raw), payload + b"tail")) == (
            raw, DEFLATE,
        )


# ----------------------------------------------------------------------
# archiver integration
# ----------------------------------------------------------------------


class TestArchiverIntegration:
    def test_compressed_extent_smaller(self, generator):
        on, off = Archiver(), Archiver(compression=False)
        r_on = on.store(_visual_object(generator))
        r_off = off.store(_visual_object(generator))
        assert r_on.extent.length < r_off.extent.length

    def test_fetch_object_round_trip(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator)
        archiver.store(obj)
        rebuilt, service = archiver.fetch_object(obj.object_id)
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)
        assert rebuilt.text_segments[0].markup == obj.text_segments[0].markup
        assert service > 0

    def test_off_switch_stores_raw_pieces(self, generator):
        archiver = Archiver(compression=False)
        obj = _visual_object(generator)
        record = archiver.store(obj)
        image_tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, image_tag)
        assert extent.length == 64 * 48  # raw raster, no frame
        data, _ = archiver.read_absolute(extent.offset, extent.length)
        assert not is_framed(data)
        assert data == obj.images[0].bitmap.pixels.tobytes()
        assert record.descriptor is not None
        assert archiver.disk.stats.media_raw_bytes == 0  # no accounting

    def test_platter_pieces_are_framed_when_on(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator)
        archiver.store(obj)
        image_tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, image_tag)
        data, _ = archiver.read_absolute(extent.offset, extent.length)
        assert is_framed(data)
        assert frame_raw_length(data) == 64 * 48

    def test_represented_source_bitmap_stays_raw(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator, represented=True)
        archiver.store(obj)
        source_tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, source_tag)
        assert extent.length == 64 * 48
        row, _ = archiver.read_piece_range(obj.object_id, source_tag, 64, 64)
        assert row == obj.images[0].bitmap.pixels[1].tobytes()
        # The miniature itself is not windowed, so it is framed.
        mini_tag = f"image/{obj.images[1].image_id}"
        mini, _ = archiver.read_absolute(
            archiver.data_extent(obj.object_id, mini_tag).offset,
            archiver.data_extent(obj.object_id, mini_tag).length,
        )
        assert is_framed(mini)

    def test_cache_holds_stored_bytes(self, generator):
        cache = LRUCache(10_000_000)
        archiver = Archiver(cache=cache)
        obj = _visual_object(generator)
        archiver.store(obj)
        archiver.fetch_object(obj.object_id)
        framed_entries = sum(
            1 for key in cache.keys() if is_framed(cache.get(key))
        )
        assert framed_entries > 0

    def test_caching_archiver_decodes(self, generator):
        archiver = Archiver()
        caching = CachingArchiver(archiver, LRUCache(10_000_000))
        obj = _visual_object(generator)
        caching.store(obj)
        rebuilt, _ = caching.fetch_object(obj.object_id)
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)

    def test_reopen_serves_compressed_archive(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator)
        archiver.store(obj)
        reopened, report = Archiver.reopen(archiver.disk, archiver.journal)
        assert report is not None
        rebuilt, _ = reopened.fetch_object(obj.object_id)
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)

    def test_shared_archiver_data_with_compression(self, generator):
        """Deterministic codecs: a shared piece formed twice has the
        same stored length, so cross-object sharing still works."""
        archiver = Archiver()
        first = _visual_object(generator)
        archiver.store(first)
        tag = f"image/{first.images[0].image_id}"
        extent = archiver.data_extent(first.object_id, tag)

        second = MultimediaObject(
            object_id=generator.object_id(),
            driving_mode=DrivingMode.VISUAL,
            attributes=AttributeSet.of(topic="sharer"),
        )
        segment = TextSegment(
            segment_id=generator.segment_id(), markup="@title{sharer}\nBody."
        )
        second.add_text_segment(segment)
        second.add_image(first.images[0])
        second.presentation = PresentationSpec(
            items=[
                TextFlow(segment.segment_id),
                ImagePage(first.images[0].image_id),
            ]
        )
        archiver.store(
            second.archive(), {tag: (extent.offset, extent.length)}
        )
        rebuilt, _ = archiver.fetch_object(second.object_id)
        assert rebuilt.images[0].bitmap.equals(first.images[0].bitmap)


class TestVoiceStore:
    def test_library_speech_runs_no_dvarint_encode(self, monkeypatch):
        # Speech deltas rarely repeat, so the saving bound rules the
        # codec out and every piece is framed stored without a trial.
        calls = []

        def counting(raw):
            calls.append(len(raw))
            return dvarint_encode(raw)

        monkeypatch.setitem(ENCODERS, DVARINT, counting)
        archiver = Archiver()
        objects = build_object_library(
            archiver, visual_count=0, audio_count=12, seed=0
        )
        assert calls == []
        frames = [_voice_frame(archiver, obj) for obj in objects]
        assert [frame_codec(frame) for frame in frames] == [STORED] * 12

    @pytest.mark.parametrize("level", [0.0, 0.25], ids=["silent", "held"])
    def test_quiet_recording_keeps_dvarint(self, generator, level):
        samples = np.full(16000, level, dtype=np.float32)
        archiver = Archiver()
        obj = _voice_object(generator, samples)
        archiver.store(obj)
        frame = _voice_frame(archiver, obj)
        assert frame_codec(frame) == DVARINT
        assert len(frame) < HEADER_SIZE + 16
        assert maybe_decode(frame) == mu_law_encode(samples)
        rebuilt, _ = archiver.fetch_object(obj.object_id)
        recording = rebuilt.voice_segments[0].recording
        assert (
            recording.samples.tobytes()
            == mu_law_decode(mu_law_encode(samples)).tobytes()
        )


# ----------------------------------------------------------------------
# metrics surfacing
# ----------------------------------------------------------------------


class TestMetrics:
    def test_disk_stats_counters(self, generator):
        archiver = Archiver()
        archiver.store(_visual_object(generator))
        stats = archiver.disk.stats
        assert stats.media_raw_bytes > stats.media_stored_bytes > 0
        assert stats.media_ratio > 1.0

    def test_compression_metrics_and_trace(self, generator):
        archiver = Archiver()
        archiver.obs = SpanRecorder()
        obj = _visual_object(generator)
        archiver.store(obj)
        archiver.fetch_object(obj.object_id)
        spans = archiver.obs.spans()
        # Frames name their codec, so the open path's decode spans show
        # what the store encoded: the raster run-length coded, the text
        # deflated.
        decodes = {s.name: s for s in spans if s.name.startswith("decode:")}
        assert {"decode:rle8", "decode:deflate"} <= set(decodes)
        rle8 = decodes["decode:rle8"].attrs
        assert rle8["raw_len"] > rle8["stored_len"]
        stats = archiver.disk.stats
        assert stats.media_ratio > 1.0
        assert stats.media_raw_bytes > stats.media_stored_bytes

    def test_office_document_compresses(self):
        archiver = Archiver()
        archiver.store(build_office_document())
        assert archiver.disk.stats.media_ratio > 1.5


class TestCodecSpans:
    def test_store_emits_one_encode_marker(self, generator):
        archiver = Archiver()
        archiver.obs = SpanRecorder()
        record = archiver.store(_visual_object(generator))
        (encode,) = [
            s for s in archiver.obs.spans() if s.kind is SpanKind.COMPRESS
        ]
        assert encode.name == "encode"
        assert encode.start_s == encode.end_s
        stats = archiver.disk.stats
        assert encode.attrs == {
            "pieces": len(record.descriptor.locations),
            "raw_len": stats.media_raw_bytes,
            "stored_len": stats.media_stored_bytes,
        }

    def test_fetch_emits_one_decode_span_per_framed_piece(self, generator):
        archiver = Archiver()
        # The represented source bitmap stays raw and decodes silently.
        obj = _visual_object(generator, represented=True)
        record = archiver.store(obj)
        archiver.obs = SpanRecorder()
        archiver.fetch_object(obj.object_id)
        decodes = [s for s in archiver.obs.spans() if s.kind is SpanKind.COMPRESS]
        pieces = [
            archiver.read_absolute(loc.offset, loc.length)[0]
            for loc in record.descriptor.locations
        ]
        framed = [data for data in pieces if is_framed(data)]
        assert 0 < len(framed) < len(pieces)
        assert sorted(s.name for s in decodes) == sorted(
            f"decode:{codec_name(frame_codec(data))}" for data in framed
        )
        assert sorted(s.attrs["stored_len"] for s in decodes) == sorted(
            len(data) for data in framed
        )


# ----------------------------------------------------------------------
# decode errors: hard vs transient
# ----------------------------------------------------------------------


@pytest.mark.faults
class TestDecodeFaults:
    def test_transient_at_decode_site_is_typed_and_retryable(self, generator):
        plan = FaultPlan(
            [FaultSpec(site=COMPRESS_DECODE, kind=FaultKind.TRANSIENT)]
        )
        archiver = Archiver(fault_plan=plan)
        obj = _visual_object(generator)
        archiver.store(obj)
        with pytest.raises(TransientIOError):
            archiver.fetch_object(obj.object_id)
        assert plan.fired(COMPRESS_DECODE) == 1
        # The fault was one-shot: the retry succeeds.
        rebuilt, _ = archiver.fetch_object(obj.object_id)
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)

    def test_genuine_corruption_is_hard_media_codec_error(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator)
        archiver.store(obj)
        tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, tag)
        # Simulate media rot: flip one payload byte inside the framed
        # extent, behind the WORM API's back.
        archiver.disk._data[extent.offset + HEADER_SIZE + 3] ^= 0xFF
        with pytest.raises(MediaCodecError):
            archiver.fetch_object(obj.object_id)
        # Hard errors are not retryable: the bytes are still bad.
        with pytest.raises(MediaCodecError):
            archiver.fetch_object(obj.object_id)

    def test_media_codec_error_is_not_transient(self):
        assert not issubclass(MediaCodecError, TransientIOError)

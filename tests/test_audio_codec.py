"""Mu-law companding."""

import numpy as np
import pytest

from repro.audio.codec import (
    decode_recording,
    encode_recording,
    mu_law_decode,
    mu_law_encode,
)
from repro.audio.signal import Recording, synthesize_speech
from repro.errors import AudioError
from tests import audio_reference as reference


class TestMuLaw:
    def test_roundtrip_accuracy(self):
        samples = np.linspace(-1, 1, 1001).astype(np.float32)
        decoded = mu_law_decode(mu_law_encode(samples))
        # 8-bit mu-law steps are coarsest near full scale (~0.03).
        assert np.abs(decoded - samples).max() < 0.04

    def test_small_signals_get_fine_quantization(self):
        quiet = np.linspace(-0.01, 0.01, 101).astype(np.float32)
        decoded = mu_law_decode(mu_law_encode(quiet))
        # Companding keeps relative error small for quiet signals.
        assert np.abs(decoded - quiet).max() < 0.001

    def test_one_byte_per_sample(self):
        samples = np.zeros(500, dtype=np.float32)
        assert len(mu_law_encode(samples)) == 500

    def test_clipping(self):
        loud = np.array([2.0, -3.0], dtype=np.float32)
        decoded = mu_law_decode(mu_law_encode(loud))
        assert decoded[0] == pytest.approx(1.0, abs=0.01)
        assert decoded[1] == pytest.approx(-1.0, abs=0.01)

    def test_non_mono_rejected(self):
        with pytest.raises(AudioError):
            mu_law_encode(np.zeros((10, 2), dtype=np.float32))


class TestRecordingCodec:
    def test_roundtrip_preserves_waveform(self, short_speech):
        data = encode_recording(short_speech)
        assert len(data) == short_speech.nbytes
        rebuilt = decode_recording(
            data, short_speech.sample_rate, speaker=short_speech.speaker
        )
        assert rebuilt.duration == pytest.approx(short_speech.duration)
        assert np.abs(rebuilt.samples - short_speech.samples).max() < 0.03

    def test_decoded_recording_is_bare(self, short_speech):
        rebuilt = decode_recording(
            encode_recording(short_speech), short_speech.sample_rate
        )
        assert rebuilt.words == []
        assert rebuilt.paragraph_ends == []

    def test_pause_structure_survives_companding(self, short_speech):
        from repro.audio.pauses import detect_silences

        rebuilt = decode_recording(
            encode_recording(short_speech), short_speech.sample_rate
        )
        original = detect_silences(short_speech)
        recovered = detect_silences(rebuilt)
        assert abs(len(original) - len(recovered)) <= 2


class TestTableDecode:
    """The lookup table decodes exactly as the expansion formula did."""

    @staticmethod
    def _assert_identical(data: bytes) -> None:
        decoded, expected = mu_law_decode(data), reference.mu_law_decode(data)
        assert decoded.dtype == np.float32
        assert decoded.shape == expected.shape
        assert decoded.tobytes() == expected.tobytes()
        assert decoded.flags.writeable

    def test_every_byte_value(self):
        self._assert_identical(bytes(range(256)))

    @pytest.mark.parametrize("length", [0, 1, 3, 255, 257, 8001])
    def test_odd_length_buffers(self, length):
        rng = np.random.default_rng(length)
        self._assert_identical(
            rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        )

    def test_every_library_recording(self):
        from repro.scenarios import build_object_library
        from repro.scenarios.city import build_city_walk_simulation
        from repro.server import Archiver

        library = build_object_library(Archiver())
        library.append(build_city_walk_simulation())
        recordings = [
            part.recording
            for obj in library
            for part in (*obj.voice_segments, *obj.voice_messages)
        ]
        assert len(recordings) >= 5
        for recording in recordings:
            self._assert_identical(mu_law_encode(recording.samples))


class TestKeptCodes:
    """A recording compands at most once while it lives."""

    @staticmethod
    def _speech() -> Recording:
        return synthesize_speech("kept codes ship as stored.", seed=5)

    @staticmethod
    def _lazy(codes: bytes) -> Recording:
        return Recording(encoded=codes, decoder=mu_law_decode, sample_rate=8000)

    def test_codes_are_the_companded_samples(self):
        from repro.scenarios import build_object_library
        from repro.scenarios.city import build_city_walk_simulation
        from repro.server import Archiver

        library = build_object_library(Archiver())
        library.append(build_city_walk_simulation())
        recordings = [
            part.recording
            for obj in library
            for part in (*obj.voice_segments, *obj.voice_messages)
        ]
        assert len(recordings) >= 5
        for recording in recordings:
            assert type(recording.codes) is bytes
            assert recording.codes == mu_law_encode(recording.samples)

    def test_second_read_compands_nothing(self, companding_calls):
        recording = self._speech()
        codes = recording.codes
        assert len(companding_calls) == 1
        assert recording.codes is codes
        assert encode_recording(recording) is codes
        assert len(companding_calls) == 1

    def test_unexpanded_lazy_recording_ships_its_source_bytes(
        self, companding_calls
    ):
        source = mu_law_encode(self._speech().samples)
        lazy = self._lazy(source)
        assert lazy.codes is source
        assert not lazy.is_materialized
        assert companding_calls == []

    def test_expanded_lazy_recording_compands_back_to_its_source(
        self, companding_calls
    ):
        # Every byte value survives expansion and companding exactly.
        source = bytes(range(256)) + mu_law_encode(self._speech().samples)
        lazy = self._lazy(source).materialize()
        codes = lazy.codes
        assert codes == source
        assert lazy.codes is codes
        assert len(companding_calls) == 1

    def test_samples_are_read_only(self):
        with pytest.raises(ValueError):
            self._speech().samples[0] = 0.5
        with pytest.raises(ValueError):
            self._lazy(bytes(range(256))).samples[:] = 0.0
        # The recording keeps a view: the caller's own array stays
        # writable.
        waveform = np.zeros(16, dtype=np.float32)
        Recording(samples=waveform, sample_rate=8000)
        waveform[0] = 0.5

    def test_assigning_samples_drops_the_codes(self, companding_calls):
        recording = self._speech()
        before = recording.codes
        edited = np.concatenate([recording.samples, -recording.samples])
        recording.samples = edited
        assert len(companding_calls) == 1
        assert recording.codes == mu_law_encode(edited) != before
        assert len(companding_calls) == 2

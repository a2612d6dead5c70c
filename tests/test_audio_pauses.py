"""Pause detection and classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.pauses import (
    AdaptivePauseClassifier,
    FixedPauseClassifier,
    Pause,
    PauseIndex,
    PauseKind,
    detect_silences,
    frame_rms,
)
from repro.audio.signal import synthesize_speech
from repro.errors import AudioError
from tests import audio_reference as reference


class TestFrameRms:
    def test_shape_and_frame_duration(self, short_speech):
        rms, frame_s = frame_rms(short_speech, frame_ms=20)
        assert frame_s == pytest.approx(0.02)
        assert len(rms) == len(short_speech.samples) // int(
            short_speech.sample_rate * 0.02
        )

    def test_too_short_recording_rejected(self):
        import numpy as np
        from repro.audio.signal import Recording

        tiny = Recording(samples=np.zeros(3, dtype=np.float32), sample_rate=8000)
        with pytest.raises(AudioError):
            frame_rms(tiny)


class TestDetectSilences:
    def test_finds_interword_gaps(self, short_speech):
        pauses = detect_silences(short_speech)
        # 20 words, 2 paragraphs: many gaps must be found.
        assert len(pauses) >= 8

    def test_paragraph_gap_is_longest(self, short_speech):
        pauses = detect_silences(short_speech)
        longest = max(pauses, key=lambda p: p.duration)
        # The single inter-paragraph gap should be the longest pause and
        # should bracket the first paragraph end.
        boundary = short_speech.paragraph_ends[0]
        assert longest.start <= boundary + 0.2
        assert longest.end >= boundary - 0.2

    def test_flat_signal_has_no_pauses(self):
        import numpy as np
        from repro.audio.signal import Recording

        flat = Recording(
            samples=np.zeros(8000, dtype=np.float32), sample_rate=8000
        )
        assert detect_silences(flat) == []

    def test_min_duration_filters(self, short_speech):
        few = detect_silences(short_speech, min_duration=0.5)
        many = detect_silences(short_speech, min_duration=0.05)
        assert len(few) < len(many)


class TestClassifiers:
    def test_fixed_threshold(self):
        pauses = [Pause(0, 0.1), Pause(1, 1.5), Pause(2, 2.2)]
        kinds = FixedPauseClassifier(long_threshold=0.4).classify(pauses)
        assert kinds == [PauseKind.SHORT, PauseKind.LONG, PauseKind.SHORT]

    def test_fixed_threshold_positive(self):
        with pytest.raises(AudioError):
            FixedPauseClassifier(long_threshold=0)

    def test_adaptive_separates_bimodal_durations(self):
        # 12 short (~0.1s) and 3 long (~1.0s) pauses spread over a minute.
        pauses = []
        t = 0.0
        for i in range(15):
            duration = 1.0 if i % 5 == 4 else 0.1
            pauses.append(Pause(t, t + duration))
            t += duration + 3.0
        kinds = AdaptivePauseClassifier(window_s=120).classify(pauses)
        longs = [p for p, k in zip(pauses, kinds) if k is PauseKind.LONG]
        assert len(longs) == 3
        assert all(p.duration == pytest.approx(1.0) for p in longs)

    def test_adaptive_unimodal_is_all_short(self):
        pauses = [Pause(i, i + 0.1) for i in range(10)]
        kinds = AdaptivePauseClassifier().classify(pauses)
        assert all(k is PauseKind.SHORT for k in kinds)

    def test_adaptive_empty(self):
        assert AdaptivePauseClassifier().classify([]) == []

    def test_adaptive_adapts_to_speaker(self, two_speaker_recordings):
        # Each speaker's paragraph gaps must be classified LONG against
        # that speaker's own context, even though the fast speaker's
        # "long" is close to the slow speaker's "short".
        for recording in two_speaker_recordings:
            index = PauseIndex.build(recording)
            longs = index.of_kind(PauseKind.LONG)
            assert len(longs) >= 2  # two paragraph boundaries
            # Every detected long pause must be longer than the median
            # short pause of the same recording.
            shorts = index.of_kind(PauseKind.SHORT)
            if shorts:
                median_short = sorted(p.duration for p in shorts)[len(shorts) // 2]
                assert all(p.duration > median_short for p in longs)


class TestPauseIndex:
    def test_parallel_lists_required(self):
        with pytest.raises(AudioError):
            PauseIndex([Pause(0, 1)], [])

    def test_rewind_one_long_pause(self, short_speech):
        index = PauseIndex.build(short_speech)
        longs = index.of_kind(PauseKind.LONG)
        assert longs, "expected at least one long pause"
        position = short_speech.duration  # at the very end
        target = index.rewind_position(position, PauseKind.LONG, 1)
        assert target == pytest.approx(longs[-1].end)

    def test_rewind_more_than_available_goes_to_start(self, short_speech):
        index = PauseIndex.build(short_speech)
        target = index.rewind_position(short_speech.duration, PauseKind.LONG, 99)
        assert target == 0.0

    def test_rewind_short_counts_back(self, short_speech):
        index = PauseIndex.build(short_speech)
        shorts = index.of_kind(PauseKind.SHORT)
        assert len(shorts) >= 3
        target_one = index.rewind_position(
            short_speech.duration, PauseKind.SHORT, 1
        )
        target_three = index.rewind_position(
            short_speech.duration, PauseKind.SHORT, 3
        )
        assert target_three < target_one

    def test_rewind_requires_positive_count(self, short_speech):
        index = PauseIndex.build(short_speech)
        with pytest.raises(AudioError):
            index.rewind_position(1.0, PauseKind.SHORT, 0)

    def test_rewind_ignores_pauses_after_position(self, short_speech):
        index = PauseIndex.build(short_speech)
        pauses = index.pauses
        middle = pauses[len(pauses) // 2]
        target = index.rewind_position(middle.end + 0.01, PauseKind.SHORT, 1)
        assert target <= middle.end + 0.01


def _back_to_back(steps) -> list[Pause]:
    """Pauses of ``(duration, jitter, speech after)`` steps, in order."""
    pauses, t = [], 0.0
    for tier, jitter, speech in steps:
        pauses.append(Pause(t, t + tier * jitter))
        t += tier * jitter + speech
    return pauses


class TestSharedContextSplits:
    """Splitting each distinct context once labels exactly as
    splitting every pause's context did."""

    _tiers = st.sampled_from([0.06, 0.08, 0.09, 0.35, 0.4, 0.45, 1.2, 1.5])

    # Word, sentence and paragraph gaps between stretches of speech,
    # as a recording yields them ...
    _speech = st.lists(
        st.tuples(
            _tiers,
            st.floats(min_value=0.8, max_value=1.25),
            st.floats(min_value=0.1, max_value=2.0),
        ),
        min_size=1,
        max_size=80,
    ).map(_back_to_back)
    # ... and scattered ones: quarter-second starts and binary-fraction
    # durations put pauses exactly half a window apart, on the edge of
    # each other's context.
    _scattered = st.lists(
        st.tuples(
            st.one_of(
                st.integers(min_value=0, max_value=960).map(lambda k: k / 4),
                st.floats(min_value=0.0, max_value=240.0),
            ),
            st.one_of(
                st.sampled_from([0.5, 1.0, 2.0]),
                _tiers,
                st.floats(min_value=0.02, max_value=3.0),
            ),
        ).map(lambda pair: Pause(pair[0], pair[0] + pair[1])),
        max_size=80,
    )
    # Either kind in any order: classify takes pauses as given.
    _pauses = st.one_of(_speech, _scattered).flatmap(st.permutations)

    @settings(max_examples=200)
    @given(pauses=_pauses, window=st.sampled_from([2.0, 5.0, 10.0, 30.0, 500.0]))
    def test_matches_per_pause_reference(self, pauses, window):
        assert AdaptivePauseClassifier(window_s=window).classify(
            pauses
        ) == reference.PerPauseClassifier(window_s=window).classify(pauses)

    def test_matches_reference_on_speech(self, two_speaker_recordings):
        for recording in two_speaker_recordings:
            pauses = detect_silences(recording)
            assert AdaptivePauseClassifier(window_s=8.0).classify(
                pauses
            ) == reference.PerPauseClassifier(window_s=8.0).classify(pauses)

    def test_each_distinct_context_is_split_once(self, monkeypatch):
        classifier = AdaptivePauseClassifier(window_s=10.0)
        calls = []
        split = classifier._top_tier_threshold
        monkeypatch.setattr(
            classifier, "_top_tier_threshold",
            lambda durations: calls.append(len(durations)) or split(durations),
        )
        # Two clusters 100 s apart: every pause of a cluster samples
        # the same context.
        pauses = [
            Pause(base + i, base + i + (0.5 if i % 3 else 0.1))
            for base in (0.0, 100.0)
            for i in range(4)
        ]
        classifier.classify(pauses)
        assert calls == [8, 4, 4]  # the whole recording, then each cluster

"""Synthetic digitized speech with ground-truth annotations.

This module stands in for MINOS's voice digitization hardware.  Given a
text script and a :class:`SpeakerProfile`, :func:`synthesize_speech`
renders a sampled waveform in which each word is a burst of
syllable-shaped energy and the gaps between words, sentences and
paragraphs follow the profile's (jittered) timing.  The returned
:class:`Recording` carries the exact word/sentence/paragraph timing as
ground truth, so the pause-detection benchmarks can score the paper's
short/long-pause heuristics against reality.

The waveform itself is honest sampled audio: pause detection and audio
paging downstream look only at ``recording.samples``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.errors import AudioError

_VOWEL_GROUPS = re.compile(r"[aeiouy]+", re.IGNORECASE)
_SENTENCE_END = re.compile(r"[.!?]")


@dataclass(frozen=True, slots=True)
class TimedWord:
    """Ground-truth placement of one spoken word."""

    word: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Spoken duration in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class SpeakerProfile:
    """Timing and level parameters of a simulated speaker.

    The paper notes that "the exact timing for short and long pauses
    depends on the speaker and the section of the speech"; two profiles
    with different gap scales exercise the adaptive classifier.

    All times are in seconds; ``jitter`` is the relative standard
    deviation applied to every gap and syllable duration.
    """

    name: str = "default"
    syllable_duration: float = 0.16
    word_gap: float = 0.12
    sentence_gap: float = 0.45
    paragraph_gap: float = 1.1
    amplitude: float = 0.6
    noise_level: float = 0.004
    jitter: float = 0.15
    pitch_hz: float = 140.0

    def __post_init__(self) -> None:
        if not (0 < self.word_gap < self.sentence_gap < self.paragraph_gap):
            raise AudioError(
                "speaker gaps must satisfy 0 < word < sentence < paragraph: "
                f"{self.word_gap}, {self.sentence_gap}, {self.paragraph_gap}"
            )
        if not 0 <= self.jitter < 0.5:
            raise AudioError(f"jitter must be in [0, 0.5): {self.jitter}")


class Recording:
    """Digitized voice plus the annotations MINOS keeps alongside it.

    A recording is either *materialized* (constructed from a float32
    waveform, the historical path) or *lazy*: constructed from the
    companded ``encoded`` bytes plus a ``decoder`` callable, in which
    case the waveform is expanded on first access to :attr:`samples`.
    Mu-law companding is exactly one byte per sample, so duration,
    storage size and audio paging are all computable without decoding —
    an object open ships and holds the encoded bytes, and the expansion
    cost is paid at first *playback* (``PLAY_VOICE``), not at open time.

    The stored form is :attr:`codes`, the mu-law bytes.  A lazy
    recording that has not expanded already holds them, so a re-store
    ships them without expanding; a materialized one compands its
    samples on the first read and keeps the result.  Expanding a lazy
    recording drops its codes, so a decoded copy holds one form only.

    Attributes
    ----------
    samples:
        Float32 waveform in ``[-1, 1]``, read-only.  Reading this on a
        lazy recording decodes it (and fires ``on_decode`` once).  To
        edit a waveform, assign a new array: that drops the kept codes.
        The recording holds a read-only view of the array it was given,
        not a copy, so a caller who keeps writing into that array must
        not expect the codes to follow.
    sample_rate:
        Samples per second.
    words:
        Ground-truth word timing (empty for recordings whose
        provenance carries no transcript).
    sentence_ends, paragraph_ends:
        Ground-truth boundary times (end of the final word of each
        sentence / paragraph).
    speaker:
        Name of the speaker profile used at synthesis time.
    on_decode:
        Optional one-shot callback ``cb(recording)`` invoked when a
        lazy recording materializes — the presentation manager hooks
        the DECODE_VOICE trace event here.
    """

    def __init__(
        self,
        samples: np.ndarray | None = None,
        sample_rate: int = 0,
        words: list[TimedWord] | None = None,
        sentence_ends: list[float] | None = None,
        paragraph_ends: list[float] | None = None,
        speaker: str = "unknown",
        *,
        encoded: bytes | None = None,
        decoder=None,
        on_decode=None,
    ) -> None:
        if sample_rate <= 0:
            raise AudioError(f"sample rate must be positive: {sample_rate}")
        self.sample_rate = sample_rate
        self.words = list(words) if words is not None else []
        self.sentence_ends = list(sentence_ends) if sentence_ends is not None else []
        self.paragraph_ends = (
            list(paragraph_ends) if paragraph_ends is not None else []
        )
        self.speaker = speaker
        self.on_decode = on_decode
        if samples is not None:
            self._samples: np.ndarray | None = self._coerce(samples)
            self._encoded: bytes | None = None  # companded on first read
            self._decoder = None
        else:
            if encoded is None:
                raise AudioError("a recording needs samples or encoded bytes")
            if decoder is None:
                raise AudioError("a lazy recording needs a decoder")
            self._samples = None
            self._encoded = encoded
            self._decoder = decoder

    @staticmethod
    def _coerce(samples: np.ndarray) -> np.ndarray:
        if samples.ndim != 1:
            raise AudioError(f"recording must be mono, got shape {samples.shape}")
        if samples.dtype != np.float32:
            samples = samples.astype(np.float32)
        # A view, so the caller's array stays writable; ours is not,
        # so the kept codes cannot go stale through ``samples[...]``.
        view = samples.view()
        view.flags.writeable = False
        return view

    @property
    def is_materialized(self) -> bool:
        """Whether the waveform has been decoded (always True when the
        recording was constructed from samples)."""
        return self._samples is not None

    @property
    def samples(self) -> np.ndarray:
        """The waveform, decoding the companded bytes on first access."""
        if self._samples is None:
            assert self._decoder is not None and self._encoded is not None
            self._samples = self._coerce(self._decoder(self._encoded))
            self._encoded = None
            self._decoder = None
            if self.on_decode is not None:
                callback, self.on_decode = self.on_decode, None
                callback(self)
        return self._samples

    @samples.setter
    def samples(self, value: np.ndarray) -> None:
        self._samples = self._coerce(value)
        self._encoded = None
        self._decoder = None

    @property
    def codes(self) -> bytes:
        """The 8-bit mu-law codes, one byte per sample.

        An unexpanded lazy recording returns the bytes it was built
        from without expanding them; otherwise the samples are
        companded on the first read and the result is kept.  Two
        threads reading at once may both compand: they compute equal
        bytes and the assignment is atomic, so either result stands.
        """
        codes = self._encoded
        if codes is None:
            from repro.audio.codec import mu_law_encode

            codes = self._encoded = mu_law_encode(self._samples)
        return codes

    def materialize(self) -> "Recording":
        """Force the waveform to be decoded; returns self."""
        __ = self.samples
        return self

    @property
    def n_samples(self) -> int:
        """Sample count, available without decoding (mu-law is one byte
        per sample)."""
        if self._samples is not None:
            return len(self._samples)
        assert self._encoded is not None
        return len(self._encoded)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.n_samples / self.sample_rate

    @property
    def nbytes(self) -> int:
        """Storage size after 8-bit companding (1 byte per sample)."""
        return self.n_samples

    def __repr__(self) -> str:
        state = "materialized" if self.is_materialized else "lazy"
        return (
            f"Recording({state}, n_samples={self.n_samples}, "
            f"sample_rate={self.sample_rate}, speaker={self.speaker!r})"
        )

    def slice(self, start: float, end: float) -> "Recording":
        """Return the sub-recording covering ``[start, end)`` seconds.

        Annotations are re-based so the slice is self-contained.
        """
        start = max(0.0, start)
        end = min(self.duration, end)
        if end <= start:
            raise AudioError(f"empty recording slice [{start}, {end})")
        i0 = int(start * self.sample_rate)
        i1 = int(end * self.sample_rate)
        words = [
            TimedWord(w.word, w.start - start, w.end - start)
            for w in self.words
            if start <= w.start < end
        ]
        return Recording(
            samples=self.samples[i0:i1].copy(),
            sample_rate=self.sample_rate,
            words=words,
            sentence_ends=[t - start for t in self.sentence_ends if start <= t < end],
            paragraph_ends=[t - start for t in self.paragraph_ends if start <= t < end],
            speaker=self.speaker,
        )

    def transcript_text(self) -> str:
        """Plain-text transcript reconstructed from the word annotations."""
        return " ".join(w.word for w in self.words)


def synthesize_speech(
    text: str,
    profile: SpeakerProfile | None = None,
    sample_rate: int = 8000,
    seed: int = 0,
) -> Recording:
    """Render ``text`` as a synthetic digitized-speech recording.

    Paragraphs are separated by blank lines; sentences end at ``.``,
    ``!`` or ``?``.  Each word becomes a burst of syllable-shaped
    energy whose length scales with its vowel groups.  All gaps are
    jittered with a seeded RNG so recordings are reproducible.

    Raises
    ------
    AudioError
        If ``text`` contains no words.
    """
    profile = profile or SpeakerProfile()
    rng = np.random.default_rng(seed)
    paragraphs = [p.strip() for p in re.split(r"\n\s*\n", text) if p.strip()]
    if not paragraphs:
        raise AudioError("cannot synthesize speech from empty text")

    chunks: list[np.ndarray] = []
    words: list[TimedWord] = []
    sentence_ends: list[float] = []
    paragraph_ends: list[float] = []
    cursor = 0.0  # seconds

    def jittered(value: float) -> float:
        scale = 1.0 + profile.jitter * float(rng.standard_normal())
        return max(value * scale, value * 0.3)

    def append_silence(duration: float) -> None:
        nonlocal cursor
        n = int(round(duration * sample_rate))
        noise = rng.standard_normal(n).astype(np.float32) * profile.noise_level
        chunks.append(noise)
        cursor += n / sample_rate

    for p_index, paragraph in enumerate(paragraphs):
        sentences = [s for s in _split_sentences(paragraph) if s]
        for s_index, sentence in enumerate(sentences):
            tokens = sentence.split()
            for w_index, token in enumerate(tokens):
                burst, duration = _word_burst(
                    token, profile, sample_rate, rng, jittered
                )
                start = cursor
                chunks.append(burst)
                cursor += duration
                words.append(TimedWord(_normalize(token), start, cursor))
                if w_index < len(tokens) - 1:
                    append_silence(jittered(profile.word_gap))
            sentence_ends.append(cursor)
            if s_index < len(sentences) - 1:
                append_silence(jittered(profile.sentence_gap))
        paragraph_ends.append(cursor)
        if p_index < len(paragraphs) - 1:
            append_silence(jittered(profile.paragraph_gap))

    if not words:
        raise AudioError("cannot synthesize speech from text with no words")

    samples = np.concatenate(chunks)
    np.clip(samples, -1.0, 1.0, out=samples)
    return Recording(
        samples=samples,
        sample_rate=sample_rate,
        words=words,
        sentence_ends=sentence_ends,
        paragraph_ends=paragraph_ends,
        speaker=profile.name,
    )


def _split_sentences(paragraph: str) -> list[str]:
    parts = _SENTENCE_END.split(paragraph)
    return [part.strip() for part in parts if part.strip()]


def _normalize(token: str) -> str:
    return re.sub(r"[^\w'-]", "", token).lower()


def _syllable_count(token: str) -> int:
    return max(1, len(_VOWEL_GROUPS.findall(token)))


def _word_burst(
    token: str,
    profile: SpeakerProfile,
    sample_rate: int,
    rng: np.random.Generator,
    jittered,
) -> tuple[np.ndarray, float]:
    """One word's waveform: concatenated raised-cosine syllable bursts."""
    syllables = _syllable_count(token)
    pieces: list[np.ndarray] = []
    for _ in range(syllables):
        duration = jittered(profile.syllable_duration)
        n = max(int(round(duration * sample_rate)), 8)
        t = np.arange(n, dtype=np.float32) / sample_rate
        envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
        carrier = np.sin(2.0 * np.pi * profile.pitch_hz * t)
        texture = rng.standard_normal(n).astype(np.float32) * 0.25
        pieces.append(
            (profile.amplitude * envelope * (carrier + texture)).astype(np.float32)
        )
    burst = np.concatenate(pieces)
    return burst, len(burst) / sample_rate

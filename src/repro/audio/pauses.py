"""Pause detection and short/long-pause classification.

The paper's browse-near-context mechanism: "Pause is a segment of
digitized voice which does not contain any sound (in practice the
intensity of the registered sound is very small).  The user may specify
that the audio is replayed starting from a number of short or long
pauses back from the current position...  The exact timing for short
and long pauses depends on the speaker and the section of the speech.
It is decided from the current context by sampling."

We implement exactly that: an energy-envelope silence detector over the
sampled waveform, plus two classifiers — a fixed-threshold baseline and
the paper's adaptive, context-sampling classifier — and a
:class:`PauseIndex` that answers "rewind N short/long pauses from t".
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.audio.signal import Recording
from repro.errors import AudioError


class PauseKind(enum.Enum):
    """Classification of a detected pause."""

    SHORT = "short"
    LONG = "long"


@dataclass(frozen=True, slots=True)
class Pause:
    """A detected stretch of (near-)silence."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.end - self.start

    @property
    def midpoint(self) -> float:
        """Centre of the pause, used for boundary matching."""
        return (self.start + self.end) / 2


def frame_rms(
    recording: Recording, frame_ms: float = 20.0
) -> tuple[np.ndarray, float]:
    """Root-mean-square energy per frame.

    Returns the RMS array and the frame duration in seconds.
    """
    frame_len = max(int(recording.sample_rate * frame_ms / 1000.0), 1)
    n_frames = len(recording.samples) // frame_len
    if n_frames == 0:
        raise AudioError("recording shorter than one analysis frame")
    trimmed = recording.samples[: n_frames * frame_len]
    frames = trimmed.reshape(n_frames, frame_len)
    rms = np.sqrt((frames.astype(np.float64) ** 2).mean(axis=1))
    return rms, frame_len / recording.sample_rate


def detect_silences(
    recording: Recording,
    frame_ms: float = 20.0,
    min_duration: float = 0.05,
) -> list[Pause]:
    """Find all pauses (low-energy runs) in a recording.

    The silence threshold adapts to the recording: it sits a small way
    up from the noise floor (10th percentile of frame energy) towards
    the speech level (90th percentile), so recordings with different
    gain or noise floors need no manual tuning.
    """
    rms, frame_s = frame_rms(recording, frame_ms)
    floor = float(np.percentile(rms, 10))
    speech = float(np.percentile(rms, 90))
    if speech <= floor:
        return []  # flat signal: nothing distinguishable as speech
    threshold = floor + 0.10 * (speech - floor)
    silent = rms < threshold

    pauses: list[Pause] = []
    run_start: int | None = None
    for i, is_silent in enumerate(silent):
        if is_silent and run_start is None:
            run_start = i
        elif not is_silent and run_start is not None:
            pause = Pause(run_start * frame_s, i * frame_s)
            if pause.duration >= min_duration:
                pauses.append(pause)
            run_start = None
    if run_start is not None:
        pause = Pause(run_start * frame_s, len(silent) * frame_s)
        if pause.duration >= min_duration:
            pauses.append(pause)
    return pauses


class FixedPauseClassifier:
    """Baseline classifier: one global duration threshold."""

    def __init__(self, long_threshold: float = 0.4) -> None:
        if long_threshold <= 0:
            raise AudioError(f"threshold must be positive: {long_threshold}")
        self._threshold = long_threshold

    def classify(self, pauses: list[Pause]) -> list[PauseKind]:
        """Label each pause SHORT or LONG."""
        return [
            PauseKind.LONG if p.duration >= self._threshold else PauseKind.SHORT
            for p in pauses
        ]


class AdaptivePauseClassifier:
    """Context-sampling classifier, per the paper.

    For each pause, the durations of the pauses inside a window of
    ``window_s`` seconds around it are sampled and clustered (2-means
    on log-durations).  Speech gaps are naturally *three*-tiered —
    word, sentence, and paragraph gaps — so after separating the word
    gaps the classifier re-splits the upper cluster; LONG means the
    top tier (paragraph-scale) only.  When the local context has too
    few samples to resolve the tiers, the global recording supplies
    the thresholds, so mid-paragraph word gaps are never promoted to
    LONG.
    """

    def __init__(self, window_s: float = 60.0, separation: float = 1.8) -> None:
        if window_s <= 0:
            raise AudioError(f"window must be positive: {window_s}")
        self._window = window_s
        self._separation = separation

    def classify(self, pauses: list[Pause]) -> list[PauseKind]:
        """Label each pause SHORT or LONG using local context.

        Neighbouring pauses usually sample the same context, so each
        distinct context is split once and its threshold shared.
        """
        if not pauses:
            return []
        durations = np.array([p.duration for p in pauses])
        midpoints = np.array([p.midpoint for p in pauses])
        global_split = self._top_tier_threshold(durations.tolist())
        # A context holds every pause whose midpoint lies within half a
        # window of the sampling pause's, so its lowest and highest
        # midpoints name it.
        splits: dict[tuple[float, float], float | None] = {}
        kinds: list[PauseKind] = []
        for midpoint, duration in zip(midpoints, durations):
            inside = np.abs(midpoints - midpoint) <= self._window / 2
            near = midpoints[inside]
            key = (near.min(), near.max())
            if key not in splits:
                splits[key] = self._top_tier_threshold(durations[inside].tolist())
            split = splits[key]
            if split is None:
                split = global_split
            if split is None:
                kinds.append(PauseKind.SHORT)
            else:
                kinds.append(
                    PauseKind.LONG if duration >= split else PauseKind.SHORT
                )
        return kinds

    def _top_tier_threshold(self, durations: list[float]) -> float | None:
        """Threshold above which a pause belongs to the top duration tier.

        First split separates the dominant word-gap cluster from the
        rest; a second split of the remainder separates sentence gaps
        from paragraph gaps.  Returns None when no tiers are resolvable.
        """
        first = self._two_means(durations)
        if first is None:
            return None
        upper = [d for d in durations if d >= first]
        second = self._two_means(upper, min_count=4)
        return second if second is not None else first

    def _two_means(
        self, durations: list[float], min_count: int = 4
    ) -> float | None:
        """2-means split of log-durations; None when unimodal."""
        if len(durations) < min_count:
            return None
        logs = np.log(np.asarray(durations, dtype=np.float64))
        low, high = logs.min(), logs.max()
        if high - low < 1e-9:
            return None
        c0, c1 = low, high
        for _ in range(20):
            assign = np.abs(logs - c0) <= np.abs(logs - c1)
            if assign.all() or not assign.any():
                return None
            new_c0, new_c1 = logs[assign].mean(), logs[~assign].mean()
            if abs(new_c0 - c0) < 1e-9 and abs(new_c1 - c1) < 1e-9:
                break
            c0, c1 = new_c0, new_c1
        if c1 < c0:
            c0, c1 = c1, c0
        if np.exp(c1) / np.exp(c0) < self._separation:
            return None  # clusters too close: treat context as unimodal
        return float(np.exp((c0 + c1) / 2))


class PauseIndex:
    """Indexed pauses of a recording, answering rewind queries.

    This is what backs the browsing options "replay starting from a
    number of short or long pauses back from the current position".
    """

    def __init__(self, pauses: list[Pause], kinds: list[PauseKind]) -> None:
        if len(pauses) != len(kinds):
            raise AudioError("pauses and kinds must be parallel lists")
        order = sorted(range(len(pauses)), key=lambda i: pauses[i].start)
        self._pauses = [pauses[i] for i in order]
        self._kinds = [kinds[i] for i in order]
        self._starts = [p.start for p in self._pauses]

    @classmethod
    def build(
        cls,
        recording: Recording,
        classifier: AdaptivePauseClassifier | FixedPauseClassifier | None = None,
    ) -> "PauseIndex":
        """Detect and classify all pauses of ``recording``."""
        classifier = classifier or AdaptivePauseClassifier()
        pauses = detect_silences(recording)
        return cls(pauses, classifier.classify(pauses))

    def __len__(self) -> int:
        return len(self._pauses)

    @property
    def pauses(self) -> list[Pause]:
        """All pauses, in time order."""
        return list(self._pauses)

    def of_kind(self, kind: PauseKind) -> list[Pause]:
        """All pauses of one kind, in time order."""
        return [p for p, k in zip(self._pauses, self._kinds) if k is kind]

    def rewind_position(self, position: float, kind: PauseKind, count: int) -> float:
        """Where playback resumes after "``count`` ``kind`` pauses back".

        Returns the *end* of the ``count``-th matching pause before
        ``position`` — i.e. the start of the speech that follows it —
        or 0.0 when there are fewer matching pauses, which replays from
        the beginning.
        """
        if count <= 0:
            raise AudioError(f"rewind count must be positive: {count}")
        i = bisect_left(self._starts, position) - 1
        remaining = count
        while i >= 0:
            pause = self._pauses[i]
            if pause.end <= position and self._kinds[i] is kind:
                remaining -= 1
                if remaining == 0:
                    return pause.end
            i -= 1
        return 0.0

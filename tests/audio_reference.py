"""Reference audio analysis: the per-call code browse no longer runs.

:func:`repro.audio.codec.mu_law_decode` looks each byte up in a table
of the expansion curve, and
:meth:`repro.audio.pauses.AdaptivePauseClassifier.classify` splits each
distinct context once.  The functions here are the code those replaced,
kept verbatim as the oracle for the differential tests in
``tests/test_audio_codec.py`` and ``tests/test_audio_pauses.py``: the
table must give these exact float32 samples, and the shared splits
these exact labels.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.audio.pauses import AdaptivePauseClassifier, Pause, PauseKind

_MU = 255.0


def mu_law_decode(data: bytes) -> np.ndarray:
    """Expand mu-law bytes back to float32 samples in [-1, 1]."""
    quantized = np.frombuffer(data, dtype=np.uint8).astype(np.float64)
    y = quantized / 255.0 * 2.0 - 1.0
    x = np.sign(y) * ((1.0 + _MU) ** np.abs(y) - 1.0) / _MU
    return x.astype(np.float32)


class PerPauseClassifier(AdaptivePauseClassifier):
    """The adaptive classifier, splitting every pause's context anew."""

    def classify(self, pauses: list[Pause]) -> list[PauseKind]:
        """Label each pause SHORT or LONG using local context."""
        if not pauses:
            return []
        global_split = self._top_tier_threshold([p.duration for p in pauses])
        kinds: list[PauseKind] = []
        for pause in pauses:
            context = [
                p.duration
                for p in pauses
                if abs(p.midpoint - pause.midpoint) <= self._window / 2
            ]
            split = self._top_tier_threshold(context)
            if split is None:
                split = global_split
            if split is None:
                kinds.append(PauseKind.SHORT)
            else:
                kinds.append(
                    PauseKind.LONG if pause.duration >= split else PauseKind.SHORT
                )
        return kinds

"""8-bit mu-law companding, for storage sizing.

MINOS stored digitized voice on the optical archiver.  We compand the
float waveform to one byte per sample (the standard telephony mu-law
curve) so that recordings have realistic archive sizes and the
formation/archiver pipelines move real bytes.
"""

from __future__ import annotations

import numpy as np

from repro.audio.signal import Recording
from repro.errors import AudioError

_MU = 255.0


def mu_law_encode(samples: np.ndarray) -> bytes:
    """Compand float samples in [-1, 1] to unsigned bytes."""
    if samples.ndim != 1:
        raise AudioError(f"expected mono samples, got shape {samples.shape}")
    x = np.clip(samples.astype(np.float64), -1.0, 1.0)
    y = np.sign(x) * np.log1p(_MU * np.abs(x)) / np.log1p(_MU)
    quantized = np.round((y + 1.0) / 2.0 * 255.0).astype(np.uint8)
    return quantized.tobytes()


def _decode_table() -> np.ndarray:
    """Every byte value's sample on the mu-law expansion curve."""
    y = np.arange(256, dtype=np.float64) / 255.0 * 2.0 - 1.0
    x = np.sign(y) * ((1.0 + _MU) ** np.abs(y) - 1.0) / _MU
    return x.astype(np.float32)


#: A byte expands to the same sample wherever it sits, so decoding is
#: one lookup per byte.
_DECODE_TABLE = _decode_table()


def mu_law_decode(data: bytes) -> np.ndarray:
    """Expand mu-law bytes back to float32 samples in [-1, 1]."""
    return _DECODE_TABLE[np.frombuffer(data, dtype=np.uint8)]


def encode_recording(recording: Recording) -> bytes:
    """Encode a recording's waveform for archival (1 byte/sample)."""
    return mu_law_encode(recording.samples)


def decode_recording(data: bytes, sample_rate: int, speaker: str = "unknown") -> Recording:
    """Rebuild a recording from archived bytes.

    Annotations are not stored in the waveform stream; MINOS keeps them
    in the object descriptor, so a decoded recording starts bare.
    """
    return Recording(
        samples=mu_law_decode(data), sample_rate=sample_rate, speaker=speaker
    )

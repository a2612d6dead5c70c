"""Self-describing compressed piece frames.

A framed piece carries everything decode needs — no side channel, no
descriptor field, no archive lookup:

```
offset  size  field
0       4     magic  b"MCF1"
4       1     codec id (see repro.compress.codecs)
5       4     raw length, big-endian u32
9       4     CRC32 over (codec id ‖ raw length ‖ payload)
13      ...   codec payload
```

The CRC covers the codec id and raw length as well as the payload, so
a single flipped byte *anywhere* after the magic fails the checksum,
and a flipped magic byte fails the magic check — strict decoding
(:func:`decode_frame`) rejects every single-byte corruption with a
typed :class:`repro.errors.MediaCodecError`.

:func:`encode_piece` falls back to the ``stored`` codec whenever the
preferred codec's payload is not strictly smaller than the raw bytes,
so a frame never exceeds ``len(raw) + HEADER_SIZE``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.compress.codecs import (
    DECODERS,
    DVARINT,
    ENCODERS,
    STORED,
    codec_for_kind,
    codec_name,
    dvarint_saving_bound,
)
from repro.errors import MediaCodecError

#: First four bytes of every framed piece ("Media Compression Frame v1").
FRAME_MAGIC = b"MCF1"

_FRAME = struct.Struct(">4sBI")
_CHECK = struct.Struct(">BI")
_CRC = struct.Struct(">I")

#: Fixed per-frame overhead in bytes (magic + codec + raw length + CRC).
HEADER_SIZE = _FRAME.size + _CRC.size


@dataclass(frozen=True, slots=True)
class PieceStats:
    """Per-piece compression accounting emitted by the formatter."""

    tag: str
    kind: str
    codec: str
    raw_len: int
    stored_len: int

    @property
    def ratio(self) -> float:
        """Raw bytes per stored byte (1.0 for an empty piece)."""
        return self.raw_len / self.stored_len if self.stored_len else 1.0


def _crc(codec_id: int, raw_len: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_CHECK.pack(codec_id, raw_len)))


def is_framed(data: bytes) -> bool:
    """Whether ``data`` starts with a complete frame header."""
    return len(data) >= HEADER_SIZE and data.startswith(FRAME_MAGIC)


def frame_codec(data: bytes) -> int:
    """Codec id declared by a frame header (no payload validation)."""
    if not is_framed(data):
        raise MediaCodecError("not a compressed frame")
    return data[_FRAME.size - 5]


def frame_raw_length(data: bytes) -> int:
    """Raw (decoded) length declared by a frame header."""
    if not is_framed(data):
        raise MediaCodecError("not a compressed frame")
    _, _, raw_len = _FRAME.unpack_from(data)
    return raw_len


def encode_piece(raw: bytes, kind) -> tuple[bytes, str]:
    """Frame ``raw`` with the preferred codec for ``kind``.

    Returns ``(frame, codec_name)``.  Falls back to ``stored`` when the
    codec's payload is not strictly smaller than the raw bytes, so the
    frame is never more than ``HEADER_SIZE`` bytes larger than ``raw``.
    A ``dvarint`` piece whose :func:`dvarint_saving_bound` shows it
    cannot pay (busy speech) goes to ``stored`` without the trial
    encode, to the same frame.
    """
    codec_id = codec_for_kind(kind)
    if codec_id == DVARINT and dvarint_saving_bound(raw) <= 0:
        codec_id = STORED
    payload = ENCODERS[codec_id](raw)
    if codec_id != STORED and len(payload) >= len(raw):
        codec_id, payload = STORED, raw
    raw_len = len(raw)
    header = _FRAME.pack(FRAME_MAGIC, codec_id, raw_len)
    crc = _CRC.pack(_crc(codec_id, raw_len, payload))
    return header + crc + payload, codec_name(codec_id)


def decode_frame(data: bytes) -> tuple[bytes, int]:
    """Strictly decode one frame, returning ``(raw, codec_id)``.

    Raises :class:`MediaCodecError` on truncation, bad magic, CRC
    mismatch, unknown codec, or a payload that does not reproduce the
    declared raw length.
    """
    if len(data) < HEADER_SIZE:
        raise MediaCodecError(
            f"frame truncated: {len(data)} bytes < {HEADER_SIZE}-byte header"
        )
    magic, codec_id, raw_len = _FRAME.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise MediaCodecError(f"bad frame magic {magic!r}")
    (crc,) = _CRC.unpack_from(data, _FRAME.size)
    payload = data[HEADER_SIZE:]
    if _crc(codec_id, raw_len, payload) != crc:
        raise MediaCodecError("frame CRC mismatch")
    decoder = DECODERS.get(codec_id)
    if decoder is None:
        raise MediaCodecError(f"unknown codec id {codec_id}")
    raw = decoder(payload, raw_len)
    return raw, codec_id


def maybe_decode(data: bytes) -> bytes:
    """Decode ``data`` if it is framed; otherwise pass it through.

    This is the lenient entry point used on the open path, where a
    piece may predate compression (or be deliberately stored raw, as
    windowed bitmaps are) and must come back untouched.
    """
    if not is_framed(data):
        return data
    raw, _ = decode_frame(data)
    return raw

"""Transparent per-piece media compression.

MINOS assumed compressed image and voice data on the optical archiver —
WORM capacity and transfer rates only work out if a raster does not
cost a byte per pixel.  This package supplies the codecs and the
self-describing frame the formatter wraps each data piece in at
archive time, so every layer below the formatter (platter extents,
staging cache, shared link, cluster replication) moves *stored* bytes
and every rebuild decodes without a side channel.
"""

from repro.compress.codecs import (
    DEFLATE,
    DVARINT,
    RLE8,
    STORED,
    codec_for_kind,
    codec_name,
)
from repro.compress.frame import (
    FRAME_MAGIC,
    HEADER_SIZE,
    PieceStats,
    decode_frame,
    encode_piece,
    frame_codec,
    frame_raw_length,
    is_framed,
    maybe_decode,
)

__all__ = [
    "DEFLATE",
    "DVARINT",
    "FRAME_MAGIC",
    "HEADER_SIZE",
    "PieceStats",
    "RLE8",
    "STORED",
    "codec_for_kind",
    "codec_name",
    "decode_frame",
    "encode_piece",
    "frame_codec",
    "frame_raw_length",
    "is_framed",
    "maybe_decode",
]

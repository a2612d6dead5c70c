"""The codec registry: raw media bytes to smaller bytes and back.

Three real codecs plus an identity fallback, each picked by the *kind*
of the data piece being archived (the formatter knows the kind; the
frame records the codec, so decode needs neither):

``rle8``
    Byte-delta followed by PackBits-style run-length coding, for 8-bit
    greyscale rasters.  Scanned documents and synthetic maps are
    locally smooth, so the delta stream collapses into long runs.

``dvarint``
    Byte-delta with zero-runs escaped as ``0x00`` + varint run length,
    for mu-law voice.  Silence (and any held sample) deltas to zero;
    busy speech stays byte-for-byte and falls back to ``stored``, which
    :func:`dvarint_saving_bound` predicts without running the encoder.

``deflate``
    ``zlib`` for text markup and structured metadata pieces.

``stored``
    Identity.  :func:`repro.compress.frame.encode_piece` falls back to
    it automatically whenever a codec fails to pay, so compression
    never inflates a piece beyond the fixed frame header.

Every encoder is deterministic: the shared-data length check in the
formatter relies on two formations of the same bytes producing the
same stored length.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import MediaCodecError

#: Codec identifiers as stored in the frame header (one byte).
STORED = 0
RLE8 = 1
DVARINT = 2
DEFLATE = 3

_CODEC_NAMES = {
    STORED: "stored",
    RLE8: "rle8",
    DVARINT: "dvarint",
    DEFLATE: "deflate",
}

#: Piece kind (as named by the blob registry) -> preferred codec.
_CODEC_FOR_KIND = {
    "image": RLE8,
    "voice": DVARINT,
    "message_voice": DVARINT,
    "label_voice": DVARINT,
    "text": DEFLATE,
    "meta": DEFLATE,
}


def codec_name(codec_id: int) -> str:
    """Human name of a codec id (for metrics and traces)."""
    name = _CODEC_NAMES.get(codec_id)
    if name is None:
        raise MediaCodecError(f"unknown codec id {codec_id}")
    return name


def codec_for_kind(kind) -> int:
    """The preferred codec for a piece kind (enum or registry name)."""
    return _CODEC_FOR_KIND.get(str(getattr(kind, "value", kind)), DEFLATE)


# ----------------------------------------------------------------------
# shared delta transform
# ----------------------------------------------------------------------


def _delta(raw: bytes) -> np.ndarray:
    arr = np.frombuffer(raw, dtype=np.uint8)
    delta = arr.copy()
    delta[1:] -= arr[:-1]  # uint8 arithmetic wraps mod 256
    return delta


def _undelta(delta: np.ndarray) -> bytes:
    return np.cumsum(delta, dtype=np.uint8).tobytes()


def _ranks(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group and rank of each item, when group ``k`` holds ``counts[k]``."""
    group = np.repeat(np.arange(len(counts)), counts)
    return group, np.arange(len(group)) - (np.cumsum(counts) - counts)[group]


# ----------------------------------------------------------------------
# rle8: delta + PackBits
# ----------------------------------------------------------------------


#: Piece kinds, marked at each piece's first byte by :func:`_rle8_pieces`.
_LITERAL, _RUN = 1, 2


def _rle8_pieces(
    data: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, length and run flag of each piece of a delta stream.

    Pieces are coded apart: a run of three or more equal bytes, the 1-2
    byte tail such a run leaves past its last 128-byte chunk (a literal
    of its own), and each maximal stretch of shorter segments (one
    literal).
    """
    n = len(data)
    seg_start = np.flatnonzero(
        np.concatenate(([True], data[1:] != data[:-1]))
    )
    seg_len = np.diff(seg_start, append=n)
    is_run = seg_len >= 3
    kind = np.zeros(n, np.uint8)
    after_run = np.concatenate(([True], is_run[:-1]))
    kind[seg_start[~is_run & after_run]] = _LITERAL
    run_start, run_len = seg_start[is_run], seg_len[is_run]
    kind[run_start] = _RUN
    tail = run_len % 128
    kind[(run_start + run_len - tail)[(tail > 0) & (tail < 3)]] = _LITERAL
    heads = np.flatnonzero(kind)
    return heads, np.diff(heads, append=n), kind[heads] == _RUN


def _rle8_chunks(
    data: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, length and run flag of each chunk of at most 128 bytes.

    A piece splits into 128-byte chunks, its last chunk the shortest.
    """
    heads, piece_len, piece_run = _rle8_pieces(data)
    piece, rank = _ranks((piece_len + 127) // 128)
    skip = rank * 128
    chunk_len = np.minimum(piece_len[piece] - skip, 128)
    return heads[piece] + skip, chunk_len, piece_run[piece]


def rle8_encode(raw: bytes) -> bytes:
    """Delta the bytes, then PackBits the delta stream."""
    if not raw:
        return b""
    data = _delta(raw)
    chunk_start, chunk_len, chunk_run = _rle8_chunks(data)
    # A literal chunk ships its bytes, a run chunk one copy of its value;
    # each goes out behind its control byte.
    keep = np.repeat(~chunk_run, chunk_len)
    keep[chunk_start[chunk_run]] = True
    control = np.where(chunk_run, 257 - chunk_len, chunk_len - 1)
    kept = np.where(chunk_run, 1, chunk_len)
    return np.insert(
        data[keep], np.cumsum(kept) - kept, control.astype(np.uint8)
    ).tobytes()


# Per control byte: a literal (0-127), the PackBits no-op (128) or a
# run (129-255).  A run and a one-byte literal (0) each span two bytes:
# the two-byte chunks.
#: Payload bytes a control byte spans (itself and its operand bytes).
_STEP = tuple(c + 2 if c < 128 else 1 if c == 128 else 2 for c in range(256))
#: Two-byte chunks in a row after which the walk jumps.  A jump costs a
#: ``bytes.find`` and a slice assignment, and the first one on a parity
#: a numpy pass over half the payload: about what stepping over ten to
#: twenty chunks costs.  At 16, a stream of short stretches never pays
#: much more for jumps than they save (stretches of 17, each jumping
#: one chunk, are the worst: about 1.2x the plain walk), while a raster
#: made only of two-byte chunks, as every library raster and city-walk
#: map is, steps over 16 controls and jumps to its end.
_JUMP_AFTER = 16


def _stops(src: np.ndarray, parity: int) -> bytes:
    """Flags of the bytes on one parity that start no two-byte chunk.

    Those are the controls 1-128 (a literal of 2-128 bytes, or the
    no-op); 0 wraps to 255 below.  A flag past the end stands for the
    first position of that parity past the payload.
    """
    return ((src[parity::2] - np.uint8(1)) < 128).tobytes() + b"\x01"


def rle8_decode(payload: bytes, raw_len: int) -> bytes:
    """Invert :func:`rle8_encode` into exactly ``raw_len`` bytes."""
    # Where a control byte sits depends on the control before it, so
    # the walk is sequential; it touches control bytes only.  A two-byte
    # chunk puts the next control two bytes on, at the same parity, so
    # after a streak of them the walk jumps to the next byte of that
    # parity that starts no two-byte chunk, and marks the controls it
    # jumped over with one slice assignment.
    n = len(payload)
    src = np.frombuffer(payload, dtype=np.uint8)
    step = _STEP  # a local name: this is the hot loop
    marks = bytearray(n)
    stops: list[bytes | None] = [None, None]
    streak = i = 0
    while i < n:
        marks[i] = 1
        span = step[payload[i]]
        i += span
        if span != 2:
            streak = 0
            continue
        streak += 1
        if streak == _JUMP_AFTER:
            streak = 0
            parity = i & 1
            if stops[parity] is None:
                stops[parity] = _stops(src, parity)
            stop = 2 * stops[parity].find(1, i >> 1) + parity
            marks[i:stop:2] = b"\x01" * ((stop - i) >> 1)
            i = stop
    is_control = np.frombuffer(marks, dtype=np.bool_)
    # Each payload byte repeats: a control none, a literal byte once, a
    # run's value byte (the one behind its control) as often as the run
    # is long, 257 - control, which is 1 - control in uint8.
    repeats = (~is_control).view(np.uint8)
    np.copyto(
        repeats[1:],
        np.uint8(1) - src[:-1],
        where=is_control[:-1] & (src[:-1] > 128),
    )
    # A walk that overshot the payload cut its last operand short: count
    # what the controls before it yield, since if that already overran
    # the declared length, the overrun is the error.
    cut = marks.rindex(1) if i > n else n
    produced = int(repeats[:cut].sum(dtype=np.int64))
    if i > n and produced <= raw_len:
        kind = "literal" if payload[cut] < 128 else "run"
        raise MediaCodecError(f"rle8 {kind} truncated")
    if produced > raw_len:
        raise MediaCodecError(
            f"rle8 stream expands past declared length {raw_len}"
        )
    if produced != raw_len:
        raise MediaCodecError(
            f"rle8 stream yields {produced} bytes, header says {raw_len}"
        )
    return _undelta(np.repeat(src, repeats))


# ----------------------------------------------------------------------
# dvarint: delta + varint-escaped zero runs
# ----------------------------------------------------------------------


def _read_varint(payload: bytes, i: int) -> tuple[int, int]:
    # At most five bytes: 35 bits cover any u32 ``raw_len``.
    value, shift = 0, 0
    while True:
        if i >= len(payload):
            raise MediaCodecError("dvarint run length truncated")
        byte = payload[i]
        i += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, i
        shift += 7
        if shift >= 35:
            raise MediaCodecError("dvarint run length overflows")


def dvarint_encode(raw: bytes) -> bytes:
    """Delta the bytes; zero-runs become ``0x00`` + varint length."""
    if not raw:
        return b""
    delta = _delta(raw)
    zero = delta == 0
    edge = np.diff(zero.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    run_start = np.flatnonzero(edge == 1)
    run_len = np.flatnonzero(edge == -1) - run_start
    # Keep the nonzero deltas and one 0x00 escape at the head of each
    # zero-run; an escape's index drops by the run bytes cut before it.
    keep = ~zero
    keep[run_start] = True
    cut = run_len - 1
    escape = run_start - (np.cumsum(cut) - cut)
    # Each run length as a varint (7 bits a byte, low group first, high
    # bit set on all but the last), inserted right behind its escape.
    width = np.ones(len(run_len), dtype=np.int64)
    rest = run_len >> 7
    while rest.any():
        width += rest > 0
        rest >>= 7
    run, digit = _ranks(width)
    varint = ((run_len[run] >> (7 * digit)) & 0x7F).astype(np.uint8)
    varint[digit < width[run] - 1] |= 0x80
    behind = np.repeat(escape + 1, width)
    return np.insert(delta[keep], behind, varint).tobytes()


def dvarint_saving_bound(raw: bytes) -> int:
    """The most bytes :func:`dvarint_encode` can save on ``raw``.

    A run of zero deltas becomes a ``0x00`` escape plus a varint of at
    least one byte, and every other delta ships as itself, so the
    payload saves at most ``zeros - 2 * runs`` bytes: ``zeros`` counts
    the zero deltas (the first delta is the first byte itself) and
    ``runs`` the maximal runs of them.  The bound is exact when every
    run is shorter than 128, its varint then one byte; at or below zero
    the payload cannot be shorter than ``raw``.
    """
    if not raw:
        return 0
    arr = np.frombuffer(raw, dtype=np.uint8)
    zero = np.empty(len(arr), dtype=np.bool_)
    zero[0] = arr[0] == 0
    np.equal(arr[1:], arr[:-1], out=zero[1:])
    runs = int(zero[0]) + int(np.count_nonzero(zero[1:] > zero[:-1]))
    return int(np.count_nonzero(zero)) - 2 * runs


def dvarint_decode(payload: bytes, raw_len: int) -> bytes:
    """Invert :func:`dvarint_encode` into exactly ``raw_len`` bytes."""
    out = bytearray()
    i, n = 0, len(payload)
    while i < n:
        byte = payload[i]
        i += 1
        if byte:
            # Literals cannot outgrow the payload already in memory; the
            # final length check catches any excess.
            out.append(byte)
            continue
        run, i = _read_varint(payload, i)
        # Checked before the zeros exist: a crafted run length must not
        # allocate past the declared size.
        if len(out) + run > raw_len:
            raise MediaCodecError(
                f"dvarint stream expands past declared length {raw_len}"
            )
        out += bytes(run)
    if len(out) != raw_len:
        raise MediaCodecError(
            f"dvarint stream yields {len(out)} bytes, header says {raw_len}"
        )
    return _undelta(np.frombuffer(bytes(out), dtype=np.uint8))


# ----------------------------------------------------------------------
# deflate + stored
# ----------------------------------------------------------------------


def deflate_encode(raw: bytes) -> bytes:
    """zlib-compress text/metadata bytes."""
    return zlib.compress(raw, 6)


def deflate_decode(payload: bytes, raw_len: int) -> bytes:
    """zlib-decompress, rejecting corrupt, unfinished or wrong-length streams.

    Inflates at most ``raw_len + 1`` bytes, so a stream that expands
    past its declared length is caught without materializing it.
    Bytes after the end of the stream are ignored.
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, raw_len + 1)
    except zlib.error as exc:
        raise MediaCodecError(f"deflate payload corrupt: {exc}") from None
    if len(raw) > raw_len:
        raise MediaCodecError(
            f"deflate stream expands past declared length {raw_len}"
        )
    if not inflater.eof:
        raise MediaCodecError("deflate stream truncated")
    if len(raw) != raw_len:
        raise MediaCodecError(
            f"deflate stream yields {len(raw)} bytes, header says {raw_len}"
        )
    return raw


def stored_encode(raw: bytes) -> bytes:
    """Identity."""
    return raw


def stored_decode(payload: bytes, raw_len: int) -> bytes:
    """Identity, length-checked against the frame header."""
    if len(payload) != raw_len:
        raise MediaCodecError(
            f"stored payload is {len(payload)} bytes, header says {raw_len}"
        )
    return payload


ENCODERS = {
    STORED: stored_encode,
    RLE8: rle8_encode,
    DVARINT: dvarint_encode,
    DEFLATE: deflate_encode,
}

DECODERS = {
    STORED: stored_decode,
    RLE8: rle8_decode,
    DVARINT: dvarint_decode,
    DEFLATE: deflate_decode,
}

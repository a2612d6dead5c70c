"""Property-based invariants of the compression codecs and frame.

Over randomized rasters, waveforms and text:

* every codec round-trips identically through its frame;
* the ``stored`` fallback bounds frame size at raw + header overhead,
  for *any* input;
* the frame CRC rejects every single-byte corruption;
* the numpy ``rle8`` and ``dvarint`` code agrees with the loop codecs it
  replaced (``tests/codec_reference.py``): the encoders emit the same
  bytes, and the decoder returns the same bytes or fails with the same
  error, malformed payloads included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import (
    HEADER_SIZE,
    decode_frame,
    encode_piece,
    is_framed,
    maybe_decode,
)
from repro.compress.codecs import (
    DECODERS,
    ENCODERS,
    DEFLATE,
    DVARINT,
    RLE8,
    dvarint_encode,
    rle8_decode,
    rle8_encode,
)
from repro.errors import MediaCodecError
from tests import codec_reference as reference

# Raw payload strategies shaped like the three media families.

rasters = st.builds(
    lambda seed, w, h: (
        np.random.default_rng(seed)
        .integers(0, 256, (h, w), dtype=np.uint8)
        .tobytes()
    ),
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
    st.integers(1, 64),
)

smooth_rasters = st.builds(
    lambda w, h, a, b: (
        ((np.arange(w)[None, :] * a + np.arange(h)[:, None] * b) % 256)
        .astype(np.uint8)
        .tobytes()
    ),
    st.integers(1, 64),
    st.integers(1, 64),
    st.integers(0, 7),
    st.integers(0, 7),
)

waveforms = st.builds(
    lambda seed, n, quiet: (
        np.clip(
            128
            + np.cumsum(
                np.random.default_rng(seed).integers(-3, 4, n)
                * (np.random.default_rng(seed + 1).random(n) > quiet)
            ),
            0,
            255,
        )
        .astype(np.uint8)
        .tobytes()
    ),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4000),
    st.floats(0.0, 0.95),
)

texts = st.text(max_size=2000).map(lambda s: s.encode("utf-8"))

arbitrary = st.binary(max_size=4096)

payloads = st.one_of(rasters, smooth_rasters, waveforms, texts, arbitrary)


@settings(max_examples=120, deadline=None)
@given(payloads, st.sampled_from(["image", "voice", "text", "meta"]))
def test_frame_round_trip_identity(raw, kind):
    frame, _ = encode_piece(raw, kind)
    decoded, _ = decode_frame(frame)
    assert decoded == raw
    assert maybe_decode(frame) == raw


@settings(max_examples=120, deadline=None)
@given(payloads, st.sampled_from([RLE8, DVARINT, DEFLATE]))
def test_codec_round_trip_identity(raw, codec_id):
    packed = ENCODERS[codec_id](raw)
    assert DECODERS[codec_id](packed, len(raw)) == raw


@settings(max_examples=150, deadline=None)
@given(payloads, st.sampled_from(["image", "voice", "text"]))
def test_stored_fallback_bounds_frame_size(raw, kind):
    frame, codec = encode_piece(raw, kind)
    assert len(frame) <= len(raw) + HEADER_SIZE
    if codec != "stored":
        assert len(frame) < len(raw) + HEADER_SIZE


@settings(max_examples=120, deadline=None)
@given(
    payloads,
    st.sampled_from(["image", "voice", "text"]),
    st.data(),
)
def test_crc_rejects_single_byte_corruption(raw, kind, data):
    frame, _ = encode_piece(raw, kind)
    index = data.draw(st.integers(0, len(frame) - 1))
    flip = data.draw(st.integers(1, 255))
    corrupt = bytearray(frame)
    corrupt[index] ^= flip
    corrupt = bytes(corrupt)
    if is_framed(corrupt):
        with pytest.raises(MediaCodecError):
            decode_frame(corrupt)
    else:
        # The corruption hit the magic: strict decode still rejects it
        # (bad magic), and the lenient path sees a non-frame.
        with pytest.raises(MediaCodecError):
            decode_frame(corrupt)
        assert maybe_decode(corrupt) == corrupt


# ----------------------------------------------------------------------
# differential: the numpy codecs against the loop reference
# ----------------------------------------------------------------------

# Stretches of equal raw bytes: their delta streams hold zero-runs of
# every length up to 299, across the 128-byte chunk edges.
runny = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 300)), max_size=30
).map(lambda spans: b"".join(bytes([value]) * count for value, count in spans))

codec_inputs = st.one_of(rasters, smooth_rasters, waveforms, runny, arbitrary)


def _raw(*parts) -> bytes:
    """Raw bytes whose delta stream is ``parts`` laid end to end."""
    delta = np.concatenate([np.asarray(part, dtype=np.uint8) for part in parts])
    return np.cumsum(delta, dtype=np.uint8).tobytes()


def _run(count: int, value: int = 0) -> np.ndarray:
    return np.full(count, value, dtype=np.uint8)


def _literal(count: int) -> np.ndarray:
    """Nonzero deltas, no two neighbours equal: a PackBits literal."""
    return np.resize(np.array([1, 2], dtype=np.uint8), count)


EDGE_CASES = {
    "empty": b"",
    "one-byte": b"\x9c",
    "one-zero": b"\x00",
    **{f"run-{n}": _raw(_run(n)) for n in (127, 128, 129, 130)},
    **{
        f"literal-run-{n}-literal": _raw(_literal(3), _run(n, 7), _literal(3))
        for n in (2, 3, 127, 128, 129, 130)
    },
    **{
        f"zero-run-{n}": _raw(_literal(2), _run(n), _literal(2))
        for n in (127, 128, 16383, 16384)
    },
    **{f"literal-{n}": _raw(_literal(n)) for n in (128, 129, 256, 257)},
    **{
        f"run-{n}-tail-then-literal": _raw(_run(n, 9), _literal(5))
        for n in (257, 258, 385, 386)
    },
    **{f"run-{n}-tail-at-end": _raw(_literal(4), _run(n, 4)) for n in (129, 130)},
}


def _outcome(decoder, payload: bytes, raw_len: int):
    try:
        return "ok", decoder(payload, raw_len)
    except MediaCodecError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("raw", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_codecs_match_reference_on_edge_cases(raw):
    packed = reference.rle8_encode(raw)
    assert rle8_encode(raw) == packed
    assert rle8_decode(packed, len(raw)) == reference.rle8_decode(
        packed, len(raw)
    )
    assert dvarint_encode(raw) == reference.dvarint_encode(raw)


@settings(max_examples=200, deadline=None)
@given(codec_inputs)
def test_rle8_encode_matches_reference(raw):
    assert rle8_encode(raw) == reference.rle8_encode(raw)


@settings(max_examples=200, deadline=None)
@given(codec_inputs)
def test_dvarint_encode_matches_reference(raw):
    assert dvarint_encode(raw) == reference.dvarint_encode(raw)


@settings(max_examples=300, deadline=None)
@given(codec_inputs, st.data())
def test_rle8_decode_matches_reference(raw, data):
    """Same bytes from a sound stream, the same error from a damaged one."""
    packed = reference.rle8_encode(raw)
    cut = data.draw(st.integers(0, len(packed)))
    damage = data.draw(
        st.sampled_from(["truncate", "no-op", "overwrite", "none"])
    )
    if damage == "truncate":
        packed = packed[:cut]
    elif damage == "no-op":
        packed = packed[:cut] + b"\x80" + packed[cut:]
    elif damage == "overwrite" and packed:
        index = min(cut, len(packed) - 1)
        value = data.draw(st.integers(0, 255))
        packed = packed[:index] + bytes([value]) + packed[index + 1 :]
    raw_len = data.draw(
        st.just(len(raw))
        | st.sampled_from([len(raw) + 1, max(len(raw) - 1, 0)])
        | st.integers(0, 2 * len(raw) + 2)
    )
    assert _outcome(rle8_decode, packed, raw_len) == _outcome(
        reference.rle8_decode, packed, raw_len
    )


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64), st.integers(0, 300))
def test_rle8_decode_of_arbitrary_bytes_matches_reference(payload, raw_len):
    assert _outcome(rle8_decode, payload, raw_len) == _outcome(
        reference.rle8_decode, payload, raw_len
    )

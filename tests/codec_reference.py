"""Reference codecs: the Python loops the numpy codecs replaced.

:mod:`repro.compress.codecs` builds ``rle8`` streams, decodes them and
builds ``dvarint`` streams with array code.  The functions here are the
per-run and per-control loops that code replaced, kept verbatim as the
oracle for the differential tests in ``tests/test_property_compress.py``:
the numpy encoders must emit these exact bytes, and the numpy decoder
must return the same bytes and raise :class:`MediaCodecError` on the
same malformed payloads.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MediaCodecError


def _delta(raw: bytes) -> np.ndarray:
    arr = np.frombuffer(raw, dtype=np.uint8)
    delta = arr.copy()
    delta[1:] -= arr[:-1]  # uint8 arithmetic wraps mod 256
    return delta


def _undelta(delta: np.ndarray) -> bytes:
    return np.cumsum(delta, dtype=np.uint8).tobytes()


def rle8_encode(raw: bytes) -> bytes:
    """Delta the bytes, then PackBits the delta stream."""
    if not raw:
        return b""
    data = _delta(raw)
    n = len(data)
    boundaries = np.flatnonzero(data[1:] != data[:-1]) + 1
    starts = np.concatenate(([0], boundaries)).tolist()
    ends = np.concatenate((boundaries, [n])).tolist()
    out = bytearray()
    literal_start: int | None = None

    def flush_literal(lo: int, hi: int) -> None:
        pos = lo
        while pos < hi:
            chunk = min(128, hi - pos)
            out.append(chunk - 1)
            out.extend(data[pos : pos + chunk].tobytes())
            pos += chunk

    for start, end in zip(starts, ends):
        run = end - start
        if run >= 3:
            if literal_start is not None:
                flush_literal(literal_start, start)
                literal_start = None
            value = int(data[start])
            while run > 0:
                chunk = min(128, run)
                if chunk >= 3:
                    out.append(257 - chunk)
                    out.append(value)
                else:
                    out.append(chunk - 1)
                    out += bytes([value]) * chunk
                run -= chunk
        elif literal_start is None:
            literal_start = start
    if literal_start is not None:
        flush_literal(literal_start, n)
    return bytes(out)


def rle8_decode(payload: bytes, raw_len: int) -> bytes:
    """Invert :func:`rle8_encode` into exactly ``raw_len`` bytes."""
    out = bytearray()
    i, n = 0, len(payload)
    while i < n:
        control = payload[i]
        i += 1
        if control < 128:
            count = control + 1
            if i + count > n:
                raise MediaCodecError("rle8 literal truncated")
            out += payload[i : i + count]
            i += count
        elif control == 128:  # no-op byte, per PackBits convention
            continue
        else:
            if i >= n:
                raise MediaCodecError("rle8 run truncated")
            out += bytes([payload[i]]) * (257 - control)
            i += 1
        if len(out) > raw_len:
            raise MediaCodecError(
                f"rle8 stream expands past declared length {raw_len}"
            )
    if len(out) != raw_len:
        raise MediaCodecError(
            f"rle8 stream yields {len(out)} bytes, header says {raw_len}"
        )
    return _undelta(np.frombuffer(bytes(out), dtype=np.uint8))


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        low = value & 0x7F
        value >>= 7
        if value:
            out.append(low | 0x80)
        else:
            out.append(low)
            return bytes(out)


def dvarint_encode(raw: bytes) -> bytes:
    """Delta the bytes; zero-runs become ``0x00`` + varint length."""
    if not raw:
        return b""
    delta = _delta(raw)
    zero = delta == 0
    boundaries = np.flatnonzero(zero[1:] != zero[:-1]) + 1
    starts = np.concatenate(([0], boundaries)).tolist()
    ends = np.concatenate((boundaries, [len(delta)])).tolist()
    out = bytearray()
    for start, end in zip(starts, ends):
        if zero[start]:
            out.append(0)
            out += _varint(end - start)
        else:
            out += delta[start:end].tobytes()
    return bytes(out)

"""Golden frames: the stored format of real pieces must not drift.

Stored lengths feed extent sizes, so the modeled device time of every
open (and every ``modeled_p95_s``) rests on the exact bytes the codecs
emit.  The digests below were taken from the loop codecs, before they
were vectorized; a codec change that alters a single byte of any frame
fails here, naming the piece.

Every voice piece rides the ``stored`` fallback, so its frame does not
show the ``dvarint`` stream; the discarded ``dvarint`` payloads are
pinned separately.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.formatter.builder as builder
from repro.compress import encode_piece
from repro.compress.codecs import DVARINT, codec_for_kind, dvarint_encode
from repro.scenarios.city import build_city_walk_simulation
from repro.scenarios.library import build_object_library
from repro.server.archiver import Archiver

#: (kind, codec, raw length, frame length, blake2b-128 of the frame) of
#: every frame ``encode_piece`` makes for the library, then the walk.
GOLDEN_FRAMES = [
    ("text", "deflate", 1461, 565, "44397646e13ffe37a2405ec8777ecdb6"),
    ("image", "rle8", 36864, 1165, "3ce27669f8f683433a568dca0c85c840"),
    ("text", "deflate", 1411, 556, "ea29b433fb22ec134335d01f5d9c9956"),
    ("image", "rle8", 36864, 1165, "e16b1344cce449829166d643d3b8382f"),
    ("text", "deflate", 1404, 549, "4320f8e4b80eab099b27ebb60376db35"),
    ("image", "rle8", 36864, 1165, "7f449a0fe0eaeaf93771c35c6a382110"),
    ("text", "deflate", 1496, 589, "8c5c6b9b507cef0162353350410fc18a"),
    ("image", "rle8", 36864, 1165, "bfd4f1039fffe6693b8ff9d8b30403ad"),
    ("text", "deflate", 1316, 528, "1e12626ae4d567a2dbe645edc95f90e9"),
    ("image", "rle8", 36864, 1165, "56e9e5984d671387bd85fbee8d7132b3"),
    ("text", "deflate", 1487, 574, "9639da775f2a89da6328dbf00ffe29ce"),
    ("image", "rle8", 36864, 1165, "5d95a7c5fa287da107e52bfc3c5d5964"),
    ("text", "deflate", 1302, 531, "1e8ea9fab8c263e5da4490b77e9f5924"),
    ("image", "rle8", 36864, 1165, "d728f09ffd64f2446dc310c56afd9571"),
    ("text", "deflate", 1485, 572, "05174ca32a70577b08cab30587410593"),
    ("image", "rle8", 36864, 1165, "fc9dd816c43e842b46306b761fd84da6"),
    ("text", "deflate", 1413, 550, "27339f8c3f8e39d9c880b86bc450ec2c"),
    ("image", "rle8", 36864, 1165, "868afdf1e61ebccbbf66186d0ac5029e"),
    ("text", "deflate", 1413, 557, "8e00336420b86ecdaeb747acbf5183d4"),
    ("image", "rle8", 36864, 1165, "f6cc54edc92e5f181f681c9c4503d615"),
    ("text", "deflate", 1486, 556, "76131bd73233af73a3460a4413c47d94"),
    ("image", "rle8", 36864, 1165, "18e6600059c768721cebd7f6a4306f72"),
    ("text", "deflate", 1491, 573, "0b400b545ee457fee441bf67ce1443ed"),
    ("image", "rle8", 36864, 1165, "c42f830c2e1a1f41a4e4241f3893e9da"),
    ("text", "deflate", 1448, 543, "2910d4cf8138629a5e3d88d5203af979"),
    ("image", "rle8", 36864, 1165, "0215eb410ee63b8b9837b4fd3585cfee"),
    ("text", "deflate", 1599, 593, "e82ae8d78ad68051cf7b48ef5d1b83b3"),
    ("image", "rle8", 36864, 1165, "af1cdd1ad46c94391370ca99c6cdd286"),
    ("text", "deflate", 1442, 564, "8f74865383169978f04065e435d19f84"),
    ("image", "rle8", 36864, 1165, "9fd010bc95a5876f6829f6ff140d11e4"),
    ("text", "deflate", 1368, 547, "0083f6418ceab907da4a9b1f17cd8bbc"),
    ("image", "rle8", 36864, 1165, "2a75b17c5f2a5a0065957647c78ffe3f"),
    ("text", "deflate", 1347, 547, "52eec7d13d7863066225159307a370b3"),
    ("image", "rle8", 36864, 1165, "72695f2263738bf3c71cedae5889f281"),
    ("text", "deflate", 1528, 578, "9e12c9c561f19f6a93f4756a9702f480"),
    ("image", "rle8", 36864, 1165, "c8874b1cdfce98a784ad20c2fe385352"),
    ("text", "deflate", 1586, 597, "a64b51ac71b2e1d6bd79b5d97f950dc9"),
    ("image", "rle8", 36864, 1165, "4acf69cc1943f632a21684ff60cb0b2a"),
    ("text", "deflate", 1344, 533, "00c7a8e22245997bf265157d95b9fe6b"),
    ("image", "rle8", 36864, 1165, "c6dd355b31171ca3155035457e7f3c26"),
    ("text", "deflate", 1469, 581, "33cd4638faa3c5c44e34ba32b57a843b"),
    ("image", "rle8", 36864, 1165, "6aad4db19393a0bed23870d21b33112b"),
    ("text", "deflate", 1439, 566, "7b05716ced38414b4e3e7261e3e42201"),
    ("image", "rle8", 36864, 1165, "ea641ab9d199b9c848422e2561cd7403"),
    ("text", "deflate", 1420, 571, "fd1bfd73fbde572dc2bc1bf4b32b21bd"),
    ("image", "rle8", 36864, 1165, "05b925ee9118c3eb350a8d0885629a10"),
    ("text", "deflate", 1464, 567, "f5bbb249d14c125c0b239377a1822130"),
    ("image", "rle8", 36864, 1165, "39e6c1d91eb2ae68fb86ddd3307ef761"),
    ("voice", "stored", 199481, 199494, "855d269e65d0a7dff1a37ce0bd84fc7f"),
    ("voice", "stored", 195602, 195615, "c86fbd8909e714e40dccb62456ae17cc"),
    ("voice", "stored", 184720, 184733, "25e0d55186fa644e174d0892c7daa38f"),
    ("voice", "stored", 175725, 175738, "2f12c265fb51b508d9bb896a110861fb"),
    ("voice", "stored", 169325, 169338, "47bc89a4f61ac374e16bfb0d8a5d0d28"),
    ("voice", "stored", 187166, 187179, "2b5797ade3b9efd6ea7769ce28dbc93d"),
    ("voice", "stored", 186751, 186764, "7452ed0e09fbec3bb1627219d2404764"),
    ("voice", "stored", 192214, 192227, "851b58dbeddbbbecd5c711539271cd67"),
    ("voice", "stored", 222691, 222704, "71f1854a7f9e2f1c5f2401bda0adc053"),
    ("voice", "stored", 193328, 193341, "0cf126142ac1ece1cea44c57bc14703b"),
    ("voice", "stored", 177003, 177016, "71b80407787e7785ee13ee77dbdfc126"),
    ("voice", "stored", 185279, 185292, "be76ab1c07d2213252e26680ca73e9b7"),
    ("image", "rle8", 307200, 76813, "463ad42915837872cbeade9322fd2518"),
    ("message_voice", "stored", 29654, 29667, "f4f7f058e8ccdc2638de732ddb985f5b"),
    ("message_voice", "stored", 22301, 22314, "54922f45d6fada1923ce5816a726c48c"),
    ("message_voice", "stored", 28979, 28992, "6a98f0fcc542467b648168ccad238ae7"),
    ("message_voice", "stored", 28672, 28685, "d786c7c47908184af40e23637399745d"),
    ("message_voice", "stored", 25162, 25175, "9ba991019c626511e807d32678b5fa9b"),
]

#: (raw length, payload length, blake2b-128 of the payload) of the
#: ``dvarint`` payload of every voice piece, in the same order.
GOLDEN_DVARINT = [
    (199481, 204152, "700bca1fc2e069b9b2691f88bf71a3b7"),
    (195602, 200301, "c0d3a99e2b12aeb84a93522da2256b26"),
    (184720, 189163, "5d8226b1369c7f340367144da2ec1ae7"),
    (175725, 179992, "2e967e06b1cf0ebcad33fade412a93b8"),
    (169325, 173306, "b0b29f31251afc0d1c5f63d9c6b3003a"),
    (187166, 191650, "8c7bf239dd4ba8cb50303c1931956395"),
    (186751, 191304, "775cc147fb6471d460e8be3747b362bd"),
    (192214, 196763, "a6b4c8d46e444442bd6a201b9343fa47"),
    (222691, 227969, "73854646e59f978a552ba07eaf38a82b"),
    (193328, 197971, "8eaa47bf1bf17036e7e1869c8fb79e52"),
    (177003, 181125, "0faa2da775eec797937f72f024f808eb"),
    (185279, 189803, "a68fbbc80e23d6fc4b1419c4f3c8fcfc"),
    (29654, 30325, "08c1e5f5eba19dd88fb744a4aee02794"),
    (22301, 22844, "e126f21f25dfaeb0a128ec9bcad9feac"),
    (28979, 29649, "b770ec1a38cad8838d787452f3b0d4b1"),
    (28672, 29416, "ab83c066425a69a4d8bfb09af6463d27"),
    (25162, 25749, "e6eba54ef75d00b17603655e07f9eda4"),
]


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def formed():
    """Frames and dvarint payloads of the library and one city walk."""
    frames, payloads = [], []

    def recording(data, kind):
        frame, codec = encode_piece(data, kind)
        kind = str(getattr(kind, "value", kind))
        frames.append((kind, codec, len(data), len(frame), _digest(frame)))
        if codec_for_kind(kind) == DVARINT:
            payload = dvarint_encode(data)
            payloads.append((len(data), len(payload), _digest(payload)))
        return frame, codec

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "encode_piece", recording)
        build_object_library(Archiver(), visual_count=24, audio_count=12, seed=0)
        Archiver().store(build_city_walk_simulation())
    return frames, payloads


def test_frames_match_golden(formed):
    frames, _ = formed
    assert len(frames) == len(GOLDEN_FRAMES)
    for index, (got, want) in enumerate(zip(frames, GOLDEN_FRAMES)):
        assert got == want, f"frame {index} drifted"


def test_dvarint_payloads_match_golden(formed):
    _, payloads = formed
    assert len(payloads) == len(GOLDEN_DVARINT)
    for index, (got, want) in enumerate(zip(payloads, GOLDEN_DVARINT)):
        assert got == want, f"dvarint payload {index} drifted"

"""Seeded input helpers shared by the workloads."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.audio.codec import mu_law_encode


#: Seed of the object libraries.  Libraries do not vary with the workload
#: seed: the seed draws the operations run against them, so runs with
#: different seeds measure the same workload on different op sequences.
LIBRARY_SEED = 0


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Zipf popularity over ``n`` items, ranks assigned by a fixed shuffle.

    Like the library, the ranks do not depend on the workload seed.
    """
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    weights = weights[np.random.default_rng(0).permutation(n)]
    return weights / weights.sum()


def _voice_codes(recording) -> bytes:
    """The mu-law codes of a recording, without expanding a lazy one.

    A lazily shipped segment still holds its companded bytes; expanding
    and re-companding it would cost far more than the check it serves.
    """
    if not recording.is_materialized:
        return recording._encoded
    return mu_law_encode(recording.samples)


def object_digest(obj) -> str:
    """Digest of an object's identity and every data piece it carries."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(obj.object_id).encode())
    for segment in obj.text_segments:
        digest.update(b"\0text")
        digest.update(segment.markup.encode("utf-8"))
    for image in obj.images:
        digest.update(b"\0image")
        if image.bitmap is not None:
            digest.update(image.bitmap.pixels.tobytes())
    for segment in obj.voice_segments:
        digest.update(b"\0voice")
        digest.update(_voice_codes(segment.recording))
    for message in obj.voice_messages:
        digest.update(b"\0message")
        digest.update(_voice_codes(message.recording))
    return digest.hexdigest()

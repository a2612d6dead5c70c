"""Archive and mail pipelines.

"Archived or mailed within the organization multimedia objects are
composed of the concatenation of the descriptor file with the
composition file.  In the case that objects are archived the offsets of
the descriptor have to be incremented by the offset where the
composition file is placed within the archiver.  Finally when the
multimedia object is mailed outside the organization the object
descriptor is searched for pointers to information which exists in the
archiver.  If such pointers exist, the relevant data is extracted from
the archiver and appended to the composition [file].  The pointers of
the descriptor which pointed to the archiver are changed to point
within the composition file."
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import FormationError
from repro.index.postings import CHANNELS, TEXT, UNIT_GAP, VOICE
from repro.objects.descriptor import DataSource, Descriptor
from repro.text.search import tokenize

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.index.archive_index import RawPosting
    from repro.objects.model import MultimediaObject

_MAGIC = b"MNOS"
_HEADER = struct.Struct(">4sI")  # magic, descriptor length


@dataclass
class ArchivedObjectBytes:
    """The byte-level archived form: descriptor ‖ composition."""

    data: bytes
    descriptor_length: int


def pack_archived(descriptor: Descriptor, composition: bytes) -> ArchivedObjectBytes:
    """Concatenate descriptor and composition into the archived form."""
    descriptor_bytes = descriptor.to_bytes()
    data = _HEADER.pack(_MAGIC, len(descriptor_bytes)) + descriptor_bytes + composition
    return ArchivedObjectBytes(data=data, descriptor_length=len(descriptor_bytes))


def unpack_archived(data: bytes) -> tuple[Descriptor, bytes]:
    """Split archived bytes back into descriptor and composition.

    Raises
    ------
    FormationError
        If the bytes do not start with a valid archived-object header.
    """
    if len(data) < _HEADER.size:
        raise FormationError("archived object truncated before header")
    magic, descriptor_length = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise FormationError(f"bad archived-object magic {magic!r}")
    body = data[_HEADER.size :]
    if len(body) < descriptor_length:
        raise FormationError("archived object truncated inside descriptor")
    descriptor = Descriptor.from_bytes(body[:descriptor_length])
    return descriptor, body[descriptor_length:]


def mail_outside(
    descriptor: Descriptor,
    composition: bytes,
    archiver_read: Callable[[int, int], bytes],
) -> tuple[Descriptor, bytes]:
    """Make an object self-contained for mailing outside the organization.

    Every ARCHIVER-source data location is resolved by reading the data
    from the archiver, appending it to the composition file, and
    repointing the location at the appended copy.  Objects without
    archiver pointers are returned unchanged.
    """
    if not descriptor.archiver_tags():
        return descriptor, composition

    appended: list[bytes] = []
    cursor = len(composition)
    locations = []
    for location in descriptor.locations:
        if location.source is DataSource.ARCHIVER:
            data = archiver_read(location.offset, location.length)
            if len(data) != location.length:
                raise FormationError(
                    f"archiver returned {len(data)} bytes for {location.tag!r}; "
                    f"expected {location.length}"
                )
            appended.append(data)
            locations.append(
                replace(
                    location,
                    source=DataSource.COMPOSITION,
                    offset=cursor,
                )
            )
            cursor += len(data)
        else:
            locations.append(location)

    mailed_descriptor = Descriptor(
        object_id=descriptor.object_id,
        driving_mode=descriptor.driving_mode,
        locations=locations,
        attributes=dict(descriptor.attributes),
        extra=dict(descriptor.extra),
    )
    return mailed_descriptor, composition + b"".join(appended)


# ----------------------------------------------------------------------
# insertion-time index feed
# ----------------------------------------------------------------------
#
# Archiving an object is the moment its content becomes immutable, so
# it is also the moment its postings for the archive-wide symmetric
# index (repro.index) are extracted — "recognized at the time of voice
# insertion" made concrete.  The two functions below walk the object's
# content *units* (one text segment, one image label, one voice
# segment at a time) through a single shared iterator, so the postings
# the index serves and the token sequences the scan oracle checks are
# definitionally consistent.


def _content_units(
    obj: "MultimediaObject",
) -> Iterator[tuple[str, list[tuple[str, float]]]]:
    """Yield ``(channel, [(term, position), ...])`` per indexing unit.

    Text units carry character offsets; voice units carry utterance
    times in seconds, sorted — the same symmetric position contract as
    :class:`repro.text.search.TextSearchIndex`.
    """
    for segment in obj.text_segments:
        yield TEXT, [
            (term, float(offset))
            for term, offset in tokenize(segment.plain_text)
        ]
    for image in obj.images:
        for graphics in image.labelled_objects():
            yield TEXT, [
                (term, float(offset))
                for term, offset in tokenize(graphics.label.text)
            ]
    for segment in obj.voice_segments:
        yield VOICE, [
            (utterance.term.lower(), float(utterance.time))
            for utterance in sorted(segment.utterances, key=lambda u: u.time)
        ]


def archive_postings(
    obj: "MultimediaObject", channels: tuple[str, ...] = CHANNELS
) -> list["RawPosting"]:
    """Extract the archive-index postings of an object being archived.

    Returns ``(term, channel, position, ordinal)`` tuples.  Ordinals
    number tokens consecutively within each unit and leave a gap
    between units, so consecutive ordinals — the phrase-adjacency test
    — never span a segment or label boundary.
    """
    postings: list["RawPosting"] = []
    cursors = dict.fromkeys(CHANNELS, 0)
    for channel, tokens in _content_units(obj):
        if channel not in channels:
            # Unit gaps advance even for skipped channels so a
            # voice-only re-extraction assigns the same ordinals as the
            # insertion-time full extraction did.
            cursors[channel] += len(tokens) + UNIT_GAP
            continue
        ordinal = cursors[channel]
        for term, position in tokens:
            postings.append((term, channel, position, ordinal))
            ordinal += 1
        cursors[channel] = ordinal + UNIT_GAP
    return postings


def object_token_units(obj: "MultimediaObject") -> dict[str, list[list[str]]]:
    """Token sequences per channel — the scan oracle's view of an object.

    The result feeds :func:`repro.index.matches_units`: queries are
    *defined* by what these sequences answer, and the index is held to
    exactly that.
    """
    units: dict[str, list[list[str]]] = {channel: [] for channel in CHANNELS}
    for channel, tokens in _content_units(obj):
        units[channel].append([term for term, _ in tokens])
    return units

"""The object formatter: objects to descriptor + composition, and back.

"The object formation process starts when the user creates the
synthesis file...  In parallel the composition file is also created by
concatenating the information in the synthesis file with the data of
those data files which have been referred to by a tag in the synthesis
file.  The object descriptor is updated automatically to indicate the
location in the physical object where the data of the composition file
is displayed.  In the case that a data tag in the synthesis file refers
to data which exist in the archiver, the object descriptor is updated
with a pointer to the location within the archiver...  Thus the object
descriptor points either to offsets within the composition file or to
offsets within the archiver."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.compress import PieceStats, encode_piece, maybe_decode
from repro.errors import FormationError
from repro.formatter import serialize
from repro.formatter.composition import (
    BlobRegistry,
    CompositionFile,
    composition_reader,
)
from repro.ids import SegmentId
from repro.objects.attributes import AttributeSet
from repro.objects.descriptor import DataLocation, DataSource, Descriptor
from repro.objects.model import DrivingMode, MultimediaObject, ObjectState
from repro.objects.parts import TextSegment


@dataclass
class FormedObject:
    """Output of formation: a descriptor and its composition file."""

    descriptor: Descriptor
    composition: bytes
    #: Per-piece compression accounting (empty when compression is off).
    pieces: list[PieceStats] = field(default_factory=list)


class ObjectFormatter:
    """Turns an in-memory object into its storable form.

    Parameters
    ----------
    shared_archiver_data:
        Optional mapping ``tag -> (offset, length)`` naming data pieces
        that already exist in the archiver.  Those pieces are *not*
        copied into the composition file; the descriptor records an
        archiver pointer instead ("so that data duplication is
        avoided").
    compression:
        When true (the default), every data piece is wrapped in a
        self-describing compressed frame (:mod:`repro.compress`) before
        it enters the composition file, so everything downstream —
        platter extents, staging cache, shared link, replication —
        moves stored bytes.  Bitmap pieces that back *windowed* reads
        (source images of a representation, addressed row-by-row via
        ``read_piece_rows``) are exempted and stay raw, preserving
        byte-offset addressing.  When false, formation is byte-identical
        to the uncompressed historical format.
    """

    def __init__(
        self,
        shared_archiver_data: dict[str, tuple[int, int]] | None = None,
        *,
        compression: bool = True,
    ) -> None:
        self._shared = dict(shared_archiver_data or {})
        self._compression = compression

    def form(self, obj: MultimediaObject) -> FormedObject:
        """Produce the descriptor and composition file for ``obj``.

        The object must pass :meth:`MultimediaObject.validate`; the
        formatter raises otherwise rather than emit a descriptor with
        dangling references.
        """
        obj.validate()
        registry = BlobRegistry()
        extra: dict = {}

        extra["text_segments"] = []
        for segment in obj.text_segments:
            tag = f"text/{segment.segment_id}"
            registry.add(tag, "text", segment.markup.encode("utf-8"))
            extra["text_segments"].append(
                {"segment_id": segment.segment_id.value, "tag": tag}
            )

        extra["voice_segments"] = [
            serialize.voice_segment_to_dict(segment, registry)
            for segment in obj.voice_segments
        ]
        extra["images"] = [
            serialize.image_to_dict(image, registry) for image in obj.images
        ]
        extra["voice_messages"] = [
            serialize.voice_message_to_dict(message, registry)
            for message in obj.voice_messages
        ]
        extra["visual_messages"] = [
            serialize.visual_message_to_dict(message)
            for message in obj.visual_messages
        ]
        extra["relevant_links"] = [
            serialize.relevant_link_to_dict(link) for link in obj.relevant_links
        ]
        extra["presentation"] = serialize.presentation_spec_to_dict(obj.presentation)

        # Bitmaps backing a representation are read row-by-row through
        # raw byte offsets (read_piece_rows / fetch_window); framing
        # them would break that addressing, so they stay stored raw.
        windowed_tags = {
            f"image/{image.source_image_id}"
            for image in obj.images
            if image.is_representation and image.source_image_id is not None
        }

        composition = CompositionFile()
        locations: list[DataLocation] = []
        pieces: list[PieceStats] = []
        for tag, kind, data in registry.blobs():
            stored = data
            if self._compression and tag not in windowed_tags:
                stored, codec = encode_piece(data, kind)
                pieces.append(
                    PieceStats(
                        tag=tag,
                        kind=str(getattr(kind, "value", kind)),
                        codec=codec,
                        raw_len=len(data),
                        stored_len=len(stored),
                    )
                )
            if tag in self._shared:
                offset, length = self._shared[tag]
                if length != len(stored):
                    raise FormationError(
                        f"shared archiver data {tag!r} has length {length}, "
                        f"but the piece is {len(stored)} bytes"
                    )
                locations.append(
                    DataLocation(
                        tag=tag,
                        kind=kind,
                        source=DataSource.ARCHIVER,
                        offset=offset,
                        length=length,
                    )
                )
            else:
                locations.append(composition.append(tag, kind, stored))

        descriptor = Descriptor(
            object_id=obj.object_id,
            driving_mode=obj.driving_mode.value,
            locations=locations,
            attributes=obj.attributes.as_dict(),
            extra=extra,
        )
        return FormedObject(
            descriptor=descriptor,
            composition=composition.to_bytes(),
            pieces=pieces,
        )


def rebuild_object(
    descriptor: Descriptor,
    composition: bytes,
    archiver_read: Callable[[int, int], bytes] | None = None,
    *,
    decoder: Callable[[bytes], bytes] | None = None,
    recognized: dict | None = None,
) -> MultimediaObject:
    """Reconstruct an archived object from its stored form.

    ``archiver_read(offset, length)`` resolves ARCHIVER-source data
    pointers; it is required whenever the descriptor has any.
    ``decoder`` maps stored piece bytes back to raw media bytes; it
    defaults to :func:`repro.compress.maybe_decode`, which unwraps
    compressed frames and passes raw pieces through untouched.
    ``recognized`` (an archiver's idle-time side table) fills voice
    segments stored without insertion-time utterances.

    Raises
    ------
    FormationError
        If an archiver pointer exists but no reader was supplied.
    """
    decode = decoder if decoder is not None else maybe_decode
    read_composition = composition_reader(
        composition,
        [l for l in descriptor.locations if l.source is DataSource.COMPOSITION],
    )
    by_tag = {loc.tag: loc for loc in descriptor.locations}

    def source(tag: str) -> bytes:
        location = by_tag.get(tag)
        if location is None:
            raise FormationError(f"descriptor has no data tag {tag!r}")
        if location.source is DataSource.COMPOSITION:
            return decode(read_composition(tag))
        if archiver_read is None:
            raise FormationError(
                f"tag {tag!r} points into the archiver but no archiver "
                "reader was supplied"
            )
        return decode(archiver_read(location.offset, location.length))

    extra = descriptor.extra
    obj = MultimediaObject(
        object_id=descriptor.object_id,
        driving_mode=DrivingMode(descriptor.driving_mode),
        attributes=AttributeSet.of(**descriptor.attributes),
    )
    for entry in extra.get("text_segments", []):
        markup = source(entry["tag"]).decode("utf-8")
        obj.add_text_segment(
            TextSegment(segment_id=SegmentId(entry["segment_id"]), markup=markup)
        )
    for payload in extra.get("voice_segments", []):
        segment = serialize.voice_segment_from_dict(payload, source)
        if recognized and not segment.utterances:
            segment.utterances = list(recognized.get(segment.segment_id, ()))
        obj.add_voice_segment(segment)
    for payload in extra.get("images", []):
        obj.add_image(serialize.image_from_dict(payload, source))
    for payload in extra.get("voice_messages", []):
        obj.attach_voice_message(serialize.voice_message_from_dict(payload, source))
    for payload in extra.get("visual_messages", []):
        obj.attach_visual_message(serialize.visual_message_from_dict(payload))
    for payload in extra.get("relevant_links", []):
        obj.add_relevant_link(serialize.relevant_link_from_dict(payload))
    obj.presentation = serialize.presentation_spec_from_dict(
        extra.get("presentation", {})
    )
    obj.validate()
    obj.state = ObjectState.ARCHIVED
    return obj

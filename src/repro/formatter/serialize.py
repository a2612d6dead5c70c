"""JSON codecs for the structural metadata of a multimedia object.

The split follows the paper's storage architecture: *data* (text
markup, voice waveforms, image bitmaps, message recordings) lives as
byte pieces in the composition file, addressed by descriptor data
locations; *structure* (presentation spec, anchors, messages, links,
logical marks, graphics) lives as JSON inside the descriptor.  Binary
payloads are referenced from the JSON by their data tags.

Encoding registers every payload with a :class:`BlobSink`; decoding
resolves tags back to bytes through a :class:`BlobSource`.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

import numpy as np

from repro.audio.codec import mu_law_decode, mu_law_encode
from repro.audio.recognition import RecognizedUtterance
from repro.audio.signal import Recording, TimedWord
from repro.errors import DescriptorError
from repro.ids import ImageId, IndicatorId, MessageId, ObjectId, SegmentId
from repro.images.bitmap import Bitmap
from repro.images.geometry import Circle, Point, PolyLine, Polygon
from repro.images.graphics import GraphicsObject, Label, LabelKind
from repro.images.image import Image
from repro.objects.anchors import (
    Anchor,
    ImageAnchor,
    TextAnchor,
    VoiceAnchor,
    VoicePointAnchor,
)
from repro.objects.logical import LogicalIndex, LogicalUnit, LogicalUnitKind
from repro.objects.messages import VisualMessage, VisualMessageContent, VoiceMessage
from repro.objects.parts import VoiceSegment
from repro.objects.presentation import (
    ImagePage,
    OverwritePage,
    PresentationItem,
    PresentationSpec,
    ProcessSimulation,
    SimStep,
    SimStepKind,
    TextFlow,
    Tour,
    TourStop,
    TransparencyMode,
    TransparencySet,
)
from repro.objects.relationships import Relevance, RelevanceKind, RelevantLink


class BlobSink(Protocol):
    """Receives binary payloads during encoding."""

    def add(self, tag: str, kind: str, data: bytes) -> None:  # pragma: no cover
        ...


BlobSource = Callable[[str], bytes]


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------

def shape_to_dict(shape) -> dict[str, Any]:
    """Encode a shape."""
    if isinstance(shape, Point):
        return {"type": "point", "x": shape.x, "y": shape.y}
    if isinstance(shape, Circle):
        return {
            "type": "circle",
            "cx": shape.center.x,
            "cy": shape.center.y,
            "r": shape.radius,
        }
    if isinstance(shape, Polygon):
        return {"type": "polygon", "points": [[p.x, p.y] for p in shape.points]}
    if isinstance(shape, PolyLine):
        return {"type": "polyline", "points": [[p.x, p.y] for p in shape.points]}
    raise DescriptorError(f"cannot encode shape {type(shape).__name__}")


def shape_from_dict(payload: dict[str, Any]):
    """Decode a shape."""
    kind = payload["type"]
    if kind == "point":
        return Point(payload["x"], payload["y"])
    if kind == "circle":
        return Circle(Point(payload["cx"], payload["cy"]), payload["r"])
    if kind == "polygon":
        return Polygon(Point(x, y) for x, y in payload["points"])
    if kind == "polyline":
        return PolyLine(Point(x, y) for x, y in payload["points"])
    raise DescriptorError(f"unknown shape type {kind!r}")


# ----------------------------------------------------------------------
# recordings
# ----------------------------------------------------------------------

def recording_to_dict(
    recording: Recording, tag: str, sink: BlobSink, blob_kind: str
) -> dict[str, Any]:
    """Encode a recording: waveform to a blob, annotations inline."""
    sink.add(tag, blob_kind, mu_law_encode(recording.samples))
    return {
        "tag": tag,
        "sample_rate": recording.sample_rate,
        "speaker": recording.speaker,
        "words": [[w.word, w.start, w.end] for w in recording.words],
        "sentence_ends": list(recording.sentence_ends),
        "paragraph_ends": list(recording.paragraph_ends),
    }


def recording_from_dict(payload: dict[str, Any], source: BlobSource) -> Recording:
    """Decode a recording from its metadata and blob, lazily.

    The companded bytes are kept as-is and mu-law expansion waits for
    the first :attr:`Recording.samples` access (a playback, a re-store,
    an edit); duration and size come from the byte count.  The blob is
    still *read* through ``source`` now, so storage accounting is
    unchanged; only the decode is deferred.
    """
    return Recording(
        encoded=source(payload["tag"]),
        decoder=mu_law_decode,
        sample_rate=payload["sample_rate"],
        speaker=payload.get("speaker", "unknown"),
        words=[TimedWord(w, s, e) for w, s, e in payload.get("words", [])],
        sentence_ends=list(payload.get("sentence_ends", [])),
        paragraph_ends=list(payload.get("paragraph_ends", [])),
    )


# ----------------------------------------------------------------------
# images
# ----------------------------------------------------------------------

def label_to_dict(
    label: Label, owner_tag: str, sink: BlobSink
) -> dict[str, Any]:
    """Encode a label; a voice label's recording becomes a blob."""
    payload: dict[str, Any] = {
        "kind": label.kind.value,
        "text": label.text,
        "px": label.position.x,
        "py": label.position.y,
    }
    if label.voice is not None:
        payload["voice"] = recording_to_dict(
            label.voice, f"{owner_tag}/voice", sink, "label_voice"
        )
    return payload


def label_from_dict(payload: dict[str, Any], source: BlobSource) -> Label:
    """Decode a label."""
    voice = None
    if "voice" in payload:
        voice = recording_from_dict(payload["voice"], source)
    return Label(
        kind=LabelKind(payload["kind"]),
        text=payload["text"],
        position=Point(payload["px"], payload["py"]),
        voice=voice,
    )


def graphics_to_dict(
    obj: GraphicsObject, owner_tag: str, sink: BlobSink
) -> dict[str, Any]:
    """Encode a graphics object."""
    payload: dict[str, Any] = {
        "name": obj.name,
        "shape": shape_to_dict(obj.shape),
        "intensity": obj.intensity,
        "filled": obj.filled,
    }
    if obj.label is not None:
        payload["label"] = label_to_dict(obj.label, f"{owner_tag}/{obj.name}", sink)
    return payload


def graphics_from_dict(payload: dict[str, Any], source: BlobSource) -> GraphicsObject:
    """Decode a graphics object."""
    label = None
    if "label" in payload:
        label = label_from_dict(payload["label"], source)
    return GraphicsObject(
        name=payload["name"],
        shape=shape_from_dict(payload["shape"]),
        label=label,
        intensity=payload.get("intensity", 255),
        filled=payload.get("filled", False),
    )


def image_to_dict(image: Image, sink: BlobSink) -> dict[str, Any]:
    """Encode an image; the bitmap (if any) becomes a blob."""
    tag = f"image/{image.image_id}"
    payload: dict[str, Any] = {
        "image_id": image.image_id.value,
        "width": image.width,
        "height": image.height,
        "graphics": [graphics_to_dict(g, tag, sink) for g in image.graphics],
        "is_representation": image.is_representation,
        "scale": image.scale,
    }
    if image.source_image_id is not None:
        payload["source_image_id"] = image.source_image_id.value
    if image.bitmap is not None:
        sink.add(tag, "image", image.bitmap.pixels.tobytes())
        payload["bitmap_tag"] = tag
    return payload


def image_from_dict(payload: dict[str, Any], source: BlobSource) -> Image:
    """Decode an image."""
    bitmap = None
    if "bitmap_tag" in payload:
        raw = np.frombuffer(source(payload["bitmap_tag"]), dtype=np.uint8)
        bitmap = Bitmap(raw.reshape(payload["height"], payload["width"]).copy())
    return Image(
        image_id=ImageId(payload["image_id"]),
        width=payload["width"],
        height=payload["height"],
        bitmap=bitmap,
        graphics=[graphics_from_dict(g, source) for g in payload.get("graphics", [])],
        is_representation=payload.get("is_representation", False),
        source_image_id=(
            ImageId(payload["source_image_id"])
            if "source_image_id" in payload
            else None
        ),
        scale=payload.get("scale", 1),
    )


# ----------------------------------------------------------------------
# logical structure
# ----------------------------------------------------------------------

def logical_unit_to_dict(unit: LogicalUnit) -> dict[str, Any]:
    """Encode one logical unit and its subtree."""
    return {
        "kind": unit.kind.value,
        "start": unit.start,
        "end": unit.end,
        "label": unit.label,
        "children": [logical_unit_to_dict(c) for c in unit.children],
    }


def logical_unit_from_dict(payload: dict[str, Any]) -> LogicalUnit:
    """Decode one logical unit and its subtree."""
    return LogicalUnit(
        kind=LogicalUnitKind(payload["kind"]),
        start=payload["start"],
        end=payload["end"],
        label=payload.get("label", ""),
        children=[logical_unit_from_dict(c) for c in payload.get("children", [])],
    )


def logical_index_to_list(index: LogicalIndex) -> list[dict[str, Any]]:
    """Encode a logical index as its root list."""
    return [logical_unit_to_dict(root) for root in index.roots]


def logical_index_from_list(payload: list[dict[str, Any]]) -> LogicalIndex:
    """Decode a logical index."""
    return LogicalIndex([logical_unit_from_dict(root) for root in payload])


# ----------------------------------------------------------------------
# anchors
# ----------------------------------------------------------------------

def anchor_to_dict(anchor: Anchor) -> dict[str, Any]:
    """Encode an anchor."""
    if isinstance(anchor, TextAnchor):
        return {
            "type": "text",
            "segment_id": anchor.segment_id.value,
            "start": anchor.start,
            "end": anchor.end,
        }
    if isinstance(anchor, ImageAnchor):
        return {"type": "image", "image_id": anchor.image_id.value}
    if isinstance(anchor, VoiceAnchor):
        return {
            "type": "voice",
            "segment_id": anchor.segment_id.value,
            "start": anchor.start,
            "end": anchor.end,
        }
    if isinstance(anchor, VoicePointAnchor):
        return {
            "type": "voice_point",
            "segment_id": anchor.segment_id.value,
            "time": anchor.time,
        }
    raise DescriptorError(f"cannot encode anchor {type(anchor).__name__}")


def anchor_from_dict(payload: dict[str, Any]) -> Anchor:
    """Decode an anchor."""
    kind = payload["type"]
    if kind == "text":
        return TextAnchor(
            SegmentId(payload["segment_id"]), payload["start"], payload["end"]
        )
    if kind == "image":
        return ImageAnchor(ImageId(payload["image_id"]))
    if kind == "voice":
        return VoiceAnchor(
            SegmentId(payload["segment_id"]), payload["start"], payload["end"]
        )
    if kind == "voice_point":
        return VoicePointAnchor(SegmentId(payload["segment_id"]), payload["time"])
    raise DescriptorError(f"unknown anchor type {kind!r}")


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------

def voice_message_to_dict(message: VoiceMessage, sink: BlobSink) -> dict[str, Any]:
    """Encode a voice logical message."""
    return {
        "message_id": message.message_id.value,
        "recording": recording_to_dict(
            message.recording, f"msg/{message.message_id}", sink, "message_voice"
        ),
        "anchors": [anchor_to_dict(a) for a in message.anchors],
    }


def voice_message_from_dict(
    payload: dict[str, Any], source: BlobSource
) -> VoiceMessage:
    """Decode a voice logical message."""
    return VoiceMessage(
        message_id=MessageId(payload["message_id"]),
        recording=recording_from_dict(payload["recording"], source),
        anchors=[anchor_from_dict(a) for a in payload["anchors"]],
    )


def visual_message_to_dict(message: VisualMessage) -> dict[str, Any]:
    """Encode a visual logical message (its images live in the image part)."""
    return {
        "message_id": message.message_id.value,
        "text": message.content.text,
        "image_ids": [i.value for i in message.content.image_ids],
        "anchors": [anchor_to_dict(a) for a in message.anchors],
        "display_once": message.display_once,
    }


def visual_message_from_dict(payload: dict[str, Any]) -> VisualMessage:
    """Decode a visual logical message."""
    return VisualMessage(
        message_id=MessageId(payload["message_id"]),
        content=VisualMessageContent(
            text=payload.get("text", ""),
            image_ids=[ImageId(i) for i in payload.get("image_ids", [])],
        ),
        anchors=[anchor_from_dict(a) for a in payload["anchors"]],
        display_once=payload.get("display_once", False),
    )


# ----------------------------------------------------------------------
# relationships
# ----------------------------------------------------------------------

def relevance_to_dict(relevance: Relevance) -> dict[str, Any]:
    """Encode a relevance."""
    payload: dict[str, Any] = {"kind": relevance.kind.value}
    if relevance.segment_id is not None:
        payload["segment_id"] = relevance.segment_id.value
    if relevance.kind is RelevanceKind.TEXT:
        payload["text_start"] = relevance.text_start
        payload["text_end"] = relevance.text_end
    elif relevance.kind is RelevanceKind.IMAGE:
        payload["image_id"] = relevance.image_id.value
        payload["region"] = shape_to_dict(relevance.region)
    elif relevance.kind is RelevanceKind.VOICE:
        payload["voice_start"] = relevance.voice_start
        payload["voice_end"] = relevance.voice_end
    return payload


def relevance_from_dict(payload: dict[str, Any]) -> Relevance:
    """Decode a relevance."""
    kind = RelevanceKind(payload["kind"])
    return Relevance(
        kind=kind,
        segment_id=(
            SegmentId(payload["segment_id"]) if "segment_id" in payload else None
        ),
        text_start=payload.get("text_start", 0),
        text_end=payload.get("text_end", 0),
        image_id=ImageId(payload["image_id"]) if "image_id" in payload else None,
        region=shape_from_dict(payload["region"]) if "region" in payload else None,
        voice_start=payload.get("voice_start", 0.0),
        voice_end=payload.get("voice_end", 0.0),
    )


def relevant_link_to_dict(link: RelevantLink) -> dict[str, Any]:
    """Encode a relevant-object link."""
    payload: dict[str, Any] = {
        "indicator_id": link.indicator_id.value,
        "label": link.label,
        "target_object_id": link.target_object_id.value,
        "relevances": [relevance_to_dict(r) for r in link.relevances],
    }
    if link.parent_anchor is not None:
        payload["parent_anchor"] = anchor_to_dict(link.parent_anchor)
    return payload


def relevant_link_from_dict(payload: dict[str, Any]) -> RelevantLink:
    """Decode a relevant-object link."""
    return RelevantLink(
        indicator_id=IndicatorId(payload["indicator_id"]),
        label=payload["label"],
        target_object_id=ObjectId(payload["target_object_id"]),
        parent_anchor=(
            anchor_from_dict(payload["parent_anchor"])
            if "parent_anchor" in payload
            else None
        ),
        relevances=[relevance_from_dict(r) for r in payload.get("relevances", [])],
    )


# ----------------------------------------------------------------------
# presentation spec
# ----------------------------------------------------------------------

def presentation_item_to_dict(item: PresentationItem) -> dict[str, Any]:
    """Encode one presentation item."""
    if isinstance(item, TextFlow):
        return {"type": "text_flow", "segment_id": item.segment_id.value}
    if isinstance(item, ImagePage):
        return {"type": "image_page", "image_id": item.image_id.value}
    if isinstance(item, TransparencySet):
        return {
            "type": "transparency_set",
            "members": [m.value for m in item.members],
            "mode": item.mode.value,
        }
    if isinstance(item, OverwritePage):
        return {"type": "overwrite", "image_id": item.image_id.value}
    if isinstance(item, ProcessSimulation):
        return {
            "type": "process_simulation",
            "interval_s": item.interval_s,
            "steps": [
                {
                    "image_id": s.image_id.value,
                    "kind": s.kind.value,
                    "message_id": s.message_id.value if s.message_id else None,
                }
                for s in item.steps
            ],
        }
    if isinstance(item, Tour):
        return {
            "type": "tour",
            "image_id": item.image_id.value,
            "window_width": item.window_width,
            "window_height": item.window_height,
            "dwell_s": item.dwell_s,
            "stops": [
                {
                    "x": s.x,
                    "y": s.y,
                    "message_id": s.message_id.value if s.message_id else None,
                }
                for s in item.stops
            ],
        }
    raise DescriptorError(f"cannot encode presentation item {type(item).__name__}")


def presentation_item_from_dict(payload: dict[str, Any]) -> PresentationItem:
    """Decode one presentation item."""
    kind = payload["type"]
    if kind == "text_flow":
        return TextFlow(SegmentId(payload["segment_id"]))
    if kind == "image_page":
        return ImagePage(ImageId(payload["image_id"]))
    if kind == "transparency_set":
        return TransparencySet(
            [ImageId(m) for m in payload["members"]],
            TransparencyMode(payload["mode"]),
        )
    if kind == "overwrite":
        return OverwritePage(ImageId(payload["image_id"]))
    if kind == "process_simulation":
        return ProcessSimulation(
            [
                SimStep(
                    ImageId(s["image_id"]),
                    SimStepKind(s["kind"]),
                    MessageId(s["message_id"]) if s.get("message_id") else None,
                )
                for s in payload["steps"]
            ],
            interval_s=payload["interval_s"],
        )
    if kind == "tour":
        return Tour(
            ImageId(payload["image_id"]),
            payload["window_width"],
            payload["window_height"],
            [
                TourStop(
                    s["x"],
                    s["y"],
                    MessageId(s["message_id"]) if s.get("message_id") else None,
                )
                for s in payload["stops"]
            ],
            dwell_s=payload.get("dwell_s", 2.0),
        )
    raise DescriptorError(f"unknown presentation item type {kind!r}")


def presentation_spec_to_dict(spec: PresentationSpec) -> dict[str, Any]:
    """Encode a presentation specification."""
    return {
        "items": [presentation_item_to_dict(i) for i in spec.items],
        "audio_order": [s.value for s in spec.audio_order],
        "audio_page_seconds": spec.audio_page_seconds,
    }


def presentation_spec_from_dict(payload: dict[str, Any]) -> PresentationSpec:
    """Decode a presentation specification."""
    return PresentationSpec(
        items=[presentation_item_from_dict(i) for i in payload.get("items", [])],
        audio_order=[SegmentId(s) for s in payload.get("audio_order", [])],
        audio_page_seconds=payload.get("audio_page_seconds", 10.0),
    )


# ----------------------------------------------------------------------
# voice segment metadata
# ----------------------------------------------------------------------

def voice_segment_to_dict(segment: VoiceSegment, sink: BlobSink) -> dict[str, Any]:
    """Encode a voice segment (waveform to a blob)."""
    return {
        "segment_id": segment.segment_id.value,
        "recording": recording_to_dict(
            segment.recording, f"voice/{segment.segment_id}", sink, "voice"
        ),
        "logical": logical_index_to_list(segment.logical_index),
        "utterances": [[u.term, u.time] for u in segment.utterances],
    }


def voice_segment_from_dict(
    payload: dict[str, Any], source: BlobSource
) -> VoiceSegment:
    """Decode a voice segment.

    Like every recording, the waveform decodes lazily: browsing menus,
    audio paging and duration accounting only need the annotation
    metadata and the byte count, so the mu-law expansion waits for the
    first playback.
    """
    return VoiceSegment(
        segment_id=SegmentId(payload["segment_id"]),
        recording=recording_from_dict(payload["recording"], source),
        logical_index=logical_index_from_list(payload.get("logical", [])),
        utterances=[
            RecognizedUtterance(term, time)
            for term, time in payload.get("utterances", [])
        ],
    )

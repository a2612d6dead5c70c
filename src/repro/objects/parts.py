"""Text and voice segments: the one-dimensional parts of an object.

Symmetry is the point of the paper: a :class:`TextSegment` and a
:class:`VoiceSegment` expose the same trio of browsable aspects —
a presentation form (visual pages / audio pages), logical components
(the :class:`~repro.objects.logical.LogicalIndex`), and content terms
for pattern matching (tokenized text / recognized utterances).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.audio.pauses import PauseIndex
from repro.audio.recognition import RecognizedUtterance
from repro.audio.signal import Recording
from repro.ids import SegmentId
from repro.objects.logical import LogicalIndex


@dataclass
class TextSegment:
    """A text segment holding declarative markup.

    The markup is parsed on demand into a document, plain text, and a
    logical index (derived from the tags the author inserted: "For
    objects which have been generated interactively in a given
    environment, these subdivisions can be easily identified by the
    tags that the user inserts in order to format the text").
    """

    segment_id: SegmentId
    markup: str

    @cached_property
    def document(self):
        """The parsed markup document (:class:`repro.text.markup.Document`)."""
        from repro.text.markup import parse_markup

        return parse_markup(self.markup)

    @cached_property
    def plain_text(self) -> str:
        """Tag-free text of the segment, the offset space for anchors."""
        return self.document.plain_text

    @cached_property
    def search_index(self):
        """Term index of :attr:`plain_text` by character offset
        (:class:`repro.text.search.TextSearchIndex`), for pattern search."""
        from repro.text.search import TextSearchIndex

        return TextSearchIndex.from_text(self.plain_text)

    @cached_property
    def logical_index(self) -> LogicalIndex:
        """Logical structure derived from the markup tags."""
        return self.document.logical_index

    @property
    def nbytes(self) -> int:
        """Storage size of the raw markup."""
        return len(self.markup.encode("utf-8"))


@dataclass
class VoiceSegment:
    """A voice segment: digitized speech plus its MINOS-side metadata.

    Attributes
    ----------
    segment_id:
        Identifier within the owning object.
    recording:
        The digitized voice.
    logical_index:
        Logical components, identified manually "at the time of the
        insertion by pressing the appropriate buttons (or at some later
        point in time)".  Empty when the segment was never edited.
    utterances:
        Recognized utterances produced at insertion or idle time; they
        give the voice part content addressability symmetric to text.
    """

    segment_id: SegmentId
    recording: Recording
    logical_index: LogicalIndex = field(default_factory=LogicalIndex.empty)
    utterances: list[RecognizedUtterance] = field(default_factory=list)

    @cached_property
    def pause_index(self) -> PauseIndex:
        """Detected and classified pauses (built on first use).

        Pause browsing "is always available to the user, independently
        on the degree of manual editing" — hence it is derived from the
        waveform, not from the logical index.
        """
        return PauseIndex.build(self.recording)

    @property
    def duration(self) -> float:
        """Length of the voice segment in seconds."""
        return self.recording.duration

    @property
    def nbytes(self) -> int:
        """Storage size of the companded waveform."""
        return self.recording.nbytes

    def utterance_terms(self) -> set[str]:
        """Distinct recognized terms (feeds the server's voice index)."""
        return {u.term for u in self.utterances}

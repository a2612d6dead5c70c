"""Playout sessions: deadlines, jitter buffer, underrun accounting.

Section 5's requirement is that voice reaches the workstation
"continuously in real time".  A :class:`StreamSession` turns one stored
voice piece into a playout plan — fixed-size chunks whose deadlines
follow from the codec byte rate (mu-law: ``sample_rate`` bytes per
second) — and then scores the delivery: when did playback start, and
exactly where did the speaker go silent (underruns).

Deadline math.  Chunk ``i`` covers bytes
``[i * chunk_bytes, (i+1) * chunk_bytes)`` and therefore
``chunk_bytes / bytes_per_s`` seconds of speech.  Playback begins once
the first ``prebuffer_chunks`` chunks are buffered; from then on chunk
``i`` is consumed at

    started_s + playout_offset(i) + accumulated_stall

so its *nominal* deadline — usable for EDF scheduling before the
startup latency or any stall is known — is the lower bound
``request_s + playout_offset(i)``.  A chunk arriving after its
consumption instant stalls playback by the difference: one underrun
event, and every later deadline shifts by the stall (speech resumes
where it stopped; it does not skip).

:class:`~repro.audio.pages.AudioPage` boundaries are navigation units:
:meth:`StreamSession.chunks_for_page` maps a page onto the chunk range
that must be resident before the page can play, which is what a
page-seek restart and the prefetcher both consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.audio.pages import AudioPager
from repro.errors import DeliveryError, StreamStateError
from repro.ids import ObjectId


@dataclass(frozen=True)
class PlayoutChunk:
    """One chunk of a stream's playout plan."""

    seq: int
    offset: int
    length: int
    duration_s: float


@dataclass(frozen=True)
class UnderrunEvent:
    """One playback stall: chunk ``seq`` arrived ``stall_s`` late."""

    seq: int
    at_s: float
    stall_s: float


class StreamSession:
    """Deadline bookkeeping for one voice stream to one station.

    Parameters
    ----------
    station, object_id, tag:
        Who is listening and which stored data piece is streamed
        (``tag`` is the archiver piece tag, e.g. ``voice/<segment>``).
    total_bytes:
        Length of the voice piece.
    bytes_per_s:
        Codec rate; mu-law stores one byte per sample, so this is the
        recording's sample rate.
    chunk_bytes:
        Transfer granularity.
    prebuffer_chunks:
        Jitter-buffer depth required before playback starts.
    request_s:
        Simulated time the user pressed play.
    pager:
        Optional :class:`AudioPager` over the same recording; enables
        page-aligned seeks and page-granular prefetch plans.
    """

    def __init__(
        self,
        station: str,
        object_id: ObjectId,
        tag: str,
        total_bytes: int,
        bytes_per_s: float,
        *,
        chunk_bytes: int = 4000,
        prebuffer_chunks: int = 2,
        request_s: float = 0.0,
        pager: AudioPager | None = None,
    ) -> None:
        if total_bytes <= 0:
            raise DeliveryError(f"stream needs bytes: {total_bytes}")
        if bytes_per_s <= 0:
            raise DeliveryError(f"codec rate must be positive: {bytes_per_s}")
        if chunk_bytes <= 0:
            raise DeliveryError(f"chunk size must be positive: {chunk_bytes}")
        if prebuffer_chunks < 1:
            raise DeliveryError(
                f"prebuffer must hold at least one chunk: {prebuffer_chunks}"
            )
        self.station = station
        self.object_id = object_id
        self.tag = tag
        self.bytes_per_s = float(bytes_per_s)
        self.chunk_bytes = chunk_bytes
        self.request_s = request_s
        self._pager = pager
        self._chunks: list[PlayoutChunk] = []
        offset = 0
        seq = 0
        while offset < total_bytes:
            length = min(chunk_bytes, total_bytes - offset)
            self._chunks.append(
                PlayoutChunk(
                    seq=seq, offset=offset, length=length,
                    duration_s=length / self.bytes_per_s,
                )
            )
            offset += length
            seq += 1
        self.prebuffer_chunks = min(prebuffer_chunks, len(self._chunks))
        # Cumulative playout offsets: _offsets[i] = seconds of speech
        # before chunk i begins.
        self._offsets = [0.0]
        for chunk in self._chunks:
            self._offsets.append(self._offsets[-1] + chunk.duration_s)
        # Delivery state.
        self._arrived: dict[int, float] = {}
        self._contiguous = 0  # chunks 0.._contiguous-1 have arrived
        self.started_s: float | None = None
        self.startup_latency_s: float | None = None
        self.underruns: list[UnderrunEvent] = []
        self.total_stall_s = 0.0

    # ------------------------------------------------------------------
    # the plan
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def chunks(self) -> list[PlayoutChunk]:
        """The full playout plan, in order."""
        return list(self._chunks)

    @property
    def duration_s(self) -> float:
        """Total speech duration of the stream."""
        return self._offsets[-1]

    def chunk(self, seq: int) -> PlayoutChunk:
        """Chunk ``seq`` of the plan.

        Raises
        ------
        DeliveryError
            If ``seq`` is out of range.
        """
        if not 0 <= seq < len(self._chunks):
            raise DeliveryError(
                f"chunk {seq} out of range 0..{len(self._chunks) - 1}"
            )
        return self._chunks[seq]

    def playout_offset(self, seq: int) -> float:
        """Seconds of speech consumed before chunk ``seq`` plays."""
        self.chunk(seq)
        return self._offsets[seq]

    def nominal_deadline(self, seq: int) -> float:
        """Deadline usable at issue time (before any stall is known).

        Playback actually consumes chunk ``seq`` at
        ``started_s + stall + playout_offset(seq)``, and both the
        startup latency and the stall are nonnegative, so
        ``request_s + playout_offset(seq)`` is a lower bound on the
        true consumption instant — a conservative deadline, exactly
        what an EDF scheduler wants before the stream's fate is known.
        """
        self.chunk(seq)
        return self.request_s + self._offsets[seq]

    def chunks_for_page(self, page_number: int) -> range:
        """Chunk seq range covering one audio page (needs a pager).

        Raises
        ------
        StreamStateError
            If the session was built without an :class:`AudioPager`.
        """
        if self._pager is None:
            raise StreamStateError("session has no audio pager")
        page = self._pager.page(page_number)
        first = int(page.start * self.bytes_per_s) // self.chunk_bytes
        last_byte = max(
            int(math.ceil(page.end * self.bytes_per_s)) - 1, 0
        )
        last = min(last_byte // self.chunk_bytes, len(self._chunks) - 1)
        return range(first, last + 1)

    # ------------------------------------------------------------------
    # delivery accounting
    # ------------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """Whether every chunk has arrived."""
        return self._contiguous == len(self._chunks)

    def on_delivered(self, seq: int, at_s: float) -> UnderrunEvent | None:
        """Record chunk ``seq`` arriving at ``at_s``.

        Returns the :class:`UnderrunEvent` this arrival caused, if any.
        Arrivals may come out of order; playout consumes contiguously,
        so only the chunk that extends the contiguous prefix can stall
        the playhead.

        Raises
        ------
        StreamStateError
            If the chunk was already delivered.
        """
        if seq in self._arrived:
            raise StreamStateError(
                f"chunk {seq} of {self.station}/{self.tag} delivered twice"
            )
        self.chunk(seq)
        self._arrived[seq] = at_s
        while self._contiguous in self._arrived:
            self._contiguous += 1
        if self.started_s is None:
            if self._contiguous >= self.prebuffer_chunks:
                self.started_s = at_s
                self.startup_latency_s = at_s - self.request_s
            return None
        # Consumption instant of chunk seq under everything known so far.
        due = self.started_s + self.total_stall_s + self._offsets[seq]
        if seq >= self.prebuffer_chunks and at_s > due and seq < self._contiguous:
            stall = at_s - due
            self.total_stall_s += stall
            event = UnderrunEvent(seq=seq, at_s=at_s, stall_s=stall)
            self.underruns.append(event)
            return event
        return None

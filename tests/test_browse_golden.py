"""Golden browse script: what the user sees and hears must not drift.

A seeded script browses a small archived library through the
:class:`PresentationManager`, with a decoded-object cache small enough
to evict: every page of every visual object, then random sessions of
page turns, pattern searches and views (each followed by the frame the
user looks at) and of playback, interrupts, short-pause rewinds and
page turns on audio objects; re-opens after an eviction and after
idle-time recognition bumps an object's version; and an excursion
into the relevant objects of the subway map.

The digests were taken while every open recompiled its page program
and every command rebuilt its menu, search index and frame one
character at a time.  A change to any rendered frame or any ``Trace``
event fails here, naming the step.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.audio.recognition import RecognizedUtterance
from repro.core.browsing import BrowseCommand
from repro.core.manager import PresentationManager
from repro.core.visual import VisualSession
from repro.ids import IdGenerator
from repro.scenarios import (
    build_map_tour_object,
    build_object_library,
    build_subway_map_with_relevants,
    build_visual_report_with_xray,
    build_xray_transparency_object,
)
from repro.scenarios.city import build_city_walk_simulation
from repro.server import Archiver
from repro.workstation.station import Workstation

SEED = 21
SESSIONS = 24
#: Holds about two audio objects: the walk and the audio dictations
#: evict one another.
CACHE_BYTES = 400 << 10
PATTERNS = ["budget", "radiology", "tourism", "engineering", "report", "nowhere"]
_VISUAL = (
    BrowseCommand.NEXT_PAGE,
    BrowseCommand.PREVIOUS_PAGE,
    BrowseCommand.FIND_PATTERN,
    BrowseCommand.DEFINE_VIEW,
    BrowseCommand.MOVE_VIEW,
)

#: (step, frames, blake2b-128 of the frames, trace events, blake2b-128
#: of the events) of every step of the script.
GOLDEN_STEPS = [
    ("pages of lib-obj-000000",
     2, "8b0dede8799a29c6ad39f3832ad93045", 5, "af308faa692b2f7d6b0f1a048d4f6277"),
    ("pages of lib-obj-000003",
     2, "213e735459e396f545f50d360321e4b6", 5, "72e4d73c9b4205b312103a16d2460e55"),
    ("pages of lib-obj-000006",
     2, "68fffc0031884d07703ef9fc10934a6a", 5, "09703ce442e007b3cd8e17dcad96214d"),
    ("pages of lib-obj-000009",
     2, "b4b4fdfce2653fabf189f18660d1fc96", 5, "77fd6db7fcdeee9461babf702fe8b3eb"),
    ("pages of lib-obj-000012",
     2, "62cc138afb3313b8cca278edc0e250e3", 5, "4d7c4ceaf4b5fc46ccbefd9d7c5e17cf"),
    ("pages of lib-obj-000015",
     0, "cae66941d9efbd404e4d88758ea67670", 15, "42096685d2c1df0828741135b48f2a73"),
    ("pages of lib-obj-000017",
     0, "cae66941d9efbd404e4d88758ea67670", 15, "a87bd38c4808d6e0329fe892c2cf009f"),
    ("pages of lib-obj-000019",
     0, "cae66941d9efbd404e4d88758ea67670", 15, "5da939f3ab19e44780aa7801a3d02f0d"),
    ("pages of walk-obj-000001",
     6, "c8aa2f9c074663d779b1e14125096ab4", 31, "80c6f938487f4cbd8e1a0b3b9dc90e70"),
    ("pages of medfig34-obj-000001",
     5, "47a472ec7c944224d70b2ac871e2f383", 15, "f790c8bd5a570820ef4709cb57f87475"),
    ("pages of medfig56-obj-000001",
     4, "f72386ec217b7ce10bed51cdd2e60abf", 15, "ef533fc2faec9ba6f4787f53a50adccc"),
    ("pages of citytour-obj-000001",
     1, "7670026cf2fc746976f29ca3e2ad68e1", 3, "3b7ded32387a2200034647d90e29a559"),
    ("session 0 on lib-obj-000009",
     6, "a2f595adca9435e8a530dbc1a4d53404", 12, "c998f3bf91f03c8f7f17ec6639c2dc94"),
    ("session 1 on walk-obj-000001",
     6, "e9d5ef6bc4a05f789a7809ef3be9afbb", 13, "298385e704e787c7096af456ffc4f4fe"),
    ("session 2 on citytour-obj-000001",
     4, "4c66a12fd63fa95def18c2c63df1f669", 9, "0ea591974936dc94ecee3443688db291"),
    ("session 3 on lib-obj-000006",
     4, "8a82f9a034a3ed613677f23819f22222", 9, "a3068c6ad81b6f4b751cbd577e36640e"),
    ("session 4 on lib-obj-000012",
     5, "1ab2bf0d11948b32dbb09d2303b01735", 11, "b2841943278d0837a977f76e452f346d"),
    ("session 5 on citytour-obj-000001",
     7, "fcb736eff8ac30625bf59b75606313eb", 15, "30d402fcd62254ab565c04ff974c4f64"),
    ("session 6 on lib-obj-000015",
     0, "cae66941d9efbd404e4d88758ea67670", 10, "b19261dfbcefeddfa62112e7302cb020"),
    ("session 7 on medfig56-obj-000001",
     5, "30159400cc2ca508562b454703ae7986", 12, "16c9d4f0fd8f7eb7e03802d2feb11e6f"),
    ("session 8 on medfig56-obj-000001",
     5, "676f7bbc7d5c54904c515320a85f1ecc", 11, "8597fa508a35db581ab0d539b34c88a9"),
    ("session 9 on walk-obj-000001",
     5, "c249dfe8f2dd2ae04f5290ec725d9857", 26, "c7e70db87647182cc82004a809b3eaea"),
    ("session 10 on lib-obj-000003",
     4, "54c693c8a7695beea02a37b6a68c0bd9", 8, "99890ef9924bfeae9c92b24e3ea91389"),
    ("session 11 on medfig56-obj-000001",
     6, "f055c1522fbfc2e4023f899d01d98afc", 16, "5d52e30d9ba5aca4d16e4e4b75e6e727"),
    ("session 12 on lib-obj-000003",
     7, "008341845dfdf7770c21e81232375fac", 16, "7f1940826e3030b41bb8aff11bcc6720"),
    ("session 13 on lib-obj-000000",
     7, "948ec8624ec02d14292a96eff5d10e44", 15, "b6c37e2b1421ba79ee29f7698da19ab4"),
    ("session 14 on lib-obj-000003",
     3, "3ec8304317c641544f36afad3f7024e4", 7, "88fe45aa270e3790b6753ca3186796a6"),
    ("session 15 on walk-obj-000001",
     4, "eaca0b8c51564402fb6f101796a97706", 9, "c38827b40eb043afb8ca910c67b5daef"),
    ("session 16 on medfig56-obj-000001",
     4, "fa79289ace7b9152a9516189560c33da", 9, "9fa0eb9e07add64d72004916fa2c7a91"),
    ("session 17 on lib-obj-000019",
     0, "cae66941d9efbd404e4d88758ea67670", 12, "15246e03506d19d25363396de58ffa00"),
    ("session 18 on citytour-obj-000001",
     5, "a324bc6c4bb83f140fb9214fb46aafee", 11, "1f5497d988182602f738997b9c727e1e"),
    ("session 19 on lib-obj-000012",
     6, "ecb11758eb8ce62040fe1727e6023230", 11, "1bb357110eead42017ec0cb9521a856b"),
    ("session 20 on lib-obj-000015",
     0, "cae66941d9efbd404e4d88758ea67670", 5, "c10d0ee48000baea458accdb52f7d571"),
    ("session 21 on lib-obj-000019",
     0, "cae66941d9efbd404e4d88758ea67670", 14, "d022dec6234d741233230636bd1f30ce"),
    ("session 22 on citytour-obj-000001",
     5, "a324bc6c4bb83f140fb9214fb46aafee", 11, "523214615b5f65cd4d5d29b8883368f6"),
    ("session 23 on citytour-obj-000001",
     7, "fcb736eff8ac30625bf59b75606313eb", 15, "0da765e0955dc95502717358988c0340"),
    ("re-open of evicted lib-obj-000000",
     3, "586357a7f9fe83628c62cb430d2fbbbc", 6, "ca234ef5f8d83ddff9ea3c1d68480ecd"),
    ("re-open of evicted lib-obj-000003",
     4, "f582aa4a07201ca66c14a000e251e6bd", 9, "c5f1f3d65d62e3e72e31cf3abef755ec"),
    ("re-open of evicted lib-obj-000006",
     4, "46a7161ea3fdeac7f6fe9d9989f6f09f", 7, "512e6d041e45dd7f50dbc9c655b33eae"),
    ("re-open after recognition of lib-obj-000000",
     5, "bfd802ba4e63df789097aea01aac6e95", 18, "3685ebe0e7ac4034d51a4980ebe30fab"),
    ("re-open after recognition of lib-obj-000015",
     0, "cae66941d9efbd404e4d88758ea67670", 7, "ba339f78fe69bf898f7e48c80b3760da"),
    ("relevant objects of city78-obj-000001",
     9, "e8c0789045c9e64e68d259307ad72c5b", 37, "b2624d4a27aca04fbe41268bf105c3b1"),
]


def _digest(texts) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def _event_text(event) -> str:
    return f"{event.time!r} {event.kind.value} {sorted(event.detail.items())!r}"


class _Recorder:
    """Collects each step's frames and the trace events it added."""

    def __init__(self, trace) -> None:
        self._trace = trace
        self._seen = 0
        self._frames: list[str] = []
        self.steps: list[tuple[str, int, str, int, str]] = []

    def frame(self, session: VisualSession) -> None:
        self._frames.append(session.render_screen().render())

    def step(self, label: str) -> None:
        events = [_event_text(e) for e in list(self._trace)[self._seen :]]
        self._seen += len(events)
        self.steps.append(
            (
                label,
                len(self._frames),
                _digest(self._frames),
                len(events),
                _digest(events),
            )
        )
        self._frames = []


def _visual_command(session: VisualSession, rng, recorder: _Recorder) -> None:
    menu = session.menu
    offered = [c for c in _VISUAL if c.value in menu]
    command = offered[int(rng.integers(len(offered)))]
    kwargs = {}
    if command is BrowseCommand.FIND_PATTERN:
        kwargs["pattern"] = PATTERNS[int(rng.integers(len(PATTERNS)))]
    elif command is BrowseCommand.DEFINE_VIEW:
        image = session.object.image(session.current_page.image_id)
        width = int(rng.integers(16, image.width // 2))
        height = int(rng.integers(16, image.height // 2))
        kwargs = dict(
            x=int(rng.integers(0, image.width - width)),
            y=int(rng.integers(0, image.height - height)),
            width=width,
            height=height,
        )
    elif command is BrowseCommand.MOVE_VIEW:
        dx, dy = rng.integers(-12, 13, size=2)
        kwargs = dict(dx=int(dx), dy=int(dy))
    session.execute(command, **kwargs)
    recorder.frame(session)


def _audio_command(session, rng) -> None:
    if session.is_playing:
        if rng.random() < 0.5:
            session.play_for(float(rng.uniform(0.5, 3.0)))
            return
        command = BrowseCommand.INTERRUPT
    elif rng.random() < 0.5 and BrowseCommand.NEXT_PAGE.value in session.menu:
        command = BrowseCommand.NEXT_PAGE
    else:
        command = BrowseCommand.REWIND_SHORT_PAUSES
    session.execute(command)


def _browse(manager, object_id, rng, recorder: _Recorder) -> None:
    session = manager.open(object_id)
    visual = isinstance(session, VisualSession)
    if visual:
        recorder.frame(session)
    for _ in range(int(rng.integers(2, 7))):
        if visual:
            _visual_command(session, rng, recorder)
        else:
            _audio_command(session, rng)


def run_script():
    """Run the whole script; returns ``(steps, manager, facts)``."""
    archiver = Archiver()
    library = build_object_library(archiver, visual_count=5, audio_count=3, seed=3)
    # Overwrite pages, a pinned x-ray over three pages of related text,
    # transparencies and a tour page.
    for obj in (
        build_city_walk_simulation(IdGenerator("walk"), seed=4),
        build_visual_report_with_xray(),
        build_xray_transparency_object(),
        build_map_tour_object(),
    ):
        archiver.store(obj)
        library.append(obj)
    subway, overlays = build_subway_map_with_relevants()
    for obj in (subway, *overlays):
        archiver.store(obj)
    manager = PresentationManager(
        archiver, Workstation(), decoded_cache_bytes=CACHE_BYTES
    )
    recorder = _Recorder(manager.workstation.trace)
    ids = [obj.object_id for obj in library]
    facts = {}

    # Every page of every visual object; some of every dictation.
    for object_id in ids:
        session = manager.open(object_id)
        if isinstance(session, VisualSession):
            recorder.frame(session)
            for _ in range(session.page_count - 1):
                session.execute(BrowseCommand.NEXT_PAGE)
                recorder.frame(session)
        else:
            session.play_for(6.0)
            session.execute(BrowseCommand.INTERRUPT)
            session.execute(BrowseCommand.REWIND_SHORT_PAUSES)
            session.play_for(2.0)
            if session.is_playing:
                session.execute(BrowseCommand.INTERRUPT)
            session.execute(BrowseCommand.NEXT_PAGE)
        recorder.step(f"pages of {object_id}")

    for index in range(SESSIONS):
        rng = np.random.default_rng([SEED, index])
        object_id = ids[int(rng.integers(len(ids)))]
        _browse(manager, object_id, rng, recorder)
        recorder.step(f"session {index} on {object_id}")

    # Re-open objects the cache evicted: they are rebuilt.
    evicted = [object_id for object_id in ids if object_id not in manager.decoded_cache]
    facts["evicted"] = len(evicted)
    for object_id in evicted[:3]:
        rng = np.random.default_rng([SEED, 100, len(recorder.steps)])
        _browse(manager, object_id, rng, recorder)
        recorder.step(f"re-open of evicted {object_id}")

    # Idle-time recognition bumps the version of a cached visual and a
    # cached audio object; the next open rebuilds each.
    visual_id, audio_id = ids[0], ids[5]
    for object_id in (visual_id, audio_id):
        manager.open(object_id)
    segment = library[5].voice_segments[0]
    archiver.attach_recognition(visual_id, {})
    archiver.attach_recognition(
        audio_id,
        {segment.segment_id: [RecognizedUtterance(term="report", time=1.0)]},
    )
    for object_id in (visual_id, audio_id):
        invalidations = manager.decoded_cache.invalidations
        rng = np.random.default_rng([SEED, 200, len(recorder.steps)])
        _browse(manager, object_id, rng, recorder)
        facts.setdefault("invalidated", []).append(
            manager.decoded_cache.invalidations - invalidations
        )
        recorder.step(f"re-open after recognition of {object_id}")

    # The subway map and each relevant overlay, twice: the second
    # excursion opens the overlays from the decoded-object cache.
    session = manager.open(subway.object_id)
    recorder.frame(session)
    for _ in range(2):
        for indicator in session.visible_indicators():
            child = manager.select_relevant(session, indicator["indicator"])
            recorder.frame(child)
            manager.return_from_relevant(child)
            recorder.frame(session)
    recorder.step(f"relevant objects of {subway.object_id}")
    return recorder.steps, manager, facts


@pytest.fixture(scope="module")
def script():
    return run_script()


def test_script_evicts_and_invalidates(script):
    _steps, manager, facts = script
    assert manager.decoded_cache.evictions > 0
    assert facts["evicted"] >= 3
    assert facts["invalidated"] == [1, 1]
    assert manager.decoded_cache.hits > 0


def test_every_frame_and_event_matches_golden(script):
    steps, _manager, _facts = script
    assert len(steps) == len(GOLDEN_STEPS)
    for step, golden in zip(steps, GOLDEN_STEPS):
        assert step == golden, f"step {golden[0]!r} drifted"

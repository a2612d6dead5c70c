"""browse: one workstation browsing a compressed library, closed loop.

Each session picks an object by zipf popularity, opens it through the
:class:`PresentationManager` and issues 2-6 commands drawn from what
its menu offers: visual next/previous page, ``find_pattern``,
``define_view``/``move_view`` (each followed by ``render_screen``, the
frame the user looks at); audio ``play_for``, ``interrupt``,
``rewind_short_pauses`` and next page.  The library (24 visual
documents, 12 audio dictations, 4 many-piece city walks) ships about
3.2 MB of stored bytes, twice the 1.5 MiB decoded-object cache the
manager is given, so opens mix decoded-cache hits with cold rebuilds.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.browsing import BrowseCommand
from repro.core.manager import PresentationManager
from repro.core.visual import VisualSession
from repro.ids import IdGenerator
from repro.scenarios import build_object_library
from repro.scenarios.city import build_city_walk_simulation
from repro.server import Archiver
from repro.server.metrics import percentile
from repro.workstation.station import Workstation

from perfbench.harness import Samples, Stack, role_metrics, run_units
from perfbench.workloads.common import LIBRARY_SEED, object_digest, zipf_weights

clock = time.perf_counter

VISUAL_COUNT = 24
AUDIO_COUNT = 12
CITY_WALKS = 4
DECODED_CACHE_BYTES = 1536 << 10
ZIPF_EXPONENT = 0.8
WARM_UP_SESSIONS = 200
#: Sessions per second of ``--seconds`` in the timed phase: the nominal
#: speed of the machine the benchmark was built on.
SESSIONS_PER_S = 200
#: Sessions per second the traced run is sized by (fixed, so the
#: traced op list depends on the seed and ``--seconds`` only).
TRACE_SESSIONS_PER_S = 120
PATTERNS = ["budget", "radiology", "tourism", "engineering", "personnel", "report"]

_VISUAL = (
    BrowseCommand.NEXT_PAGE,
    BrowseCommand.PREVIOUS_PAGE,
    BrowseCommand.FIND_PATTERN,
    BrowseCommand.DEFINE_VIEW,
    BrowseCommand.MOVE_VIEW,
)


class Browse:
    name = "browse"

    def __init__(self, seed: int, options) -> None:
        self.seed = seed
        archiver = Archiver()
        library = build_object_library(
            archiver, visual_count=VISUAL_COUNT, audio_count=AUDIO_COUNT,
            seed=LIBRARY_SEED,
        )
        for index in range(CITY_WALKS):
            walk = build_city_walk_simulation(
                IdGenerator(f"walk{index}"), seed=LIBRARY_SEED + index
            )
            archiver.store(walk)
            library.append(walk)
        self.sources = {obj.object_id: object_digest(obj) for obj in library}
        self.ids = [obj.object_id for obj in library]
        self.weights = zipf_weights(len(self.ids), ZIPF_EXPONENT)
        self.manager = PresentationManager(
            archiver, Workstation(), decoded_cache_bytes=DECODED_CACHE_BYTES
        )
        self.stack = Stack(
            platters=[archiver.disk],
            journals=[archiver.journal.device],
            managers=[self.manager],
        )
        self._next_session = 0
        #: Latest presented form of every opened object, checked after
        #: the timed phase.
        self.presented = {}
        self.sessions = max(int(round(options.seconds * SESSIONS_PER_S)), 1)
        #: ``Session.open_cost_s`` of every open.
        self.open_costs: list[float] = []
        self.warm_up_failed = 0

    # ------------------------------------------------------------------
    # the op stream
    # ------------------------------------------------------------------

    def session(self, samples: Samples) -> None:
        """One session: open plus 2-6 commands.

        A command that raises counts as failed and ends the session.
        """
        index = self._next_session
        self._next_session += 1
        rng = np.random.default_rng([self.seed, 2, index])
        object_id = self.ids[int(rng.choice(len(self.ids), p=self.weights))]
        # An op's kind, for telling fast windows from slow ones: its
        # object, and whether the open hit the decoded-object cache or
        # which command ran.
        hits = self.manager.decoded_cache.hits
        try:
            start = clock()
            session = self.manager.open(object_id)
            visual = session if isinstance(session, VisualSession) else None
            if visual is not None:
                visual.render_screen()
            samples.add(
                "open", clock() - start,
                kind=(object_id, self.manager.decoded_cache.hits > hits),
            )
            self.open_costs.append(session.open_cost_s)
            self.presented[object_id] = session.object
            for _ in range(int(rng.integers(2, 7))):
                command, action = (
                    self._visual_action(visual, rng) if visual is not None
                    else self._audio_action(session, rng)
                )
                start = clock()
                action()
                samples.add("browse", clock() - start, kind=(object_id, command))
        except Exception:  # counted against the attempts, reported by the check
            samples.failed += 1

    @staticmethod
    def _visual_action(session, rng):
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
                width=width, height=height,
            )
        elif command is BrowseCommand.MOVE_VIEW:
            dx, dy = rng.integers(-12, 13, size=2)
            kwargs = dict(dx=int(dx), dy=int(dy))

        def action():
            session.execute(command, **kwargs)
            session.render_screen()

        return command, action

    @staticmethod
    def _audio_action(session, rng):
        if session.is_playing:
            if rng.random() < 0.5:
                seconds = float(rng.uniform(0.5, 3.0))
                return "play_for", lambda: session.play_for(seconds)
            command = BrowseCommand.INTERRUPT
        elif rng.random() < 0.5 and BrowseCommand.NEXT_PAGE.value in session.menu:
            command = BrowseCommand.NEXT_PAGE
        else:
            command = BrowseCommand.REWIND_SHORT_PAUSES
        return command, lambda: session.execute(command)

    # ------------------------------------------------------------------
    # harness interface
    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        samples = Samples()
        for _ in range(WARM_UP_SESSIONS):
            self.session(samples)
        self.warm_up_failed = samples.failed

    def timed(self, seconds: float) -> Samples:
        return run_units(self.session, self.sessions)

    def end_to_end(self, samples: Samples) -> dict[str, float]:
        ops_per_s = samples.ops_per_busy_s()
        metrics = role_metrics(samples, "open", "browse")
        metrics.update(
            ops_per_s=ops_per_s,
            serve_max_rate_per_s=ops_per_s,
            modeled_p95_s=percentile(self.open_costs, 95),
        )
        return metrics

    def summary(self, samples: Samples) -> dict:
        cache = self.manager.decoded_cache
        return {
            "samples": {
                "open": samples.count("open"), "browse": samples.count("browse"),
            },
            "decoded cache": {
                "capacity_bytes": cache.capacity_bytes,
                "hit_ratio": cache.hits / max(cache.hits + cache.misses, 1),
            },
            "modeled_p95_s over": f"{len(self.open_costs)} opens",
            "fast windows": len(samples.fast_windows()),
        }

    def trace_units(self, seconds: float) -> int:
        return int(seconds * TRACE_SESSIONS_PER_S)

    def block(self, sessions: int):
        samples = Samples()
        for _ in range(sessions):
            self.session(samples)
        return samples, {}

    def block_metrics(self, extra: dict) -> dict[str, float]:
        return {}

    def check(self) -> tuple[int, int]:
        """Every presented object's pieces match the generated source."""
        failed = self.warm_up_failed + sum(
            object_digest(obj) != self.sources[object_id]
            for object_id, obj in self.presented.items()
        )
        return len(self.presented), failed

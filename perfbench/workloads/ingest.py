"""ingest: archivist traffic, stores beside searches, closed loop.

The work comes in rounds.  A round starts a fresh ``Archiver`` and
stores ``ROUND_UNITS`` pre-generated memos into it, one per unit,
through ``Archiver.store`` (voice stored unrecognized).  After each
store the unit runs ``SEARCHES_PER_STORE`` searches from a fixed
battery of term, phrase and boolean queries on the text, voice and
both channels.  Every ``SWEEP_EVERY`` stores an ``IdleRecognizer.run()``
sweep recognizes the new voice (``attach_recognition``) and compacts
the index.  Every round stores the same memos, in an order the seed
draws, so every round searches the same archive sizes; each quarter
of a round is a window, and windows at the same place in their rounds
hold equal work.  The memos and their synthesized speech are generated
in set-up.
"""

from __future__ import annotations

import time

import numpy as np

from repro.audio.recognition import VocabularyRecognizer
from repro.audio.signal import synthesize_speech
from repro.ids import IdGenerator
from repro.index import ArchiveIndex
from repro.objects.attributes import AttributeSet
from repro.objects.model import DrivingMode, MultimediaObject
from repro.objects.parts import TextSegment, VoiceSegment
from repro.objects.presentation import PresentationSpec, TextFlow
from repro.scenarios._textgen import paragraph
from repro.server import Archiver, QueryInterface
from repro.server.idle import IdleRecognizer
from repro.server.metrics import percentile

from perfbench.harness import Samples, Stack, role_metrics
from perfbench.workloads.common import LIBRARY_SEED, object_digest

clock = time.perf_counter

TOPICS = ["budget", "radiology", "tourism", "engineering", "personnel"]
VOCABULARY = TOPICS + ["urgent", "report"]
RECORDINGS = 12
#: Memos stored per round, each into the round's fresh archive.
ROUND_UNITS = 100
#: Windows per round.
STRETCHES = 4
SEARCHES_PER_STORE = 3
SWEEP_EVERY = 20
WARM_UP_ROUNDS = 2
#: Rounds per second of ``--seconds`` in the timed phase: the nominal
#: speed of the machine the benchmark was built on.
ROUNDS_PER_S = 1.6
#: Rounds per second of ``--seconds`` in the traced run (at least 8).
TRACE_ROUNDS_PER_S = 0.5
CHANNELS = ("text", "voice", "both")
QUERIES = [
    "budget",
    '"urgent report"',
    "radiology OR tourism",
    "report AND NOT personnel",
]
BATTERY = [(query, channel) for query in QUERIES for channel in CHANNELS]


def _make_objects(seed: int, count: int) -> list[MultimediaObject]:
    """Archived memos: text only, voice only, or text plus voice."""
    rng = np.random.default_rng([seed, 3])
    recordings = [
        synthesize_speech(
            f"urgent {TOPICS[i % len(TOPICS)]} report follows. "
            + paragraph(1, seed=seed * 100 + i),
            seed=seed * 100 + i,
        )
        for i in range(RECORDINGS)
    ]
    generator = IdGenerator(f"ingest{seed}")
    objects = []
    for index in range(count):
        topic = TOPICS[int(rng.integers(len(TOPICS)))]
        kind = int(rng.integers(3))  # 0 text, 1 voice, 2 both
        obj = MultimediaObject(
            object_id=generator.object_id(),
            driving_mode=DrivingMode.AUDIO if kind == 1 else DrivingMode.VISUAL,
            attributes=AttributeSet.of(kind="memo", topic=topic, serial=index),
        )
        items, audio_order = [], []
        if kind != 1:
            segment = TextSegment(
                segment_id=generator.segment_id(),
                markup=(
                    f"@title{{{topic.capitalize()} memo {index}}}\n"
                    f"This memo concerns {topic} matters. "
                    + paragraph(2, seed=seed * 100_000 + index)
                ),
            )
            obj.add_text_segment(segment)
            items.append(TextFlow(segment.segment_id))
        if kind != 0:
            voice = VoiceSegment(
                segment_id=generator.segment_id(),
                recording=recordings[int(rng.integers(RECORDINGS))],
            )
            obj.add_voice_segment(voice)
            audio_order.append(voice.segment_id)
        obj.presentation = PresentationSpec(items=items, audio_order=audio_order)
        objects.append(obj.archive())
    return objects


class Ingest:
    name = "ingest"

    def __init__(self, seed: int, options) -> None:
        self.seed = seed
        self.objects = _make_objects(LIBRARY_SEED, ROUND_UNITS)
        self.recognizer = VocabularyRecognizer(VOCABULARY, seed=seed)
        self.rounds = max(int(round(options.seconds * ROUNDS_PER_S)), 1)
        self._round = 0
        self.stack = Stack()
        #: Modeled device seconds of every store.
        self.device_s: list[float] = []
        #: Rounds whose output checks have not run yet.
        self._unchecked: list[tuple] = []
        self.attempted = self.failed = 0

    def _device_busy(self, archiver) -> float:
        return archiver.disk.stats.busy_time_s + (
            archiver.journal.device.stats.busy_time_s
        )

    def run_round(self, samples: Samples) -> None:
        """Store every memo into a fresh archive, searching after each.

        An op that raises counts as failed and ends the round.
        """
        rng = np.random.default_rng([self.seed, 3, self._round])
        self._round += 1
        # Serial lookups: the index's shard fan-out threads would add
        # load threads beyond the one this closed loop runs on.
        archiver = Archiver(archive_index=ArchiveIndex(parallel_lookup=False))
        query = QueryInterface(archiver)
        idle = IdleRecognizer(archiver, self.recognizer)
        self.stack.retire()
        self.stack.platters = [archiver.disk]
        self.stack.journals = [archiver.journal.device]
        self.stack.indexes = [archiver.archive_index]
        stored = []
        searches = iter(
            rng.integers(len(BATTERY), size=ROUND_UNITS * SEARCHES_PER_STORE).tolist()
        )
        first_window = samples.window
        try:
            for index in rng.permutation(ROUND_UNITS).tolist():
                # Each stretch of the round is a window.  An op's kind,
                # for telling fast windows from slow ones, is what it
                # works on: the memo stored, or the query and the
                # stretch, as search cost grows with the archive.
                stretch = len(stored) * STRETCHES // ROUND_UNITS
                samples.enter(first_window + stretch)
                obj = self.objects[index]
                busy = self._device_busy(archiver)
                start = clock()
                archiver.store(obj)
                samples.add("store", clock() - start, kind=("store", index))
                stored.append(obj)
                self.device_s.append(self._device_busy(archiver) - busy)
                for _ in range(SEARCHES_PER_STORE):
                    search = next(searches)
                    text, channel = BATTERY[search]
                    start = clock()
                    query.search(text, channel=channel)
                    samples.add("search", clock() - start, kind=(search, stretch))
                if len(stored) % SWEEP_EVERY == 0:
                    start = clock()
                    idle.run()
                    samples.add("sweep", clock() - start, kind=("sweep", len(stored)))
        except Exception:  # counted against the attempts
            samples.failed += 1
        self._unchecked.append((archiver, query, stored))

    def settle(self) -> None:
        """Run the output checks of finished rounds, then let them go.

        The index results of every battery query equal the scan oracle,
        and every acknowledged store reads back with its source digest.
        """
        for archiver, query, stored in self._unchecked:
            for text, channel in BATTERY:
                indexed = query.search(text, channel=channel)
                scanned = query.search(text, channel=channel, use_index=False)
                self.failed += indexed != scanned
            for obj in stored:
                rebuilt, _ = archiver.fetch_object(obj.object_id)
                self.failed += object_digest(rebuilt) != object_digest(obj)
            self.attempted += len(BATTERY) + len(stored)
        self._unchecked.clear()

    # ------------------------------------------------------------------
    # harness interface
    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        samples = Samples()
        for _ in range(WARM_UP_ROUNDS):
            self.run_round(samples)
            self.settle()
        self.failed += samples.failed

    def timed(self, seconds: float) -> Samples:
        """``rounds`` rounds; checks run between them."""
        samples = Samples(probing=True)
        for round_index in range(self.rounds):
            samples.window = round_index * STRETCHES
            self.run_round(samples)
            self.settle()
        samples.finish()
        return samples

    def end_to_end(self, samples: Samples) -> dict[str, float]:
        ops_per_s = samples.ops_per_busy_s()
        metrics = role_metrics(samples, "store", "search")
        metrics.update(
            ops_per_s=ops_per_s,
            serve_max_rate_per_s=ops_per_s,
            modeled_p95_s=percentile(self.device_s, 95),
        )
        return metrics

    def summary(self, samples: Samples) -> dict:
        return {
            "samples": {
                name: samples.count(name) for name in ("store", "search", "sweep")
            },
            "sweep_p50_ms": samples.ms("sweep", 50),
            "rounds": f"{self.rounds} x {ROUND_UNITS} stores",
            "fast windows": len(samples.fast_windows()),
        }

    def trace_units(self, seconds: float) -> int:
        """Rounds of the traced run."""
        return max(int(seconds * TRACE_ROUNDS_PER_S), 8)

    def block(self, rounds: int):
        samples = Samples()
        for _ in range(rounds):
            self.run_round(samples)
        return samples, {}

    def block_metrics(self, extra: dict) -> dict[str, float]:
        return {}

    def check(self) -> tuple[int, int]:
        self.settle()
        return self.attempted, self.failed

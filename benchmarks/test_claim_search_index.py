"""C-SEARCH — Section 5: browse-time search at insertion-time cost.

"Some voice segments have been recognized at the time of voice
insertion, or at machine's idle time ... The recognized voice segments
are used to provide content addressibility and browsing by using the
same access methods as in text."  The claim behind the archive-wide
index (``repro.index``) is that because all expensive work — text
tokenization, voice recognition, posting construction — happened at
insertion or idle time, answering a content query at browse time does
*not* scan the archive:

* **flat vs linear** — the ``use_index=False`` baseline rebuilds every
  stored object per query, so its cost grows linearly with archive
  size; the index-served path looks up a handful of shard postings and
  stays ~flat as the archive quadruples;
* **symmetry** — a voice-channel query costs the same order as the
  equivalent text-channel query (cf. C-SYMM): postings are postings,
  whichever medium produced them;
* **same answers** — every index-served result set is asserted equal
  to the scan oracle's before any latency is quoted.

Rows go to ``bench_results.txt`` (quoted by EXPERIMENTS.md) and the
machine-readable summary to ``BENCH_SEARCH.json``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import pytest

from repro.index import TEXT, VOICE
from repro.scenarios import build_object_library
from repro.server import Archiver, QueryInterface

_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_SEARCH.json"
_BENCH: dict = {}

# Queries with hits in both channels ('report' is written in every
# visual title and spoken in every dictation) and in one ('budget' is a
# topic, 'urgent' is only ever spoken).
_QUERIES = (["report"], ["budget"], ["urgent"])


@pytest.fixture(scope="module", autouse=True)
def _write_json():
    """Emit whatever this run measured as BENCH_SEARCH.json."""
    yield
    if _BENCH:
        _JSON.write_text(json.dumps(_BENCH, indent=2, sort_keys=True) + "\n")


def _archiver(n_objects: int) -> Archiver:
    """A library archiver with ~2/3 visual and ~1/3 audio objects."""
    archiver = Archiver()
    audio = max(1, n_objects // 3)
    build_object_library(
        archiver,
        visual_count=n_objects - audio,
        audio_count=audio,
        image_size=48,
    )
    return archiver


def _median_s(fn, repeats: int) -> float:
    fn()  # warm caches and lazy executors out of the measurement
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _measure(interface: QueryInterface, terms, channel="both"):
    """(index_median_s, scan_median_s), with result sets asserted equal."""
    assert interface.select(terms=terms, channel=channel) == interface.select(
        terms=terms, channel=channel, use_index=False
    )
    index_s = _median_s(
        lambda: interface.select(terms=terms, channel=channel), repeats=30
    )
    scan_s = _median_s(
        lambda: interface.select(terms=terms, channel=channel, use_index=False),
        repeats=3,
    )
    return index_s, scan_s


#: Rounds of back-to-back timings over the three archive sizes.
_ROUNDS = 7


@pytest.mark.bench_smoke
def test_index_cost_flat_while_scan_grows_linearly(results):
    sizes = [8, 16, 32]
    interfaces = {n: QueryInterface(_archiver(n)) for n in sizes}
    for interface in interfaces.values():
        for terms in _QUERIES:  # also warms both paths
            assert interface.select(terms=terms) == interface.select(
                terms=terms, use_index=False
            )
    # Growth is a ratio of host times taken at different sizes, so a
    # slow stretch of a shared host must not fall on one size alone:
    # each round times every query's scan at every size back to back,
    # then every query's index lookups (the median of ten) the same way,
    # and each size keeps its fastest round per query.  The lookups get
    # their own pass because a scan leaves garbage and cold caches
    # behind it, which would land on the lookups of its own size.
    index_s = {n: [[] for _ in _QUERIES] for n in sizes}
    scan_s = {n: [[] for _ in _QUERIES] for n in sizes}
    for _ in range(_ROUNDS):
        for query, terms in enumerate(_QUERIES):
            for n_objects in sizes:
                start = time.perf_counter()
                interfaces[n_objects].select(terms=terms, use_index=False)
                scan_s[n_objects][query].append(time.perf_counter() - start)
        for query, terms in enumerate(_QUERIES):
            for n_objects in sizes:
                interface = interfaces[n_objects]
                index_s[n_objects][query].append(
                    _median_s(lambda: interface.select(terms=terms), repeats=10)
                )
    by_size: dict[int, dict[str, float]] = {}
    for n_objects in sizes:
        by_size[n_objects] = {
            "index_s": statistics.median(map(min, index_s[n_objects])),
            "scan_s": statistics.median(map(min, scan_s[n_objects])),
        }
        results.record(
            "C-SEARCH index-served queries",
            f"{n_objects} objects: index {by_size[n_objects]['index_s'] * 1e6:.0f}us "
            f"vs scan {by_size[n_objects]['scan_s'] * 1e3:.2f}ms per query "
            f"({by_size[n_objects]['scan_s'] / by_size[n_objects]['index_s']:.0f}x)",
        )

    small, large = by_size[sizes[0]], by_size[sizes[-1]]
    scan_growth = large["scan_s"] / small["scan_s"]
    index_growth = large["index_s"] / small["index_s"]
    # Quadrupling the archive: the scan pays for every extra object,
    # the index does not.
    assert scan_growth > 2.0
    assert index_growth < scan_growth / 2
    assert large["index_s"] * 10 < large["scan_s"]
    results.record(
        "C-SEARCH index-served queries",
        f"archive x{sizes[-1] // sizes[0]}: scan cost x{scan_growth:.1f} "
        f"(linear), index cost x{index_growth:.1f} (~flat)",
    )
    _BENCH["scaling"] = {
        "sizes": sizes,
        "by_size": by_size,
        "scan_growth": scan_growth,
        "index_growth": index_growth,
    }


def test_voice_query_costs_the_same_order_as_text(results):
    # 'budget' is written in the budget documents and recognized in the
    # budget dictations: the same term, filtered to either channel,
    # exercises the symmetric halves of the index.
    interface = QueryInterface(_archiver(24))
    text_hits = interface.select(terms=["budget"], channel=TEXT)
    voice_hits = interface.select(terms=["budget"], channel=VOICE)
    assert text_hits and voice_hits
    text_s = _median_s(
        lambda: interface.select(terms=["budget"], channel=TEXT), repeats=50
    )
    voice_s = _median_s(
        lambda: interface.select(terms=["budget"], channel=VOICE), repeats=50
    )
    ratio = max(text_s, voice_s) / min(text_s, voice_s)
    assert ratio < 20  # same order either way (cf. C-SYMM)
    results.record(
        "C-SEARCH index-served queries",
        f"symmetry: text 'budget' {text_s * 1e6:.0f}us "
        f"({len(text_hits)} hits) vs voice 'budget' {voice_s * 1e6:.0f}us "
        f"({len(voice_hits)} hits), ratio {ratio:.1f} (bound 20)",
    )
    _BENCH["symmetry"] = {
        "text_s": text_s,
        "voice_s": voice_s,
        "text_hits": len(text_hits),
        "voice_hits": len(voice_hits),
        "ratio": ratio,
    }


def test_index_query_wall_clock(benchmark):
    """Wall-clock latency of one index-served term query."""
    interface = QueryInterface(_archiver(24))
    benchmark(lambda: interface.select(terms=["budget"]))


@pytest.mark.bench_smoke
def test_smoke_search_index(results):
    """Reduced-size C-SEARCH for the CI bench-smoke job.

    Two archive sizes: index answers match the scan oracle on every
    query/channel, and the index-served path beats the scan outright at
    the larger size.
    """
    small = QueryInterface(_archiver(6))
    large = QueryInterface(_archiver(12))
    for interface in (small, large):
        for terms in _QUERIES:
            for channel in ("both", TEXT, VOICE):
                assert interface.select(
                    terms=terms, channel=channel
                ) == interface.select(
                    terms=terms, channel=channel, use_index=False
                )
    index_s, scan_s = _measure(large, ["report"])
    assert index_s < scan_s
    results.record(
        "C-SEARCH index-served queries",
        f"smoke (12 objects): index {index_s * 1e6:.0f}us vs scan "
        f"{scan_s * 1e3:.2f}ms, answers identical on "
        f"{len(_QUERIES) * 3} query/channel combinations",
    )
    _BENCH["smoke"] = {"index_s": index_s, "scan_s": scan_s}

"""The archive-wide symmetric content index (``repro.index``).

The paper's Section 5 architecture recognizes voice at insertion or
idle time so that browse-time search "uses the same access methods as
in text".  This package is that access method at archive scale: a
sharded, LSM-shaped inverted index mapping terms to
``(object_id, channel, position)`` postings — channel ``text`` or
``voice``, position a character offset or a time in seconds — built by
insertion hooks in the archiver, extended by idle-time recognition
sweeps, compacted at idle time, and serving term/phrase/boolean queries
with channel filters so query cost stays ~flat while archive size
grows.  See ``docs/SEARCH.md``.
"""

from repro.index.archive_index import ArchiveIndex, RawPosting
from repro.index.lsm import CompactionResult, IndexShard, Memtable, Segment
from repro.index.planner import (
    AndNode,
    NotNode,
    OrNode,
    PhraseNode,
    TermNode,
    contains_not,
    evaluate,
    leaf_terms,
    matches_units,
    parse_query,
    terms_query,
)
from repro.index.postings import BOTH, TEXT, UNIT_GAP, VOICE, Posting
from repro.index.sharding import HashRing, stable_hash

__all__ = [
    "AndNode",
    "ArchiveIndex",
    "BOTH",
    "CompactionResult",
    "HashRing",
    "IndexShard",
    "Memtable",
    "NotNode",
    "OrNode",
    "PhraseNode",
    "Posting",
    "RawPosting",
    "Segment",
    "TEXT",
    "TermNode",
    "UNIT_GAP",
    "VOICE",
    "contains_not",
    "evaluate",
    "leaf_terms",
    "matches_units",
    "parse_query",
    "stable_hash",
    "terms_query",
]

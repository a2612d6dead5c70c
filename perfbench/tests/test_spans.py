"""Span wrappers and the self-time arithmetic of the traced run."""

from __future__ import annotations

import threading

import pytest

from perfbench.layers import patch_table
from perfbench.spans import (
    HostSpan,
    Patch,
    Tracer,
    attributed_fraction,
    by_name,
    self_times,
    union_length,
)


def span(span_id, parent_id, name, start, end, thread=0):
    return HostSpan(span_id, parent_id, name, thread, start, end)


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert union_length([(5, 6), (0, 2), (1, 3), (4, 4), (2.5, 2.0)]) == 4


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    spans = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 1, "b", 3.0, 6.0),  # overlaps a: together they cover 1..6
        span(4, 1, "c", 9.0, 12.0, thread=1),  # outlives root: clipped to 9..10
        span(5, 2, "leaf", 2.0, 3.0),
        span(6, 2, "leaf", 2.5, 3.5),  # overlaps the first leaf: 2..3.5
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 5 - 1)
    assert selfs[2] == pytest.approx(3 - 1.5)
    assert selfs[3] == pytest.approx(3)
    assert selfs[4] == pytest.approx(3)
    assert selfs[5] == pytest.approx(1)
    stats = by_name(spans)
    assert stats["leaf"].calls == 2
    assert stats["leaf"].self_s == pytest.approx(2)
    assert stats["root"].total_s == pytest.approx(10)


def test_attributed_fraction_counts_root_coverage_inside_windows():
    spans = [
        span(1, None, "r", 0.0, 2.0),
        span(2, None, "r", 1.0, 3.0),
        span(3, 1, "child", 0.5, 1.0),
        span(4, None, "r", 8.0, 12.0),
    ]
    assert attributed_fraction(spans, [(0.0, 4.0), (10.0, 12.0)]) == pytest.approx(
        (3 + 2) / 6
    )


class Thing:
    def double(self, value, *, plus=0):
        return 2 * value + plus

    def fail(self):
        raise KeyError("boom")

    @classmethod
    def make(cls, value):
        return cls, value


def test_wrappers_preserve_arguments_results_and_exceptions_then_restore():
    originals = dict(vars(Thing))
    tracer = Tracer()
    tracer.install([
        Patch(Thing, "double", "t.double", sizer=lambda result: result),
        Patch(Thing, "fail", "t.fail"),
        Patch(Thing, "make", "t.make"),
    ])
    try:
        thing = Thing()
        assert thing.double(3, plus=1) == 7
        with pytest.raises(KeyError, match="boom"):
            thing.fail()
        assert Thing.make(5) == (Thing, 5)
    finally:
        tracer.uninstall()
    for attr in ("double", "fail", "make"):
        assert vars(Thing)[attr] is originals[attr]
    assert [s.name for s in tracer.spans] == ["t.double", "t.fail", "t.make"]
    assert tracer.spans[0].nbytes == 7
    assert all(s.parent_id is None for s in tracer.spans)


class Pair:
    def outer(self):
        self.inner()
        worker = threading.Thread(target=self.inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    def inner(self):
        return 1


def test_parent_stacks_are_per_thread():
    tracer = Tracer()
    tracer.install([Patch(Pair, "outer", "outer"), Patch(Pair, "inner", "inner")])
    try:
        Pair().outer()
    finally:
        tracer.uninstall()
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = [s for s in tracer.spans if s.name == "inner"]
    same = [s for s in inner if s.thread == outer.thread]
    other = [s for s in inner if s.thread != outer.thread]
    assert [s.parent_id for s in same] == [outer.span_id]
    assert [s.parent_id for s in other] == [None]


def test_every_patch_target_exists_and_is_restored():
    patches = patch_table()
    before = [vars(p.owner)[p.attr] for p in patches]
    tracer = Tracer()
    tracer.install(patches)
    assert all(vars(p.owner)[p.attr] is not b for p, b in zip(patches, before))
    tracer.uninstall()
    assert [vars(p.owner)[p.attr] for p in patches] == before

"""The presentation manager: stores, relevant navigation, lazy views."""

import pytest

from repro.core.browsing import BrowseCommand
from repro.cluster import ClusterNode, ClusterRouter
from repro.core.manager import LocalStore, PresentationManager
from repro.core.query_session import QueryBrowser
from repro.errors import BrowsingError, ObjectNotFoundError
from repro.scenarios import (
    build_big_map_object,
    build_object_library,
    build_subway_map_with_relevants,
)
from repro.server import Archiver
from repro.server.archiver import CachingArchiver
from repro.storage.cache import LRUCache
from repro.trace import EventKind
from repro.workstation.station import Workstation


class TestLocalStore:
    def test_add_and_fetch(self, generator):
        from repro.objects import MultimediaObject

        store = LocalStore()
        obj = MultimediaObject(object_id=generator.object_id()).archive()
        store.add(obj)
        fetched, cost = store.fetch_object(obj.object_id)
        assert fetched is obj
        assert cost == 0.0

    def test_missing_object(self, generator):
        with pytest.raises(ObjectNotFoundError):
            LocalStore().fetch_object(generator.object_id())


class TestRelevantNavigation:
    @pytest.fixture
    def rig(self):
        workstation = Workstation()
        store = LocalStore()
        parent, overlays = build_subway_map_with_relevants()
        store.add(parent)
        for overlay in overlays:
            store.add(overlay)
        manager = PresentationManager(store, workstation)
        session = manager.open(parent.object_id)
        return manager, session, workstation, parent

    def test_indicators_visible_on_map(self, rig):
        _, session, workstation, parent = rig
        indicators = session.visible_indicators()
        assert len(indicators) == 2
        shown = workstation.trace.of_kind(EventKind.SHOW_INDICATOR)
        assert len(shown) >= 2

    def test_select_superimposes_on_parent(self, rig):
        manager, session, workstation, _ = rig
        before = workstation.screen.composite.pixels.copy()
        indicator = session.visible_indicators()[0]["indicator"]
        child = manager.select_relevant(session, indicator)
        assert manager.nesting_depth == 1
        assert manager.current_session is child
        after = workstation.screen.composite.pixels
        assert (after != before).sum() > 0
        assert (
            workstation.trace.last(EventKind.ENTER_RELEVANT).detail["indicator"]
            == indicator
        )

    def test_return_restores_parent(self, rig):
        manager, session, workstation, parent = rig
        indicator = session.visible_indicators()[0]["indicator"]
        child = manager.select_relevant(session, indicator)
        parent_session = manager.return_from_relevant(child)
        assert parent_session is session
        assert manager.nesting_depth == 0
        assert workstation.trace.of_kind(EventKind.RETURN_RELEVANT)
        # The parent's page is re-displayed.
        assert workstation.screen.page_number == session.current_page_number

    def test_unknown_indicator_rejected(self, rig):
        manager, session, _, _ = rig
        with pytest.raises(BrowsingError):
            manager.select_relevant(session, "ghost")

    def test_only_top_session_can_branch(self, rig):
        manager, session, _, _ = rig
        indicator = session.visible_indicators()[0]["indicator"]
        manager.select_relevant(session, indicator)
        with pytest.raises(BrowsingError):
            manager.select_relevant(session, indicator)  # not the top

    def test_return_from_root_rejected(self, rig):
        manager, session, _, _ = rig
        with pytest.raises(BrowsingError):
            manager.return_from_relevant(session)

    def test_nested_relevance_via_commands(self, rig):
        manager, session, _, _ = rig
        indicator = session.visible_indicators()[0]["indicator"]
        child = session.execute(BrowseCommand.SELECT_RELEVANT, indicator=indicator)
        assert BrowseCommand.RETURN_FROM_RELEVANT.value in child.menu.commands
        back = child.execute(BrowseCommand.RETURN_FROM_RELEVANT)
        assert back is session

    def test_in_relevant(self, rig):
        manager, session, _, _ = rig
        assert not manager.in_relevant(session)
        indicator = session.visible_indicators()[0]["indicator"]
        child = manager.select_relevant(session, indicator)
        assert manager.in_relevant(child)
        assert not manager.in_relevant(session)


class TestArchiverBackedViews:
    @pytest.fixture(scope="class")
    def rig(self):
        archiver = Archiver()
        big = build_big_map_object(size=1024, miniature_scale=8)
        archiver.store(big)
        workstation = Workstation()
        manager = PresentationManager(archiver, workstation)
        session = manager.open(big.object_id)
        return manager, session, workstation, big

    def test_open_defers_source_bitmap(self, rig):
        manager, session, _, big = rig
        # The full 1024x1024 bitmap (1 MiB) must not have been shipped.
        assert manager.bytes_shipped < 200_000
        full = session.object.images[0]
        assert not full.is_representation
        assert full.bitmap is None  # deferred

    def test_miniature_present_locally(self, rig):
        _, session, _, _ = rig
        mini = session.object.images[1]
        assert mini.is_representation
        assert mini.bitmap is not None

    def test_view_fetches_only_window(self, rig):
        manager, session, workstation, big = rig
        shipped_before = manager.bytes_shipped
        view = session.define_view(x=64, y=64, width=100, height=80)
        window = view.fetch() if False else None  # define already fetched
        shipped = manager.bytes_shipped - shipped_before
        assert shipped == 100 * 80
        transfers = workstation.trace.of_kind(EventKind.TRANSFER)
        assert transfers[-1].detail["bytes"] == 8000
        __ = window

    def test_window_pixels_match_source(self, rig):
        _, session, _, big = rig
        session.goto_page(1)
        view = session.define_view(x=10, y=20, width=32, height=16)
        result = view.move(0, 0)
        expected = big.images[0].bitmap.crop(result.rect)
        assert result.bitmap.equals(expected)

    def test_view_time_charged_to_clock(self, rig):
        _, session, workstation, _ = rig
        before = workstation.clock.now
        session.goto_page(1)
        session.define_view(x=0, y=0, width=200, height=200)
        assert workstation.clock.now > before


class TestMiniatureBrowsing:
    def test_query_streams_cards_and_opens(self):
        archiver = Archiver()
        objects = build_object_library(archiver, visual_count=4, audio_count=2)
        workstation = Workstation()
        manager = PresentationManager(archiver, workstation)
        cards = list(manager.browse_by_content(kind="document"))
        assert len(cards) == 4
        assert workstation.trace.of_kind(EventKind.MINIATURE_SHOWN)
        # Clock advanced to the last card's arrival.
        assert workstation.clock.now >= cards[-1].available_at_s

        session = manager.open(cards[0].object_id)
        assert session.current_page_number == 1
        __ = objects

    def test_local_store_cannot_query(self):
        manager = PresentationManager(LocalStore(), Workstation())
        with pytest.raises(BrowsingError):
            list(manager.browse_by_content(terms=["x"]))

    def test_caching_front_queries_like_its_archiver(self):
        def cards(store):
            build_object_library(store, visual_count=4, audio_count=2)
            manager = PresentationManager(store, Workstation())
            return [
                (
                    card.object_id, card.driving_mode, card.summary,
                    card.nbytes, card.available_at_s,
                    card.miniature and card.miniature.bitmap.pixels.tobytes(),
                    card.voice_sample and card.voice_sample.codes,
                )
                for card in manager.browse_by_content(terms=["budget"])
            ]

        plain = cards(Archiver())
        assert {mode for _, mode, *_ in plain} == {"visual", "audio"}
        assert cards(CachingArchiver(Archiver(), LRUCache(8 << 20))) == plain

    def test_cluster_cannot_query(self):
        # A cluster's archive index is split over its nodes; a
        # cluster-wide fan-out is not built.
        router = ClusterRouter([ClusterNode(0)], replication=1)
        manager = PresentationManager(router, Workstation())
        with pytest.raises(BrowsingError):
            list(manager.browse_by_content(terms=["x"]))
        with pytest.raises(BrowsingError):
            QueryBrowser(manager)

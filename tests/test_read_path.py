"""One read path from workstation to platter, whatever the server store.

The presentation manager "requests the appropriate pieces of
information from the multimedia object server subsystems" and "will
only retrieve the relevant data".  It does so through one protocol —
record, version token, recognition side table, whole pieces by tag,
and row slices of a piece — so a plain :class:`Archiver`, a
:class:`CachingArchiver` and a :class:`ClusterRouter` must present the
same thing.  A seeded script opens, pages and views a small library, a
city walk and a reduced C-VIEW map on each store:

* an ``Archiver``, a ``CachingArchiver``, a started ``ServerFrontend``
  and a one-node router hold identical platters, so every ``Trace``
  event, the bytes shipped and every session's ``open_cost_s`` agree
  exactly;
* a three-node R=2 router holds each object on a different subset of
  platters, so only times and device service times may differ.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterNode, ClusterRouter
from repro.core.browsing import BrowseCommand
from repro.core.manager import PresentationManager
from repro.core.visual import VisualSession
from repro.ids import IdGenerator
from repro.scenarios import build_big_map_object, build_object_library
from repro.scenarios.city import build_city_walk_simulation
from repro.server import Archiver, NetworkLink
from repro.server.archiver import CachingArchiver
from repro.server.frontend import ServerFrontend
from repro.storage.cache import LRUCache
from repro.trace import EventKind
from repro.workstation.station import Workstation

MAP_SIZE = 512


@pytest.fixture(scope="module")
def objects():
    library = build_object_library(Archiver(), visual_count=4, audio_count=2)
    walk = build_city_walk_simulation(IdGenerator("walk"))
    big = build_big_map_object(
        IdGenerator("map"), size=MAP_SIZE, miniature_scale=8
    )
    return [*library, walk, big]


def _archiver(objects):
    archiver = Archiver()
    for obj in objects:
        archiver.store(obj)
    return archiver


def _caching(objects):
    caching = CachingArchiver(Archiver(), LRUCache(32 << 20))
    for obj in objects:
        caching.store(obj)
    return caching


def _router(objects, nodes, replication):
    router = ClusterRouter(
        [ClusterNode(i) for i in range(nodes)], replication=replication
    )
    for obj in objects:
        router.store(obj)
    return router


def _view(session: VisualSession) -> None:
    """Define a view on the current image and move it once."""
    image = session.object.image(session.current_page.image_id)
    if image.is_representation:
        image = session.object.image(image.source_image_id)
    side = min(image.width, image.height)
    session.define_view(
        x=side // 8, y=side // 8, width=side // 4, height=side // 4
    )
    session.move_view(dx=side // 8, dy=side // 16)


def _browse(store, objects):
    """Open, page and view every object; returns what the user saw."""
    workstation = Workstation()
    manager = PresentationManager(store, workstation, link=NetworkLink())
    costs = []
    for obj in objects:
        session = manager.open(obj.object_id)
        costs.append(session.open_cost_s)
        if isinstance(session, VisualSession):
            for _ in range(session.page_count):
                if session.current_page.image_id is not None:
                    _view(session)
                if session.current_page_number == session.page_count:
                    break
                session.execute(BrowseCommand.NEXT_PAGE)
        else:
            session.play_for(2.0)
            if BrowseCommand.NEXT_PAGE.value in session.menu:
                session.execute(BrowseCommand.NEXT_PAGE)
            session.play_for(1.0)
    events = [
        (event.time, event.kind, event.detail)
        for event in workstation.trace
    ]
    return events, manager.bytes_shipped, costs


@pytest.fixture(scope="module")
def reference(objects):
    return _browse(_archiver(objects), objects)


class TestOneOpenPath:
    def test_script_exercises_the_server_path(self, reference, objects):
        events, shipped, costs = reference
        kinds = [kind for _, kind, _ in events]
        assert kinds.count(EventKind.TRANSFER) > len(objects)  # + windows
        assert EventKind.DECODE_VOICE in kinds
        assert all(cost > 0.0 for cost in costs)
        # The map's source bitmap stays on the server: views read their
        # windows' rows of it.
        windows = [
            detail for _, kind, detail in events
            if kind is EventKind.TRANSFER and "piece" in detail
        ]
        assert windows
        assert shipped > 0

    @pytest.mark.parametrize(
        "make_store",
        [_caching, lambda objects: _router(objects, 1, 1)],
        ids=["caching-archiver", "one-node-router"],
    )
    def test_single_platter_stores_agree_exactly(
        self, make_store, objects, reference
    ):
        assert _browse(make_store(objects), objects) == reference

    def test_started_frontend_agrees_exactly(self, objects, reference):
        # A worker pool over an archiver serves the same protocol; every
        # open and every view window is one admitted request.
        with ServerFrontend(_archiver(objects), workers=1) as frontend:
            assert _browse(frontend, objects) == reference
            completed = frontend.metrics.snapshot().completed
        transfers = [
            kind for _, kind, _ in reference[0] if kind is EventKind.TRANSFER
        ]
        assert completed == len(transfers)

    def test_three_node_router_agrees_apart_from_service_times(
        self, objects, reference
    ):
        events, shipped, _ = _browse(_router(objects, 3, 2), objects)

        def untimed(trace):
            return [
                (kind, {k: v for k, v in detail.items() if k != "service_s"})
                for _, kind, detail in trace
            ]

        assert untimed(events) == untimed(reference[0])
        assert shipped == reference[1]

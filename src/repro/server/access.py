"""Content access methods: the attribute index.

"Users submit queries based on object content from their workstation.
The queries are evaluated by the server subsystem against the
multimedia data base."  Content terms — text, recognized voice and
image labels — are served by the archive-wide
:class:`~repro.index.ArchiveIndex`; this module keeps the other access
method the paper names, exact-match lookup on descriptor attributes.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import QueryError
from repro.ids import ObjectId
from repro.objects.attributes import AttributeValue
from repro.objects.model import MultimediaObject


class ContentIndex:
    """Inverted attribute index over a collection of archived objects."""

    def __init__(self) -> None:
        self._attribute_index: dict[tuple[str, AttributeValue], set[ObjectId]] = (
            defaultdict(set)
        )
        self._indexed: set[ObjectId] = set()

    def __len__(self) -> int:
        return len(self._indexed)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._indexed

    def index_object(self, obj: MultimediaObject) -> None:
        """Index one object's attributes."""
        for name, value in obj.attributes:
            self._attribute_index[(name, value)].add(obj.object_id)
        self._indexed.add(obj.object_id)

    def search_attributes(self, **criteria: AttributeValue) -> set[ObjectId]:
        """Objects whose attributes equal every criterion.

        Raises
        ------
        QueryError
            If no criteria are given.
        """
        if not criteria:
            raise QueryError("attribute search needs at least one criterion")
        result: set[ObjectId] | None = None
        for name, value in criteria.items():
            matching = self._attribute_index.get((name, value), set())
            result = matching.copy() if result is None else result & matching
            if not result:
                return set()
        return result or set()

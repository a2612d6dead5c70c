"""The query-specification and sequential-browsing loop of Section 5.

"Users submit queries based on object content from their workstation...
Miniatures of qualifying objects may be returned to the user using a
sequential browsing interface...  When the user selects the miniature
of an object the multimedia object presentation manager undertakes the
responsibility to present the information of the selected object...
The user may interrupt this process and return back to the sequential
browsing interface or to the query specification interface to refine
his filter."

:class:`QueryBrowser` is that loop as a state machine:
``SPECIFYING → BROWSING → PRESENTING``, with explicit transitions back
to either earlier state.
"""

from __future__ import annotations

import enum

from repro.errors import BrowsingError, QueryError
from repro.ids import ObjectId
from repro.server.query import MiniatureCard


class QueryState(enum.Enum):
    """Where the user is in the query loop."""

    SPECIFYING = "specifying"
    BROWSING = "browsing"
    PRESENTING = "presenting"


class QueryBrowser:
    """Drives the query → miniatures → present → refine loop.

    Parameters
    ----------
    manager:
        A :class:`~repro.core.manager.PresentationManager` whose store
        keeps an archive index (:class:`BrowsingError` otherwise).
    """

    def __init__(self, manager) -> None:
        self._manager = manager
        self._interface = manager.query_interface()
        self._state = QueryState.SPECIFYING
        self._terms: list[str] = []
        self._criteria: dict = {}
        self._result_ids: list[ObjectId] = []
        self._cursor = 0
        self._cards: list[MiniatureCard] = []

    @property
    def state(self) -> QueryState:
        """Current loop state."""
        return self._state

    @property
    def filter_description(self) -> str:
        """Human-readable current filter."""
        parts = []
        if self._terms:
            parts.append("terms: " + ", ".join(self._terms))
        if self._criteria:
            parts.append(
                "attributes: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self._criteria.items()))
            )
        return "; ".join(parts) if parts else "(no filter)"

    # ------------------------------------------------------------------
    # query specification
    # ------------------------------------------------------------------

    def specify(self, terms: list[str] | None = None, **criteria) -> int:
        """Set a fresh filter and evaluate it; returns the result count."""
        self._terms = list(terms or [])
        self._criteria = dict(criteria)
        return self._evaluate()

    def refine(self, extra_terms: list[str] | None = None, **extra_criteria) -> int:
        """Narrow the current filter (conjunctively) and re-evaluate.

        Raises
        ------
        QueryError
            If nothing is added.
        """
        if not extra_terms and not extra_criteria:
            raise QueryError("refinement must add terms or criteria")
        self._terms.extend(extra_terms or [])
        self._criteria.update(extra_criteria)
        return self._evaluate()

    def _evaluate(self) -> int:
        self._result_ids = self._interface.select(
            terms=self._terms or None, **self._criteria
        )
        self._cursor = 0
        self._cards = []
        self._state = QueryState.BROWSING
        return len(self._result_ids)

    # ------------------------------------------------------------------
    # sequential miniature browsing
    # ------------------------------------------------------------------

    def next_miniature(self) -> MiniatureCard | None:
        """Show the next miniature of the result stream (None at the end).

        Raises
        ------
        BrowsingError
            When not in the BROWSING state.
        """
        if self._state is not QueryState.BROWSING:
            raise BrowsingError(
                f"not browsing miniatures (state: {self._state.value})"
            )
        if self._cursor >= len(self._result_ids):
            return None
        # Materialize the stream lazily, one card per call.
        while len(self._cards) <= self._cursor:
            remaining = self._result_ids[len(self._cards):]
            card = next(iter(self._interface.miniature_stream(remaining[:1])))
            self._cards.append(card)
            self._manager.workstation.clock.advance(
                max(card.available_at_s, 0.0)
            )
        card = self._cards[self._cursor]
        self._cursor += 1
        return card

    # ------------------------------------------------------------------
    # presenting and returning
    # ------------------------------------------------------------------

    def select(self, card: MiniatureCard):
        """Open the object behind a miniature; enters PRESENTING."""
        if self._state is not QueryState.BROWSING:
            raise BrowsingError(
                f"select a miniature while browsing (state: {self._state.value})"
            )
        session = self._manager.open(card.object_id)
        self._state = QueryState.PRESENTING
        return session

    def back_to_miniatures(self) -> None:
        """Interrupt presentation, back to the sequential interface."""
        if self._state is not QueryState.PRESENTING:
            raise BrowsingError("not presenting an object")
        self._state = QueryState.BROWSING

    def back_to_query(self) -> None:
        """Return to the query-specification interface to refine."""
        self._state = QueryState.SPECIFYING

"""Deterministic fault schedules.

A :class:`FaultPlan` is a seeded schedule of faults to inject at named
sites (see :mod:`repro.faults.registry`).  Production code calls
:meth:`FaultPlan.fire` at each site; the plan counts arrivals and, when
an armed :class:`FaultSpec` matches the current arrival, raises the
corresponding typed error:

* ``TRANSIENT`` — :class:`~repro.errors.TransientIOError`; the
  operation did not happen and may be retried.
* ``TORN_WRITE`` — only meaningful at device-write sites, where the
  :class:`~repro.faults.device.FaultyDevice` writes a prefix of the
  payload before raising :class:`~repro.errors.TornWriteError` (or
  :class:`~repro.errors.SimulatedCrash` when ``then_crash`` is set).
* ``CRASH`` — :class:`~repro.errors.SimulatedCrash`; the process is
  considered dead.  Tests then re-open the archive from device bytes
  alone and call ``recover()``.

Every injected fault is recorded in :attr:`FaultPlan.events` and
counted in an optional metrics sink, so a recovered archive can report
exactly which fault it survived.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass, field

from repro.errors import (
    FaultConfigError,
    SimulatedCrash,
    TornWriteError,
    TransientIOError,
)
from repro.faults.registry import (
    FAULT_SITES,
    WRITE_SITES,
    require_site,
)


class FaultKind(enum.Enum):
    """What kind of failure to inject at a site."""

    TRANSIENT = "transient"
    TORN_WRITE = "torn_write"
    CRASH = "crash"


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire ``kind`` at the ``hit``-th arrival at ``site``.

    Attributes
    ----------
    site:
        Registered fault-site name.
    kind:
        Failure mode to inject.
    hit:
        1-based arrival index at the site that triggers the fault.
    count:
        For ``TRANSIENT``: how many consecutive arrivals (starting at
        ``hit``) fail before the site heals — the shape retry loops
        must survive.
    tear_fraction:
        For ``TORN_WRITE``: fraction of the payload that reaches the
        medium (always at least one byte short of complete).
    then_crash:
        For ``TORN_WRITE``: raise :class:`SimulatedCrash` instead of
        :class:`TornWriteError` after the partial write — a crash in
        the middle of a device write.
    """

    site: str
    kind: FaultKind
    hit: int = 1
    count: int = 1
    tear_fraction: float = 0.5
    then_crash: bool = False

    def __post_init__(self) -> None:
        require_site(self.site)
        if self.hit < 1:
            raise FaultConfigError(f"hit index must be >= 1: {self.hit}")
        if self.count < 1:
            raise FaultConfigError(f"fault count must be >= 1: {self.count}")
        if not 0.0 <= self.tear_fraction < 1.0:
            raise FaultConfigError(
                f"tear fraction must be in [0, 1): {self.tear_fraction}"
            )
        if self.kind is FaultKind.TORN_WRITE and self.site not in WRITE_SITES:
            raise FaultConfigError(
                f"torn writes only make sense at write sites, not {self.site!r}"
            )
        if self.then_crash and self.kind is not FaultKind.TORN_WRITE:
            raise FaultConfigError("then_crash is only valid for torn writes")

    def matches(self, arrival: int) -> bool:
        """Whether this spec fires at the given 1-based arrival index."""
        return self.hit <= arrival < self.hit + self.count


@dataclass(frozen=True)
class FaultEvent:
    """One fault the plan actually injected."""

    seq: int
    site: str
    kind: FaultKind
    arrival: int


class FaultPlan:
    """A deterministic, thread-safe schedule of fault injections.

    Parameters
    ----------
    specs:
        Faults to arm up front (more can be armed via :meth:`arm`).
    metrics:
        Optional :class:`repro.server.metrics.ServerMetrics`; injected
        faults are counted in its ``fault_counts``.
    """

    def __init__(self, specs=(), *, metrics=None) -> None:
        self._specs: list[FaultSpec] = list(specs)
        self._arrivals: dict[str, int] = {}
        self._metrics = metrics
        self._lock = threading.Lock()
        self.events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def arm(
        self,
        site: str,
        kind: FaultKind | str,
        *,
        hit: int = 1,
        count: int = 1,
        tear_fraction: float = 0.5,
        then_crash: bool = False,
    ) -> "FaultPlan":
        """Arm one fault; returns self for chaining.

        Raises
        ------
        FaultConfigError
            On an unknown site or invalid spec.
        """
        if isinstance(kind, str):
            kind = FaultKind(kind)
        self._specs.append(
            FaultSpec(
                site=site,
                kind=kind,
                hit=hit,
                count=count,
                tear_fraction=tear_fraction,
                then_crash=then_crash,
            )
        )
        return self

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        n_faults: int = 1,
        sites: list[str] | None = None,
        kinds: list[FaultKind] | None = None,
        max_hit: int = 3,
        metrics=None,
    ) -> "FaultPlan":
        """A seeded random plan drawn from the site registry.

        The same seed always yields the same schedule, so a failing
        sweep case is reproducible from its seed alone.
        """
        rng = random.Random(seed)
        pool = list(sites) if sites is not None else list(FAULT_SITES)
        plan = cls(metrics=metrics)
        for _ in range(n_faults):
            site = rng.choice(pool)
            allowed = kinds or [FaultKind.TRANSIENT, FaultKind.CRASH] + (
                [FaultKind.TORN_WRITE] if site in WRITE_SITES else []
            )
            candidates = [
                k
                for k in allowed
                if k is not FaultKind.TORN_WRITE or site in WRITE_SITES
            ]
            plan.arm(
                site,
                rng.choice(candidates),
                hit=rng.randint(1, max_hit),
                tear_fraction=rng.uniform(0.0, 0.95),
            )
        return plan

    @property
    def specs(self) -> list[FaultSpec]:
        """The armed faults (a copy)."""
        return list(self._specs)

    def disarm(self, site: str | None = None) -> int:
        """Remove armed specs (all of them, or just one site's).

        Arrival counters and the event log are kept — only *future*
        injections are cancelled.  Returns the number of specs removed.
        The simulation harness uses this at quiescent points: chaos
        stops, outstanding faults are disarmed, and the invariant
        checker then observes the system without new injections firing
        mid-check.
        """
        with self._lock:
            if site is None:
                removed = len(self._specs)
                self._specs = []
            else:
                kept = [spec for spec in self._specs if spec.site != site]
                removed = len(self._specs) - len(kept)
                self._specs = kept
        return removed

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------

    def _arrive(self, site: str) -> tuple[FaultSpec | None, int]:
        """Count one arrival at ``site``; return the matching spec, if any."""
        require_site(site)
        with self._lock:
            arrival = self._arrivals.get(site, 0) + 1
            self._arrivals[site] = arrival
            for spec in self._specs:
                if spec.site == site and spec.matches(arrival):
                    return spec, arrival
        return None, arrival

    def _record(self, spec: FaultSpec, arrival: int) -> None:
        with self._lock:
            event = FaultEvent(
                seq=len(self.events),
                site=spec.site,
                kind=spec.kind,
                arrival=arrival,
            )
            self.events.append(event)
        if self._metrics is not None:
            self._metrics.on_fault(spec.site, spec.kind.value)

    def fire(self, site: str) -> None:
        """Count an arrival at ``site``, raising if a fault is due.

        Raises
        ------
        TransientIOError
            For an armed ``TRANSIENT`` fault.
        SimulatedCrash
            For an armed ``CRASH`` fault.
        FaultConfigError
            If a ``TORN_WRITE`` is armed here — torn writes need the
            payload-aware :meth:`torn_spec` path of the FaultyDevice.
        """
        spec, arrival = self._arrive(site)
        if spec is None:
            return
        if spec.kind is FaultKind.TORN_WRITE:
            raise FaultConfigError(
                f"torn write at {site!r} must be injected through a "
                "FaultyDevice, not fire()"
            )
        self._record(spec, arrival)
        if spec.kind is FaultKind.TRANSIENT:
            raise TransientIOError(
                f"injected transient fault at {site!r} (arrival {arrival})"
            )
        raise SimulatedCrash(f"injected crash at {site!r} (arrival {arrival})")

    def torn_spec(self, site: str) -> FaultSpec | None:
        """Device-write arrival: return a due ``TORN_WRITE`` spec, if any.

        Used by :class:`~repro.faults.device.FaultyDevice`, which must
        write the partial payload itself before raising.  Non-torn
        faults due at the site are raised here exactly as by
        :meth:`fire`.

        Raises
        ------
        TransientIOError, SimulatedCrash
            When a non-torn fault is due at this arrival.
        """
        spec, arrival = self._arrive(site)
        if spec is None:
            return None
        self._record(spec, arrival)
        if spec.kind is FaultKind.TRANSIENT:
            raise TransientIOError(
                f"injected transient fault at {site!r} (arrival {arrival})"
            )
        if spec.kind is FaultKind.CRASH:
            raise SimulatedCrash(
                f"injected crash at {site!r} (arrival {arrival})"
            )
        return spec

    def raise_torn(self, spec: FaultSpec, site: str, written: int) -> None:
        """Raise the error terminating a torn write of ``written`` bytes."""
        if spec.then_crash:
            raise SimulatedCrash(
                f"injected crash mid-write at {site!r} "
                f"({written} bytes reached the device)"
            )
        raise TornWriteError(
            f"injected torn write at {site!r} "
            f"({written} bytes reached the device)"
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def arrivals(self, site: str) -> int:
        """How many times ``site`` has been reached so far."""
        with self._lock:
            return self._arrivals.get(site, 0)

    def fired(self, site: str | None = None) -> int:
        """Number of faults injected (optionally at one site)."""
        with self._lock:
            if site is None:
                return len(self.events)
            return sum(1 for event in self.events if event.site == site)


def fire(plan: FaultPlan | None, site: str) -> None:
    """Fire ``site`` on ``plan`` if a plan is attached (module helper).

    The common pattern ``fire(self._fault_plan, SITE)`` keeps the
    production code one line per site and free when no plan is wired.
    """
    if plan is not None:
        plan.fire(site)

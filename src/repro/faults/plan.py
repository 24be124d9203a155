"""The fault plan model: timed, seeded fault events declared as data.

A :class:`FaultPlan` is an ordered collection of fault events — router
partitions, latency inflation windows, per-kind message loss and
duplication, forced crash/restart bursts, slow-node delay injection —
each pinned to simulated time.  Plans are *pure data*: they serialize to
and from plain dicts/JSON, carry no references to a live system, and
every stochastic choice an event makes at run time draws from an RNG
stream derived from ``(master_seed, event index)``.  A chaos campaign is
therefore fully reproducible from ``(master_seed, plan)`` alone.

Event reference:

========================  ====================================================
:class:`LinkPartition`    cut all paths between two router (or region) groups
:class:`LatencyInflation` multiply path latency by a factor during a window
:class:`MessageLoss`      drop messages with probability ``rate`` in a window,
                          optionally filtered by message kind or router set
:class:`Duplication`      deliver extra copies of messages in a window
:class:`CrashBurst`       force a fraction of online endsystems to crash at an
                          instant and restart after ``down_for`` seconds
:class:`SlowNode`         add delay to all traffic of selected endsystems
========================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, ClassVar

#: Registry of event kinds for deserialization.
_EVENT_TYPES: dict[str, type] = {}


def _register(cls: type) -> type:
    _EVENT_TYPES[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class FaultEvent:
    """Base class for all fault events."""

    kind: ClassVar[str] = "abstract"

    def validate(self) -> None:
        """Raise ValueError if the event is ill-formed."""

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (lists for tuples, plus the ``kind`` tag)."""
        data: dict[str, Any] = {"kind": self.kind}
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, tuple):
                value = list(value)
            data[item.name] = value
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "FaultEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        data = dict(data)
        kind = data.pop("kind", None)
        cls = _EVENT_TYPES.get(kind)
        if cls is None:
            raise ValueError(f"unknown fault event kind {kind!r}")
        names = {item.name for item in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(
                f"unknown field(s) {sorted(unknown)} for fault event {kind!r}"
            )
        converted = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        }
        event = cls(**converted)
        event.validate()
        return event


def _check_window(event: FaultEvent, start: float, end: float) -> None:
    if start < 0:
        raise ValueError(f"{event.kind}: start must be >= 0, got {start}")
    if end <= start:
        raise ValueError(
            f"{event.kind}: end ({end}) must be after start ({start})"
        )


def _check_rate(event: FaultEvent, rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"{event.kind}: rate must be in [0, 1), got {rate}")


@_register
@dataclass(frozen=True)
class LinkPartition(FaultEvent):
    """Cut all paths between two router groups during ``[start, heal_at)``.

    Groups may be given as explicit router ids (``routers_a/b``) or, for
    topologies carrying region information (:func:`~repro.net.topology.
    corpnet_like`), as region ids (``regions_a/b``) resolved at install
    time.  Messages crossing the cut drop with reason ``"partition"``.
    """

    kind: ClassVar[str] = "link_partition"

    start: float = 0.0
    heal_at: float = 0.0
    routers_a: tuple[int, ...] = ()
    routers_b: tuple[int, ...] = ()
    regions_a: tuple[int, ...] = ()
    regions_b: tuple[int, ...] = ()

    def validate(self) -> None:
        _check_window(self, self.start, self.heal_at)
        if not (self.routers_a or self.regions_a):
            raise ValueError(f"{self.kind}: side A is empty")
        if not (self.routers_b or self.regions_b):
            raise ValueError(f"{self.kind}: side B is empty")


@_register
@dataclass(frozen=True)
class LatencyInflation(FaultEvent):
    """Multiply path latency by ``factor`` during ``[start, end)``.

    ``routers`` limits the inflation to paths touching those routers;
    empty means every path (a WAN-wide brown-out).
    """

    kind: ClassVar[str] = "latency_inflation"

    start: float = 0.0
    end: float = 0.0
    factor: float = 1.0
    routers: tuple[int, ...] = ()

    def validate(self) -> None:
        _check_window(self, self.start, self.end)
        if self.factor <= 0:
            raise ValueError(
                f"{self.kind}: factor must be positive, got {self.factor}"
            )


@_register
@dataclass(frozen=True)
class MessageLoss(FaultEvent):
    """Drop messages with probability ``rate`` during ``[start, end)``.

    ``kinds`` restricts the loss to those protocol message kinds (empty
    means all kinds): a transport kind such as ``"P_ROUTE"``, or the
    application kind a route envelope carries, such as
    ``"SW_META_PUSH"``; ``routers`` restricts it to messages with at least
    one endpoint attached to the given routers (per-link loss).
    """

    kind: ClassVar[str] = "message_loss"

    start: float = 0.0
    end: float = 0.0
    rate: float = 0.0
    kinds: tuple[str, ...] = ()
    routers: tuple[int, ...] = ()

    def validate(self) -> None:
        _check_window(self, self.start, self.end)
        _check_rate(self, self.rate)


@_register
@dataclass(frozen=True)
class Duplication(FaultEvent):
    """Duplicate messages with probability ``rate`` during ``[start, end)``.

    Each affected message is delivered ``copies`` extra times, every copy
    ``copy_delay`` seconds after the previous delivery.  Exercises the
    stack's idempotence (versioned submissions, keyed contributions).
    """

    kind: ClassVar[str] = "duplication"

    start: float = 0.0
    end: float = 0.0
    rate: float = 0.0
    copies: int = 1
    copy_delay: float = 0.05
    kinds: tuple[str, ...] = ()

    def validate(self) -> None:
        _check_window(self, self.start, self.end)
        _check_rate(self, self.rate)
        if self.copies < 1:
            raise ValueError(f"{self.kind}: copies must be >= 1, got {self.copies}")
        if self.copy_delay < 0:
            raise ValueError(
                f"{self.kind}: copy_delay must be >= 0, got {self.copy_delay}"
            )


@_register
@dataclass(frozen=True)
class CrashBurst(FaultEvent):
    """Crash a fraction of the online population at time ``at``.

    Each crashed endsystem fail-stops (layered on top of whatever the
    availability trace says) and restarts ``down_for`` seconds later,
    plus a per-endsystem uniform jitter in ``[0, restart_jitter)`` to
    avoid a thundering-herd rejoin.
    """

    kind: ClassVar[str] = "crash_burst"

    at: float = 0.0
    fraction: float = 0.0
    down_for: float = 60.0
    restart_jitter: float = 0.0

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError(f"{self.kind}: at must be >= 0, got {self.at}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"{self.kind}: fraction must be in (0, 1], got {self.fraction}"
            )
        if self.down_for <= 0:
            raise ValueError(
                f"{self.kind}: down_for must be positive, got {self.down_for}"
            )
        if self.restart_jitter < 0:
            raise ValueError(
                f"{self.kind}: restart_jitter must be >= 0, got {self.restart_jitter}"
            )


@_register
@dataclass(frozen=True)
class SlowNode(FaultEvent):
    """Delay all traffic to/from selected endsystems during ``[start, end)``.

    Selection is either explicit (``endsystems``: indexes into the
    deployment's node list) or random (``fraction`` of the population,
    drawn from the event's seeded stream at install time).
    """

    kind: ClassVar[str] = "slow_node"

    start: float = 0.0
    end: float = 0.0
    extra_delay: float = 0.0
    endsystems: tuple[int, ...] = ()
    fraction: float = 0.0

    def validate(self) -> None:
        _check_window(self, self.start, self.end)
        if self.extra_delay <= 0:
            raise ValueError(
                f"{self.kind}: extra_delay must be positive, got {self.extra_delay}"
            )
        if not self.endsystems and self.fraction <= 0:
            raise ValueError(
                f"{self.kind}: select endsystems explicitly or give a fraction"
            )
        if self.fraction < 0 or self.fraction > 1:
            raise ValueError(
                f"{self.kind}: fraction must be in [0, 1], got {self.fraction}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated collection of fault events."""

    events: tuple[FaultEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            event.validate()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Latest time any event in the plan is still active."""
        latest = 0.0
        for event in self.events:
            for attr in ("heal_at", "end", "at"):
                value = getattr(event, attr, None)
                if value is not None and value > latest:
                    latest = value
            if isinstance(event, CrashBurst):
                latest = max(
                    latest, event.at + event.down_for + event.restart_jitter
                )
        return latest

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form suitable for JSON."""
        return {
            "name": self.name,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from its :meth:`to_dict` form."""
        return cls(
            events=tuple(
                FaultEvent.from_dict(event) for event in data.get("events", ())
            ),
            name=data.get("name", ""),
        )

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, stable across runs)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

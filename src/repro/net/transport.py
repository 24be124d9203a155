"""Message transport: the one protocol-side implementation, sim and live.

:class:`Transport` owns everything that must mean the same thing in the
simulator and on a live cluster: registration and liveness, the
interceptor chain, byte accounting, drop bookkeeping, and the fate logic
of :meth:`Transport.send`.  It ends in one seam, :meth:`Transport.carry`
("get this message to ``dst`` after ``delay``").  Here that is a
scheduler event at ``send time + topology latency + delay``;
:class:`repro.serve.transport.AsyncioTransport` overrides it with real
sockets and inherits the rest.

Messages addressed to an endsystem that is offline at delivery time are
dropped — exactly what happens to packets sent to a powered-off host.
Higher layers (Pastry, Seaweed trees) are responsible for detecting and
recovering from such losses; the paper's protocols are designed around
this.

Fault injection (:mod:`repro.faults`) hooks in through the *interceptor
chain*: every outgoing message is shown to each registered interceptor,
which may let it pass, drop it with a reason, delay it, or duplicate it.
The transport has no loss model of its own: message loss, uniform or
filtered, is a :class:`repro.faults.MessageLoss` event in a fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol

from repro.net.stats import BandwidthAccounting
from repro.net.topology import Topology
from repro.obs.observer import Observer
from repro.proto import codec
from repro.sim.simulator import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.proto.messages import ProtoMessage

#: Canonical drop reasons used by the transport itself; interceptors may
#: introduce further reasons (e.g. ``"partition"``, ``"fault_loss"``).
DROP_OFFLINE = "offline"
DROP_UNREGISTERED = "unregistered"
DROP_UNKNOWN_KIND = "unknown_kind"


@dataclass
class Message:
    """A typed protocol message in flight, with its addressing.

    The wire kind and the accounted size are the payload's own
    (``KIND``, ``body_size()``), so they cannot drift from the codec.

    Attributes:
        payload: The typed protocol message.
        category: Traffic category for accounting.
        src: Sending endsystem name (stamped by :meth:`Transport.send`).
    """

    payload: "ProtoMessage"
    category: str
    src: str = ""

    @classmethod
    def of(
        cls, proto: "ProtoMessage", category: Optional[str] = None
    ) -> "Message":
        """Frame a typed protocol message for transmission.

        ``category`` overrides the message class's default accounting
        category.
        """
        return cls(proto, category if category is not None else proto.CATEGORY)

    @property
    def kind(self) -> str:
        """Protocol-level message type tag (e.g. ``"SW_BCAST"``)."""
        return self.payload.KIND


Handler = Callable[[str, Message], None]


class Decision:
    """What an interceptor wants done with a message.

    Interceptors return ``None`` to pass a message through untouched;
    otherwise a :class:`Decision` combining:

    * ``drop_reason`` — drop the message, counted under this reason;
    * ``extra_delay`` — add seconds on top of the topology latency;
    * ``duplicates`` — deliver this many extra copies, each
      ``duplicate_delay`` seconds after the original.

    Drop wins over everything else; delays from successive interceptors
    accumulate.
    """

    __slots__ = ("drop_reason", "extra_delay", "duplicates", "duplicate_delay")

    def __init__(
        self,
        drop_reason: Optional[str] = None,
        extra_delay: float = 0.0,
        duplicates: int = 0,
        duplicate_delay: float = 0.0,
    ) -> None:
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        if duplicates < 0:
            raise ValueError(f"duplicates must be >= 0, got {duplicates}")
        self.drop_reason = drop_reason
        self.extra_delay = extra_delay
        self.duplicates = duplicates
        self.duplicate_delay = duplicate_delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Decision(drop_reason={self.drop_reason!r}, "
            f"extra_delay={self.extra_delay}, duplicates={self.duplicates})"
        )


class Interceptor(Protocol):
    """The interceptor interface: one look at every outgoing message."""

    def intercept(
        self, now: float, src: str, dst: str, message: Message
    ) -> Optional[Decision]:
        """Return ``None`` to pass through, or a :class:`Decision`."""
        ...  # pragma: no cover - protocol definition


class Transport:
    """Delivers :class:`Message` objects between endsystems."""

    #: Latency model of :meth:`carry`; unset on a subclass that carries
    #: messages some other way.
    topology: Topology

    def __init__(
        self,
        scheduler: Scheduler,
        topology: Optional[Topology],
        accounting: Optional[BandwidthAccounting] = None,
        observer: Optional["Observer"] = None,
    ) -> None:
        self.scheduler = scheduler
        if topology is not None:
            self.topology = topology
        self.accounting = accounting
        self._handlers: dict[str, Handler] = {}
        self._online: dict[str, bool] = {}
        #: Drop counts for every reason, including interceptor-specific
        #: reasons ("partition", "fault_loss", ...) and a carrier's own.
        self.drops_by_reason: dict[str, int] = {}
        self._interceptors: list[Interceptor] = []
        self._obs = observer
        if self._obs is not None:
            metrics = self._obs.metrics
            self._c_messages = metrics.counter("transport.messages_total")
            self._c_bytes = metrics.counter("transport.bytes_total")
        # Per-category byte counters, bound lazily per category string.
        self._c_category: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Interceptor chain
    # ------------------------------------------------------------------

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Append an interceptor to the chain (fault injection hook)."""
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        """Remove a previously added interceptor.  Missing is a no-op."""
        try:
            self._interceptors.remove(interceptor)
        except ValueError:
            pass

    @property
    def interceptors(self) -> tuple[Interceptor, ...]:
        """The current interceptor chain (read-only view)."""
        return tuple(self._interceptors)

    # ------------------------------------------------------------------
    # Registration and liveness
    # ------------------------------------------------------------------

    def register(self, endsystem: str, handler: Handler) -> None:
        """Register the message handler for ``endsystem`` (initially offline)."""
        self._handlers[endsystem] = handler
        self._online.setdefault(endsystem, False)

    def set_online(self, endsystem: str, online: bool) -> None:
        """Mark an endsystem up or down; messages in flight to a down host drop."""
        self._online[endsystem] = online

    # ------------------------------------------------------------------
    # Sending and delivery
    # ------------------------------------------------------------------

    def send(self, src: str, dst: str, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        Bytes are accounted at send time (they hit the wire regardless of
        whether the destination is up).  The interceptor chain then rules
        on the message's fate; a surviving message, and every duplicate
        an interceptor asked for, is handed to :meth:`carry` with the
        delay injected on top of the carrier's own.
        """
        message.src = src
        payload = message.payload
        self._account(
            src,
            dst,
            payload.body_size() + codec.HEADER,
            message.category,
            getattr(payload, "app_kind", payload.KIND),
        )
        fate = self._run_interceptors(src, dst, message)
        if fate is None:
            return
        extra_delay, duplications = fate
        self.carry(src, dst, message, extra_delay)
        if duplications is not None:
            for decision in duplications:
                for copy in range(decision.duplicates):
                    self.carry(
                        src,
                        dst,
                        message,
                        extra_delay + (copy + 1) * decision.duplicate_delay,
                    )

    def carry(self, src: str, dst: str, message: Message, delay: float) -> None:
        """Carry ``message`` to ``dst``, ``delay`` seconds later than usual.

        The one carrier seam.  Here: :meth:`_deliver` as a scheduler event
        after the topology latency.  A subclass may move bytes instead;
        it must never deliver inside the call.
        """
        self.scheduler.schedule(
            self.topology.latency(src, dst) + delay, self._deliver, dst, message
        )

    def _account(
        self, src: str, dst: str, wire_size: int, category: str, kind: str
    ) -> None:
        """Record ``wire_size`` outgoing bytes for one logical message."""
        if self.accounting is not None:
            self.accounting.record(
                self.scheduler.now, src, dst, wire_size, category, kind
            )
        if self._obs is not None:
            self._c_messages.inc()
            self._c_bytes.inc(wire_size)
            by_category = self._c_category.get(category)
            if by_category is None:
                by_category = self._c_category[category] = (
                    self._obs.metrics.counter(
                        "transport.bytes_total", category=category
                    )
                )
            by_category.inc(wire_size)

    def _run_interceptors(
        self, src: str, dst: str, message: Message
    ) -> Optional[tuple[float, Optional[list[Decision]]]]:
        """Show the message to every interceptor, in order.

        Returns ``None`` if the message was dropped (already counted),
        else ``(extra_delay, duplication decisions)``.
        """
        if not self._interceptors:
            return 0.0, None
        extra_delay = 0.0
        duplications: Optional[list[Decision]] = None
        now = self.scheduler.now
        for interceptor in self._interceptors:
            decision = interceptor.intercept(now, src, dst, message)
            if decision is None:
                continue
            if decision.drop_reason is not None:
                self._count_drop(dst, message.kind, decision.drop_reason)
                return None
            extra_delay += decision.extra_delay
            if decision.duplicates:
                if duplications is None:
                    duplications = []
                duplications.append(decision)
        return extra_delay, duplications

    # ------------------------------------------------------------------
    # Drop accounting and delivery
    # ------------------------------------------------------------------

    def _count_drop(self, dst: str, kind: str, reason: str) -> None:
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        if self._obs is not None:
            self._obs.message_drop(self.scheduler.now, dst, kind, reason)

    def count_unknown_kind(self, dst: str, kind: str) -> None:
        """Record a delivered message whose kind no handler recognizes.

        Called by the dispatch layers (:class:`repro.proto.registry.
        Dispatcher` consumers) so unknown kinds are counted and traced
        rather than silently ignored.
        """
        self._count_drop(dst, kind, DROP_UNKNOWN_KIND)

    @property
    def dropped_offline(self) -> int:
        """Messages that arrived at a destination that was down."""
        return self.drops_by_reason.get(DROP_OFFLINE, 0)

    @property
    def dropped_unregistered(self) -> int:
        """Messages that arrived at an up host with no handler."""
        return self.drops_by_reason.get(DROP_UNREGISTERED, 0)

    @property
    def dropped_unknown_kind(self) -> int:
        """Delivered messages whose kind no handler recognized."""
        return self.drops_by_reason.get(DROP_UNKNOWN_KIND, 0)

    def _deliver(self, dst: str, message: Message) -> None:
        if not self._online.get(dst, False):
            self._count_drop(dst, message.kind, DROP_OFFLINE)
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self._count_drop(dst, message.kind, DROP_UNREGISTERED)
            return
        handler(dst, message)

"""Typed protocol messages: one dataclass per wire kind.

Every message that crosses the simulated network is an instance of one
of these classes.  Each class declares:

* ``KIND`` — the wire tag (the string traces and drop counters key
  on);
* ``CATEGORY`` — the default bandwidth-accounting category;
* ``_accounted_size()`` — the modelled payload size in bytes, *computed
  from the message's fields* via the :mod:`repro.proto.codec`
  primitives and audited by ``tests/proto/test_wire_sizes.py``;
  callers read it through :meth:`ProtoMessage.body_size`.

Construction of a transport frame from a message is
``repro.net.transport.Message.of(proto, category)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.proto import codec
from repro.proto.registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metadata import EndsystemMetadata
    from repro.core.predictor import CompletenessPredictor
    from repro.core.query import QueryDescriptor
    from repro.db.executor import QueryResult


@dataclass
class ProtoMessage:
    """Base class for all typed protocol messages."""

    KIND: ClassVar[str] = ""
    CATEGORY: ClassVar[str] = "query"

    def body_size(self) -> int:
        """Modelled payload size in bytes (transport adds framing).

        This is the byte every bandwidth figure is charged in, in the
        simulator and on a live cluster alike; it is not the length of
        :func:`repro.proto.wire.encode_body`'s output.
        """
        return self._accounted_size()

    def _accounted_size(self) -> int:
        """The per-kind size formula, in :mod:`repro.proto.codec` units."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Pastry overlay messages
# ----------------------------------------------------------------------


@register
@dataclass
class RouteEnvelope(ProtoMessage):
    """A key-routed (or direct single-hop) application message.

    The envelope wraps one typed application message; ``app_size`` is
    that message's ``body_size()``, computed once when the route starts
    and carried along so forwarding hops never recompute it.  A direct
    envelope carries one id (the key); a forwarded one also carries the
    origin for routing-table seeding.  ``ack_id`` asks the receiving hop
    for a :class:`RouteAck` with that id (``None``: no ack wanted); it
    rides in the fixed header and is not charged.
    """

    KIND: ClassVar[str] = "P_ROUTE"

    key: int
    app_payload: ProtoMessage
    app_size: int
    hops: int = 0
    origin: int = 0
    direct: bool = False
    ack_id: Optional[int] = None

    @property
    def app_kind(self) -> str:
        """The wrapped application message's wire kind."""
        return self.app_payload.KIND

    def _accounted_size(self) -> int:
        return self.app_size + (codec.ID if self.direct else 2 * codec.ID)


@register
@dataclass
class RouteAck(ProtoMessage):
    """Per-hop acknowledgement for a forwarded :class:`RouteEnvelope`."""

    KIND: ClassVar[str] = "P_ROUTE_ACK"

    msg_id: int

    def _accounted_size(self) -> int:
        return 0


@register
@dataclass
class JoinRequest(ProtoMessage):
    """Join protocol: routed toward the joiner's own id."""

    KIND: ClassVar[str] = "P_JOIN_REQ"
    CATEGORY: ClassVar[str] = "overlay"

    joiner: int
    path: list[int] = field(default_factory=list)

    def _accounted_size(self) -> int:
        # Joiner id + target key + one id per recorded hop.
        return codec.ids(2 + len(self.path))


@register
@dataclass
class JoinReply(ProtoMessage):
    """Join protocol: the closest node's full state for the joiner."""

    KIND: ClassVar[str] = "P_JOIN_REPLY"
    CATEGORY: ClassVar[str] = "overlay"

    leafset: list[int]
    routing: list[int]
    path: list[int]

    def _accounted_size(self) -> int:
        return codec.ids(len(self.leafset) + len(self.routing) + 1)


@register
@dataclass
class LeafsetAnnounce(ProtoMessage):
    """A joined node announcing itself to its new leafset members."""

    KIND: ClassVar[str] = "P_LS_ANNOUNCE"
    CATEGORY: ClassVar[str] = "overlay"

    joiner: int

    def _accounted_size(self) -> int:
        return codec.ID


@register
@dataclass
class LeafsetState(ProtoMessage):
    """A leafset membership snapshot (announce reply, probe reply)."""

    KIND: ClassVar[str] = "P_LS_STATE"
    CATEGORY: ClassVar[str] = "overlay"

    members: list[int]

    def _accounted_size(self) -> int:
        return codec.ids(len(self.members))


@register
@dataclass
class LeafsetProbe(ProtoMessage):
    """Stabilization/repair probe; the sender id rides in the header."""

    KIND: ClassVar[str] = "P_LS_PROBE"
    CATEGORY: ClassVar[str] = "overlay"

    def _accounted_size(self) -> int:
        return 0


# ----------------------------------------------------------------------
# Seaweed query dissemination (paper §3.3)
# ----------------------------------------------------------------------


@register
@dataclass
class QueryInject(ProtoMessage):
    """A new query routed to its root (the node closest to queryId)."""

    KIND: ClassVar[str] = "SW_QUERY_INJECT"

    descriptor: "QueryDescriptor"

    def _accounted_size(self) -> int:
        return codec.descriptor_size(self.descriptor)


@register
@dataclass
class Bcast(ProtoMessage):
    """Divide-and-conquer broadcast of a namespace range ``[lo, hi)``."""

    KIND: ClassVar[str] = "SW_BCAST"

    descriptor: "QueryDescriptor"
    lo: int
    hi: int
    parent: Optional[int]

    def _accounted_size(self) -> int:
        return codec.descriptor_size(self.descriptor) + codec.RANGE + codec.TAG


@register
@dataclass
class BcastAck(ProtoMessage):
    """Child → parent: broadcast received / still working (heartbeat)."""

    KIND: ClassVar[str] = "SW_BCAST_ACK"

    query_id: int
    lo: int
    hi: int

    def _accounted_size(self) -> int:
        return codec.RANGE + codec.ID + codec.TAG


@register
@dataclass
class PredictorUpdate(ProtoMessage):
    """Child → parent: the finished subtree's aggregated predictor."""

    KIND: ClassVar[str] = "SW_PREDICTOR"

    query_id: int
    lo: int
    hi: int
    predictor: "CompletenessPredictor"

    def _accounted_size(self) -> int:
        return codec.predictor_size(self.predictor) + codec.RANGE + codec.ID + codec.TAG


@register
@dataclass
class PredictorResult(ProtoMessage):
    """Root → originator: the fully aggregated completeness predictor."""

    KIND: ClassVar[str] = "SW_PREDICTOR_RESULT"

    query_id: int
    predictor: "CompletenessPredictor"

    def _accounted_size(self) -> int:
        return codec.predictor_size(self.predictor) + codec.ID + codec.TAG


# ----------------------------------------------------------------------
# Seaweed result aggregation (paper §3.4)
# ----------------------------------------------------------------------


@register
@dataclass
class ResultSubmit(ProtoMessage):
    """A (versioned) contribution routed to a result-tree vertex."""

    KIND: ClassVar[str] = "SW_RESULT_SUBMIT"

    descriptor: "QueryDescriptor"
    vertex_id: int
    contributor: int
    submitter: int
    version: int
    result: "QueryResult"

    def _accounted_size(self) -> int:
        fixed = 4 * codec.ID + len(self.descriptor.sql)
        return fixed + codec.result_size(self.result)


@register
@dataclass
class ResultAck(ProtoMessage):
    """Vertex primary → submitter: contribution installed, stop resending."""

    KIND: ClassVar[str] = "SW_RESULT_ACK"

    query_id: int
    vertex_id: int
    contributor: int
    version: int

    def _accounted_size(self) -> int:
        return 2 * codec.ID + 2 * codec.TAG


@register
@dataclass
class VertexRepl(ProtoMessage):
    """Vertex state replicated to backups (or handed to a new primary).

    ``children`` maps each contributor key to its ``(version, result)``.
    """

    KIND: ClassVar[str] = "SW_VERTEX_REPL"

    descriptor: "QueryDescriptor"
    vertex_id: int
    primary: int
    up_version: int
    children: dict[int, tuple[int, "QueryResult"]]

    def _accounted_size(self) -> int:
        return (
            codec.RANGE
            + codec.vertex_children_size(self.children.values())
            + len(self.descriptor.sql)
        )


# ----------------------------------------------------------------------
# Seaweed metadata replication and query bookkeeping (paper §3.2, §2)
# ----------------------------------------------------------------------


@register
@dataclass
class MetaPush(ProtoMessage):
    """An endsystem's metadata pushed to a replica-set member."""

    KIND: ClassVar[str] = "SW_META_PUSH"
    CATEGORY: ClassVar[str] = "maintenance"

    metadata: "EndsystemMetadata"
    owner_online: bool = True
    #: Set when re-replicating a dead owner's record: when the owner
    #: went down, per the holder's observation.
    down_since: Optional[float] = None

    def _accounted_size(self) -> int:
        return codec.metadata_size(self.metadata)


@register
@dataclass
class ActiveReq(ProtoMessage):
    """Ask a neighbour for the queries it currently knows to be active."""

    KIND: ClassVar[str] = "SW_ACTIVE_REQ"

    requester: int

    def _accounted_size(self) -> int:
        return codec.ID


@register
@dataclass
class ActiveResp(ProtoMessage):
    """The list of active query descriptors plus cancellation tombstones."""

    KIND: ClassVar[str] = "SW_ACTIVE_RESP"

    active: list["QueryDescriptor"]
    cancelled: list[int]

    def _accounted_size(self) -> int:
        return (
            codec.ID
            + sum(codec.descriptor_size(d) for d in self.active)
            + codec.ids(len(self.cancelled))
        )


@register
@dataclass
class StatusPush(ProtoMessage):
    """Root → originator: the current incremental result."""

    KIND: ClassVar[str] = "SW_STATUS"

    query_id: int
    result: "QueryResult"
    time: float

    def _accounted_size(self) -> int:
        return codec.result_size(self.result) + codec.ID + 2 * codec.TAG


@register
@dataclass
class Cancel(ProtoMessage):
    """Explicit cancellation tombstone, gossiped through the leafset."""

    KIND: ClassVar[str] = "SW_CANCEL"

    query_id: int

    def _accounted_size(self) -> int:
        return codec.ID + codec.TAG

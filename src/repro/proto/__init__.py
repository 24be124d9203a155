"""repro.proto — the typed protocol layer.

One dataclass per wire message kind (:mod:`repro.proto.messages`), a
deterministic wire codec computing every message's serialized size from
its fields (:mod:`repro.proto.codec`), and a registry + dispatcher that
replace string-keyed handler dicts (:mod:`repro.proto.registry`).
"""

from repro.proto import codec, framing, wire
from repro.proto.framing import Frame, FrameDecoder, FrameError, FrameTooLarge
from repro.proto.messages import (
    ActiveReq,
    ActiveResp,
    Bcast,
    BcastAck,
    Cancel,
    JoinReply,
    JoinRequest,
    LeafsetAnnounce,
    LeafsetProbe,
    LeafsetState,
    MetaAck,
    MetaPush,
    MetaRefresh,
    PredictorResult,
    PredictorUpdate,
    ProtoMessage,
    QueryInject,
    ResultAck,
    ResultSubmit,
    RouteAck,
    RouteEnvelope,
    StatusPush,
    VertexNack,
    VertexRepl,
)
from repro.proto.registry import (
    Dispatcher,
    lookup,
    register,
    registered_classes,
    registered_kinds,
)

__all__ = [
    "Frame",
    "FrameDecoder",
    "FrameError",
    "FrameTooLarge",
    "framing",
    "wire",
    "ActiveReq",
    "ActiveResp",
    "Bcast",
    "BcastAck",
    "Cancel",
    "Dispatcher",
    "JoinReply",
    "JoinRequest",
    "LeafsetAnnounce",
    "LeafsetProbe",
    "LeafsetState",
    "MetaAck",
    "MetaPush",
    "MetaRefresh",
    "PredictorResult",
    "PredictorUpdate",
    "ProtoMessage",
    "QueryInject",
    "ResultAck",
    "ResultSubmit",
    "RouteAck",
    "RouteEnvelope",
    "StatusPush",
    "VertexNack",
    "VertexRepl",
    "codec",
    "lookup",
    "register",
    "registered_classes",
    "registered_kinds",
]

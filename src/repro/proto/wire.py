"""Real byte serialization for every registered protocol message.

The simulator only *accounts* wire bytes (:mod:`repro.proto.codec`); the
live service mode (:mod:`repro.serve`) must actually produce them.  This
module turns any :class:`~repro.proto.messages.ProtoMessage` into bytes
and back:

* a self-describing **tagged value codec** covering the plain-data types
  that appear in message fields (None, bool, int — including 128-bit
  overlay ids — float, str, bytes, list, tuple, dict, numpy arrays);
* a small **adapter registry** for the domain objects that ride inside
  messages (query descriptors, predictors, histograms, metadata records,
  …), each reduced to a plain-data state and rebuilt from it;
* ``encode()``/``decode()`` packing a message into a
  :class:`~repro.proto.framing.Frame` keyed by its KIND tag, and
  ``encode_message()``/``decode_message()`` doing the same for a whole
  transport-level :class:`~repro.net.transport.Message` (payload plus
  src/dst/category addressing, so one process can host many nodes).

Round-tripping is exact: ``decode(encode(msg)) == msg`` for every
registered kind (the hypothesis suite in
``tests/proto/test_wire_roundtrip.py`` enforces it).  Decoding is the
trust boundary of a live host: whatever the bytes, :func:`decode_value`
and everything built on it raise :class:`WireError` and nothing else
(``tests/proto/test_decoder_fuzz.py``).

Adapters import their target classes lazily so that ``repro.proto``
stays importable without dragging in ``repro.core``/``repro.db`` (which
themselves import the proto layer).
"""

from __future__ import annotations

import struct
from io import BytesIO
from typing import Any, Callable, NamedTuple, Optional, Union

import numpy as np

from repro.proto import registry
from repro.proto.framing import Frame
from repro.proto.messages import ProtoMessage

__all__ = [
    "WireError",
    "encode",
    "decode",
    "encode_body",
    "decode_body",
    "encode_value",
    "decode_value",
    "encode_message",
    "decode_message",
    "WireMessage",
]


class WireError(ValueError):
    """Raised for unencodable values or malformed byte streams."""


# ----------------------------------------------------------------------
# Value tags
# ----------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_NDARRAY = 0x0A
_T_OBJECT = 0x0B
_T_MESSAGE = 0x0C

#: Deepest value nesting the decoder follows.  A full metadata push
#: (envelope > message > metadata > summaries > histogram > arrays) is
#: under 20 levels; hostile input must not reach the interpreter's
#: recursion limit.
MAX_DEPTH = 64

_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")


def _write_str(out: BytesIO, text: str) -> None:
    raw = text.encode("utf-8")
    out.write(_U32.pack(len(raw)))
    out.write(raw)


def _read_exact(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    end = offset + count
    if end > len(data):
        raise WireError(
            f"truncated value: wanted {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )
    return data[offset:end], end


def _read_str(data: bytes, offset: int) -> tuple[str, int]:
    raw, offset = _read_exact(data, offset, _U32.size)
    (length,) = _U32.unpack(raw)
    raw, offset = _read_exact(data, offset, length)
    return raw.decode("utf-8"), offset


# ----------------------------------------------------------------------
# Object adapters
# ----------------------------------------------------------------------


class _Adapter(NamedTuple):
    """How one domain class crosses the wire: plain-data state in/out."""

    code: int
    cls: type
    to_state: Callable[[Any], Any]
    from_state: Callable[[Any], Any]


_adapters_by_class: Optional[dict[type, _Adapter]] = None
_adapters_by_code: dict[int, _Adapter] = {}


def _build_adapters() -> dict[type, _Adapter]:
    """Construct the adapter registry (deferred to avoid import cycles)."""
    from repro.core.availability_model import AvailabilityModel
    from repro.core.metadata import EndsystemMetadata
    from repro.core.predictor import CompletenessPredictor
    from repro.core.query import QueryDescriptor
    from repro.db.aggregates import AggregateSpec, AggregateState
    from repro.db.executor import QueryResult
    from repro.db.histogram import EquiDepthHistogram, FrequencyHistogram

    def predictor_state(p: CompletenessPredictor) -> tuple:
        return (
            p.edges,
            p.immediate_rows,
            p.bucket_rows,
            p.beyond_rows,
            p.unknown_endsystems,
            p.endsystems,
        )

    def predictor_from(state: tuple) -> CompletenessPredictor:
        predictor = CompletenessPredictor.__new__(CompletenessPredictor)
        (
            predictor.edges,
            predictor.immediate_rows,
            predictor.bucket_rows,
            predictor.beyond_rows,
            predictor.unknown_endsystems,
            predictor.endsystems,
        ) = state
        return predictor

    def availability_state(m: AvailabilityModel) -> tuple:
        return (m.down_edges, m.down_counts, m.up_hour_counts)

    def availability_from(state: tuple) -> AvailabilityModel:
        model = AvailabilityModel.__new__(AvailabilityModel)
        model.down_edges, model.down_counts, model.up_hour_counts = state
        return model

    def equidepth_state(h: EquiDepthHistogram) -> tuple:
        return (h.boundaries, h.counts, h.distincts, h.total_rows, h.mcv)

    def metadata_state(m: EndsystemMetadata) -> tuple:
        return (
            m.owner,
            m.summaries,
            m.row_counts,
            m.availability,
            m.version,
        )

    def metadata_from(state: tuple) -> EndsystemMetadata:
        owner, summaries, row_counts, availability, version = state
        return EndsystemMetadata(
            owner=owner,
            summaries=summaries,
            row_counts=row_counts,
            availability=availability,
            version=version,
            estimate_cache=None,
        )

    adapters = [
        _Adapter(
            1,
            AggregateSpec,
            lambda s: (s.func, s.column),
            lambda st: AggregateSpec(st[0], st[1]),
        ),
        _Adapter(
            2,
            AggregateState,
            lambda s: s.to_tuple(),
            lambda st: AggregateState.from_tuple(st),
        ),
        _Adapter(
            3,
            QueryDescriptor,
            lambda d: (
                d.query_id, d.sql, d.now_binding, d.origin,
                d.injected_at, d.lifetime, d.continuous_period,
            ),
            lambda st: QueryDescriptor(*st),
        ),
        _Adapter(
            4,
            QueryResult,
            lambda r: (r.specs, r.states, r.rows, r.row_count, r.groups),
            lambda st: QueryResult(
                specs=st[0], states=st[1], rows=st[2], row_count=st[3], groups=st[4]
            ),
        ),
        _Adapter(5, CompletenessPredictor, predictor_state, predictor_from),
        _Adapter(6, AvailabilityModel, availability_state, availability_from),
        _Adapter(
            7,
            EquiDepthHistogram,
            equidepth_state,
            lambda st: EquiDepthHistogram(st[0], st[1], st[2], st[3], st[4]),
        ),
        _Adapter(
            8,
            FrequencyHistogram,
            lambda h: (h.counts, h.total_rows, h.truncated),
            lambda st: FrequencyHistogram(st[0], st[1], st[2]),
        ),
        _Adapter(9, EndsystemMetadata, metadata_state, metadata_from),
    ]
    return {adapter.cls: adapter for adapter in adapters}


def _adapters() -> dict[type, _Adapter]:
    global _adapters_by_class
    if _adapters_by_class is None:
        _adapters_by_class = _build_adapters()
        _adapters_by_code.update(
            {adapter.code: adapter for adapter in _adapters_by_class.values()}
        )
    return _adapters_by_class


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------


def _encode_into(out: BytesIO, value: Any) -> None:
    if value is None:
        out.write(_U8.pack(_T_NONE))
    elif value is True:
        out.write(_U8.pack(_T_TRUE))
    elif value is False:
        out.write(_U8.pack(_T_FALSE))
    elif isinstance(value, (bool, np.bool_)):
        out.write(_U8.pack(_T_TRUE if bool(value) else _T_FALSE))
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        out.write(_U8.pack(_T_INT))
        out.write(_U16.pack(len(raw)))
        out.write(raw)
    elif isinstance(value, (float, np.floating)):
        out.write(_U8.pack(_T_FLOAT))
        out.write(_F64.pack(float(value)))
    elif isinstance(value, str):
        out.write(_U8.pack(_T_STR))
        _write_str(out, value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.write(_U8.pack(_T_BYTES))
        out.write(_U32.pack(len(raw)))
        out.write(raw)
    elif isinstance(value, np.ndarray):
        raw = np.ascontiguousarray(value).tobytes()
        out.write(_U8.pack(_T_NDARRAY))
        _write_str(out, str(value.dtype))
        out.write(_U8.pack(value.ndim))
        for dim in value.shape:
            out.write(_U32.pack(dim))
        out.write(_U32.pack(len(raw)))
        out.write(raw)
    elif isinstance(value, list):
        out.write(_U8.pack(_T_LIST))
        out.write(_U32.pack(len(value)))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, tuple):
        out.write(_U8.pack(_T_TUPLE))
        out.write(_U32.pack(len(value)))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.write(_U8.pack(_T_DICT))
        out.write(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    elif isinstance(value, ProtoMessage):
        out.write(_U8.pack(_T_MESSAGE))
        _write_str(out, value.KIND)
        _encode_into(out, _message_fields(value))
    else:
        adapter = _adapters().get(type(value))
        if adapter is None:
            raise WireError(f"no wire adapter for {type(value).__name__}: {value!r}")
        out.write(_U8.pack(_T_OBJECT))
        out.write(_U8.pack(adapter.code))
        _encode_into(out, adapter.to_state(value))


def _decode_from(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise WireError(f"value nested deeper than {MAX_DEPTH} levels")
    raw, offset = _read_exact(data, offset, 1)
    tag = raw[0]
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        raw, offset = _read_exact(data, offset, _U16.size)
        (length,) = _U16.unpack(raw)
        raw, offset = _read_exact(data, offset, length)
        return int.from_bytes(raw, "big", signed=True), offset
    if tag == _T_FLOAT:
        raw, offset = _read_exact(data, offset, _F64.size)
        return _F64.unpack(raw)[0], offset
    if tag == _T_STR:
        return _read_str(data, offset)
    if tag == _T_BYTES:
        raw, offset = _read_exact(data, offset, _U32.size)
        (length,) = _U32.unpack(raw)
        raw, offset = _read_exact(data, offset, length)
        return raw, offset
    if tag == _T_NDARRAY:
        dtype_name, offset = _read_str(data, offset)
        raw, offset = _read_exact(data, offset, 1)
        ndim = raw[0]
        shape = []
        for _ in range(ndim):
            raw, offset = _read_exact(data, offset, _U32.size)
            shape.append(_U32.unpack(raw)[0])
        raw, offset = _read_exact(data, offset, _U32.size)
        (length,) = _U32.unpack(raw)
        raw, offset = _read_exact(data, offset, length)
        try:
            array = np.frombuffer(raw, dtype=np.dtype(dtype_name)).reshape(shape)
        except (TypeError, ValueError) as error:
            raise WireError(f"bad ndarray encoding: {error}") from error
        return array.copy(), offset
    if tag == _T_LIST or tag == _T_TUPLE:
        raw, offset = _read_exact(data, offset, _U32.size)
        (count,) = _U32.unpack(raw)
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset, depth + 1)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), offset
    if tag == _T_DICT:
        raw, offset = _read_exact(data, offset, _U32.size)
        (count,) = _U32.unpack(raw)
        mapping = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset, depth + 1)
            item, offset = _decode_from(data, offset, depth + 1)
            mapping[key] = item
        return mapping, offset
    if tag == _T_MESSAGE:
        kind, offset = _read_str(data, offset)
        fields, offset = _decode_from(data, offset, depth + 1)
        return _message_from_fields(kind, fields), offset
    if tag == _T_OBJECT:
        raw, offset = _read_exact(data, offset, 1)
        code = raw[0]
        _adapters()  # ensure the by-code table is populated
        adapter = _adapters_by_code.get(code)
        if adapter is None:
            raise WireError(f"unknown object adapter code {code}")
        state, offset = _decode_from(data, offset, depth + 1)
        return adapter.from_state(state), offset
    raise WireError(f"unknown value tag 0x{tag:02x} at offset {offset - 1}")


def encode_value(value: Any) -> bytes:
    """Encode one plain or adapted value to bytes."""
    out = BytesIO()
    _encode_into(out, value)
    return out.getvalue()


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value` (must consume all bytes).

    Raises :class:`WireError` on any malformed input, including bytes
    that parse but make a string, array, dict key or adapted object's
    constructor fail.
    """
    try:
        value, offset = _decode_from(data, 0, 0)
    except WireError:
        raise
    except Exception as error:  # noqa: BLE001 - hostile bytes reached a constructor
        raise WireError(
            f"malformed value: {type(error).__name__}: {error}"
        ) from error
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# Message encoding
# ----------------------------------------------------------------------


def _message_fields(message: ProtoMessage) -> tuple:
    """A message's dataclass field values, in declaration order."""
    import dataclasses

    return tuple(
        getattr(message, field.name) for field in dataclasses.fields(message)
    )


def _message_from_fields(kind: str, fields: tuple) -> ProtoMessage:
    cls = registry.lookup(kind)
    if cls is None:
        raise WireError(f"unknown message kind {kind!r}")
    try:
        return cls(*fields)
    except TypeError as error:
        raise WireError(f"cannot rebuild {kind!r} from wire fields: {error}") from error


def encode_body(message: ProtoMessage) -> bytes:
    """Serialize a message's payload (field values, no kind/envelope)."""
    out = BytesIO()
    _encode_into(out, _message_fields(message))
    return out.getvalue()


def decode_body(kind: str, body: bytes) -> ProtoMessage:
    """Rebuild the registered message for ``kind`` from its payload bytes."""
    fields = decode_value(body)
    if not isinstance(fields, tuple):
        raise WireError(f"message body for {kind!r} is not a field tuple")
    return _message_from_fields(kind, fields)


def encode(message: ProtoMessage) -> Frame:
    """Encode a typed message into a wire frame keyed by its KIND."""
    return Frame(kind=message.KIND, body=encode_body(message))


def decode(frame: Union[Frame, bytes]) -> ProtoMessage:
    """Inverse of :func:`encode`; accepts a frame or raw envelope bytes."""
    if isinstance(frame, (bytes, bytearray, memoryview)):
        from repro.proto.framing import decode_frame

        frame = decode_frame(bytes(frame))
    return decode_body(frame.kind, frame.body)


# ----------------------------------------------------------------------
# Transport-level messages
# ----------------------------------------------------------------------

#: Frame kind for a transport-level message envelope (payload + addressing).
MESSAGE_KIND = "!MSG"


class WireMessage(NamedTuple):
    """A decoded transport-level message: addressing plus the payload.

    The protocol kind is ``payload.KIND``; the modelled size is
    ``payload.body_size()`` — neither is restated on the wire.
    """

    src: str
    dst: str
    category: str
    payload: ProtoMessage


def encode_message(
    src: str, dst: str, category: str, payload: ProtoMessage
) -> Frame:
    """Pack a transport-level message into one frame.

    The frame kind is :data:`MESSAGE_KIND`; the logical protocol kind
    travels with the payload so that one TCP connection (and one hosting
    process) can carry traffic for many nodes and kinds.
    """
    return Frame(kind=MESSAGE_KIND, body=encode_value((src, dst, category, payload)))


def decode_message(frame: Union[Frame, bytes]) -> WireMessage:
    """Inverse of :func:`encode_message`."""
    if isinstance(frame, (bytes, bytearray, memoryview)):
        from repro.proto.framing import decode_frame

        frame = decode_frame(bytes(frame))
    if frame.kind != MESSAGE_KIND:
        raise WireError(f"expected a {MESSAGE_KIND} frame, got {frame.kind!r}")
    value = decode_value(frame.body)
    if (
        not isinstance(value, tuple)
        or len(value) != 4
        or not all(isinstance(part, str) for part in value[:3])
        or not isinstance(value[3], ProtoMessage)
    ):
        raise WireError("malformed transport message body")
    return WireMessage(*value)

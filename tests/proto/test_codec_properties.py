"""Property tests: ``body_size()`` equals a real encoding's byte length.

The simulator never serializes payloads — :mod:`repro.proto.codec` is
pure size arithmetic — so the invariant that keeps the byte accounting
honest is *encodability*: for every registered message kind there must
exist an actual byte encoding, following the documented field layout,
whose length is exactly ``body_size()``.  These tests implement that
reference encoder and let Hypothesis drive it with arbitrary field
values for all 23 registered kinds.

If a message class adds a field without extending its ``body_size()``
(or vice versa), the reference encoding and the arithmetic diverge and
the property fails.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictor import CompletenessPredictor
from repro.core.query import QueryDescriptor
from repro.db.aggregates import AGGREGATE_FUNCTIONS
from repro.db.histogram import FrequencyHistogram
from repro.proto import codec
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
    QueryInject,
    ResultAck,
    ResultSubmit,
    RouteAck,
    RouteEnvelope,
    StatusPush,
    VertexNack,
    VertexRepl,
)
from repro.proto.registry import registered_kinds

# Same directory, no package: pytest's default import mode puts it on the path.
from test_wire_roundtrip import metadata_records, predictors, query_results, versions

# ----------------------------------------------------------------------
# Reference encoding primitives (mirror the codec glossary)
# ----------------------------------------------------------------------


def enc_id(value: int) -> bytes:
    """One 128-bit overlay id / namespace key."""
    return value.to_bytes(codec.ID, "big")


def enc_tag(value) -> bytes:
    """One small scalar: version, count, flag word, or timestamp."""
    if isinstance(value, float):
        return struct.pack("!d", value)
    return int(value).to_bytes(codec.TAG, "big", signed=True)


def enc_sql(sql: str) -> bytes:
    """Query text (the codec charges one byte per character)."""
    return sql.encode("ascii")


def enc_descriptor(descriptor: QueryDescriptor) -> bytes:
    """QUERY_FIXED layout: queryId, origin, injected-at, lifetime + SQL."""
    return (
        enc_id(descriptor.query_id)
        + enc_id(descriptor.origin)
        + struct.pack("!dd", descriptor.injected_at, descriptor.lifetime)
        + enc_sql(descriptor.sql)
    )


def enc_agg_state(state) -> bytes:
    """One aggregate state: function tag + count + total + min + max,
    padded to AGG_STATE."""
    nan = float("nan")
    encoded = struct.pack(
        "!BIddd",
        AGGREGATE_FUNCTIONS.index(state.func),
        state.count,
        state.total,
        nan if state.minimum is None else state.minimum,
        nan if state.maximum is None else state.maximum,
    )
    assert len(encoded) <= codec.AGG_STATE
    return encoded.ljust(codec.AGG_STATE, b"\x00")


def enc_row(row: tuple) -> bytes:
    """One projection row of up to four 8-byte cells, padded to ROW."""
    encoded = b"".join(
        struct.pack("!d", cell) if isinstance(cell, float) else struct.pack("!q", cell)
        for cell in row
    )
    assert len(encoded) <= codec.ROW
    return encoded.ljust(codec.ROW, b"\x00")


def enc_result(result) -> bytes:
    """A query result: its state vector, then per GROUP BY group a key
    digest (one ID) and that group's state vector, then its rows."""
    encoded = b"".join(enc_agg_state(state) for state in result.states)
    for key, states in result.groups.items():
        encoded += hashlib.md5(repr(key).encode()).digest()
        encoded += b"".join(enc_agg_state(state) for state in states)
    return encoded + b"".join(enc_row(row) for row in result.rows)


def enc_predictor(predictor) -> bytes:
    """One PREDICTOR_CELL per time bucket, then the immediate,
    beyond-horizon and unknown-endsystem cells; the bucket edges are the
    deployment's and are not sent."""
    cells = [
        *predictor.bucket_rows,
        predictor.immediate_rows,
        predictor.beyond_rows,
        predictor.unknown_endsystems,
    ]
    return b"".join(struct.pack("!d", float(cell)) for cell in cells)


def enc_count(key, count) -> bytes:
    """One exact count: an 8-byte key digest and a 4-byte count."""
    digest = hashlib.md5(repr(key).encode()).digest()[:8]
    encoded = digest + struct.pack("!I", int(count))
    assert len(encoded) == codec.COUNT
    return encoded


def enc_histogram(histogram) -> bytes:
    """A frequency histogram's counts, or an equi-depth histogram's
    (lo, hi, count, distinct) buckets, padded to BUCKET, then its exact
    most-common-value counts."""
    if isinstance(histogram, FrequencyHistogram):
        return b"".join(enc_count(value, n) for value, n in histogram.counts.items())
    buckets = zip(
        histogram.boundaries[:-1],
        histogram.boundaries[1:],
        histogram.counts,
        histogram.distincts,
    )
    encoded = b"".join(
        struct.pack("!ffII", lo, hi, int(n), int(distinct)).ljust(codec.BUCKET, b"\x00")
        for lo, hi, n, distinct in buckets
    )
    return encoded + b"".join(enc_count(value, n) for value, n in histogram.mcv.items())


def enc_metadata(metadata) -> bytes:
    """Table row counts, every column histogram, then the availability
    model as one AVAILABILITY-byte block (paper Table 1: a)."""
    encoded = b"".join(enc_count(table, n) for table, n in metadata.row_counts.items())
    for per_column in metadata.summaries.values():
        encoded += b"".join(enc_histogram(h) for h in per_column.values())
    return encoded + b"\x00" * codec.AVAILABILITY


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

overlay_ids = st.integers(min_value=0, max_value=(1 << (8 * codec.ID)) - 1)
versions = st.integers(min_value=0, max_value=2**31)
times = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
sql_texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200
)
predictor_shapes = predictors | st.builds(
    CompletenessPredictor, num_buckets=st.integers(min_value=1, max_value=64)
)

descriptors = st.builds(
    QueryDescriptor,
    query_id=overlay_ids,
    sql=sql_texts,
    now_binding=st.none() | times,
    origin=overlay_ids,
    injected_at=times,
    lifetime=times,
)


# ----------------------------------------------------------------------
# Per-kind (strategy, reference encoder) table
# ----------------------------------------------------------------------


def _encode_route_envelope(msg: RouteEnvelope) -> bytes:
    payload = b"\x00" * msg.app_size
    if msg.direct:
        return payload + enc_id(msg.key)
    return payload + enc_id(msg.key) + enc_id(msg.origin)


def _encode_join_request(msg: JoinRequest) -> bytes:
    # Joiner id + the routed target key + one id per recorded hop.
    return (
        enc_id(msg.joiner)
        + enc_id(msg.joiner)
        + b"".join(enc_id(hop) for hop in msg.path)
    )


def _encode_join_reply(msg: JoinReply) -> bytes:
    # Leafset + routing rows + the replying node's own id.
    return (
        b"".join(enc_id(member) for member in msg.leafset)
        + b"".join(enc_id(entry) for entry in msg.routing)
        + enc_id(0)
    )


def _encode_result_submit(msg: ResultSubmit) -> bytes:
    return (
        enc_id(msg.descriptor.query_id)
        + enc_id(msg.vertex_id)
        + enc_id(msg.contributor)
        + enc_id(msg.submitter)
        + enc_sql(msg.descriptor.sql)
        + enc_result(msg.result)
    )


@st.composite
def vertex_repls(draw) -> VertexRepl:
    """A full table or a delta, its ``children_size`` set as a sender sets it."""
    children = draw(
        st.dictionaries(overlay_ids, st.tuples(versions, query_results()), max_size=8)
    )
    return VertexRepl(
        descriptor=draw(descriptors),
        vertex_id=draw(overlay_ids),
        primary=draw(overlay_ids),
        up_version=draw(versions),
        children=children,
        children_size=codec.vertex_children_size(children.values()),
        seq=draw(versions),
        full=draw(st.booleans()),
    )


def _encode_vertex_repl(msg: VertexRepl) -> bytes:
    encoded = (
        enc_id(msg.vertex_id) + enc_id(msg.primary) + enc_tag(2 * msg.seq + msg.full)
    )
    for contributor, (_version, result) in msg.children.items():
        encoded += enc_id(contributor) + enc_result(result)
    return encoded + enc_sql(msg.descriptor.sql)


def _encode_active_resp(msg: ActiveResp) -> bytes:
    return (
        enc_id(0)
        + b"".join(enc_descriptor(d) for d in msg.active)
        + b"".join(enc_id(q) for q in msg.cancelled)
    )


CASES: dict[str, tuple] = {
    RouteEnvelope.KIND: (
        st.builds(
            RouteEnvelope,
            key=overlay_ids,
            app_payload=st.none(),
            app_size=st.integers(min_value=0, max_value=4096),
            hops=st.integers(min_value=0, max_value=64),
            origin=overlay_ids,
            direct=st.booleans(),
            ack_id=st.none() | versions,
        ),
        _encode_route_envelope,
    ),
    RouteAck.KIND: (st.builds(RouteAck, msg_id=versions), lambda msg: b""),
    JoinRequest.KIND: (
        st.builds(
            JoinRequest, joiner=overlay_ids, path=st.lists(overlay_ids, max_size=16)
        ),
        _encode_join_request,
    ),
    JoinReply.KIND: (
        st.builds(
            JoinReply,
            leafset=st.lists(overlay_ids, max_size=16),
            routing=st.lists(overlay_ids, max_size=32),
            path=st.lists(overlay_ids, max_size=16),
        ),
        _encode_join_reply,
    ),
    LeafsetAnnounce.KIND: (
        st.builds(LeafsetAnnounce, joiner=overlay_ids),
        lambda msg: enc_id(msg.joiner),
    ),
    LeafsetState.KIND: (
        st.builds(LeafsetState, members=st.lists(overlay_ids, max_size=16)),
        lambda msg: b"".join(enc_id(member) for member in msg.members),
    ),
    LeafsetProbe.KIND: (st.builds(LeafsetProbe), lambda msg: b""),
    QueryInject.KIND: (
        st.builds(QueryInject, descriptor=descriptors),
        lambda msg: enc_descriptor(msg.descriptor),
    ),
    Bcast.KIND: (
        st.builds(
            Bcast,
            descriptor=descriptors,
            lo=overlay_ids,
            hi=overlay_ids,
            parent=st.none() | overlay_ids,
        ),
        lambda msg: (
            enc_descriptor(msg.descriptor)
            + enc_id(msg.lo)
            + enc_id(msg.hi)
            + enc_tag(0 if msg.parent is None else 1)
        ),
    ),
    BcastAck.KIND: (
        st.builds(BcastAck, query_id=overlay_ids, lo=overlay_ids, hi=overlay_ids),
        lambda msg: (
            enc_id(msg.lo) + enc_id(msg.hi) + enc_id(msg.query_id) + enc_tag(0)
        ),
    ),
    PredictorUpdate.KIND: (
        st.builds(
            PredictorUpdate,
            query_id=overlay_ids,
            lo=overlay_ids,
            hi=overlay_ids,
            predictor=predictor_shapes,
        ),
        lambda msg: (
            enc_predictor(msg.predictor)
            + enc_id(msg.lo)
            + enc_id(msg.hi)
            + enc_id(msg.query_id)
            + enc_tag(0)
        ),
    ),
    PredictorResult.KIND: (
        st.builds(PredictorResult, query_id=overlay_ids, predictor=predictor_shapes),
        lambda msg: enc_predictor(msg.predictor) + enc_id(msg.query_id) + enc_tag(0),
    ),
    ResultSubmit.KIND: (
        st.builds(
            ResultSubmit,
            descriptor=descriptors,
            vertex_id=overlay_ids,
            contributor=overlay_ids,
            submitter=overlay_ids,
            version=versions,
            result=query_results(),
        ),
        _encode_result_submit,
    ),
    ResultAck.KIND: (
        st.builds(
            ResultAck,
            query_id=overlay_ids,
            vertex_id=overlay_ids,
            contributor=overlay_ids,
            version=versions,
        ),
        lambda msg: (
            enc_id(msg.query_id)
            + enc_id(msg.vertex_id)
            + enc_tag(msg.contributor % 2**31)
            + enc_tag(msg.version)
        ),
    ),
    VertexRepl.KIND: (vertex_repls(), _encode_vertex_repl),
    VertexNack.KIND: (
        st.builds(
            VertexNack, query_id=overlay_ids, vertex_id=overlay_ids, backup=overlay_ids
        ),
        lambda msg: enc_id(msg.query_id) + enc_id(msg.vertex_id) + enc_id(msg.backup),
    ),
    MetaPush.KIND: (
        st.builds(
            MetaPush,
            metadata=metadata_records,
            owner_online=st.booleans(),
            down_since=st.none() | times,
            epoch=versions,
        ),
        lambda msg: enc_metadata(msg.metadata),
    ),
    MetaRefresh.KIND: (
        st.builds(MetaRefresh, owner=overlay_ids, version=versions, epoch=versions),
        lambda msg: enc_id(msg.owner) + enc_tag(msg.version) + enc_tag(msg.epoch),
    ),
    MetaAck.KIND: (
        st.builds(MetaAck, replica=overlay_ids, epoch=versions, held=st.booleans()),
        lambda msg: enc_id(msg.replica) + enc_tag(msg.epoch) + enc_tag(msg.held),
    ),
    ActiveReq.KIND: (
        st.builds(ActiveReq, requester=overlay_ids),
        lambda msg: enc_id(msg.requester),
    ),
    ActiveResp.KIND: (
        st.builds(
            ActiveResp,
            active=st.lists(descriptors, max_size=6),
            cancelled=st.lists(overlay_ids, max_size=16),
        ),
        _encode_active_resp,
    ),
    StatusPush.KIND: (
        st.builds(StatusPush, query_id=overlay_ids, result=query_results(), time=times),
        lambda msg: (
            enc_result(msg.result)
            + enc_id(msg.query_id)
            + enc_tag(msg.result.row_count)
            + enc_tag(msg.time)
        ),
    ),
    Cancel.KIND: (
        st.builds(Cancel, query_id=overlay_ids),
        lambda msg: enc_id(msg.query_id) + enc_tag(0),
    ),
}


def test_every_registered_kind_has_a_case() -> None:
    """Adding a message kind without a property case fails loudly here."""
    kinds = set(registered_kinds())
    assert kinds == set(CASES)
    assert len(kinds) == 23


@pytest.mark.parametrize("kind", sorted(CASES))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_body_size_matches_encoded_length(kind: str, data) -> None:
    strategy, encode = CASES[kind]
    message = data.draw(strategy)
    assert message.body_size() == len(encode(message))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_body_size_is_nonnegative(data) -> None:
    kind = data.draw(st.sampled_from(sorted(CASES)))
    strategy, _encode = CASES[kind]
    message = data.draw(strategy)
    assert message.body_size() >= 0

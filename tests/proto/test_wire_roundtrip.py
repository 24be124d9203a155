"""Wire-codec properties: every registered kind round-trips byte-exactly.

The invariant that keeps the live mode honest:
``decode(encode(msg)) == msg`` for every registered message kind —
including the deep payloads (predictors, metadata records, aggregate
states).

Hypothesis drives the scalar-rich fields and builds query results the
way the executor does (states made from values, one per spec, tuple-keyed
groups, projection rows); predictors and metadata records are drawn from
a pool of real instances built from a real local database.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.availability_model import AvailabilityModel
from repro.core.metadata import EndsystemMetadata
from repro.core.predictor import CompletenessPredictor
from repro.core.query import QueryDescriptor
from repro.db.aggregates import AGGREGATE_FUNCTIONS, AggregateSpec, AggregateState
from repro.db.executor import QueryResult
from repro.proto import framing, wire
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
from repro.workload.anemone import AnemoneDataset

# ----------------------------------------------------------------------
# Real nested-object pools (built once; hypothesis samples from them)
# ----------------------------------------------------------------------

_DATASET = AnemoneDataset(num_profiles=2, rng=np.random.default_rng(7))
_DATABASE = _DATASET.database(0)


def _make_predictor(seed: int) -> CompletenessPredictor:
    rng = np.random.default_rng(seed)
    predictor = CompletenessPredictor(num_buckets=8, horizon=3600.0)
    predictor.add_immediate(float(rng.integers(1, 1000)))
    for _ in range(4):
        predictor.add_at_delay(
            float(rng.uniform(2.0, 3000.0)), float(rng.integers(0, 500))
        )
    predictor.add_unknown()
    return predictor


def _make_availability(seed: int) -> AvailabilityModel:
    rng = np.random.default_rng(seed)
    model = AvailabilityModel(num_down_buckets=8)
    for _ in range(5):
        model.record_down_duration(float(rng.uniform(1.0, 86400.0)))
        model.record_up_event(int(rng.integers(0, 24)))
    return model


def _make_metadata(seed: int) -> EndsystemMetadata:
    metadata = EndsystemMetadata.build(
        owner=seed,
        database=_DATABASE,
        availability=_make_availability(seed),
        version=seed,
    )
    # The memo cache is per-process state, not wire content.
    metadata.estimate_cache = None
    return metadata


_PREDICTORS = [_make_predictor(seed) for seed in range(3)]
_METADATA = [_make_metadata(seed) for seed in range(2)]

predictors = st.sampled_from(_PREDICTORS)
metadata_records = st.sampled_from(_METADATA)

overlay_ids = st.integers(min_value=0, max_value=(1 << 128) - 1)
versions = st.integers(min_value=0, max_value=2**31)
times = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
sql_texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=120
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
# Query results, shaped as the executor and the result tree make them
# ----------------------------------------------------------------------

cells = st.integers(min_value=-(2**62), max_value=2**62) | st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False
)
aggregate_specs = st.builds(
    AggregateSpec, st.sampled_from(AGGREGATE_FUNCTIONS), st.just("Bytes")
) | st.just(AggregateSpec("COUNT", None))


def _state_for(spec: AggregateSpec):
    """A state of ``spec``'s function, built from drawn column values."""
    values = st.lists(cells, max_size=5)
    if spec.column is None:
        return values.map(lambda vs: AggregateState.from_count(len(vs)))
    return values.map(lambda vs: AggregateState.from_values(spec.func, np.asarray(vs)))


@st.composite
def query_results(draw) -> QueryResult:
    """An aggregate result (states parallel to specs, optional GROUP BY
    table) or a projection result (rows of up to four columns)."""
    if draw(st.booleans()):
        width = draw(st.integers(min_value=1, max_value=4))
        rows = draw(st.lists(st.tuples(*[cells] * width), max_size=6))
        return QueryResult(rows=rows, row_count=len(rows))
    specs = draw(st.lists(aggregate_specs, min_size=1, max_size=3))
    state_vectors = st.tuples(*map(_state_for, specs)).map(list)
    group_keys = st.tuples(st.integers(0, 65535)) | st.tuples(
        st.text(max_size=8), st.integers(0, 65535)
    )
    return QueryResult(
        specs=specs,
        states=draw(state_vectors),
        row_count=draw(st.integers(min_value=0, max_value=10**9)),
        groups=draw(st.dictionaries(group_keys, state_vectors, max_size=3)),
    )


STRATEGIES: dict[str, st.SearchStrategy] = {
    RouteEnvelope.KIND: st.builds(
        RouteEnvelope,
        key=overlay_ids,
        app_payload=st.builds(Cancel, query_id=overlay_ids),
        app_size=st.integers(min_value=0, max_value=4096),
        hops=st.integers(min_value=0, max_value=64),
        origin=overlay_ids,
        direct=st.booleans(),
        ack_id=st.none() | versions,
    ),
    RouteAck.KIND: st.builds(RouteAck, msg_id=versions),
    JoinRequest.KIND: st.builds(
        JoinRequest, joiner=overlay_ids, path=st.lists(overlay_ids, max_size=8)
    ),
    JoinReply.KIND: st.builds(
        JoinReply,
        leafset=st.lists(overlay_ids, max_size=8),
        routing=st.lists(overlay_ids, max_size=16),
        path=st.lists(overlay_ids, max_size=8),
    ),
    LeafsetAnnounce.KIND: st.builds(LeafsetAnnounce, joiner=overlay_ids),
    LeafsetState.KIND: st.builds(
        LeafsetState, members=st.lists(overlay_ids, max_size=8)
    ),
    LeafsetProbe.KIND: st.builds(LeafsetProbe),
    QueryInject.KIND: st.builds(QueryInject, descriptor=descriptors),
    Bcast.KIND: st.builds(
        Bcast,
        descriptor=descriptors,
        lo=overlay_ids,
        hi=overlay_ids,
        parent=st.none() | overlay_ids,
    ),
    BcastAck.KIND: st.builds(
        BcastAck, query_id=overlay_ids, lo=overlay_ids, hi=overlay_ids
    ),
    PredictorUpdate.KIND: st.builds(
        PredictorUpdate,
        query_id=overlay_ids,
        lo=overlay_ids,
        hi=overlay_ids,
        predictor=predictors,
    ),
    PredictorResult.KIND: st.builds(
        PredictorResult, query_id=overlay_ids, predictor=predictors
    ),
    ResultSubmit.KIND: st.builds(
        ResultSubmit,
        descriptor=descriptors,
        vertex_id=overlay_ids,
        contributor=overlay_ids,
        submitter=overlay_ids,
        version=versions,
        result=query_results(),
    ),
    ResultAck.KIND: st.builds(
        ResultAck,
        query_id=overlay_ids,
        vertex_id=overlay_ids,
        contributor=overlay_ids,
        version=versions,
    ),
    VertexRepl.KIND: st.builds(
        VertexRepl,
        descriptor=descriptors,
        vertex_id=overlay_ids,
        primary=overlay_ids,
        up_version=versions,
        children=st.dictionaries(
            overlay_ids, st.tuples(versions, query_results()), max_size=4
        ),
        children_size=versions,
        seq=versions,
        full=st.booleans(),
    ),
    VertexNack.KIND: st.builds(
        VertexNack, query_id=overlay_ids, vertex_id=overlay_ids, backup=overlay_ids
    ),
    MetaPush.KIND: st.builds(
        MetaPush,
        metadata=metadata_records,
        owner_online=st.booleans(),
        down_since=st.none() | times,
        epoch=versions,
    ),
    MetaRefresh.KIND: st.builds(
        MetaRefresh, owner=overlay_ids, version=versions, epoch=versions
    ),
    MetaAck.KIND: st.builds(
        MetaAck, replica=overlay_ids, epoch=versions, held=st.booleans()
    ),
    ActiveReq.KIND: st.builds(ActiveReq, requester=overlay_ids),
    ActiveResp.KIND: st.builds(
        ActiveResp,
        active=st.lists(descriptors, max_size=4),
        cancelled=st.lists(overlay_ids, max_size=4),
    ),
    StatusPush.KIND: st.builds(
        StatusPush, query_id=overlay_ids, result=query_results(), time=times
    ),
    Cancel.KIND: st.builds(Cancel, query_id=overlay_ids),
}

message_instances = st.one_of(*STRATEGIES.values())


def test_every_registered_kind_has_a_strategy():
    assert set(STRATEGIES) == set(registered_kinds())


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(message=message_instances)
def test_roundtrip(message):
    frame = wire.encode(message)
    assert frame.kind == message.KIND
    decoded = wire.decode(frame)
    assert type(decoded) is type(message)
    assert decoded == message


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(message=message_instances)
def test_roundtrip_through_bytes(message):
    data = wire.encode(message).to_bytes()
    frame = framing.decode_frame(data)
    assert wire.decode(frame) == message


@pytest.mark.parametrize("kind", sorted(registered_kinds()))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_each_kind_roundtrips(kind, data):
    """Guaranteed per-kind coverage (one_of sampling is not exhaustive)."""
    message = data.draw(STRATEGIES[kind])
    assert wire.decode(wire.encode(message)) == message

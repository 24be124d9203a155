"""Regression: codec-computed sizes match the seed tree's hand arithmetic.

Before the typed protocol layer, every call site carried a hand-written
``size=`` expression.  These tests pin each message class's
``body_size()`` to the exact legacy formula (transcribed verbatim from
the seed tree) so the codec cannot drift from the byte accounting the
experiments were calibrated against.

The deliberate deviations: a re-routed :class:`ResultSubmit` is
forwarded as is, so it is charged for the states it carries (the seed
tree omitted them), and for the projection rows it carries, one ``ROW``
each, as :class:`VertexRepl` and :class:`StatusPush` are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregation import VertexState
from repro.core.availability_model import AvailabilityModel
from repro.core.metadata import EndsystemMetadata
from repro.core.predictor import CompletenessPredictor
from repro.core.query import QueryDescriptor
from repro.db.aggregates import AggregateSpec, AggregateState
from repro.db.executor import QueryResult, execute
from repro.db.histogram import EquiDepthHistogram
from repro.db.schema import ColumnType, make_schema
from repro.db.sql import parse
from repro.db.table import Table
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

ID_BYTES = 16  # the seed tree's literal


def metadata_of(buckets: int, mcv: int, tables: int) -> EndsystemMetadata:
    """A record of one equi-depth histogram with ``buckets`` buckets and
    ``mcv`` exact values, plus ``tables`` row counts."""
    histogram = EquiDepthHistogram(
        np.arange(buckets + 1.0),
        np.ones(buckets),
        np.ones(buckets),
        total_rows=buckets,
        mcv={float(-value): 1.0 for value in range(1, mcv + 1)},
    )
    return EndsystemMetadata(
        owner=1,
        summaries={"flow": {"bytes": histogram}},
        row_counts={f"t{index}": 1 for index in range(tables)},
        availability=AvailabilityModel(),
    )


@pytest.fixture
def descriptor() -> QueryDescriptor:
    return QueryDescriptor.create(
        "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80",
        origin=0x1234,
        injected_at=100.0,
    )


def query_result(states: int, rows: int, groups: int = 0) -> QueryResult:
    """A result with ``states`` SUM states, ``rows`` rows and ``groups``
    groups of ``states`` states each."""
    state = AggregateState("SUM", count=2, total=7.0, minimum=3.0, maximum=4.0)
    return QueryResult(
        specs=[AggregateSpec("SUM", "Bytes")] * states,
        states=[state] * states,
        rows=[(1, 2)] * rows,
        row_count=rows,
        groups={(group,): [state] * states for group in range(groups)},
    )


# ----------------------------------------------------------------------
# Overlay messages (legacy: src/repro/overlay/node.py literals)
# ----------------------------------------------------------------------


class TestOverlaySizes:
    def test_route_forwarded(self):
        env = RouteEnvelope(key=7, app_payload=None, app_size=100)
        assert env.body_size() == 100 + 2 * ID_BYTES

    def test_route_ack_id_rides_in_the_header(self):
        env = RouteEnvelope(key=7, app_payload=None, app_size=100, ack_id=3)
        assert env.body_size() == 100 + 2 * ID_BYTES

    def test_route_direct(self):
        env = RouteEnvelope(
            key=7, app_payload=None, app_size=100, direct=True
        )
        assert env.body_size() == 100 + ID_BYTES

    def test_route_ack_free(self):
        assert RouteAck(msg_id=3).body_size() == 0

    def test_join_request_initial(self):
        assert JoinRequest(joiner=9).body_size() == 2 * ID_BYTES

    def test_join_request_forwarded(self):
        # Legacy: ID_BYTES * (2 + len(path)) after the forwarder appended
        # itself to the path.
        req = JoinRequest(joiner=9, path=[1, 2, 3])
        assert req.body_size() == ID_BYTES * (2 + 3)

    def test_join_reply(self):
        reply = JoinReply(leafset=[1, 2, 3], routing=[4, 5], path=[6])
        # Legacy: ID_BYTES * (len(leafset) + len(routing) + 1)
        assert reply.body_size() == ID_BYTES * (3 + 2 + 1)

    def test_leafset_announce(self):
        assert LeafsetAnnounce(joiner=1).body_size() == ID_BYTES

    def test_leafset_state(self):
        assert LeafsetState(members=[1, 2, 3, 4]).body_size() == ID_BYTES * 4

    def test_leafset_probe_free(self):
        assert LeafsetProbe().body_size() == 0


# ----------------------------------------------------------------------
# Dissemination messages (legacy: src/repro/core/dissemination.py)
# ----------------------------------------------------------------------


class TestDisseminationSizes:
    def test_query_inject(self, descriptor):
        # Legacy: descriptor.wire_size() == len(sql) + 48
        msg = QueryInject(descriptor=descriptor)
        assert msg.body_size() == codec.descriptor_size(descriptor)
        assert msg.body_size() == len(descriptor.sql) + 48

    def test_bcast(self, descriptor):
        # Legacy: descriptor.wire_size() + 40
        msg = Bcast(descriptor=descriptor, lo=0, hi=2**128, parent=None)
        assert msg.body_size() == len(descriptor.sql) + 48 + 40

    def test_bcast_ack(self):
        # Legacy literal: 56
        assert BcastAck(query_id=1, lo=0, hi=10).body_size() == 56

    def test_predictor_update(self):
        # Legacy: predictor.wire_size() + 56, where wire_size is
        # 8 * (buckets + 3): 408 at the default 48 buckets.
        predictor = CompletenessPredictor()
        msg = PredictorUpdate(query_id=1, lo=0, hi=10, predictor=predictor)
        assert msg.body_size() == 408 + 56

    def test_predictor_result(self):
        # Legacy: predictor.wire_size() + 24
        msg = PredictorResult(query_id=1, predictor=CompletenessPredictor())
        assert msg.body_size() == 408 + 24


# ----------------------------------------------------------------------
# Aggregation messages (legacy: src/repro/core/aggregation.py)
# ----------------------------------------------------------------------


class TestAggregationSizes:
    def test_result_submit(self, descriptor):
        # Legacy: 64 + len(sql) + 8 * len(states) * 4
        msg = ResultSubmit(
            descriptor=descriptor, vertex_id=1, contributor=2,
            submitter=3, version=1, result=query_result(states=3, rows=0),
        )
        assert msg.body_size() == 64 + len(descriptor.sql) + 8 * 3 * 4

    def test_result_submit_charges_projection_rows(self):
        # A projection's rows ride the submission that first carries
        # them; the seed tree billed only the (empty) state vector.
        table = Table(
            make_schema("Flow", [("ts", ColumnType.FLOAT), ("Bytes", ColumnType.INT)])
        )
        table.load_columns({"ts": [1.0, 2.0, 3.0, 4.0], "Bytes": [10, 20, 30, 0]})
        sql = "SELECT ts, Bytes FROM Flow WHERE Bytes > 0"
        result = execute(parse(sql), table)
        assert len(result.rows) == 3
        descriptor = QueryDescriptor.create(sql, origin=0x1234, injected_at=100.0)
        msg = ResultSubmit(
            descriptor=descriptor, vertex_id=1, contributor=2,
            submitter=3, version=1, result=result,
        )
        states_alone = 4 * ID_BYTES + len(sql) + codec.result_states_size(result)
        assert msg.body_size() == states_alone + 3 * codec.ROW

    def test_result_ack(self):
        # Legacy literal: 48
        msg = ResultAck(query_id=1, vertex_id=2, contributor=3, version=4)
        assert msg.body_size() == 48

    def test_vertex_repl(self, descriptor):
        # Legacy: VertexState.wire_size() + len(sql), where wire_size is
        # 32 + sum(16 + 8*len(states)*4 + 32*len(rows)) over children;
        # since delta replication, plus one 8-byte tag (seq and full flag).
        children = {
            17: (1, query_result(states=2, rows=1)),
            42: (3, query_result(states=1, rows=0)),
        }
        msg = VertexRepl(
            descriptor=descriptor, vertex_id=1, primary=2,
            up_version=1, children=children,
            children_size=codec.vertex_children_size(children.values()),
            seq=4, full=True,
        )
        legacy_state = 32 + (16 + 8 * 2 * 4 + 32 * 1) + (16 + 8 * 1 * 4 + 32 * 0)
        assert msg.body_size() == legacy_state + 8 + len(descriptor.sql)

    def test_vertex_repl_delta(self, descriptor):
        # New form, no legacy: a delta is charged by the same formula
        # over the entries it carries.
        entry = (3, query_result(states=1, rows=2))
        msg = VertexRepl(
            descriptor=descriptor, vertex_id=1, primary=2, up_version=1,
            children={42: entry}, children_size=16 + 8 * 1 * 4 + 32 * 2,
            seq=5, full=False,
        )
        assert msg.body_size() == 32 + 8 + (16 + 32 + 64) + len(descriptor.sql)

    def test_vertex_repl_carried_children_size(self, descriptor):
        # A vertex keeps its children's size as they change; a replication
        # carries it, and a backup adopting the table takes it as is.
        state = VertexState(query_id=1, vertex_id=2)
        state.update_child(17, 1, query_result(states=2, rows=1))
        state.update_child(42, 3, query_result(states=1, rows=0))
        state.update_child(17, 2, query_result(states=1, rows=4, groups=2))
        state.update_child(42, 1, query_result(states=3, rows=9))  # stale
        assert state.children_size == codec.vertex_children_size(
            state.children.values()
        )
        repl = VertexRepl(
            descriptor=descriptor, vertex_id=2, primary=3, up_version=1,
            children=dict(state.children), children_size=state.children_size,
            seq=1, full=True,
        )
        assert repl.body_size() == (
            codec.RANGE + codec.TAG + state.children_size + len(descriptor.sql)
        )
        backup = VertexState(query_id=1, vertex_id=2)
        backup.adopt_children(repl)
        assert backup.children_size == state.children_size

    def test_vertex_nack(self):
        # New kind, no legacy: query id + vertex id + backup id.
        msg = VertexNack(query_id=1, vertex_id=2, backup=3)
        assert msg.body_size() == 3 * ID_BYTES == 48


# ----------------------------------------------------------------------
# Metadata / bookkeeping messages (legacy: src/repro/core/node.py)
# ----------------------------------------------------------------------


class TestMaintenanceSizes:
    def test_meta_push_full(self):
        # Legacy: metadata.wire_size() = 20 per bucket + 12 per exact
        # value + 12 per row count + 48 for the availability model.
        metadata = metadata_of(buckets=250, mcv=5, tables=1)
        msg = MetaPush(metadata=metadata)
        assert msg.body_size() == 250 * 20 + 5 * 12 + 12 + 48 == 5120

    def test_meta_push_category_is_maintenance(self):
        assert MetaPush.CATEGORY == "maintenance"

    def test_meta_push_epoch_is_not_charged(self):
        metadata = metadata_of(buckets=250, mcv=5, tables=1)
        assert MetaPush(metadata=metadata, epoch=7).body_size() == 5120

    def test_meta_refresh(self):
        # New kind, no legacy: owner id + version + epoch.
        msg = MetaRefresh(owner=1, version=9, epoch=4)
        assert msg.body_size() == 16 + 8 + 8 == 32
        assert MetaRefresh.CATEGORY == "maintenance"

    def test_meta_ack(self):
        # New kind, no legacy: replica id + epoch + held flag.
        assert MetaAck(replica=1, epoch=4).body_size() == 16 + 8 + 8 == 32
        assert MetaAck(replica=1, epoch=4, held=False).body_size() == 32
        assert MetaAck.CATEGORY == "maintenance"

    def test_active_req(self):
        # Legacy literal: 16
        assert ActiveReq(requester=1).body_size() == 16

    def test_active_resp(self, descriptor):
        # Legacy: 16 + sum(len(sql) + 48) + 16 * len(cancelled)
        msg = ActiveResp(active=[descriptor, descriptor], cancelled=[1, 2, 3])
        assert msg.body_size() == 16 + 2 * (len(descriptor.sql) + 48) + 16 * 3

    def test_status_push(self):
        # Legacy: result.wire_size() + 24, where wire_size is 8 (row
        # count) + 32 per state + 32 per row + (16 + 32 per state) per group.
        result = query_result(states=2, rows=1, groups=1)
        msg = StatusPush(query_id=1, result=result, time=5.0)
        legacy_result = 8 + 32 * 2 + 32 * 1 + (16 + 32 * 2)
        assert msg.body_size() == legacy_result + 24

    def test_cancel(self):
        # Legacy literal: 24
        assert Cancel(query_id=1).body_size() == 24


# ----------------------------------------------------------------------
# Completeness
# ----------------------------------------------------------------------


class TestCodecConstants:
    def test_header_matches_transport(self):
        from repro.net.stats import BandwidthAccounting
        from repro.net.transport import Message, Transport
        from repro.sim import SimClock, Simulator

        # An empty body: what the transport charges is the header alone.
        accounting = BandwidthAccounting()
        transport = Transport(Simulator(SimClock()), None, accounting)
        transport.carry = lambda *args: None  # accounting only, no delivery
        transport.send("a", "b", Message.of(RouteAck(msg_id=1)))
        assert sum(accounting.totals_by_category().values()) == codec.HEADER == 48

    def test_every_kind_covered(self):
        """Every registered kind has a size test in this module."""
        covered = {
            "P_ROUTE", "P_ROUTE_ACK", "P_JOIN_REQ", "P_JOIN_REPLY",
            "P_LS_ANNOUNCE", "P_LS_STATE", "P_LS_PROBE",
            "SW_QUERY_INJECT", "SW_BCAST", "SW_BCAST_ACK",
            "SW_PREDICTOR", "SW_PREDICTOR_RESULT",
            "SW_RESULT_SUBMIT", "SW_RESULT_ACK", "SW_VERTEX_REPL",
            "SW_VERTEX_NACK",
            "SW_META_PUSH", "SW_META_REFRESH", "SW_META_ACK",
            "SW_ACTIVE_REQ", "SW_ACTIVE_RESP",
            "SW_STATUS", "SW_CANCEL",
        }
        assert set(registered_kinds()) == covered

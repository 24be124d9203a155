"""Deterministic wire codec: size arithmetic for protocol messages.

The simulator never serializes payloads to real bytes — messages travel
as Python objects — but every byte that *would* be on the wire must be
accounted, because the paper's headline overhead numbers (Fig. 9,
Table 1) are byte budgets.  This module is the single source of truth
for that arithmetic: named field-size primitives, helpers for composite
fields, and the fixed framing constants shared by every message.

Each :class:`~repro.proto.messages.ProtoMessage` subclass implements
its size formula in terms of these primitives, so a message's wire size
is *computed from its fields* instead of hand-maintained at call sites
(``tests/proto/test_wire_sizes.py`` audits every formula).  These are
*modelled* bytes, charged alike in the simulator and on a live cluster;
the length of a real encoded frame (:mod:`repro.proto.wire`) is a
separate measurement, ``AsyncioTransport.bytes_sent``.

Glossary of primitives (all sizes in bytes):

==================  ====  =====================================================
``ID``                16  one 128-bit overlay id / namespace key
``TAG``                8  small scalar: version, count, flag word, timestamp
``RANGE``             32  a wrapped namespace range ``[lo, hi)`` (two ids)
``QUERY_FIXED``       48  fixed part of a query descriptor (id, origin,
                          times, lifetime) — the SQL text rides on top
``AGG_STATE``         32  one serialized aggregate state (func tag + values)
``ROW``               32  one materialized (projection) result row
``HEARTBEAT``         32  one leafset heartbeat body (two ids)
``AVAILABILITY``      48  one availability model (paper Table 1: a)
``BUCKET``            20  one equi-depth histogram bucket
``COUNT``             12  one exact count: a histogram value + its count, or
                          a table's row count
``PREDICTOR_CELL``     8  one completeness-predictor cell (a row count)
==================  ====  =====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.db.histogram import FrequencyHistogram, Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metadata import EndsystemMetadata
    from repro.core.predictor import CompletenessPredictor
    from repro.core.query import QueryDescriptor
    from repro.db.executor import QueryResult

#: Serialized size of one 128-bit overlay id / namespace key.
ID = 16

#: Small scalar field: a version, count, flag word, or timestamp.
TAG = 8

#: A wrapped namespace range ``[lo, hi)``: two ids.
RANGE = 2 * ID

#: Fixed part of a serialized query descriptor: queryId + origin id +
#: injected-at / lifetime / NOW-binding scalars.  The SQL text length is
#: added per descriptor.
QUERY_FIXED = 48

#: One serialized aggregate state inside a query result: the function
#: tag plus its accumulator values.
AGG_STATE = 32

#: One materialized result row of a projection query.
ROW = 32

#: Body of one leafset heartbeat (sender and receiver ids); the
#: heartbeat sweep charges it plus :data:`HEADER` per leafset member.
HEARTBEAT = 2 * ID

#: One serialized availability model (paper Table 1: a = 48 bytes —
#: 24 hour-counters plus compact down-duration buckets).
AVAILABILITY = 48

#: One equi-depth histogram bucket: lo, hi, count, distinct.
BUCKET = 20

#: One exact count: a histogram value (hash) with its count, or a
#: table name (hash) with its row count.
COUNT = 12

#: One completeness-predictor cell: a float row count.
PREDICTOR_CELL = 8

#: Fixed per-message wire header (UDP/IP + overlay header), matching
#: the order of magnitude MSPastry reports; the transport adds it to
#: every message's modelled body.
HEADER = 48


def ids(count: int) -> int:
    """Size of ``count`` serialized overlay ids."""
    return ID * count


def descriptor_size(descriptor: "QueryDescriptor") -> int:
    """Serialized size of one query descriptor (fixed part + SQL text)."""
    return QUERY_FIXED + len(descriptor.sql)


def result_states_size(result: "QueryResult") -> int:
    """Size of the aggregate-state vectors in a query result.

    Counts the ungrouped state vector plus, for each GROUP BY group, a
    group key (one :data:`ID`) and the group's own state vector —
    without the group term, GROUP BY replication traffic rides the wire
    unaccounted.
    """
    size = AGG_STATE * len(result.states)
    for states in result.groups.values():
        size += ID + AGG_STATE * len(states)
    return size


def result_size(result: "QueryResult") -> int:
    """Size of a query result: its state vectors plus one :data:`ROW` per
    materialized projection row."""
    return result_states_size(result) + ROW * len(result.rows)


def vertex_children_size(children: Iterable[tuple[int, "QueryResult"]]) -> int:
    """Size of a vertex's replicated child-result table.

    ``children`` iterates ``(version, result)`` pairs; each entry costs a
    keyed header (contributor id) plus the result itself.
    """
    return sum(ID + result_size(result) for _version, result in children)


def histogram_size(histogram: Histogram) -> int:
    """Size of one column histogram: a frequency histogram's exact
    counts, or an equi-depth histogram's buckets plus the exact counts of
    its most common values."""
    if isinstance(histogram, FrequencyHistogram):
        return COUNT * len(histogram.counts)
    return BUCKET * len(histogram.counts) + COUNT * len(histogram.mcv)


def summary_size(metadata: "EndsystemMetadata") -> int:
    """Size of an endsystem's data summary (paper Table 1: h): every
    column histogram plus one :data:`COUNT` per table row count."""
    total = COUNT * len(metadata.row_counts)
    for per_column in metadata.summaries.values():
        for histogram in per_column.values():
            total += histogram_size(histogram)
    return total


def metadata_size(metadata: "EndsystemMetadata") -> int:
    """Size of one replicated metadata record: data summary plus
    availability model."""
    return summary_size(metadata) + AVAILABILITY


def predictor_size(predictor: "CompletenessPredictor") -> int:
    """Size of a completeness predictor: one cell per time bucket plus
    three scalar cells — constant in the rows and endsystems it counts,
    which keeps in-tree predictor aggregation O(1) per message."""
    return PREDICTOR_CELL * (len(predictor.bucket_rows) + 3)

"""The Observer: one object carrying metrics, tracing, and profiling.

A single :class:`Observer` is threaded through the whole stack by
:class:`~repro.core.system.SeaweedSystem`: the transport, the overlay,
and every Seaweed node hold a reference and report protocol events
through the typed emitters below.  Each emitter bumps a pre-bound
metrics counter and, when a trace sink is attached, writes one
structured record keyed by query id / endsystem id.

Off is ``None``, at every level:

* a component given no observer stores ``None``, so the unobserved hot
  path is one ``is None`` check at the call site — no call, no
  allocation;
* an observer without a trace sink has ``sink is None``; emitters check
  that before building the record dict, so it pays only counter
  increments;
* node and query ids are rendered as 32-char hex (matching
  ``f"{query_id:032x}"`` elsewhere in the repo) only when a record is
  actually emitted.

A number a component already keeps as an attribute (reroutes, routing
drops, drops by reason, the live pool's size) is not pushed here; it is
read from the component where it is published
(``SeaweedSystem.metrics_snapshot()``, ``NodeHost._write_metrics()``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.profiling import SimProfiler
from repro.obs.tracing import TraceSink


def _hx(value: int) -> str:
    return format(value, "032x")


class Observer:
    """A metrics registry, an optional trace sink and an optional profiler.

    Tracing is on exactly when :attr:`sink` is not ``None``.
    """

    def __init__(
        self, trace_sink: Optional[TraceSink] = None, profile: bool = False
    ) -> None:
        self.metrics = MetricsRegistry()
        self.sink = trace_sink
        self.profiler: Optional[SimProfiler] = SimProfiler() if profile else None
        m = self.metrics
        self._c_queries = m.counter("seaweed.queries_issued_total")
        self._c_cancels = m.counter("seaweed.queries_cancelled_total")
        self._c_hops = m.counter("seaweed.dissemination_hops_total")
        self._c_predictor = m.counter("seaweed.predictor_updates_total")
        self._c_flushes = m.counter("seaweed.aggregation_flushes_total")
        self._c_meta = m.counter("seaweed.metadata_pushes_total")
        self._c_repairs = m.counter("overlay.leafset_repairs_total")
        self._c_up = m.counter("endsystem.transitions_total", direction="up")
        self._c_down = m.counter("endsystem.transitions_total", direction="down")
        self._c_faults: dict[str, Counter] = {}
        self._c_audit: dict[str, Counter] = {}

    def close(self) -> None:
        """Flush and close the trace sink, if any."""
        if self.sink is not None:
            self.sink.close()

    def _emit(self, t: float, event: str, **fields: object) -> None:
        """Write one ``{"t", "event", ...fields}`` record (sink present)."""
        assert self.sink is not None
        self.sink.emit({"t": t, "event": event, **fields})

    # ------------------------------------------------------------------
    # Typed event emitters (positional-only call sites, hot-path safe)
    # ------------------------------------------------------------------

    def query_issued(self, t: float, query_id: int, origin: int, sql: str) -> None:
        """A query was injected at its originating endsystem."""
        self._c_queries.inc()
        if self.sink is not None:
            self._emit(
                t, "query_issued", query_id=_hx(query_id), node=_hx(origin), sql=sql
            )

    def query_cancelled(self, t: float, query_id: int, node: int) -> None:
        """A cancellation tombstone was installed at ``node``."""
        self._c_cancels.inc()
        if self.sink is not None:
            self._emit(t, "query_cancelled", query_id=_hx(query_id), node=_hx(node))

    def dissemination_hop(
        self, t: float, query_id: int, node: int, lo: int, hi: int, retries: int
    ) -> None:
        """A broadcast subrange was dispatched toward a child."""
        self._c_hops.inc()
        if self.sink is not None:
            self._emit(
                t, "dissemination_hop", query_id=_hx(query_id), node=_hx(node),
                lo=_hx(lo), hi=_hx(hi), retries=retries,
            )

    def predictor_update(
        self, t: float, query_id: int, node: int, role: str, endsystems: int
    ) -> None:
        """A completeness predictor landed (``role``: root or origin)."""
        self._c_predictor.inc()
        if self.sink is not None:
            self._emit(
                t, "predictor_update", query_id=_hx(query_id), node=_hx(node),
                role=role, endsystems=endsystems,
            )

    def aggregation_flush(
        self, t: float, query_id: int, vertex_id: int, node: int,
        root: bool, version: int, rows: int,
    ) -> None:
        """An aggregation vertex folded its children and pushed/published."""
        self._c_flushes.inc()
        if self.sink is not None:
            self._emit(
                t, "aggregation_flush", query_id=_hx(query_id), vertex=_hx(vertex_id),
                node=_hx(node), root=root, version=version, rows=rows,
            )

    def metadata_push(self, t: float, node: int, replicas: int) -> None:
        """An endsystem pushed its metadata to its replica set."""
        self._c_meta.inc()
        if self.sink is not None:
            self._emit(t, "metadata_push", node=_hx(node), replicas=replicas)

    def leafset_repair(self, t: float, node: int, dead: int) -> None:
        """A leafset member was declared dead and repair started."""
        self._c_repairs.inc()
        if self.sink is not None:
            self._emit(t, "leafset_repair", node=_hx(node), dead=_hx(dead))

    def routing_drop(
        self, t: float, node: int, key: int, app_kind: str,
        next_hop: Optional[int], leafset: list[int],
    ) -> None:
        """A routed message hit the hop cap at ``node`` (trace only)."""
        if self.sink is not None:
            self._emit(
                t, "routing_drop", node=_hx(node), key=_hx(key), app_kind=app_kind,
                next_hop=None if next_hop is None else _hx(next_hop),
                leafset=[_hx(member) for member in leafset],
            )

    def message_drop(self, t: float, dst: str, kind: str, reason: str) -> None:
        """A message was dropped in the transport (trace only: the count
        is ``Transport.drops_by_reason``)."""
        if self.sink is not None:
            self._emit(t, "message_drop", dst=dst, kind=kind, reason=reason)

    def fault_injected(self, t: float, kind: str, detail: str) -> None:
        """A declared fault event activated (window opened, burst fired)."""
        counter = self._c_faults.get(kind)
        if counter is None:
            counter = self.metrics.counter("faults.injected_total", kind=kind)
            self._c_faults[kind] = counter
        counter.inc()
        if self.sink is not None:
            self._emit(t, "fault_injected", kind=kind, detail=detail)

    def audit_violation(
        self, t: float, check: str, query_id: Optional[int], detail: str
    ) -> None:
        """The ground-truth oracle observed a conformance violation.

        ``query_id`` is ``None`` for deployment-wide checks.
        """
        counter = self._c_audit.get(check)
        if counter is None:
            # Audit checks are few and named at run time; bind lazily
            # like the fault-kind counters.
            counter = self.metrics.counter("audit.violations_total", check=check)
            self._c_audit[check] = counter
        counter.inc()
        if self.sink is not None:
            self._emit(
                t, "audit_violation", check=check,
                query_id=None if query_id is None else _hx(query_id), detail=detail,
            )

    def audit_calibration(
        self, query_id: int, final_error: float, mean_abs_error: float
    ) -> None:
        """Predictor calibration for one audited query (gauges only).

        ``final_error`` is signed (predicted minus realized completeness
        at the audit end); ``mean_abs_error`` averages the absolute
        claim-vs-realized gap over every streamed root result.
        """
        query = _hx(query_id)[:8]
        self.metrics.gauge(
            "audit.predictor_calibration_final_error", query=query
        ).set(final_error)
        self.metrics.gauge(
            "audit.predictor_calibration_mean_abs_error", query=query
        ).set(mean_abs_error)

    def endsystem_up(self, t: float, node: int) -> None:
        """An endsystem became available and is (re)joining."""
        self._c_up.inc()
        if self.sink is not None:
            self._emit(t, "endsystem_up", node=_hx(node))

    def endsystem_down(self, t: float, node: int) -> None:
        """An endsystem went down (fail-stop)."""
        self._c_down.inc()
        if self.sink is not None:
            self._emit(t, "endsystem_down", node=_hx(node))

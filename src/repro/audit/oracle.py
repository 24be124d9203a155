"""The ground-truth oracle: omniscient conformance checking.

The oracle sits outside the protocol.  It sees every endsystem's local
database directly (something no real deployment could), so it can state
exactly what a query *should* return and compare that against what the
aggregation tree actually delivers.  It is the repository's one
conformance checker.

Checked on every root flush:

* **contribution bound** — every result streamed from the root must be
  explainable as a merge of true local contributions with each
  endsystem counted at most once, so the root's row count may never
  exceed the sum of its contributors' true row counts (which is at most
  the population truth).

Checked once, at :meth:`GroundTruthOracle.finalize`:

* **final equality** — the root's aggregate must *exactly* equal the
  merge of the latest true contribution from every endsystem that
  learned the query while online (row counts equal, aggregate and
  per-group values equal to float tolerance — merge order may permute
  float additions);
* **leafset repaired** — every online node's leafset is full (when the
  population exceeds the leafset size) and holds only online members;
* **vertex state released** — no node holds aggregation-tree vertex
  state for a query that expired more than one ``result_refresh_period``
  ago.

Measured, not gated (per query, in the report): **predictor
calibration** — the completeness the predictor claimed at each streamed
result against the completeness actually realized, also exported
through :mod:`repro.obs` gauges; **publishers** — how many distinct
nodes published root results; **row regressions** — root flushes of a
one-shot query whose row count fell below the previous flush.

Hook discipline: every hook is read-only with respect to the simulation
— no events scheduled, no RNG drawn, no protocol state touched — so an
audited run is event-for-event identical to an unaudited one.  Truth
snapshots execute the query against each endsystem's
:class:`~repro.db.engine.LocalDatabase` directly, cached per database
object (profile databases are shared between endsystems unless the
system was built with ``private_databases=True``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.core.query import QueryDescriptor
from repro.db.executor import QueryResult
from repro.obs.observer import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import SeaweedSystem

#: The root streamed more rows than its contributors truly hold —
#: some endsystem was counted twice.
AUDIT_CONTRIBUTION_BOUND = "contribution_bound"

#: The final root row count differs from the truth over every
#: endsystem that learned the query while online.
AUDIT_FINAL_EQUALITY = "final_equality"

#: Final aggregate values differ from truth beyond float tolerance.
AUDIT_VALUE_MISMATCH = "value_mismatch"

#: Final GROUP BY keys or per-group values differ from truth.
AUDIT_GROUP_MISMATCH = "group_mismatch"

#: At the end of the run an online node's leafset is short or holds an
#: offline member.
AUDIT_LEAFSET_REPAIRED = "leafset_repaired"

#: At the end of the run a node still holds vertex state for a query
#: that expired more than one refresh sweep ago.
AUDIT_VERTEX_STATE_RELEASED = "vertex_state_released"

#: Relative/absolute tolerance for float aggregate comparison: merge
#: order permutes float additions, so exact bit equality is not owed.
_REL_TOL = 1e-9
_ABS_TOL = 1e-9


def _hx(value: int) -> str:
    return format(value, "032x")


@dataclass(frozen=True)
class Violation:
    """One observed breach of a conformance check."""

    check: str
    detail: str
    t: float
    #: The query concerned; ``None`` for deployment-wide checks.
    query_id: Optional[int] = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON reports."""
        return {
            "check": self.check,
            "query_id": None if self.query_id is None else _hx(self.query_id),
            "detail": self.detail,
            "t": self.t,
        }


@dataclass
class QueryAudit:
    """Everything the oracle tracks about one audited query."""

    descriptor: QueryDescriptor
    #: True local result per endsystem, snapshotted at injection time.
    truth_results: dict[int, QueryResult] = field(default_factory=dict)
    #: node_id -> time the endsystem first learned the query while online.
    learned: dict[int, float] = field(default_factory=dict)
    #: node_id -> (version, latest true local contribution).  The
    #: contribution *is* ground truth: it comes straight from the local
    #: database, so re-executions (continuous queries, live updates)
    #: supersede the injection-time snapshot.
    contributions: dict[int, tuple[int, QueryResult]] = field(default_factory=dict)
    #: (time, publishing node_id, row_count) per root-published result,
    #: in stream order.
    root_flushes: list[tuple[float, int, int]] = field(default_factory=list)
    #: The most recent root-published merged result.
    last_root_result: Optional[QueryResult] = None

    @property
    def truth_total_rows(self) -> int:
        """True relevant rows across every endsystem (the population truth)."""
        return sum(result.row_count for result in self.truth_results.values())

    def contributed_truth_rows(self) -> int:
        """True rows across endsystems that actually contributed."""
        return sum(result.row_count for _, result in self.contributions.values())

    def expected_final(self) -> Optional[QueryResult]:
        """Merge of the latest true contribution per contributor.

        This is what the root must hold at audit end: every endsystem
        that learned the query while online executed it locally, so the
        contributor set is exactly the "ever online with the query known
        to them" population of the paper's delivery guarantee.
        """
        expected: Optional[QueryResult] = None
        for node_id in sorted(self.contributions):
            _, result = self.contributions[node_id]
            expected = result if expected is None else expected.merge(result)
        return expected

    def row_regressions(self) -> Optional[int]:
        """Root flushes whose row count fell below the previous flush.

        ``None`` for a continuous query, whose re-executions may
        legitimately shrink the result.
        """
        if self.descriptor.continuous_period is not None:
            return None
        rows = [row_count for _, _, row_count in self.root_flushes]
        return sum(later < earlier for earlier, later in zip(rows, rows[1:]))


class GroundTruthOracle:
    """Omniscient conformance oracle attached to one deployment.

    Construct via :meth:`repro.core.system.SeaweedSystem.enable_audit`;
    hooks are invoked by the system and its nodes.  Call
    :meth:`finalize` once, at the end of the run, for the end-state
    checks and the report.
    """

    def __init__(
        self, system: "SeaweedSystem", observer: Optional[Observer] = None
    ) -> None:
        self.system = system
        self._obs = observer
        self.audits: dict[int, QueryAudit] = {}
        self.violations: list[Violation] = []
        #: Availability bookkeeping, seeded from the current state so the
        #: oracle can be attached to a deployment that already ran.
        self.online_now: set[int] = {
            node.node_id for node in system.nodes if node.pastry.online
        }
        self.ever_online: set[int] = set(self.online_now)
        self.transitions = 0
        self._finalized: Optional[dict] = None

    # ------------------------------------------------------------------
    # Hooks (read-only; called from core/system and core/node)
    # ------------------------------------------------------------------

    def on_query_injected(self, descriptor: QueryDescriptor) -> None:
        """Snapshot the true per-endsystem result at injection time."""
        if descriptor.query_id in self.audits:
            return
        audit = QueryAudit(descriptor=descriptor)
        # Endsystems sharing a profile database share its answer memo.
        for node in self.system.nodes:
            audit.truth_results[node.node_id] = node.database.execute(
                descriptor.parsed
            )
        self.audits[descriptor.query_id] = audit

    def on_query_learned(self, t: float, node_id: int, query_id: int) -> None:
        """An online endsystem learned of the query (dissemination)."""
        audit = self.audits.get(query_id)
        if audit is not None and node_id not in audit.learned:
            audit.learned[node_id] = t

    def on_local_contribution(
        self,
        t: float,
        node_id: int,
        descriptor: QueryDescriptor,
        version: int,
        result: QueryResult,
    ) -> None:
        """An endsystem executed the query locally and submitted it."""
        audit = self.audits.get(descriptor.query_id)
        if audit is None:
            return
        previous = audit.contributions.get(node_id)
        if previous is None or version >= previous[0]:
            audit.contributions[node_id] = (version, result)
        audit.learned.setdefault(node_id, t)

    def on_root_result(
        self, t: float, node_id: int, descriptor: QueryDescriptor, merged: QueryResult
    ) -> None:
        """The root published an updated merged result — check the bound."""
        audit = self.audits.get(descriptor.query_id)
        if audit is None:
            return
        audit.root_flushes.append((t, node_id, merged.row_count))
        audit.last_root_result = merged
        bound = audit.contributed_truth_rows()
        if merged.row_count > bound:
            self._violation(
                AUDIT_CONTRIBUTION_BOUND,
                f"root streamed {merged.row_count} rows but contributors "
                f"truly hold {bound} — an endsystem was double-counted",
                t,
                descriptor.query_id,
            )

    def on_transition(self, t: float, node_id: int, goes_up: bool) -> None:
        """An endsystem changed availability."""
        self.transitions += 1
        if goes_up:
            self.online_now.add(node_id)
            self.ever_online.add(node_id)
        else:
            self.online_now.discard(node_id)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self) -> dict:
        """Run the end-state checks and return the audit report.

        Call at quiescence: after the last fault, once the failure
        detector, leafset repair and a stabilization round have had time
        to run (one heartbeat period plus detection grace plus one
        stabilization period is enough in practice).  Earlier, the
        leafset check reports repair still in progress.

        Idempotent: a second call returns the same report without
        re-running checks or re-emitting violations.
        """
        if self._finalized is not None:
            return self._finalized
        now = self.system.sim.now
        queries: dict[str, dict] = {}
        for query_id in sorted(self.audits):
            audit = self.audits[query_id]
            queries[_hx(query_id)] = self._finalize_query(audit, now)
        self._check_leafset_repair(now)
        self._check_vertex_state_release(now)
        report = {
            "queries": queries,
            "endsystems_ever_online": len(self.ever_online),
            "transitions_observed": self.transitions,
            "violation_count": len(self.violations),
            "violations": [violation.to_dict() for violation in self.violations],
            "ok": not self.violations,
        }
        self._finalized = report
        return report

    def _finalize_query(self, audit: QueryAudit, now: float) -> dict:
        descriptor = audit.descriptor
        expected = audit.expected_final()
        expected_rows = expected.row_count if expected is not None else 0
        actual = audit.last_root_result
        actual_rows = actual.row_count if actual is not None else 0

        if actual_rows != expected_rows:
            self._violation(
                AUDIT_FINAL_EQUALITY,
                f"final root rows {actual_rows} != truth {expected_rows} over "
                f"{len(audit.contributions)} contributing endsystem(s)",
                now,
                descriptor.query_id,
            )
        elif expected is not None and actual is not None:
            self._check_values(audit, expected, actual, now)

        calibration = self._calibrate(audit, expected_rows, now)
        return {
            "sql": descriptor.sql,
            "truth_rows_population": audit.truth_total_rows,
            "truth_rows_contributed": expected_rows,
            "contributors": len(audit.contributions),
            "learned_endsystems": len(audit.learned),
            "root_rows_final": actual_rows,
            "root_flushes": len(audit.root_flushes),
            "publishers": len({node_id for _, node_id, _ in audit.root_flushes}),
            "row_regressions": audit.row_regressions(),
            "calibration": calibration,
        }

    def _check_values(
        self, audit: QueryAudit, expected: QueryResult, actual: QueryResult, now: float
    ) -> None:
        """Final aggregate and per-group values must match to tolerance."""
        query_id = audit.descriptor.query_id
        for index, (want, got) in enumerate(zip(expected.values(), actual.values())):
            if not _close(want, got):
                self._violation(
                    AUDIT_VALUE_MISMATCH,
                    f"aggregate #{index} final value {got!r} != truth {want!r}",
                    now,
                    query_id,
                )
        want_groups = expected.group_values()
        got_groups = actual.group_values()
        if set(want_groups) != set(got_groups):
            missing = len(set(want_groups) - set(got_groups))
            spurious = len(set(got_groups) - set(want_groups))
            self._violation(
                AUDIT_GROUP_MISMATCH,
                f"final GROUP BY keys differ from truth "
                f"({missing} missing, {spurious} spurious)",
                now,
                query_id,
            )
            return
        for key in want_groups:
            for index, (want, got) in enumerate(
                zip(want_groups[key], got_groups[key])
            ):
                if not _close(want, got):
                    self._violation(
                        AUDIT_GROUP_MISMATCH,
                        f"group {key!r} aggregate #{index} final value "
                        f"{got!r} != truth {want!r}",
                        now,
                        query_id,
                    )

    def _check_leafset_repair(self, now: float) -> None:
        """Every online leafset is full (population permitting) and all-online."""
        online = set(self.system.overlay.online_ids)
        must_be_full = len(online) > self.system.config.overlay.leafset_size
        for node in self.system.nodes:
            if not node.pastry.online:
                continue
            leafset = node.pastry.leafset
            if must_be_full and not leafset.is_full():
                self._violation(
                    AUDIT_LEAFSET_REPAIRED,
                    f"node {_hx(node.node_id)[:8]} leafset not full "
                    f"({len(leafset)} members, population {len(online)})",
                    now,
                )
            dead = [member for member in leafset.members if member not in online]
            if dead:
                self._violation(
                    AUDIT_LEAFSET_REPAIRED,
                    f"node {_hx(node.node_id)[:8]} leafset holds "
                    f"{len(dead)} offline member(s)",
                    now,
                )

    def _check_vertex_state_release(self, now: float) -> None:
        """No vertex state survives a refresh sweep past its query's expiry."""
        grace = self.system.config.result_refresh_period
        for node in self.system.nodes:
            for query_id, vertex_id, role in node.aggregator.vertex_inventory():
                descriptor = node.known_query(query_id)
                if descriptor is not None and now > descriptor.expires_at + grace:
                    self._violation(
                        AUDIT_VERTEX_STATE_RELEASED,
                        f"node {_hx(node.node_id)[:8]} still holds {role} state "
                        f"for expired query (vertex {_hx(vertex_id)[:8]})",
                        now,
                        query_id,
                    )

    def _calibrate(
        self, audit: QueryAudit, truth_rows: int, now: float
    ) -> Optional[dict]:
        """Predictor claims vs realized completeness (gauges, not checks)."""
        status = self.system.status_of(audit.descriptor)
        predictor = status.predictor if status is not None else None
        if predictor is None or not audit.root_flushes:
            return None
        injected_at = audit.descriptor.injected_at
        errors = []
        for t, _, rows in audit.root_flushes:
            claimed = predictor.completeness_at(t - injected_at)
            realized = min(1.0, rows / truth_rows) if truth_rows else 1.0
            errors.append(claimed - realized)
        final_rows = audit.root_flushes[-1][2]
        final_claimed = predictor.completeness_at(now - injected_at)
        final_realized = min(1.0, final_rows / truth_rows) if truth_rows else 1.0
        final_error = final_claimed - final_realized
        mean_abs_error = sum(abs(error) for error in errors) / len(errors)
        if self._obs is not None:
            self._obs.audit_calibration(
                audit.descriptor.query_id, final_error, mean_abs_error
            )
        return {
            "final_claimed": final_claimed,
            "final_realized": final_realized,
            "final_error": final_error,
            "mean_abs_error": mean_abs_error,
            "samples": len(errors),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _violation(
        self, check: str, detail: str, t: float, query_id: Optional[int] = None
    ) -> None:
        violation = Violation(check=check, detail=detail, t=t, query_id=query_id)
        self.violations.append(violation)
        if self._obs is not None:
            self._obs.audit_violation(t, check, query_id, detail)


def _close(want: Optional[float], got: Optional[float]) -> bool:
    """Equality for final aggregate values (None is SQL NULL)."""
    if want is None or got is None:
        return want is None and got is None
    return math.isclose(want, got, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)

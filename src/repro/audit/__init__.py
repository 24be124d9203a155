"""Ground-truth conformance checking for Seaweed deployments.

:mod:`repro.audit` is the one conformance checker.  Its omniscient
oracle snapshots every endsystem's true query-relevant rows at
injection time, watches availability transitions, local contributions
and root results through read-only hooks, and checks that what the
aggregation tree streams to the root counts each endsystem at most once
(on every root flush) — and, at the end of the run, that the final
aggregate exactly equals the truth over every endsystem that learned the
query while online, that every online leafset is repaired, and that no
node holds vertex state for a long-expired query.  Every chaos campaign
(:mod:`repro.faults`) runs it.

Attach with :meth:`repro.core.system.SeaweedSystem.enable_audit`; the
oracle never schedules events or draws randomness, so an audited run is
event-for-event identical to an unaudited one.
"""

from repro.audit.oracle import (
    AUDIT_CONTRIBUTION_BOUND,
    AUDIT_FINAL_EQUALITY,
    AUDIT_GROUP_MISMATCH,
    AUDIT_LEAFSET_REPAIRED,
    AUDIT_VALUE_MISMATCH,
    AUDIT_VERTEX_STATE_RELEASED,
    GroundTruthOracle,
    QueryAudit,
    Violation,
)

__all__ = [
    "AUDIT_CONTRIBUTION_BOUND",
    "AUDIT_FINAL_EQUALITY",
    "AUDIT_GROUP_MISMATCH",
    "AUDIT_LEAFSET_REPAIRED",
    "AUDIT_VALUE_MISMATCH",
    "AUDIT_VERTEX_STATE_RELEASED",
    "GroundTruthOracle",
    "QueryAudit",
    "Violation",
]

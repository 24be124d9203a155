"""Query descriptors and per-query status tracking.

A :class:`QueryDescriptor` is the unit that travels the network: the SQL
text, its NOW() binding, the queryId (SHA-1 of the text, as in the
paper), the originator, and the query lifetime.  :class:`QueryStatus` is
the root's live view: the aggregated completeness predictor, the current
incremental result, and the observed completeness history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.core.predictor import CompletenessPredictor
from repro.db.executor import QueryResult
from repro.db.sql import ParsedQuery, parse
from repro.overlay.ids import key_from_text

#: Default query lifetime: results keep arriving for 48 h (the paper's
#: prediction experiments monitor queries for 48 hours).
DEFAULT_LIFETIME = 48 * 3600.0


@dataclass(frozen=True)
class QueryDescriptor:
    """Everything an endsystem needs to execute a query locally."""

    query_id: int
    sql: str
    now_binding: Optional[float]
    origin: int
    injected_at: float
    lifetime: float = DEFAULT_LIFETIME
    #: A continuous query re-executes locally at this period and pushes
    #: updated (versioned) contributions up the result tree; None means
    #: the standard one-shot query (§3.4 extension).
    continuous_period: Optional[float] = None

    @classmethod
    def create(
        cls,
        sql: str,
        origin: int,
        injected_at: float,
        now_binding: Optional[float] = None,
        lifetime: float = DEFAULT_LIFETIME,
        continuous_period: Optional[float] = None,
    ) -> "QueryDescriptor":
        """Build a descriptor; the queryId is the SHA-1 hash of the text."""
        return cls(
            query_id=key_from_text(f"{sql}@{injected_at}"),
            sql=sql,
            now_binding=now_binding,
            origin=origin,
            injected_at=injected_at,
            lifetime=lifetime,
            continuous_period=continuous_period,
        )

    @cached_property
    def parsed(self) -> ParsedQuery:
        """The SQL parsed with its NOW() binding, once per descriptor.

        In the simulator every endsystem holds the very descriptor object
        the originator built, so a query is parsed once per run; the
        frozen :class:`ParsedQuery` is safe to share.
        """
        return parse(self.sql, now=self.now_binding)

    @property
    def expires_at(self) -> float:
        """Absolute time after which the query is dead."""
        return self.injected_at + self.lifetime


@dataclass
class QueryStatus:
    """The root's (and originator's) live view of one query."""

    descriptor: QueryDescriptor
    predictor: Optional[CompletenessPredictor] = None
    predictor_ready_at: Optional[float] = None
    result: Optional[QueryResult] = None
    #: (time, rows processed) samples, appended on every root update.
    history: list[tuple[float, int]] = field(default_factory=list)

    @property
    def rows_processed(self) -> int:
        """Rows contributing to the current incremental result."""
        return self.result.row_count if self.result is not None else 0

    def observed_completeness(self, expected_total: Optional[float] = None) -> float:
        """Fraction of expected rows processed so far."""
        if expected_total is None:
            if self.predictor is None or self.predictor.expected_total <= 0:
                return 0.0
            expected_total = self.predictor.expected_total
        if expected_total <= 0:
            return 1.0
        return min(1.0, self.rows_processed / expected_total)

    def offer_predictor(self, predictor: CompletenessPredictor, now: float) -> bool:
        """Keep ``predictor`` unless the held one covers more endsystems.

        Refinement passes may deliver several predictors; accepted
        coverage never decreases.  ``predictor_ready_at`` is stamped at
        the first acceptance only.  Returns whether it was accepted.
        """
        if self.predictor is not None and predictor.endsystems < self.predictor.endsystems:
            return False
        self.predictor = predictor
        if self.predictor_ready_at is None:
            self.predictor_ready_at = now
        return True

    def record(self, time: float) -> None:
        """Append a history sample at ``time``."""
        self.history.append((time, self.rows_processed))

    def rows_at(self, time: float) -> int:
        """Rows processed as of ``time`` according to the history."""
        rows = 0
        for sample_time, sample_rows in self.history:
            if sample_time <= time:
                rows = sample_rows
            else:
                break
        return rows

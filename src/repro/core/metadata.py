"""Replicated per-endsystem metadata: data summaries + availability models.

The metadata for endsystem ``x`` consists of the histograms on indexed
columns of ``x``'s local database (the *data summary*), per-table row
counts, and ``x``'s availability model.  It is replicated on the ``k``
endsystems numerically closest to ``x`` — the *replica set* — so that
when ``x`` is unavailable any replica member can generate completeness
predictions on its behalf (paper §3.2).

This module holds the data structures; the message protocol lives in
:mod:`repro.core.node`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.availability_model import AvailabilityModel
from repro.db.engine import LocalDatabase
from repro.db.histogram import Histogram, SelectivityCache
from repro.db.sql import ParsedQuery


@dataclass
class EndsystemMetadata:
    """One endsystem's replicated metadata record.

    Attributes:
        owner: The endsystem's overlay id.
        summaries: ``{table: {column: histogram}}`` for indexed columns.
        row_counts: ``{table: total rows}`` — the base for selectivity.
        availability: Snapshot of the owner's availability model.
        version: Monotone push version (replicas keep the newest).
    """

    owner: int
    summaries: dict[str, dict[str, Histogram]]
    row_counts: dict[str, int]
    availability: AvailabilityModel
    version: int = 0
    #: Selectivity memo scoped to ``summaries`` (shared by every record
    #: built from the same database generation).  None disables memoing.
    estimate_cache: Optional["SelectivityCache"] = field(
        default=None, repr=False, compare=False
    )

    def estimate_rows(self, query: ParsedQuery) -> float:
        """Estimated rows relevant to ``query`` on behalf of an
        *unavailable* endsystem: the histogram-based selectivity estimate.
        """
        from repro.db.histogram import estimate_row_count

        table = query.table.lower()
        histograms = dict(self.summaries.get(table, {}))
        total_rows = self.row_counts.get(table, 0)
        return estimate_row_count(
            query.predicate, histograms, total_rows, cache=self.estimate_cache
        )

    @classmethod
    def build(
        cls,
        owner: int,
        database: LocalDatabase,
        availability: AvailabilityModel,
        version: int = 0,
    ) -> "EndsystemMetadata":
        """Construct fresh metadata from an endsystem's local state."""
        summaries, estimate_cache = database.summary_state()
        row_counts = {
            name.lower(): database.total_rows(name) for name in database.table_names
        }
        return cls(
            owner=owner,
            summaries=summaries,
            row_counts=row_counts,
            availability=availability,
            version=version,
            estimate_cache=estimate_cache,
        )


@dataclass
class MetadataRecord:
    """A replica's view of one endsystem: metadata + observed liveness."""

    metadata: EndsystemMetadata
    #: When this replica observed the owner become unavailable (None = up).
    down_since: Optional[float] = None
    #: Last time the record was refreshed by a push.
    refreshed_at: float = 0.0
    #: The owner's content epoch this record holds (see
    #: :class:`~repro.proto.messages.MetaPush`).
    epoch: int = 0


class MetadataStore:
    """The metadata records one node holds on behalf of other endsystems."""

    def __init__(self) -> None:
        self._records: dict[int, MetadataRecord] = {}

    def store(
        self,
        metadata: EndsystemMetadata,
        now: float,
        owner_online: bool = True,
        epoch: int = 0,
    ) -> bool:
        """Install (or refresh) a record; stale versions are ignored.

        Returns True if the record was installed or refreshed.
        """
        existing = self._records.get(metadata.owner)
        if existing is not None and existing.metadata.version > metadata.version:
            return False
        down_since = None
        if existing is not None and not owner_online:
            down_since = existing.down_since
        self._records[metadata.owner] = MetadataRecord(
            metadata=metadata, down_since=down_since, refreshed_at=now, epoch=epoch
        )
        return True

    def refresh(self, owner: int, version: int, epoch: int, now: float) -> bool:
        """Apply a version-only push from an online owner.

        The held record of ``epoch`` takes ``version`` exactly as a full
        push of the same content would install it (a stale version is
        ignored).  Returns False when no record of ``epoch`` is held.
        """
        existing = self._records.get(owner)
        if existing is None or existing.epoch != epoch:
            return False
        if existing.metadata.version <= version:
            self._records[owner] = MetadataRecord(
                metadata=replace(existing.metadata, version=version),
                refreshed_at=now,
                epoch=epoch,
            )
        return True

    def get(self, owner: int) -> Optional[MetadataRecord]:
        """The record for ``owner``, if held."""
        return self._records.get(owner)

    def mark_down(self, owner: int, now: float) -> None:
        """Record that the owner was observed to fail at ``now``."""
        record = self._records.get(owner)
        if record is not None and record.down_since is None:
            record.down_since = now

    def mark_up(self, owner: int) -> None:
        """Record that the owner is up again."""
        record = self._records.get(owner)
        if record is not None:
            record.down_since = None

    def drop(self, owner: int) -> None:
        """Discard a record (no longer in the replica set)."""
        self._records.pop(owner, None)

    def owners(self) -> list[int]:
        """All endsystem ids with a held record."""
        return list(self._records)

    def owners_in_range(self, lo: int, hi: int) -> list[int]:
        """Held owners within the wrapped namespace range ``[lo, hi)``."""
        from repro.overlay.ids import in_wrapped_range

        return [
            owner for owner in self._records if in_wrapped_range(owner, lo, hi)
        ]

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, owner: int) -> bool:
        return owner in self._records

"""Seaweed configuration.

Defaults follow the paper's simulation setup (§4.3.1): Pastry b=4, l=8,
30 s leafset heartbeats; metadata replication factor k=8; result-tree
vertex replication m=3; histogram pushes every 17.5 min on average with
randomized phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.overlay.network import OverlayConfig


@dataclass
class SeaweedConfig:
    """All tunables of a Seaweed deployment."""

    overlay: OverlayConfig = field(default_factory=OverlayConfig)

    #: Metadata replication factor (k): replicas of each endsystem's
    #: availability model + data summary on its k closest neighbours.
    metadata_replicas: int = 8

    #: Result-tree interior vertex replication (m): primary + m backups.
    vertex_backups: int = 3

    #: Mean period between proactive summary pushes (seconds).  The paper
    #: pushes histograms every 17.5 min on average, with each endsystem
    #: choosing its phase randomly to avoid bandwidth spikes.
    summary_push_period: float = 17.5 * 60.0

    #: Delta-encoded summary pushes (paper §3.2.2 future work): when the
    #: local data has not changed since the last push to a replica, send
    #: a small freshness beacon instead of the full histogram set.
    delta_summaries: bool = False

    #: Dissemination: how long a parent waits for a child subtree's
    #: predictor before reissuing the broadcast for that subrange.
    predictor_reply_timeout: float = 8.0

    #: Dissemination: heartbeat interval from working children to parents.
    predictor_heartbeat: float = 2.0

    #: Result tree: retransmit sweep period for unacknowledged submissions
    #: (each is re-sent with capped exponential backoff on top of it).
    result_retransmit: float = 10.0

    #: Result tree: period of the leaf refresh sweep.  Leaves periodically
    #: re-submit their (versioned, idempotent) results so that any vertex
    #: state lost to correlated failures is repaired.
    result_refresh_period: float = 900.0

    #: Originator: retry interval for re-requesting a completeness
    #: predictor that has not arrived (reissues the idempotent inject).
    predictor_retry_interval: float = 15.0

    #: Result tree: coalescing delay before a vertex forwards an updated
    #: aggregate upward (batches bursts of child updates).
    vertex_forward_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.metadata_replicas < 1:
            raise ValueError("metadata_replicas must be >= 1")
        if self.vertex_backups < 0:
            raise ValueError("vertex_backups must be >= 0")
        if self.summary_push_period <= 0:
            raise ValueError("summary_push_period must be positive")

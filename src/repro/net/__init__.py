"""Simulated network: topology, message transport, bandwidth accounting."""

from repro.net.stats import (
    ALL_CATEGORIES,
    CATEGORY_MAINTENANCE,
    CATEGORY_OVERLAY,
    CATEGORY_QUERY,
    BandwidthAccounting,
    cdf,
    percentile,
)
from repro.net.topology import Topology, corpnet_like
from repro.net.transport import Message, Transport

__all__ = [
    "ALL_CATEGORIES",
    "BandwidthAccounting",
    "CATEGORY_MAINTENANCE",
    "CATEGORY_OVERLAY",
    "CATEGORY_QUERY",
    "Message",
    "Topology",
    "Transport",
    "cdf",
    "corpnet_like",
    "percentile",
]

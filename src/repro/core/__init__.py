"""Seaweed core: the paper's primary contribution.

Metadata replication (availability models + data summaries), query
dissemination with completeness prediction, failure-resilient in-network
result aggregation, the :class:`SeaweedSystem` deployment facade and
the :class:`Deployment` spec that builds and runs it.
"""

from repro.core.aggregation import (
    ResultAggregator,
    VertexState,
    leaf_vertex,
    parent_vertex,
    vertex_chain,
)
from repro.core.availability_model import AvailabilityModel, AvailabilityPrediction
from repro.core.config import SeaweedConfig
from repro.core.deployment import Deployment, DeploymentRun
from repro.core.dissemination import Disseminator
from repro.core.metadata import EndsystemMetadata, MetadataRecord, MetadataStore
from repro.core.node import SeaweedNode
from repro.core.predictor import CompletenessPredictor, log_bucket_edges
from repro.core.query import DEFAULT_LIFETIME, QueryDescriptor, QueryStatus
from repro.core.system import SeaweedSystem

__all__ = [
    "AvailabilityModel",
    "AvailabilityPrediction",
    "CompletenessPredictor",
    "DEFAULT_LIFETIME",
    "Deployment",
    "DeploymentRun",
    "Disseminator",
    "EndsystemMetadata",
    "MetadataRecord",
    "MetadataStore",
    "QueryDescriptor",
    "QueryStatus",
    "ResultAggregator",
    "SeaweedConfig",
    "SeaweedNode",
    "SeaweedSystem",
    "VertexState",
    "leaf_vertex",
    "log_bucket_edges",
    "parent_vertex",
    "vertex_chain",
]

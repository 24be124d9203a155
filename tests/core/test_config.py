"""Tests for Seaweed configuration validation."""

import dataclasses

import pytest

from repro.core.availability_model import PERIODIC_THRESHOLD
from repro.core.config import SeaweedConfig
from repro.overlay.network import OverlayConfig


def test_knob_surface_is_pinned():
    """Every tunable, by name.  A new knob is a reviewed edit of this
    set; a deleted one leaves it (11 + 4 fields)."""
    assert {field.name for field in dataclasses.fields(SeaweedConfig)} == {
        "overlay",
        "metadata_replicas",
        "vertex_backups",
        "summary_push_period",
        "delta_summaries",
        "predictor_heartbeat",
        "predictor_reply_timeout",
        "predictor_retry_interval",
        "result_refresh_period",
        "result_retransmit",
        "vertex_forward_delay",
    }
    assert {field.name for field in dataclasses.fields(OverlayConfig)} == {
        "b",
        "leafset_size",
        "heartbeat_period",
        "stabilize_period",
    }


class TestConfig:
    def test_paper_defaults(self):
        config = SeaweedConfig()
        assert config.overlay.b == 4
        assert config.overlay.leafset_size == 8
        assert config.overlay.heartbeat_period == 30.0
        assert config.metadata_replicas == 8
        assert config.vertex_backups == 3
        assert config.summary_push_period == pytest.approx(17.5 * 60.0)
        assert PERIODIC_THRESHOLD == 2.0

    def test_invalid_replicas(self):
        with pytest.raises(ValueError):
            SeaweedConfig(metadata_replicas=0)

    def test_invalid_backups(self):
        with pytest.raises(ValueError):
            SeaweedConfig(vertex_backups=-1)

    def test_invalid_push_period(self):
        with pytest.raises(ValueError):
            SeaweedConfig(summary_push_period=0.0)

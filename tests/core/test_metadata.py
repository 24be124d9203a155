"""Tests for endsystem metadata and the metadata store."""

import numpy as np
import pytest

from repro.core.availability_model import AvailabilityModel
from repro.core.metadata import EndsystemMetadata, MetadataStore
from repro.db.sql import parse
from repro.proto import codec


@pytest.fixture
def metadata(flow_db):
    return EndsystemMetadata.build(
        owner=1234, database=flow_db, availability=AvailabilityModel(), version=1
    )


class TestEndsystemMetadata:
    def test_build_covers_indexed_columns(self, metadata):
        assert set(metadata.summaries["flow"]) == {"ts", "srcport", "bytes", "app"}

    def test_row_counts(self, metadata, flow_db):
        assert metadata.row_counts["flow"] == flow_db.total_rows("Flow")

    def test_estimate_matches_exact(self, metadata, flow_db):
        query = parse("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000")
        estimate = metadata.estimate_rows(query)
        exact = flow_db.relevant_row_count(query)
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_estimate_unknown_table_zero(self, metadata):
        assert metadata.estimate_rows(parse("SELECT COUNT(*) FROM Nope")) == 0.0

    def test_wire_size_components(self, metadata):
        assert codec.metadata_size(metadata) == codec.summary_size(metadata) + 48
        assert codec.summary_size(metadata) > 100

    def test_summary_orders_of_magnitude_below_data(self, metadata, flow_db):
        # The design's core premise: metadata << data.
        assert codec.metadata_size(metadata) * 20 < flow_db.total_bytes()


class TestMetadataStore:
    def test_store_and_get(self, metadata):
        store = MetadataStore()
        assert store.store(metadata, now=10.0)
        record = store.get(1234)
        assert record.metadata is metadata
        assert record.refreshed_at == 10.0
        assert record.down_since is None

    def test_stale_version_rejected(self, metadata, flow_db):
        store = MetadataStore()
        newer = EndsystemMetadata.build(
            owner=1234, database=flow_db, availability=AvailabilityModel(), version=5
        )
        store.store(newer, now=1.0)
        assert not store.store(metadata, now=2.0)  # version 1 < 5
        assert store.get(1234).metadata.version == 5

    def test_mark_down_and_up(self, metadata):
        store = MetadataStore()
        store.store(metadata, now=0.0)
        store.mark_down(1234, 50.0)
        assert store.get(1234).down_since == 50.0
        store.mark_down(1234, 80.0)  # first observation wins
        assert store.get(1234).down_since == 50.0
        store.mark_up(1234)
        assert store.get(1234).down_since is None

    def test_mark_down_unknown_owner_noop(self):
        store = MetadataStore()
        store.mark_down(999, 1.0)  # silently ignored

    def test_owners_in_range(self, flow_db):
        store = MetadataStore()
        for owner in (10, 20, 30):
            store.store(
                EndsystemMetadata.build(
                    owner=owner, database=flow_db, availability=AvailabilityModel()
                ),
                now=0.0,
            )
        assert sorted(store.owners_in_range(15, 35)) == [20, 30]
        assert sorted(store.owners_in_range(0, 0)) == [10, 20, 30]  # full range

    def test_drop(self, metadata):
        store = MetadataStore()
        store.store(metadata, now=0.0)
        store.drop(1234)
        assert 1234 not in store
        assert len(store) == 0


class TestVersionOnlyRefresh:
    """``MetadataStore.refresh`` installs what a full push of the same
    content would: the new version and refresh time, owner up."""

    def test_refresh_matches_a_full_push(self, metadata, flow_db):
        store = MetadataStore()
        store.store(metadata, now=1.0, epoch=1)
        store.mark_down(1234, 5.0)
        assert store.refresh(1234, version=4, epoch=1, now=9.0)
        record = store.get(1234)
        full = EndsystemMetadata.build(
            owner=1234, database=flow_db, availability=AvailabilityModel(), version=4
        )
        assert record.metadata == full
        assert record.metadata.summaries is metadata.summaries
        assert record.metadata.estimate_cache is metadata.estimate_cache
        assert (record.refreshed_at, record.down_since, record.epoch) == (9.0, None, 1)
        # The record first stored is not touched: other replicas may share it.
        assert metadata.version == 1

    def test_refresh_of_another_epoch_is_not_held(self, metadata):
        store = MetadataStore()
        assert not store.refresh(1234, version=2, epoch=1, now=3.0)
        store.store(metadata, now=1.0, epoch=1)
        assert not store.refresh(1234, version=2, epoch=2, now=3.0)
        assert store.get(1234).metadata.version == 1

    def test_stale_refresh_is_held_but_ignored(self, metadata, flow_db):
        store = MetadataStore()
        newer = EndsystemMetadata.build(
            owner=1234, database=flow_db, availability=AvailabilityModel(), version=5
        )
        store.store(newer, now=1.0, epoch=1)
        assert store.refresh(1234, version=3, epoch=1, now=2.0)
        assert store.get(1234).metadata is newer
        assert store.get(1234).refreshed_at == 1.0

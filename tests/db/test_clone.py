"""Tests for database/table cloning (private per-endsystem data)."""

import tracemalloc

import numpy as np
import pytest

from repro.db.engine import LocalDatabase
from repro.db.schema import ColumnType, make_schema
from repro.workload.anemone import AnemoneDataset


def make_db() -> LocalDatabase:
    db = LocalDatabase()
    db.create_table(make_schema("t", [("a", ColumnType.INT), ("s", ColumnType.STR)]))
    db.load("t", {"a": [1, 2, 3], "s": ["x", "y", "z"]})
    return db


class TestClone:
    def test_clone_preserves_contents(self):
        original = make_db()
        copy = original.clone()
        assert copy.total_rows("t") == 3
        assert list(copy.table("t").column("a")) == [1, 2, 3]

    def test_clone_preserves_generation(self):
        original = make_db()
        assert original.clone().generation == original.generation

    def test_writes_to_clone_do_not_affect_original(self):
        original = make_db()
        copy = original.clone()
        copy.insert("t", {"a": 4, "s": "w"})
        assert copy.total_rows("t") == 4
        assert original.total_rows("t") == 3

    def test_writes_to_original_do_not_affect_clone(self):
        original = make_db()
        copy = original.clone()
        original.insert("t", {"a": 9, "s": "q"})
        assert copy.total_rows("t") == 3

    def test_column_arrays_are_independent(self):
        original = make_db()
        source = original.table("t")
        with pytest.raises(ValueError):
            source.column("a")[0] = 99
        copy = original.clone()
        assert np.shares_memory(copy.table("t").column("a"), source.column("a"))
        before = {name: source.column(name) for name in ("a", "s")}
        copy.insert("t", {"a": 4, "s": "w"})
        assert list(copy.table("t").column("a")) == [1, 2, 3, 4]
        for name, array in before.items():
            assert source.column(name) is array
        assert list(source.column("a")) == [1, 2, 3]
        assert list(source.column("s")) == ["x", "y", "z"]

    def test_clone_flushes_pending_rows(self):
        original = make_db()
        original.insert("t", {"a": 4, "s": "w"})
        copy = original.clone()
        assert copy.total_rows("t") == 4

    def test_cloning_profiles_copies_no_data(self):
        # 400 endsystems over 40 shared profiles: a deep copy traced ~270 MiB.
        dataset = AnemoneDataset(num_profiles=40)
        tracemalloc.start()
        try:
            clones = [dataset.database(i % 40).clone() for i in range(400)]
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(clones) == 400
        assert allocated < 5 * 2**20


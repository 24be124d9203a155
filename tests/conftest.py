"""Shared fixtures for the Seaweed test suite."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.db.engine import LocalDatabase
from repro.db.schema import ColumnType, make_schema
from repro.proto import framing, wire
from repro.workload.anemone import AnemoneDataset, AnemoneParams


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def flow_db(rng: np.random.Generator) -> LocalDatabase:
    """A small single-table database with realistic Flow-like columns."""
    db = LocalDatabase()
    db.create_table(
        make_schema(
            "Flow",
            [
                ("ts", ColumnType.INT, True),
                ("SrcPort", ColumnType.INT, True),
                ("Bytes", ColumnType.INT, True),
                ("App", ColumnType.STR, True),
                ("Packets", ColumnType.INT),
            ],
        )
    )
    n = 5000
    db.load(
        "Flow",
        {
            "ts": rng.integers(0, 86400 * 7, n),
            "SrcPort": rng.choice([80, 443, 445, 53, 30000], n),
            "Bytes": np.maximum(64, rng.exponential(8000, n)).astype(np.int64),
            "App": rng.choice(["HTTP", "SMB", "DNS", "Other"], n).astype(object),
            "Packets": rng.integers(1, 100, n),
        },
    )
    return db


@pytest.fixture(scope="session")
def small_dataset() -> AnemoneDataset:
    """A small shared Anemone dataset (kept light for test speed)."""
    params = AnemoneParams(flows_per_day=40.0, days=7.0)
    return AnemoneDataset(
        num_profiles=8, params=params, rng=np.random.default_rng(777)
    )


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def _raw_frame(kind: bytes, body: bytes, flags: int = 0) -> bytes:
    """A frame built by hand, so malformed fields can be put on the wire."""
    header = struct.pack(
        "!2sBBHII", framing.MAGIC, framing.VERSION, flags, len(kind), len(body),
        zlib.crc32(body),
    )
    return header + kind + body


#: Value-codec byte strings that parse far enough to make a constructor
#: (str, ndarray, dict, adapter) or the interpreter stack fail.
HOSTILE_VALUES: dict[str, bytes] = {
    "non-utf8 string": b"\x05" + _u32(2) + b"\xff\xfe",
    "ndarray shape != byte count": (
        b"\x0a" + _u32(5) + b"int64" + b"\x01" + _u32(3) + _u32(8) + bytes(8)
    ),
    "dict with a list key": b"\x09" + _u32(1) + b"\x07" + _u32(0) + b"\x00",
    "adapter 1 with state None": b"\x0b\x01\x00",
    "5,000 nested lists": (b"\x07" + _u32(1)) * 5000 + b"\x00",
}

#: Whole frames a live host must survive: each hostile value as the body
#: of a well-formed ``!MSG`` frame, plus two malformed envelopes.
HOSTILE_FRAMES: dict[str, bytes] = {
    **{
        name: _raw_frame(wire.MESSAGE_KIND.encode(), body)
        for name, body in HOSTILE_VALUES.items()
    },
    "non-utf8 kind tag": _raw_frame(b"\xff\xfe", b"hello"),
    "flag bit set": _raw_frame(b"X", b"hello", flags=0x01),
}


@pytest.fixture
def raw_frame():
    """The hand-built frame encoder: ``raw_frame(kind, body, flags=0)``."""
    return _raw_frame


@pytest.fixture(params=sorted(HOSTILE_VALUES))
def hostile_value(request: pytest.FixtureRequest) -> bytes:
    """One malformed value-codec input per test case."""
    return HOSTILE_VALUES[request.param]


@pytest.fixture(params=sorted(HOSTILE_FRAMES))
def hostile_frame(request: pytest.FixtureRequest) -> bytes:
    """One malformed frame (bytes for a socket) per test case."""
    return HOSTILE_FRAMES[request.param]

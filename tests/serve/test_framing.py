"""The frame envelope: header layout, checksums, flags, stream reassembly."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.proto import framing
from repro.proto.framing import (
    DEFAULT_MAX_FRAME,
    FIXED_HEADER_BYTES,
    Frame,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    decode_frame,
)

bodies = st.binary(max_size=2048)
kinds = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=16,
)


@settings(max_examples=200, deadline=None)
@given(kind=kinds, body=bodies)
def test_frame_roundtrip(kind, body):
    frame = Frame(kind=kind, body=body)
    data = frame.to_bytes()
    assert len(data) == frame.wire_size()
    decoded = decode_frame(data)
    assert decoded.kind == kind
    assert decoded.body == body


@settings(max_examples=100, deadline=None)
@given(
    frames=st.lists(
        st.builds(Frame, kind=kinds, body=bodies), min_size=1, max_size=8
    )
)
def test_streamed_reassembly_any_chunking(frames):
    """A byte stream of frames reassembles regardless of chunk boundaries."""
    stream = b"".join(frame.to_bytes() for frame in frames)
    decoder = FrameDecoder()
    out = []
    # Adversarial chunking: 1 byte at a time for the first frame's worth,
    # then the rest in one slab.
    pivot = min(len(stream), frames[0].wire_size() + 3)
    for i in range(pivot):
        out.extend(decoder.feed(stream[i:i + 1]))
    out.extend(decoder.feed(stream[pivot:]))
    assert [(f.kind, f.body) for f in out] == [
        (f.kind, f.body) for f in frames
    ]
    assert decoder.pending_bytes == 0


def test_corrupt_checksum_rejected():
    data = bytearray(Frame(kind="X", body=b"hello").to_bytes())
    data[-1] ^= 0xFF  # flip a body bit; crc32 in the header now mismatches
    with pytest.raises(FrameError, match="checksum"):
        decode_frame(bytes(data))


def test_bad_magic_rejected():
    data = bytearray(Frame(kind="X", body=b"hi").to_bytes())
    data[0] = 0x00
    with pytest.raises(FrameError):
        decode_frame(bytes(data))


def test_truncated_frame_rejected():
    data = Frame(kind="X", body=b"hello").to_bytes()
    with pytest.raises(FrameError):
        decode_frame(data[:-2])


def test_oversize_rejected_from_header_alone():
    """A huge declared body is rejected before any body bytes arrive."""
    huge = 2 * DEFAULT_MAX_FRAME
    header = struct.pack("!2sBBHII", b"SW", framing.VERSION, 0, 1, huge, 0)
    decoder = FrameDecoder()
    with pytest.raises(FrameTooLarge):
        decoder.feed(header + b"X")  # kind byte only — no body needed


def test_small_max_frame_enforced():
    frame = Frame(kind="X", body=b"A" * 128)
    decoder = FrameDecoder(max_frame=64)
    with pytest.raises(FrameTooLarge):
        decoder.feed(frame.to_bytes())


@pytest.mark.parametrize("flags", [0x01, 0x80, 0xFF])
def test_any_flag_bit_rejected(raw_frame, flags):
    """This version defines no flags: a set bit is an error, not ignored."""
    with pytest.raises(FrameError, match="flags"):
        FrameDecoder().feed(raw_frame(b"X", b"hello", flags=flags))


def test_deeply_nested_flagged_frames_rejected_at_outer_header(raw_frame):
    """1,200 frames nested under the old batch flag (0x01) never recurse."""
    data = b""
    for _ in range(1200):
        data = raw_frame(b"!BATCH", data, flags=0x01)
    with pytest.raises(FrameError, match="flags"):
        FrameDecoder().feed(data)


def test_non_utf8_kind_tag_rejected(raw_frame):
    with pytest.raises(FrameError, match="utf-8"):
        FrameDecoder().feed(raw_frame(b"\xff\xfe", b"hello"))


def test_previous_version_rejected(raw_frame):
    data = bytearray(raw_frame(b"X", b"hello"))
    data[2] = framing.VERSION - 1
    with pytest.raises(FrameError, match="version"):
        FrameDecoder().feed(bytes(data))


def test_header_size_constant_matches_struct():
    assert FIXED_HEADER_BYTES == struct.calcsize("!2sBBHII")

"""Hostile input: only typed errors leave the two decode boundaries.

A live host feeds whatever a socket delivers into
:meth:`FrameDecoder.feed` and every completed frame into
:func:`wire.decode_message`.  The transport catches :class:`FrameError`
around the first and :class:`WireError` around the second — so any
other exception type kills the peer connection uncounted.  These tests
drive both boundaries with arbitrary bytes and with valid frames
damaged one field at a time, and pin the named escapes found on the
pre-fix tree (``tests/conftest.py``: ``HOSTILE_VALUES``, ``HOSTILE_FRAMES``).
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.proto import framing, wire
from repro.proto.framing import FIXED_HEADER_BYTES, Frame, FrameDecoder, FrameError
from repro.proto.wire import WireError

# Same directory, no package: pytest's default import mode puts it on the path.
from test_wire_roundtrip import message_instances

MAX_FRAME = 1 << 16
#: The most a decoder may hold: one incomplete frame's header, kind, body.
MAX_BUFFERED = FIXED_HEADER_BYTES + 0xFFFF + MAX_FRAME

fuzz = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def survive(data: bytes, chunk: int = 0) -> None:
    """Feed ``data`` to a fresh decoder and decode every completed frame.

    Anything but :class:`FrameError` / :class:`WireError` propagates and
    fails the test.
    """
    decoder = FrameDecoder(max_frame=MAX_FRAME)
    step = chunk or max(1, len(data))
    try:
        for start in range(0, len(data), step):
            for frame in decoder.feed(data[start:start + step]):
                try:
                    wire.decode_message(frame)
                except WireError:
                    pass
            assert decoder.pending_bytes <= MAX_BUFFERED
    except FrameError:
        pass


def reframe(body: bytes) -> bytes:
    """``body`` under a valid envelope, so the checksum lets it through."""
    return Frame(kind=wire.MESSAGE_KIND, body=body).to_bytes()


valid_frames = st.builds(
    lambda message: wire.encode_message("a", "b", "query", message).to_bytes(),
    message_instances,
)


@fuzz
@given(data=st.binary(max_size=4096), chunk=st.integers(0, 64))
def test_arbitrary_bytes(data, chunk):
    survive(data, chunk)


@fuzz
@given(data=st.binary(max_size=4096))
def test_arbitrary_bytes_after_a_valid_header_prefix(data):
    survive(framing.MAGIC + bytes([framing.VERSION, 0]) + data)


@fuzz
@given(data=st.binary(max_size=2048))
def test_arbitrary_body_under_a_valid_envelope(data):
    survive(reframe(data))
    try:
        wire.decode_value(data)
    except WireError:
        pass


@fuzz
@given(frame=valid_frames, data=st.data())
def test_valid_frame_with_one_byte_flipped(frame, data):
    index = data.draw(st.integers(0, len(frame) - 1))
    bit = data.draw(st.integers(0, 7))
    damaged = bytearray(frame)
    damaged[index] ^= 1 << bit
    survive(bytes(damaged))


@fuzz
@given(frame=valid_frames, data=st.data())
def test_valid_body_with_one_byte_flipped_and_checksum_repaired(frame, data):
    """The checksum stops line noise, not an adversary: damage the body,
    then re-frame it so the value codec sees the damage."""
    body = bytearray(framing.decode_frame(frame).body)
    index = data.draw(st.integers(0, len(body) - 1))
    body[index] ^= 1 << data.draw(st.integers(0, 7))
    survive(reframe(bytes(body)))


@fuzz
@given(frame=valid_frames, data=st.data())
def test_valid_frame_truncated(frame, data):
    cut = data.draw(st.integers(0, len(frame) - 1))
    survive(frame[:cut])
    with pytest.raises(FrameError):
        framing.decode_frame(frame[:cut])


@fuzz
@given(
    frame=valid_frames,
    kind_len=st.integers(0, 0xFFFF),
    body_len=st.integers(0, 0xFFFFFFFF),
)
def test_valid_frame_with_length_fields_rewritten(frame, kind_len, body_len):
    damaged = bytearray(frame)
    struct.pack_into("!HI", damaged, 4, kind_len, body_len)
    decoder = FrameDecoder(max_frame=MAX_FRAME)
    try:
        decoder.feed(bytes(damaged))
    except FrameError:
        return
    # Accepted so far: the decoder is waiting for the rest of a frame it
    # has agreed to buffer, which the limit bounds.
    assert body_len <= MAX_FRAME
    assert decoder.pending_bytes <= MAX_BUFFERED


@fuzz
@given(message=message_instances, data=st.data())
def test_inflated_length_inside_a_value(message, data):
    """A u32 length or count inside the body set to a huge value."""
    body = bytearray(wire.encode_body(message))
    if len(body) < 5:
        return
    index = data.draw(st.integers(1, len(body) - 4))
    body[index:index + 4] = b"\xff\xff\xff\xff"
    with pytest.raises(WireError):
        wire.decode_body(message.KIND, bytes(body) + b"\x00")  # trailing byte: never valid


# ----------------------------------------------------------------------
# The named escapes
# ----------------------------------------------------------------------


def test_hostile_value_is_a_wire_error(hostile_value):
    with pytest.raises(WireError):
        wire.decode_value(hostile_value)
    with pytest.raises(WireError):
        wire.decode_message(Frame(kind=wire.MESSAGE_KIND, body=hostile_value))


def test_hostile_frame_is_a_frame_or_wire_error(hostile_frame):
    with pytest.raises((FrameError, WireError)):
        for frame in FrameDecoder().feed(hostile_frame):
            wire.decode_message(frame)


def test_nesting_is_bounded_explicitly():
    """Depth is checked against ``wire.MAX_DEPTH``, not the interpreter's
    recursion limit: one level over the bound fails, the bound passes."""
    nest = b"\x07" + (1).to_bytes(4, "big")
    assert wire.decode_value(nest * wire.MAX_DEPTH + b"\x00") is not None
    with pytest.raises(WireError, match="nested"):
        wire.decode_value(nest * (wire.MAX_DEPTH + 1) + b"\x00")


@pytest.mark.parametrize(
    "body",
    [
        wire.encode_value(("a", "b", "query", None)),  # payload not a message
        wire.encode_value(("a", "b", "query", {"kind": "SW_CANCEL"})),
        wire.encode_value((["a"], "b", "query", None)),  # unhashable src
        wire.encode_value(("SW_CANCEL", "a", "b", "query", 16, {}, None)),  # v1 shape
    ],
)
def test_untyped_message_bodies_are_wire_errors(body):
    with pytest.raises(WireError, match="malformed transport message"):
        wire.decode_message(Frame(kind=wire.MESSAGE_KIND, body=body))

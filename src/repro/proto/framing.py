"""The wire frame envelope for live (socket) transports.

The simulator accounts bytes without materializing them; the live
transport (:mod:`repro.serve.transport`) must actually put frames on a
TCP stream.  This module defines that envelope:

``magic "SW" | version u8 | flags u8 | kind len u16 | body len u32 |
crc32 u32 | kind utf-8 | body``

* the **kind** is the protocol kind tag (a ``repro.proto`` KIND string,
  or :data:`repro.proto.wire.MESSAGE_KIND` for an addressed message);
* the **crc32** covers the body only, so corruption is detected before
  the payload codec ever runs;
* this version defines no **flags**: a frame with any flag bit set is
  rejected, not ignored.

:class:`FrameDecoder` is an incremental stream parser: feed it byte
chunks as they arrive and it yields complete frames, rejecting
oversized ones (:class:`FrameTooLarge`) before buffering their bodies —
the defense against a misbehaving peer forcing unbounded allocation.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

#: Frame preamble: every frame starts with these two bytes.
MAGIC = b"SW"

#: Envelope format version (2: the ``!MSG`` body is
#: ``(src, dst, category, payload)``; 3: a replicated metadata record is
#: ``(owner, summaries, row_counts, availability, version)``; 4: result
#: submissions and vertex replication carry typed query results, vertex
#: children are keyed by int, and a query descriptor is a field tuple;
#: 5: an availability model is ``(down_edges, down_counts,
#: up_hour_counts)``; 6: vertex replication also carries its children's
#: modelled size; 7: vertex replication carries a sequence number and a
#: full/delta flag, and a backup can answer ``SW_VERTEX_NACK``).
VERSION = 7

#: Fixed part of the envelope, before the kind string and body.
#: magic(2) + version(1) + flags(1) + kind len(2) + body len(4) + crc(4).
_FIXED = struct.Struct("!2sBBHII")

FIXED_HEADER_BYTES = _FIXED.size

#: Default ceiling on a single frame's body (16 MiB): far above any
#: legitimate Seaweed message, far below an allocation-exhaustion attack.
DEFAULT_MAX_FRAME = 16 * 1024 * 1024


class FrameError(ValueError):
    """A malformed frame: bad magic, version, checksum, or structure."""


class FrameTooLarge(FrameError):
    """A frame whose declared body length exceeds the decoder's limit."""


@dataclass(frozen=True)
class Frame:
    """One envelope on the wire: a kind tag and an opaque body."""

    kind: str
    body: bytes

    def to_bytes(self) -> bytes:
        """Serialize the full envelope."""
        kind_bytes = self.kind.encode("utf-8")
        if len(kind_bytes) > 0xFFFF:
            raise FrameError(f"kind tag too long: {len(kind_bytes)} bytes")
        header = _FIXED.pack(
            MAGIC,
            VERSION,
            0,
            len(kind_bytes),
            len(self.body),
            zlib.crc32(self.body),
        )
        return header + kind_bytes + self.body

    def wire_size(self) -> int:
        """Total bytes this frame occupies on the stream."""
        return FIXED_HEADER_BYTES + len(self.kind.encode("utf-8")) + len(self.body)


def decode_frame(data: bytes) -> Frame:
    """Decode exactly one frame from ``data`` (must consume all bytes)."""
    decoder = FrameDecoder(max_frame=max(DEFAULT_MAX_FRAME, len(data)))
    frames = decoder.feed(data)
    if len(frames) != 1 or decoder.pending_bytes:
        raise FrameError(
            f"expected exactly one frame, got {len(frames)} "
            f"with {decoder.pending_bytes} bytes left over"
        )
    return frames[0]


class FrameDecoder:
    """Incremental frame parser for a byte stream."""

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Frame]:
        """Buffer ``data`` and return every frame completed by it.

        Raises :class:`FrameError` on structural corruption and
        :class:`FrameTooLarge` as soon as an oversized frame's header is
        seen — before its body is buffered.
        """
        self._buffer.extend(data)
        frames: list[Frame] = []
        while True:
            frame = self._try_parse()
            if frame is None:
                return frames
            frames.append(frame)

    def _try_parse(self) -> "Frame | None":
        if len(self._buffer) < FIXED_HEADER_BYTES:
            return None
        magic, version, flags, kind_len, body_len, crc = _FIXED.unpack_from(
            self._buffer
        )
        if magic != MAGIC:
            raise FrameError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FrameError(f"unsupported frame version {version}")
        if flags:
            raise FrameError(f"unsupported frame flags 0x{flags:02x}")
        if body_len > self.max_frame:
            raise FrameTooLarge(
                f"frame body of {body_len} bytes exceeds limit {self.max_frame}"
            )
        total = FIXED_HEADER_BYTES + kind_len + body_len
        if len(self._buffer) < total:
            return None
        kind_start = FIXED_HEADER_BYTES
        body_start = kind_start + kind_len
        try:
            kind = bytes(self._buffer[kind_start:body_start]).decode("utf-8")
        except UnicodeDecodeError as error:
            raise FrameError(f"kind tag is not utf-8: {error}") from error
        body = bytes(self._buffer[body_start:total])
        if zlib.crc32(body) != crc:
            raise FrameError(f"checksum mismatch on {kind!r} frame")
        del self._buffer[:total]
        return Frame(kind=kind, body=body)


"""AsyncioTransport: the live (TCP) carrier of the transport.

A subclass of :class:`repro.net.transport.Transport` that inherits
registration, the interceptor chain, accounting, drop bookkeeping and
``send`` unchanged — so :mod:`repro.faults` plans and :mod:`repro.obs`
instrumentation work the same on live runs — and replaces only
:meth:`~repro.net.transport.Transport.carry`, over real sockets:

* every peer process gets one pooled outbound connection with a
  per-peer write queue; the writer task connects lazily, reconnects
  with capped exponential backoff, and drains the queue in order;
* messages are serialized with :func:`repro.proto.wire.encode_message`
  and framed by :mod:`repro.proto.framing` (kind tag, length prefix,
  crc32), so corruption and oversized frames are rejected at the
  envelope layer;
* messages addressed to a node registered *in this process* short-cut
  through the loop (scheduled, never inline) — the kernel-loopback
  case;
* :meth:`drain_and_close` flushes every write queue before closing —
  the graceful-shutdown path (bounded by a timeout).

Sim-vs-live fidelity note: the sim transport models a datagram service
(loss, no connections).  TCP gives in-order reliable delivery per peer;
what remains lossy is the *node* layer — messages to an offline or
crashed process are dropped after the send queue overflows or the
connection dies, counted in ``drops_by_reason``, exactly the failure
model the Seaweed protocols are built to recover from.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.net.transport import Message, Transport
from repro.proto import framing, wire
from repro.serve.scheduler import AsyncioScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

log = logging.getLogger("repro.serve.transport")

#: Drop reason: the per-peer write queue overflowed (slow/absent peer).
DROP_BACKPRESSURE = "backpressure"
#: Drop reason: the peer connection died with messages in flight.
DROP_CONNECTION = "connection"
#: Drop reason: no listen address is known for the destination.
DROP_UNRESOLVED = "unresolved"
#: Drop reason: a peer sent a frame that failed envelope validation.
DROP_BAD_FRAME = "bad_frame"


class _Peer:
    """One pooled outbound connection with its ordered write queue."""

    def __init__(self, transport: "AsyncioTransport", name_key: str,
                 host: str, port: int) -> None:
        self.transport = transport
        self.name_key = name_key
        self.host = host
        self.port = port
        self.queue: deque[bytes] = deque()
        self.wakeup = asyncio.Event()
        self.connected = False
        #: The last connection attempt or write failed: nobody is
        #: listening there right now, so the queue cannot drain.
        self.gone = False
        self.closing = False
        self.task = asyncio.get_event_loop().create_task(self._run())

    def enqueue(self, data: bytes) -> bool:
        """Queue one encoded frame; False if the queue is full."""
        if len(self.queue) >= self.transport.max_queue_depth:
            return False
        self.queue.append(data)
        self.wakeup.set()
        return True

    async def _run(self) -> None:
        backoff = self.transport.reconnect_initial
        writer: Optional[asyncio.StreamWriter] = None
        try:
            while not self.closing:
                if writer is None:
                    try:
                        _, writer = await asyncio.open_connection(
                            self.host, self.port
                        )
                    except OSError:
                        self.gone = True
                        await self._sleep(backoff)
                        backoff = min(
                            backoff * 2, self.transport.reconnect_cap
                        )
                        continue
                    self.connected = True
                    self.gone = False
                    backoff = self.transport.reconnect_initial
                if not self.queue:
                    self.wakeup.clear()
                    if self.closing:
                        break
                    await self.wakeup.wait()
                    continue
                data = self.queue[0]
                try:
                    writer.write(data)
                    await writer.drain()
                except (ConnectionError, OSError):
                    # The frame at the queue head may be lost; drop it and
                    # reconnect (datagram semantics, as the protocols expect).
                    if self.queue:
                        self.queue.popleft()
                    self.transport._count_drop(self.name_key, "", DROP_CONNECTION)
                    self.connected = False
                    self.gone = True
                    writer = None
                    continue
                if self.queue:
                    self.queue.popleft()
        finally:
            self.connected = False
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _sleep(self, seconds: float) -> None:
        try:
            await asyncio.wait_for(self.wakeup.wait(), timeout=seconds)
            self.wakeup.clear()
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        self.closing = True
        self.wakeup.set()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


class AsyncioTransport(Transport):
    """Live transport: the shared :class:`Transport` carried over TCP."""

    #: Largest frame body accepted from a peer.
    max_frame = framing.DEFAULT_MAX_FRAME
    #: Frames one peer's write queue holds before sends to it are dropped.
    max_queue_depth = 4096
    #: First and largest reconnect backoff to an unreachable peer (s).
    reconnect_initial = 0.1
    reconnect_cap = 5.0

    def __init__(
        self,
        scheduler: AsyncioScheduler,
        directory: Mapping[str, tuple[str, int]],
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        observer: Optional["Observer"] = None,
    ) -> None:
        super().__init__(scheduler, None, observer=observer)
        #: node name -> (host, port) of the process hosting it.
        self.directory = dict(directory)
        self.listen_host = listen_host
        self.listen_port = listen_port
        #: Called with (src name, protocol now) for every inbound message —
        #: the live failure detector's evidence stream.
        self.on_peer_activity: Optional[Callable[[str, float], None]] = None
        self._peers: dict[tuple[str, int], _Peer] = {}
        self._inbound: set[asyncio.StreamWriter] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Start the listening server; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.listen_host, self.listen_port
        )
        sockname = self._server.sockets[0].getsockname()
        self.listen_host, self.listen_port = sockname[0], sockname[1]
        return self.listen_host, self.listen_port

    async def drain_and_close(self, timeout: float = 5.0) -> bool:
        """Flush write queues, then close every connection and the server.

        One deadline covers all peers, and a peer that is gone (its
        writer is reconnecting to an address nobody listens on) is not
        waited for: its queue cannot drain.  Returns True if no frame
        was left behind.
        """
        peers = list(self._peers.values())
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline and any(
            peer.queue and not peer.gone for peer in peers
        ):
            await asyncio.sleep(0.02)
        drained = not any(peer.queue for peer in peers)
        for peer in peers:
            await peer.close()
        self._peers.clear()
        if self._server is not None:
            # Stop accepting, then give a connection accepted in this loop
            # turn one turn to attach to the server.  Closing the server
            # first orphans it: asyncio cannot attach a socket to a closed
            # server, and leaves it open with nobody to close it.
            for sock in self._server.sockets:
                loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close inbound connections so their handler tasks exit on EOF
        # instead of being cancelled at loop teardown.
        for writer in list(self._inbound):
            writer.close()
        self._inbound.clear()
        return drained

    @property
    def connection_count(self) -> int:
        """Open outbound connections in the pool."""
        return sum(1 for peer in self._peers.values() if peer.connected)

    @property
    def write_queue_depth(self) -> int:
        """Messages waiting in outbound write queues."""
        return sum(len(peer.queue) for peer in self._peers.values())

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def carry(self, src: str, dst: str, message: Message, delay: float) -> None:
        """Loop back to a node hosted here, else write to its host's queue.

        Loop-back goes through the scheduler even at zero delay: nothing
        is ever delivered inside ``send``, as in the simulator.
        """
        if dst in self._online:  # registered or marked up in this process
            self.scheduler.schedule(delay, self._deliver, dst, message)
        elif delay > 0:
            self.scheduler.schedule(delay, self._enqueue, dst, message)
        else:
            self._enqueue(dst, message)

    def _enqueue(self, dst: str, message: Message) -> None:
        address = self.directory.get(dst)
        if address is None:
            self._count_drop(dst, message.kind, DROP_UNRESOLVED)
            return
        try:
            frame = wire.encode_message(
                message.src, dst, message.category, message.payload
            )
        except wire.WireError:
            log.exception("cannot encode %s for %s", message.kind, dst)
            self._count_drop(dst, message.kind, "unencodable")
            return
        data = frame.to_bytes()
        peer = self._peers.get(address)
        if peer is None:
            peer = self._peers[address] = _Peer(self, dst, *address)
        if not peer.enqueue(data):
            self._count_drop(dst, message.kind, DROP_BACKPRESSURE)
            return
        self.messages_sent += 1
        self.bytes_sent += len(data)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = framing.FrameDecoder(max_frame=self.max_frame)
        peername = writer.get_extra_info("peername")
        self._inbound.add(writer)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break  # EOF: peer closed (possibly mid-frame; discard)
                try:
                    frames = decoder.feed(data)
                except framing.FrameError as error:
                    # Corrupt or oversized stream: count and cut the peer.
                    log.warning("bad frame from %s: %s", peername, error)
                    # The stream is unreadable: no destination, no kind.
                    self._count_drop("", "", DROP_BAD_FRAME)
                    break
                for frame in frames:
                    self._handle_frame(frame, peername)
        except (ConnectionError, OSError):
            pass  # peer crashed mid-stream; buffered partial frame discarded
        finally:
            self._inbound.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _handle_frame(self, frame: framing.Frame, peername: Any) -> None:
        try:
            wm = wire.decode_message(frame)
        except wire.WireError as error:
            log.warning("undecodable %r frame from %s: %s",
                        frame.kind, peername, error)
            self._count_drop("", frame.kind, DROP_BAD_FRAME)
            return
        self.messages_received += 1
        if self.on_peer_activity is not None and wm.src:
            self.on_peer_activity(wm.src, self.scheduler.now)
        message = Message.of(wm.payload, wm.category)
        message.src = wm.src
        try:
            self._deliver(wm.dst, message)
        except Exception:  # noqa: BLE001 - a handler must not kill the host
            log.exception("handler for %s failed on %s", wm.dst, message.kind)

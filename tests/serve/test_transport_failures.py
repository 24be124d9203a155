"""AsyncioTransport failure paths.

Each test boots real sockets on the loopback and exercises one failure
mode: peers crashing mid-stream, half-open destinations, oversized or
corrupt frames, queue backpressure, and the graceful-drain shutdown.
All tests run under ``asyncio.run`` (no pytest-asyncio dependency).
"""

import asyncio

import pytest

from repro.net.transport import DROP_OFFLINE, Message
from repro.proto.framing import Frame
from repro.proto.messages import Cancel
from repro.serve.scheduler import AsyncioScheduler
from repro.serve.transport import (
    DROP_BACKPRESSURE,
    DROP_BAD_FRAME,
    DROP_CONNECTION,
    DROP_UNRESOLVED,
    AsyncioTransport,
)


def _message() -> Message:
    return Message.of(Cancel(query_id=7))


async def _eventually(predicate, timeout: float = 5.0, what: str = "") -> None:
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        if asyncio.get_event_loop().time() > deadline:
            pytest.fail(f"condition not reached within {timeout}s: {what}")
        await asyncio.sleep(0.02)


async def _make_pair():
    """Two transports that know each other's (fresh, OS-assigned) ports."""
    sched_a, sched_b = AsyncioScheduler(), AsyncioScheduler()
    a = AsyncioTransport(sched_a, {})
    b = AsyncioTransport(sched_b, {})
    await a.start()
    await b.start()
    a.directory["b"] = (b.listen_host, b.listen_port)
    b.directory["a"] = (a.listen_host, a.listen_port)
    return a, b


def test_basic_cross_transport_delivery():
    async def main():
        a, b = await _make_pair()
        received = []
        b.register("b", lambda dst, msg: received.append((dst, msg.kind)))
        b.set_online("b", True)
        a.send("a", "b", _message())
        await _eventually(lambda: received, what="message delivery")
        assert received == [("b", Cancel.KIND)]
        assert a.messages_sent == 1
        assert b.messages_received == 1
        await a.drain_and_close()
        await b.drain_and_close()

    asyncio.run(main())


def test_unresolved_destination_drops():
    async def main():
        scheduler = AsyncioScheduler()
        transport = AsyncioTransport(scheduler, {})
        await transport.start()
        transport.send("a", "nowhere", _message())
        await asyncio.sleep(0.05)
        assert transport.drops_by_reason.get(DROP_UNRESOLVED) == 1
        await transport.drain_and_close()

    asyncio.run(main())


def test_peer_crash_mid_stream_discards_partial_frame():
    """A peer that dies halfway through a frame must not wedge or crash
    the receiver, and the partial frame is silently discarded."""

    async def main():
        scheduler = AsyncioScheduler()
        transport = AsyncioTransport(scheduler, {})
        await transport.start()
        received = []
        transport.register("b", lambda dst, msg: received.append(msg.kind))
        transport.set_online("b", True)

        # Crash mid-frame: send half the bytes, then cut the connection.
        from repro.proto import wire

        data = wire.encode_message("a", "b", "query", Cancel(query_id=1)).to_bytes()
        _, writer = await asyncio.open_connection(
            transport.listen_host, transport.listen_port
        )
        writer.write(data[: len(data) // 2])
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.1)
        assert received == []
        assert transport.messages_received == 0

        # The transport still serves fresh connections afterwards.
        _, writer = await asyncio.open_connection(
            transport.listen_host, transport.listen_port
        )
        writer.write(data)
        await writer.drain()
        await _eventually(lambda: received, what="post-crash delivery")
        assert received == [Cancel.KIND]
        writer.close()
        await transport.drain_and_close()

    asyncio.run(main())


def test_receiver_crash_drops_inflight_and_reconnects():
    """If the destination process dies, in-flight frames are dropped
    (counted under ``connection``) and the writer reconnects once a new
    process listens on the address."""

    async def main():
        a, b = await _make_pair()
        received = []
        b.register("b", lambda dst, msg: received.append(1))
        b.set_online("b", True)
        a.send("a", "b", _message())
        await _eventually(lambda: received, what="first delivery")

        address = a.directory["b"]
        await b.drain_and_close()  # the peer process "crashes"
        await asyncio.sleep(0.05)
        for _ in range(20):  # writes eventually fail; head frames dropped
            a.send("a", "b", _message())
            await asyncio.sleep(0.01)
        await _eventually(
            lambda: a.drops_by_reason.get(DROP_CONNECTION, 0) > 0
            or a.write_queue_depth > 0,
            what="connection drop or queueing after peer death",
        )

        # A replacement process binds the same address: traffic resumes.
        sched_c = AsyncioScheduler()
        c = AsyncioTransport(
            sched_c, {}, listen_host=address[0], listen_port=address[1]
        )
        await c.start()
        revived = []
        c.register("b", lambda dst, msg: revived.append(1))
        c.set_online("b", True)
        a.send("a", "b", _message())
        await _eventually(lambda: revived, timeout=10.0,
                          what="delivery after reconnect")
        await a.drain_and_close()
        await c.drain_and_close()

    asyncio.run(main())


def test_half_open_destination_queues_until_listener_appears():
    """Messages to a not-yet-listening peer wait in the write queue and
    deliver once the listener comes up (capped-backoff reconnect)."""

    async def main():
        from repro.serve.cluster import free_port

        scheduler = AsyncioScheduler()
        a = AsyncioTransport(scheduler, {})
        a.reconnect_initial = 0.05
        await a.start()
        port = free_port()
        a.directory["b"] = ("127.0.0.1", port)
        a.send("a", "b", _message())
        await asyncio.sleep(0.2)  # several failed connection attempts
        assert a.write_queue_depth == 1
        assert a.connection_count == 0

        late = AsyncioTransport(
            AsyncioScheduler(), {}, listen_port=port
        )
        await late.start()
        received = []
        late.register("b", lambda dst, msg: received.append(1))
        late.set_online("b", True)
        await _eventually(lambda: received, timeout=10.0,
                          what="delivery after late listener")
        assert a.write_queue_depth == 0
        await a.drain_and_close()
        await late.drain_and_close()

    asyncio.run(main())


def test_backpressure_drops_when_queue_full():
    async def main():
        from repro.serve.cluster import free_port

        scheduler = AsyncioScheduler()
        transport = AsyncioTransport(scheduler, {})
        transport.max_queue_depth = 3
        await transport.start()
        transport.directory["b"] = ("127.0.0.1", free_port())  # dead port
        for _ in range(5):
            transport.send("a", "b", _message())
        assert transport.write_queue_depth == 3
        assert transport.drops_by_reason.get(DROP_BACKPRESSURE) == 2
        await transport.drain_and_close(timeout=0.2)

    asyncio.run(main())


def test_oversized_frame_rejected_and_connection_cut():
    async def main():
        scheduler = AsyncioScheduler()
        transport = AsyncioTransport(scheduler, {})
        transport.max_frame = 1024
        await transport.start()
        reader, writer = await asyncio.open_connection(
            transport.listen_host, transport.listen_port
        )
        writer.write(Frame(kind="X", body=b"A" * 4096).to_bytes())
        await writer.drain()
        # The transport cuts the connection as soon as the header is seen.
        assert await reader.read() == b""
        await _eventually(
            lambda: transport.drops_by_reason.get(DROP_BAD_FRAME, 0) == 1,
            what="bad-frame count",
        )
        assert transport.messages_received == 0
        writer.close()
        await transport.drain_and_close()

    asyncio.run(main())


def test_corrupt_frame_rejected():
    async def main():
        from repro.proto import wire

        scheduler = AsyncioScheduler()
        transport = AsyncioTransport(scheduler, {})
        await transport.start()
        data = bytearray(
            wire.encode_message("a", "b", "query", Cancel(query_id=1)).to_bytes()
        )
        data[-1] ^= 0xFF  # corrupt the body; crc32 mismatch
        reader, writer = await asyncio.open_connection(
            transport.listen_host, transport.listen_port
        )
        writer.write(bytes(data))
        await writer.drain()
        assert await reader.read() == b""
        await _eventually(
            lambda: transport.drops_by_reason.get(DROP_BAD_FRAME, 0) == 1,
            what="bad-frame count",
        )
        writer.close()
        await transport.drain_and_close()

    asyncio.run(main())


def test_hostile_frame_is_counted_once_and_the_host_keeps_serving(hostile_frame):
    """A malformed frame — bad envelope, or a well-framed body the value
    codec chokes on — is one ``bad_frame`` drop, never an unhandled
    exception, and a fresh connection's valid traffic still delivers."""

    async def main():
        from repro.proto import wire

        transport = AsyncioTransport(AsyncioScheduler(), {})
        await transport.start()
        received = []
        transport.register("b", lambda dst, msg: received.append(msg.kind))
        transport.set_online("b", True)
        valid = wire.encode_message("a", "b", "query", Cancel(query_id=1))
        for data in (hostile_frame, valid.to_bytes()):
            _, writer = await asyncio.open_connection(
                transport.listen_host, transport.listen_port
            )
            writer.write(data)
            await writer.drain()
            await _eventually(
                lambda: transport.drops_by_reason.get(DROP_BAD_FRAME, 0) == 1,
                what="bad-frame count",
            )
            writer.close()
        await _eventually(lambda: received, what="delivery after hostile input")
        assert received == [Cancel.KIND]
        assert transport.drops_by_reason == {DROP_BAD_FRAME: 1}
        assert transport.messages_received == 1
        await transport.drain_and_close()

    asyncio.run(main())


def test_clean_drain_on_shutdown():
    """drain_and_close flushes queued frames before closing; nothing is
    lost on a graceful shutdown."""

    async def main():
        a, b = await _make_pair()
        received = []
        b.register("b", lambda dst, msg: received.append(1))
        b.set_online("b", True)
        for _ in range(50):
            a.send("a", "b", _message())
        drained = await a.drain_and_close(timeout=10.0)
        assert drained
        await _eventually(lambda: len(received) == 50, timeout=10.0,
                          what="all 50 messages delivered")
        await b.drain_and_close()

    asyncio.run(main())


def test_drain_does_not_wait_for_a_peer_that_is_gone():
    """Frames queued for a peer whose listener has closed can never
    drain; shutdown must not sit out the timeout waiting for them (and
    one deadline covers all peers, not one timeout each)."""

    async def main():
        a, b = await _make_pair()
        b.register("b", lambda dst, msg: None)
        b.set_online("b", True)
        a.send("a", "b", _message())
        await _eventually(lambda: b.messages_received == 1, what="delivery")
        await b.drain_and_close()  # the peer's listener is gone
        # Keep writing until the dead connection is noticed, so frames
        # are stuck behind a writer that can only retry the connect.
        for _ in range(200):
            a.send("a", "b", _message())
            await asyncio.sleep(0.01)
            if a.drops_by_reason.get(DROP_CONNECTION) and a.write_queue_depth:
                break
        assert a.write_queue_depth > 0
        loop = asyncio.get_running_loop()
        started = loop.time()
        drained = await a.drain_and_close(timeout=5.0)
        assert loop.time() - started < 1.0
        assert not drained  # frames were left behind, and it says so

    asyncio.run(main())


def test_offline_node_drops_are_counted():
    async def main():
        a, b = await _make_pair()
        b.register("b", lambda dst, msg: None)  # registered but offline
        a.send("a", "b", _message())
        await _eventually(
            lambda: b.drops_by_reason.get(DROP_OFFLINE, 0) == 1,
            what="offline drop",
        )
        assert b.dropped_offline == 1
        await a.drain_and_close()
        await b.drain_and_close()

    asyncio.run(main())

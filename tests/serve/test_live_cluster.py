"""End-to-end live mode: real sockets, streamed completeness, real processes.

The in-process tests boot multiple :class:`NodeHost` instances inside
one event loop (multiple "processes" sharing a loop, each with its own
transport and overlay state).  The subprocess test boots a real
``python -m repro serve`` cluster via :class:`LocalCluster` — the same
path the ``serve-smoke`` CI job drives at scale.
"""

import asyncio
import gc
import json
import os
import warnings

import pytest

from repro.net.transport import Decision
from repro.proto.messages import JoinReply
from repro.serve import (
    NodeHost,
    ServeClient,
    build_config,
    plan_cluster,
)
from repro.serve.cluster import ClusterSpec

SQL = "SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE SrcPort = 80"


# ----------------------------------------------------------------------
# Planning and spec plumbing
# ----------------------------------------------------------------------


def test_plan_is_deterministic_given_seed():
    first = plan_cluster(3, nodes_per_host=2, seed=42, base_port=20000)
    second = plan_cluster(3, nodes_per_host=2, seed=42, base_port=20000)
    assert first.to_json() == second.to_json()
    assert len(set(first.all_node_ids())) == 6


EPHEMERAL_RANGE = "/proc/sys/net/ipv4/ip_local_port_range"


@pytest.mark.skipif(
    not os.path.exists(EPHEMERAL_RANGE), reason="no stated ephemeral port range"
)
def test_planned_ports_are_distinct_and_below_the_ephemeral_range():
    """Outbound connects and ``bind(0)`` sockets take ports from the
    ephemeral range: a planned port in it can be gone before its host
    binds it."""
    with open(EPHEMERAL_RANGE, encoding="ascii") as handle:
        low = int(handle.read().split()[0])
    spec = plan_cluster(4, nodes_per_host=2, seed=1)
    ports = [port for h in spec.hosts for port in (h.port, h.client_port)]
    assert len(set(ports)) == len(ports) == 8
    assert all(port < low for port in ports), (ports, low)


def test_spec_json_roundtrip(tmp_path):
    spec = plan_cluster(2, nodes_per_host=3, seed=9)
    path = tmp_path / "cluster.json"
    spec.save(str(path))
    loaded = ClusterSpec.load(str(path))
    assert loaded.to_json() == spec.to_json()
    assert loaded.all_node_ids() == spec.all_node_ids()
    assert loaded.directory() == spec.directory()
    assert loaded.bootstrap_id() == spec.bootstrap_id()


def test_ground_truth_is_deterministic():
    spec = plan_cluster(2, nodes_per_host=2, seed=3)
    first, second = spec.ground_truth(SQL), spec.ground_truth(SQL)
    assert first.row_count == second.row_count
    assert first.values() == second.values()
    assert first.row_count > 0


def test_build_config_applies_nested_overrides():
    config = build_config(
        {"vertex_forward_delay": 0.5, "overlay.heartbeat_period": 7.0}
    )
    assert config.vertex_forward_delay == 0.5
    assert config.overlay.heartbeat_period == 7.0


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="no_such_knob"):
        build_config({"no_such_knob": 1})
    with pytest.raises(ValueError, match="overlay.bogus"):
        build_config({"overlay.bogus": 1})
    # Options that no longer exist fail as loudly as typos do.
    for retired in (
        "retransmit_backoff", "batching", "wire_accounting", "overlay.route_cache",
        "histogram_buckets", "down_duration_buckets", "periodic_threshold",
        "predictor_buckets", "predictor_horizon", "predictor_retry_limit",
        "overlay.heartbeat_bytes", "overlay.detection_grace",
        "overlay.death_record_ttl",
    ):
        with pytest.raises(ValueError, match=retired):
            build_config({retired: True})


# ----------------------------------------------------------------------
# In-process cluster (multiple hosts, one loop)
# ----------------------------------------------------------------------


async def _wait_all_online(hosts, timeout: float = 30.0) -> None:
    deadline = asyncio.get_event_loop().time() + timeout
    total = sum(len(host.nodes) for host in hosts)
    while True:
        online = sum(
            1
            for host in hosts
            for node in host.nodes.values()
            if node.pastry.joined
        )
        if online == total:
            return
        if asyncio.get_event_loop().time() > deadline:
            pytest.fail(f"only {online}/{total} nodes joined in {timeout}s")
        await asyncio.sleep(0.1)


def test_in_process_cluster_answers_exactly():
    """Two hosts x two nodes: a streamed query converges on the exact
    ground truth with monotone completeness."""

    async def main():
        spec = plan_cluster(num_hosts=2, nodes_per_host=2, seed=11)
        truth = spec.ground_truth(SQL)
        hosts = [NodeHost(spec, index) for index in range(2)]
        try:
            for host in hosts:
                await host.start()
            await _wait_all_online(hosts)

            partials = []
            async with ServeClient(
                spec.hosts[1].host, spec.hosts[1].client_port
            ) as client:
                pong = await client.ping()
                assert pong["ready"] and pong["nodes"] == 2
                final = await client.query(
                    SQL, timeout=30.0, on_partial=partials.append
                )
            completeness = [p["completeness"] for p in partials]
            completeness.append(final["completeness"])
            assert completeness == sorted(completeness), (
                f"completeness not monotone: {completeness}"
            )
            assert final["completeness"] == pytest.approx(1.0, abs=1e-3)
            assert final["rows"] == truth.row_count
            assert final["values"] == truth.values()
        finally:
            for host in hosts:
                await host.stop()

    asyncio.run(main())


class _DropFirstJoinReply:
    """Interceptor that loses the first JOIN_REPLY on the wire."""

    def __init__(self) -> None:
        self.dropped = 0

    def intercept(self, now, src, dst, message):
        if self.dropped == 0 and isinstance(message.payload, JoinReply):
            self.dropped += 1
            return Decision(drop_reason="test")
        return None


def test_ping_counts_nodes_only_once_their_join_is_answered():
    """A node is online as soon as it starts joining, but it is not part
    of the overlay until a JOIN_REPLY seeds its leafset: with that reply
    lost, ``ping`` reports the node only after the join retry lands."""

    async def main():
        spec = plan_cluster(num_hosts=1, nodes_per_host=2, seed=11)
        host = NodeHost(spec, 0)
        dropper = _DropFirstJoinReply()
        loop = asyncio.get_event_loop()
        try:
            await host.start()
            # The second node starts joining ONLINE_STAGGER after start().
            host.transport.add_interceptor(dropper)
            second = list(host.nodes.values())[1]
            deadline = loop.time() + 10.0
            while not (dropper.dropped and second.pastry.online):
                assert loop.time() < deadline, "the join reply was never sent"
                await asyncio.sleep(0.02)
            async with ServeClient(
                spec.hosts[0].host, spec.hosts[0].client_port
            ) as client:
                pong = await client.ping()
                assert pong["ready"] and pong["nodes"] == 1
                assert not second.pastry.joined
                while (await client.ping())["nodes"] < 2:
                    assert loop.time() < deadline, "the join retry never landed"
                    await asyncio.sleep(0.1)
            assert second.pastry.joined
        finally:
            await host.stop()

    asyncio.run(main())


def test_stream_end_cancels_query_cluster_wide():
    """Once a stream delivers its final event the query is tombstoned:
    the stream was the only consumer, so no node may keep re-submitting
    repair results for it (a long-lived host would otherwise accumulate
    refresh traffic for every query ever served)."""

    async def main():
        spec = plan_cluster(num_hosts=1, nodes_per_host=2, seed=11)
        host = NodeHost(spec, 0)
        try:
            await host.start()
            await _wait_all_online([host])
            async with ServeClient(
                spec.hosts[0].host, spec.hosts[0].client_port
            ) as client:
                final = await client.query(SQL, timeout=30.0)
            query_id = int(final["query_id"], 16)
            # The originator tombstones synchronously with the final
            # event; the co-hosted node hears via the leafset broadcast.
            deadline = asyncio.get_event_loop().time() + 10.0
            while True:
                if all(
                    node.is_cancelled(query_id)
                    for node in host.nodes.values()
                ):
                    break
                if asyncio.get_event_loop().time() > deadline:
                    pytest.fail("cancel tombstone did not reach all nodes")
                await asyncio.sleep(0.1)
        finally:
            await host.stop()

    asyncio.run(main())


def test_in_process_group_by_and_errors():
    async def main():
        spec = plan_cluster(num_hosts=1, nodes_per_host=2, seed=23)
        host = NodeHost(spec, 0)
        try:
            await host.start()
            await _wait_all_online([host])
            async with ServeClient(
                spec.hosts[0].host, spec.hosts[0].client_port
            ) as client:
                # A malformed query surfaces as an error event, and the
                # connection stays usable for the next request.
                from repro.serve.client import ServeError

                with pytest.raises(ServeError):
                    await client.query("SELEKT nonsense", timeout=5.0)

                grouped_sql = (
                    "SELECT COUNT(*) FROM Flow WHERE SrcPort = 80 GROUP BY App"
                )
                truth = spec.ground_truth(grouped_sql)
                final = await client.query(grouped_sql, timeout=30.0)
                assert final["rows"] == truth.row_count
                expected = {
                    "|".join(str(part) for part in key): values
                    for key, values in truth.group_values().items()
                }
                assert final["groups"] == expected
        finally:
            await host.stop()

    asyncio.run(main())


@pytest.mark.parametrize(
    "field",
    [
        {"timeout": "soon"},
        {"poll": None},
        {"timeout": True},
        {"lifetime": float("inf")},
        {"poll": float("nan")},
        {"timeout": -1},
        {"target": 1.5},
        {"target": 0},
    ],
    ids=[
        "text", "null", "bool", "infinite", "nan", "negative", "target-above-1",
        "target-zero",
    ],
)
def test_malformed_numeric_field_is_an_error_event(field):
    """A bad number in a query request is answered with an error event,
    and the connection keeps serving."""

    async def main():
        spec = plan_cluster(num_hosts=1, nodes_per_host=1, seed=5)
        host = NodeHost(spec, 0)
        try:
            await host.start()
            reader, writer = await asyncio.open_connection(
                spec.hosts[0].host, spec.hosts[0].client_port
            )
            try:
                for request in (
                    {"op": "query", "sql": "SELECT COUNT(*) FROM Flow", **field},
                    {"op": "ping"},
                ):
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(), 10.0)
                    assert line, f"connection closed after {request}"
                    expected = "error" if request["op"] == "query" else "pong"
                    assert json.loads(line)["event"] == expected
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await host.stop()

    asyncio.run(main())


def test_metrics_snapshot_includes_pool_gauges(tmp_path):
    async def main():
        spec = plan_cluster(num_hosts=2, nodes_per_host=1, seed=31)
        out = tmp_path / "metrics.jsonl"
        # Host 1 writes: its node has sent its join through host 0 by the
        # time it is online.
        hosts = [
            NodeHost(spec, 0),
            NodeHost(spec, 1, metrics_out=str(out)),
        ]
        try:
            for host in hosts:
                await host.start()
            await _wait_all_online(hosts)
            # One drop, so the per-reason drop gauge has a series to show.
            hosts[1].transport.count_unknown_kind("nowhere", "bogus")
            hosts[1]._write_metrics()
            series = [
                json.loads(line)
                for line in out.read_text().strip().splitlines()
            ]
            names = {record["name"] for record in series}
            assert "serve.connections" in names
            assert "serve.write_queue_depth" in names
            assert "transport.messages_total" in names
            # The live byte ledger: the benchmark reads the unlabelled
            # total from this file ...
            [total] = [
                r for r in series
                if r["name"] == "transport.bytes_total" and not r["labels"]
            ]
            assert total["type"] == "counter" and total["value"] > 0
            # ... and the per-category counters from the registry.
            counters = hosts[1].metrics.snapshot()["counters"]
            by_category = {
                name: value for name, value in counters.items()
                if name.startswith("transport.bytes_total{category=")
            }
            assert counters["transport.bytes_total{category=overlay}"] > 0
            assert sum(by_category.values()) == total["value"]
            # Gauges set from the transport's and overlay's own numbers
            # just before the write.
            gauges = {
                (r["name"], tuple(sorted(r["labels"].items()))): r["value"]
                for r in series if r["type"] == "gauge"
            }
            transport, overlay = hosts[1].transport, hosts[1].overlay
            for reason, count in transport.drops_by_reason.items():
                assert gauges[("transport.dropped_total", (("reason", reason),))] == count
            assert gauges[
                ("transport.dropped_total", (("reason", "unknown_kind"),))
            ] >= 1
            assert gauges[("overlay.reroutes_total", ())] == overlay.reroutes
            assert gauges[("overlay.routing_drops_total", ())] == overlay.routing_drops
            assert gauges[("serve.connections", ())] == transport.connection_count
        finally:
            for host in hosts:
                await host.stop()

    asyncio.run(main())


def test_hosts_stopping_in_turn_leave_no_socket_open():
    """Host 1's join connects to host 0 in the loop turn host 0 stops:
    that accepted connection must be closed too, not left for the
    garbage collector to warn about."""

    async def main():
        spec = plan_cluster(num_hosts=2, nodes_per_host=1, seed=31)
        hosts = [NodeHost(spec, 0), NodeHost(spec, 1)]
        try:
            for host in hosts:
                await host.start()
            await _wait_all_online(hosts)
        finally:
            for host in hosts:
                await host.stop()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        asyncio.run(main())
        gc.collect()
    leaks = [str(w.message) for w in caught if w.category is ResourceWarning]
    assert leaks == []


# ----------------------------------------------------------------------
# Real processes (python -m repro serve)
# ----------------------------------------------------------------------


def test_subprocess_cluster_end_to_end(tmp_path):
    """Two real OS processes answer a streamed query exactly."""
    from repro.serve import LocalCluster
    from repro.serve.client import run_query

    spec = plan_cluster(num_hosts=2, nodes_per_host=1, seed=5)
    truth = spec.ground_truth(SQL)
    with LocalCluster(spec, str(tmp_path / "cluster"), metrics=True) as cluster:
        cluster.wait_ready(timeout=60.0, settle=3.0)
        partials = []
        final = run_query(
            *cluster.client_address(1), SQL,
            timeout=45.0, on_partial=partials.append,
        )
        assert final["rows"] == truth.row_count
        assert final["values"] == truth.values()
        completeness = [p["completeness"] for p in partials]
        completeness.append(final["completeness"])
        assert completeness == sorted(completeness)
        metrics_text = cluster.metrics_path(0).read_text()
        assert "serve.connections" in metrics_text


def test_subprocess_cluster_with_relative_workdir(tmp_path, monkeypatch):
    """Hosts run inside the workdir, so a relative one must still let them
    find their spec and metrics file (the CI smoke job passes one)."""
    from repro.serve import LocalCluster

    monkeypatch.chdir(tmp_path)
    spec = plan_cluster(num_hosts=2, nodes_per_host=1, seed=5)
    with LocalCluster(spec, "relative-out", metrics=True) as cluster:
        cluster.wait_ready(timeout=60.0)
    assert (tmp_path / "relative-out" / "cluster.json").exists()

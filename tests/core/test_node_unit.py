"""Node-level unit tests: metadata pushes, delta encoding, query registry."""

from repro.core import SeaweedConfig
from repro.core.deployment import Deployment
from repro.net.stats import CATEGORY_MAINTENANCE
from repro.proto import wire
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 3 * 3600.0


def build(small_dataset, config=None, count=16, seed=71, private=False):
    system = Deployment(
        trace="always_on", population=count, horizon=HORIZON, seed=seed,
        dataset=small_dataset, config=config, startup_stagger=15.0,
        private_databases=private,
    ).build()
    system.run_until(90.0)
    return system


class TestDeltaPushes:
    def test_delta_reduces_maintenance_bytes(self, small_dataset):
        full_system = build(small_dataset, SeaweedConfig(delta_summaries=False))
        delta_system = build(small_dataset, SeaweedConfig(delta_summaries=True))
        # Run both through two full push cycles.
        for system in (full_system, delta_system):
            system.run_until(2 * 17.5 * 60.0 + 300.0)
        full_bytes = full_system.accounting.totals_by_category("tx").get(
            CATEGORY_MAINTENANCE, 0.0
        )
        delta_bytes = delta_system.accounting.totals_by_category("tx").get(
            CATEGORY_MAINTENANCE, 0.0
        )
        assert delta_bytes < 0.7 * full_bytes

    def test_data_change_forces_full_push(self, small_dataset):
        system = build(
            small_dataset, SeaweedConfig(delta_summaries=True), private=True
        )
        node = next(node for node in system.nodes if node.pastry.online)
        # Steady state: a second push to the same replica is a beacon.
        node.push_metadata()
        generation = node.database.generation
        assert all(
            gen == generation for gen in node._pushed_generation.values()
        )
        # A local write invalidates the delta state for every replica.
        node.database.insert(
            "Flow",
            dict(
                ts=1, Interval=300, SrcIP=1, DstIP=2, SrcPort=80, DstPort=5,
                LocalPort=80, Protocol=6, App="HTTP", Bytes=100, Packets=1,
            ),
        )
        assert node.database.generation != generation


class TestActiveQueryRegistry:
    def test_expired_queries_not_distributed(self, small_dataset):
        system = build(small_dataset, seed=72)
        origin, query = system.inject_query(QUERY_HTTP_BYTES, lifetime=30.0)
        system.run_until(system.sim.now + 10.0)
        # Some node knows the query...
        knowers = [
            node for node in system.nodes if query.query_id in node.known_queries
        ]
        assert knowers
        # ...but after expiry the ACTIVE_RESP filter drops it.
        system.run_until(system.sim.now + 60.0)
        node = knowers[0]
        now = system.sim.now
        active = [
            descriptor
            for descriptor in node.known_queries.values()
            if now <= descriptor.expires_at
        ]
        assert all(d.query_id != query.query_id for d in active)

    def test_execute_and_submit_idempotent_per_session(self, small_dataset):
        system = build(small_dataset, seed=73)
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 20.0)
        node = next(
            node
            for node in system.nodes
            if query.query_id in node._contributed
        )
        version_before = node.aggregator._leaf_versions[query.query_id]
        # A copy of the descriptor, as a wire round trip delivers it.
        node.execute_and_submit(wire.decode_value(wire.encode_value(query)))
        # Guarded by the contributed set: no new submission version.
        assert node.aggregator._leaf_versions[query.query_id] == version_before

    def test_one_broadcast_parses_once(self, small_dataset, monkeypatch):
        import sys

        from repro.db import sql as sql_module

        original = sql_module.parse
        calls = []

        def counting_parse(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # Re-bind every module-level reference, as ``from x import parse``
        # copies the function into each importing module.
        for module in list(sys.modules.values()):
            if getattr(module, "parse", None) is original:
                monkeypatch.setattr(module, "parse", counting_parse)
        system = build(small_dataset, seed=75)
        _, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 120.0)
        reached = [
            node for node in system.nodes if query.query_id in node._local_results
        ]
        assert len(reached) == len(system.nodes)
        assert len(calls) == 1

    def test_parsed_query_cached(self, small_dataset):
        system = build(small_dataset, seed=74)
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        first = origin.parsed_query(query)
        assert origin.parsed_query(query) is first

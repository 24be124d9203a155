"""Node-level unit tests: the active-query registry and query parsing."""

from repro.core.deployment import Deployment
from repro.proto import wire
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 3 * 3600.0


def build(small_dataset, seed):
    system = Deployment(
        trace="always_on", population=16, horizon=HORIZON, seed=seed,
        dataset=small_dataset, startup_stagger=15.0,
    ).build()
    system.run_until(90.0)
    return system


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

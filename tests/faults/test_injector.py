"""Tests for the fault injector and its interceptors."""

import numpy as np
import pytest

from repro.core.deployment import Deployment
from repro.faults import (
    CrashBurst,
    Duplication,
    DuplicationInterceptor,
    FaultPlan,
    LatencyInflation,
    MessageLoss,
    SlowNode,
    SlowNodeInterceptor,
    WindowLossInterceptor,
)
from repro.net.topology import Topology
from repro.net.transport import Message
from repro.proto.messages import Cancel, LeafsetProbe, RouteEnvelope

HORIZON = 1200.0


def _topology() -> Topology:
    topology = Topology(2, [(0, 1, 0.010)])
    topology.attach("a", 0)
    topology.attach("b", 1)
    return topology


def _message() -> Message:
    return Message.of(LeafsetProbe())


def _routed(app=None) -> Message:
    """A Seaweed message as the transport sees it: in a route envelope."""
    app = Cancel(query_id=1) if app is None else app
    return Message.of(RouteEnvelope(key=1, app_payload=app, app_size=8, direct=True))


class TestWindowLossInterceptor:
    def test_only_drops_inside_window(self):
        event = MessageLoss(start=10.0, end=20.0, rate=0.999999)
        interceptor = WindowLossInterceptor(
            event, np.random.default_rng(0), _topology()
        )
        assert interceptor.intercept(5.0, "a", "b", _message()) is None
        assert interceptor.intercept(20.0, "a", "b", _message()) is None
        decision = interceptor.intercept(15.0, "a", "b", _message())
        assert decision is not None and decision.drop_reason == "fault_loss"

    def test_kind_filter(self):
        event = MessageLoss(start=0.0, end=10.0, rate=0.999999, kinds=("QUERY",))
        interceptor = WindowLossInterceptor(
            event, np.random.default_rng(0), _topology()
        )
        assert interceptor.intercept(5.0, "a", "b", _message()) is None

    def test_kind_filter_matches_the_routed_application_kind(self):
        event = MessageLoss(start=0.0, end=10.0, rate=0.999999, kinds=("SW_CANCEL",))
        interceptor = WindowLossInterceptor(
            event, np.random.default_rng(0), _topology()
        )
        assert interceptor.intercept(5.0, "a", "b", _routed()).drop_reason == "fault_loss"
        assert interceptor.intercept(5.0, "a", "b", _message()) is None

    def test_kind_filter_still_matches_the_transport_kind(self):
        event = MessageLoss(start=0.0, end=10.0, rate=0.999999, kinds=("P_ROUTE",))
        interceptor = WindowLossInterceptor(
            event, np.random.default_rng(0), _topology()
        )
        assert interceptor.intercept(5.0, "a", "b", _routed()) is not None
        assert interceptor.intercept(5.0, "a", "b", _message()) is None

    def test_router_filter(self):
        event = MessageLoss(start=0.0, end=10.0, rate=0.999999, routers=(7,))
        interceptor = WindowLossInterceptor(
            event, np.random.default_rng(0), _topology()
        )
        # Neither endpoint attaches to router 7.
        assert interceptor.intercept(5.0, "a", "b", _message()) is None


class TestDuplicationInterceptor:
    def test_duplicates_inside_window(self):
        event = Duplication(start=0.0, end=10.0, rate=0.999999, copies=2,
                            copy_delay=0.3)
        interceptor = DuplicationInterceptor(event, np.random.default_rng(0))
        decision = interceptor.intercept(5.0, "a", "b", _message())
        assert decision is not None
        assert decision.duplicates == 2
        assert decision.duplicate_delay == pytest.approx(0.3)
        assert decision.drop_reason is None

    def test_kind_filter_matches_the_routed_application_kind(self):
        event = Duplication(start=0.0, end=10.0, rate=0.999999, kinds=("SW_CANCEL",))
        interceptor = DuplicationInterceptor(event, np.random.default_rng(0))
        assert interceptor.intercept(5.0, "a", "b", _routed()) is not None
        assert interceptor.intercept(5.0, "a", "b", _message()) is None


class TestSlowNodeInterceptor:
    def test_matches_either_endpoint(self):
        event = SlowNode(start=0.0, end=10.0, extra_delay=0.4, endsystems=(0,))
        interceptor = SlowNodeInterceptor(event, frozenset({"a"}))
        assert interceptor.intercept(5.0, "a", "b", _message()).extra_delay == 0.4
        assert interceptor.intercept(5.0, "b", "a", _message()).extra_delay == 0.4
        assert interceptor.intercept(5.0, "b", "b", _message()) is None
        assert interceptor.intercept(55.0, "a", "b", _message()) is None


def _system(small_dataset, plan, population=12, seed=21):
    return Deployment(
        trace="always_on",
        population=population,
        horizon=HORIZON,
        seed=seed,
        dataset=small_dataset,
        startup_stagger=30.0,
        fault_plan=plan,
    ).build()


class TestFaultInjector:
    def test_no_plan_means_no_injector(self, small_dataset):
        system = _system(small_dataset, None)
        assert system.fault_injector is None
        assert system.transport.interceptors == ()

    def test_empty_plan_means_no_injector(self, small_dataset):
        system = _system(small_dataset, FaultPlan())
        assert system.fault_injector is None

    def test_application_kind_loss_drops_seaweed_messages(self, small_dataset):
        plan = FaultPlan(events=(
            MessageLoss(start=0.0, end=300.0, rate=0.9, kinds=("SW_META_PUSH",)),
        ))
        system = _system(small_dataset, plan, population=16)
        system.run_until(300.0)
        assert system.transport.drops_by_reason["fault_loss"] > 0

    def test_crash_burst_takes_nodes_down_then_back(self, small_dataset):
        plan = FaultPlan(events=(
            CrashBurst(at=120.0, fraction=0.25, down_for=120.0),
        ))
        system = _system(small_dataset, plan)
        system.run_until(121.0)
        assert system.online_count == 9  # 3 of 12 forced down
        system.run_until(300.0)
        assert system.online_count == 12  # everyone restarted
        assert system.fault_injector.injected_count == 1

    def test_crash_burst_is_deterministic(self, small_dataset):
        plan = FaultPlan(events=(CrashBurst(at=120.0, fraction=0.25,
                                            down_for=500.0),))

        def down_set(seed):
            system = _system(small_dataset, plan, seed=seed)
            system.run_until(150.0)
            return {
                index for index, node in enumerate(system.nodes)
                if not node.pastry.online
            }

        assert down_set(21) == down_set(21)

    def test_slow_node_fraction_resolves_names(self, small_dataset):
        plan = FaultPlan(events=(
            SlowNode(start=60.0, end=600.0, extra_delay=0.4, fraction=0.25),
        ))
        system = _system(small_dataset, plan)
        system.run_until(61.0)
        slow = [
            interceptor for interceptor in system.transport.interceptors
            if isinstance(interceptor, SlowNodeInterceptor)
        ]
        assert len(slow) == 1
        assert len(slow[0].slow_names) == 3  # 25% of 12
        names = {node.pastry.name for node in system.nodes}
        assert slow[0].slow_names <= names

    def test_latency_inflation_window(self, small_dataset):
        plan = FaultPlan(events=(
            LatencyInflation(start=60.0, end=120.0, factor=4.0),
        ))
        system = _system(small_dataset, plan)
        names = [node.pastry.name for node in system.nodes]
        system.run_until(59.0)
        base = system.topology.latency(names[0], names[1])
        system.run_until(61.0)
        assert system.topology.latency(names[0], names[1]) == pytest.approx(
            4.0 * base
        )
        system.run_until(121.0)
        assert system.topology.latency(names[0], names[1]) == pytest.approx(base)

    def test_loss_event_installs_interceptor_and_counts(self, small_dataset):
        plan = FaultPlan(events=(
            MessageLoss(start=30.0, end=300.0, rate=0.2),
        ))
        system = _system(small_dataset, plan)
        system.run_until(300.0)
        assert system.transport.drops_by_reason.get("fault_loss", 0) > 0

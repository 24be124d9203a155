"""Registry and dispatcher behaviour: the unified dispatch table."""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import pytest

from repro.proto import messages
from repro.proto.messages import Bcast, Cancel, ProtoMessage
from repro.proto.registry import (
    Dispatcher,
    lookup,
    register,
    registered_classes,
    registered_kinds,
)


class TestRegistry:
    def test_twenty_kinds_registered(self):
        assert len(list(registered_kinds())) == 22

    def test_lookup_round_trip(self):
        for cls in registered_classes():
            assert lookup(cls.KIND) is cls

    def test_lookup_unknown_is_none(self):
        assert lookup("SW_NO_SUCH_KIND") is None

    def test_kinds_are_sorted(self):
        kinds = list(registered_kinds())
        assert kinds == sorted(kinds)

    def test_register_rejects_missing_kind(self):
        class Bad:
            pass

        with pytest.raises(TypeError, match="non-empty KIND"):
            register(Bad)

    def test_register_rejects_duplicate_kind(self):
        class Imposter:
            KIND = Cancel.KIND

        with pytest.raises(ValueError, match="duplicate message kind"):
            register(Imposter)

    def test_register_idempotent_for_same_class(self):
        assert register(Cancel) is Cancel  # re-registering is a no-op

    def test_every_class_computes_a_size(self):
        """No registered class inherits the abstract size formula."""
        for cls in registered_classes():
            assert (
                cls._accounted_size is not ProtoMessage._accounted_size
            ), cls.__name__

    def test_all_classes_are_dataclasses(self):
        for cls in registered_classes():
            assert dataclasses.is_dataclass(cls), cls.__name__

    def test_module_all_covers_registry(self):
        for cls in registered_classes():
            assert cls.__name__ in messages.__dict__


class TestDispatcher:
    def test_dispatch_routes_to_handler(self):
        seen = []
        d = Dispatcher()
        d.on(Cancel, seen.append)
        msg = Cancel(query_id=7)
        assert d.dispatch(Cancel.KIND, msg) is True
        assert seen == [msg]

    def test_unknown_kind_hits_callback_and_returns_false(self):
        unknown = []
        d = Dispatcher(on_unknown=lambda kind, msg: unknown.append((kind, msg)))
        assert d.dispatch("SW_MYSTERY", "payload") is False
        assert unknown == [("SW_MYSTERY", "payload")]

    def test_unknown_kind_without_callback_is_reported_false(self):
        d = Dispatcher()
        assert d.dispatch("SW_MYSTERY", None) is False

    def test_on_rejects_unregistered_class(self):
        class Rogue:
            KIND: ClassVar[str] = "SW_ROGUE"

        d = Dispatcher()
        with pytest.raises(ValueError, match="not a registered"):
            d.on(Rogue, lambda m: None)

    def test_on_rejects_double_bind(self):
        d = Dispatcher()
        d.on(Cancel, lambda m: None)
        with pytest.raises(ValueError, match="already has a handler"):
            d.on(Cancel, lambda m: None)

    def test_handles_and_kinds(self):
        d = Dispatcher()
        d.on(Cancel, lambda m: None)
        d.on(Bcast, lambda m: None)
        assert d.handles(Cancel.KIND)
        assert not d.handles("SW_MYSTERY")
        assert d.kinds == tuple(sorted((Cancel.KIND, Bcast.KIND)))


class TestLiveDispatchersAreRegistryBacked:
    """The ad-hoc {kind: handler} dicts are gone from core and overlay."""

    def test_no_string_dispatch_dicts_left(self):
        import pathlib

        import repro.core.node as core_node
        import repro.overlay.node as overlay_node

        for module in (core_node, overlay_node):
            source = pathlib.Path(module.__file__).read_text()
            # The legacy pattern bound string literals to handlers:
            #     KIND_X: self._handle_x,
            assert "KIND_BCAST: " not in source
            assert "kind == KIND" not in source
            assert "Dispatcher" in source

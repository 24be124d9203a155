"""Layer-boundary tracer, installed from outside the program.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` wraps, by
rule rather than by name:

1. every public function, and every public method (plus ``__init__``)
   of every public class, defined in a module of a measured package
   ``repro.<layer>``.  A wrapper opens a span only when the call crosses
   a *unit* boundary (caller unit != callee unit); a same-unit call
   pays one counter increment and one comparison.  A unit is a layer,
   or one of the few sub-layers named in :data:`SUBUNITS`;
2. every callable handed across a boundary as an argument of such a call
   (event callbacks given to ``Simulator.schedule``, handlers given to
   ``Transport.register`` or ``Dispatcher.on``, ...).  It is wrapped at
   hand-over and attributed to the module that defines it, which is how
   private handlers such as ``PastryNode._on_message`` are attributed
   without being named;
3. (live workload) every callback the asyncio event loop runs, attributed
   to the module of the bound method or of the task's coroutine.  The
   loop's own iterations and asyncio's callbacks go to the pseudo-unit
   ``eventloop``, its blocking waits to ``idle`` and the benchmark's
   client coroutines to ``loadgen``.

A span is (unit, entry point, start, end, parent span, query id when
known).  Spans are aggregated in place into
``(unit, entry, caller unit) -> [calls, total_s, self_s]``; individual
spans are kept only when a query id is known, plus every
:data:`SAMPLE_EVERY`-th other span, both bounded.  A unit's self time is
its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import asyncio
import collections.abc
import dataclasses
import functools
import inspect
import selectors
import sys
import time
import types
from typing import Any, Callable, Optional

MEASURED_LAYERS = (
    "sim", "net", "overlay", "proto", "db", "core", "serve", "traces", "workload",
)

#: Modules measured as their own unit inside a layer.  A module that is
#: renamed falls back to its layer; ``selftest.py`` then reports the
#: sub-layer metric as missing.
SUBUNITS = {
    "repro.core.dissemination": "core.dissemination",
    "repro.core.aggregation": "core.aggregation",
    "repro.core.metadata": "core.metadata",
    "repro.core.predictor": "core.predictor",
    "repro.core.availability_model": "core.predictor",
    "repro.db.sql": "db.parse",
    "repro.db.histogram": "db.histogram",
    "repro.proto.wire": "proto.wire",
    "repro.proto.framing": "proto.framing",
    "repro.serve.transport": "serve.transport",
    "repro.serve.scheduler": "serve.scheduler",
    "repro.serve.service": "serve.service",
}

EVENTLOOP = "eventloop"
LOADGEN = "loadgen"
IDLE = "idle"

MAX_QUERY_SPANS = 40_000
MAX_SAMPLED_SPANS = 5_000
SAMPLE_EVERY = 997

_perf = time.perf_counter
_HANDED_OVER = (types.MethodType, types.FunctionType, functools.partial)
_FUNCTIONS = (types.FunctionType, type(functools.lru_cache(lambda: None)))
_UNIT_ATTR = "__bench_unit__"


def unit_of_module(module: Optional[str]) -> Optional[str]:
    """The unit a module belongs to, or None if it is not measured."""
    if not module or not module.startswith("repro."):
        return None
    unit = SUBUNITS.get(module)
    if unit is not None:
        return unit
    layer = module.split(".")[1]
    return layer if layer in MEASURED_LAYERS else None


def layer_of_unit(unit: str) -> str:
    return unit.split(".", 1)[0]


class Tracer:
    """Holds the spans of one traced run.  Single-threaded by design."""

    def __init__(self, weights: Optional[dict[str, Callable[..., float]]] = None) -> None:
        #: ``"module.qualname" -> f(*args)``: a number summed per call of
        #: that entry point (e.g. rows scanned by ``db.executor.execute``).
        self._weights = weights or {}
        self.weighed: dict[str, float] = {name: 0.0 for name in self._weights}
        # [current unit, child time of the open span, query id, span index]
        self._state: list[Any] = [None, 0.0, None, -1]
        self._off = True
        self._units: dict[str, str] = {}
        self._entries: list[tuple[str, str]] = []      # entry id -> (unit, label)
        self._entry_ids: dict[tuple[str, str], int] = {}
        self.calls: list[int] = []                      # entry id -> every call
        self.aggregate: dict[tuple[int, Optional[str]], list] = {}
        self.spans: list[tuple] = []
        self._query_spans = 0
        self._sampled_spans = 0
        self._span_counter = 0

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._off = False

    def stop(self) -> None:
        """Spans stop accumulating (wrappers pass through) and the call
        counts are frozen: later calls, such as the benchmark's own
        ground-truth queries, are not part of the traced run."""
        self._off = True
        self.calls = list(self.calls)
        self.weighed = dict(self.weighed)

    # ------------------------------------------------------------------
    # Span machinery
    # ------------------------------------------------------------------

    def _entry(self, unit: str, label: str) -> int:
        key = (unit, label)
        entry_id = self._entry_ids.get(key)
        if entry_id is None:
            entry_id = self._entry_ids[key] = len(self._entries)
            self._entries.append(key)
            self.calls.append(0)
        return entry_id

    def _unit(self, name: str) -> str:
        # One string object per unit, so wrappers can compare with ``is``.
        return self._units.setdefault(name, name)

    def _span_call(self, unit: str, entry_id: int, fn: Callable, args: tuple, kwargs: dict):
        if self._off:
            return fn(*args, **kwargs)
        state = self._state
        caller, parent_child, parent_qid, parent_span = state
        qid = parent_qid
        for index, arg in enumerate(args):
            if type(arg) in _HANDED_OVER:
                # Rule 2: a callable handed across the boundary.
                wrapped = self.wrap_callback(arg)
                if wrapped is not arg:
                    args = args[:index] + (wrapped,) + args[index + 1:]
            elif qid is None:
                qid = getattr(arg, "query_id", None)
        if kwargs:
            for key, arg in kwargs.items():
                if type(arg) in _HANDED_OVER:
                    kwargs[key] = self.wrap_callback(arg)

        self._span_counter += 1
        keep = -1
        if qid is not None:
            if self._query_spans < MAX_QUERY_SPANS:
                self._query_spans += 1
                keep = len(self.spans)
                self.spans.append(None)
        elif (
            self._span_counter % SAMPLE_EVERY == 0
            and self._sampled_spans < MAX_SAMPLED_SPANS
        ):
            self._sampled_spans += 1
            keep = len(self.spans)
            self.spans.append(None)

        state[0] = unit
        state[1] = 0.0
        state[2] = qid
        if keep >= 0:
            state[3] = keep
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            duration = end - start
            record = self.aggregate.get((entry_id, caller))
            if record is None:
                record = self.aggregate[(entry_id, caller)] = [0, 0.0, 0.0]
            record[0] += 1
            record[1] += duration
            record[2] += duration - state[1]
            if keep >= 0:
                self.spans[keep] = (entry_id, start, end, parent_span, qid)
            state[0] = caller
            state[1] = parent_child + duration
            state[2] = parent_qid
            state[3] = parent_span

    def _wrap(self, fn: Callable, unit: str, label: str, weight_key: Optional[str] = None) -> Callable:
        """A wrapper for ``fn`` attributed to ``unit`` under ``label``."""
        unit = self._unit(unit)
        entry_id = self._entry(unit, label)
        state, calls, span_call = self._state, self.calls, self._span_call
        weight = self._weights.get(weight_key) if weight_key else None

        if inspect.iscoroutinefunction(fn):
            def wrapper(*args, **kwargs):
                calls[entry_id] += 1
                return _TracedCoroutine(fn(*args, **kwargs), self, unit, entry_id)
        elif weight is not None:
            weighed = self.weighed

            def wrapper(*args, **kwargs):
                calls[entry_id] += 1
                weighed[weight_key] += weight(*args, **kwargs)
                if state[0] is unit:
                    return fn(*args, **kwargs)
                return span_call(unit, entry_id, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[entry_id] += 1
                if state[0] is unit:
                    return fn(*args, **kwargs)
                return span_call(unit, entry_id, fn, args, kwargs)

        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            try:
                setattr(wrapper, attr, getattr(fn, attr))
            except AttributeError:
                pass
        wrapper.__wrapped__ = fn
        setattr(wrapper, _UNIT_ATTR, unit)
        return wrapper

    def wrap_callback(self, callback: Callable) -> Callable:
        """Rule 2: attribute a handed-over callable to its defining module."""
        target = callback
        while type(target) is functools.partial:
            target = target.func
        function = getattr(target, "__func__", target)
        if hasattr(function, _UNIT_ATTR):
            return callback  # already a wrapper (rule 1 method or rule 2)
        unit = unit_of_module(getattr(function, "__module__", None))
        if unit is None:
            return callback
        label = getattr(function, "__qualname__", repr(function))
        return self._wrap(callback, unit, label)

    # ------------------------------------------------------------------
    # Rule 1: installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public surface of every loaded measured module.

        Import every ``repro`` package the run will use first: functions
        are re-bound in every loaded ``repro`` module that already holds
        a reference to them (``from x import f``).
        """
        loaded = {
            name: module for name, module in sys.modules.items()
            if name.startswith("repro.") and module is not None
        }
        replaced: dict[int, Callable] = {}
        for name, module in loaded.items():
            unit = unit_of_module(name)
            if unit is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, unit)
                elif isinstance(obj, _FUNCTIONS):
                    replaced[id(obj)] = self._wrap(
                        obj, unit, obj.__qualname__, f"{name}.{obj.__qualname__}"
                    )
        for module in loaded.values():
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap_class(self, cls: type, unit: str) -> None:
        if issubclass(cls, BaseException) or hasattr(cls, "_member_map_"):
            return  # exceptions and enums carry no measured work
        value_object = dataclasses.is_dataclass(cls)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and (attr != "__init__" or value_object):
                continue  # private, or the constructor of a value object
            label = f"{cls.__qualname__}.{attr}"
            key = f"{cls.__module__}.{label}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(obj, unit, label, key))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, unit, label, key)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, unit, label, key)))

    # ------------------------------------------------------------------
    # Rule 3: the event loop (live workload)
    # ------------------------------------------------------------------

    def run_loop(self, main: Callable[[], collections.abc.Coroutine]) -> Any:
        """``asyncio.run(main())`` with every loop callback in a span."""
        original = asyncio.events.Handle._run
        resolved: dict[Any, tuple[str, int]] = {}
        tracer = self

        def resolve(key: Any, callback: Any, coro: Any) -> tuple[str, int]:
            if coro is not None:
                module = inspect.getmodule(key)
                unit = unit_of_module(getattr(module, "__name__", None))
                if unit is None:
                    in_asyncio = "asyncio" in getattr(key, "co_filename", "asyncio")
                    unit = EVENTLOOP if in_asyncio else LOADGEN
                label = "task:" + getattr(coro, "__qualname__", "?")
            else:
                function = getattr(callback, "__func__", callback)
                unit = getattr(function, _UNIT_ATTR, None) or unit_of_module(
                    getattr(function, "__module__", None)
                ) or EVENTLOOP
                label = "loop:" + getattr(function, "__qualname__", type(callback).__name__)
            unit = tracer._unit(unit)
            return unit, tracer._entry(unit, label)

        def traced_run(handle):
            callback = handle._callback
            owner = getattr(callback, "__self__", None)
            coro = owner.get_coro() if isinstance(owner, asyncio.Task) else None
            if type(coro) is _TracedCoroutine:
                unit, entry_id = coro.unit, coro.entry_id
            else:
                if coro is not None:
                    key = getattr(coro, "cr_code", None)
                else:
                    key = getattr(callback, "__func__", None) or (
                        callback if type(callback) is types.FunctionType
                        else (type(callback), getattr(callback, "__name__", None))
                    )
                found = resolved.get(key)
                if found is None:
                    found = resolved[key] = resolve(key, callback, coro)
                unit, entry_id = found
            tracer.calls[entry_id] += 1
            return tracer._span_call(unit, entry_id, original, (handle,), {})

        loop_unit = self._unit(EVENTLOOP)
        iteration = self._entry(loop_unit, "loop:iteration")

        class TracedLoop(asyncio.SelectorEventLoop):
            def _run_once(self):
                return tracer._span_call(loop_unit, iteration, super()._run_once, (), {})

        asyncio.events.Handle._run = traced_run
        try:
            with asyncio.Runner(
                loop_factory=lambda: TracedLoop(_TracedSelector(self))
            ) as runner:
                return runner.run(main())
        finally:
            asyncio.events.Handle._run = original

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def rows(self) -> list[dict]:
        """The aggregate as a list of plain dicts, largest self time first."""
        out = []
        for (entry_id, caller), (count, total, self_time) in self.aggregate.items():
            unit, label = self._entries[entry_id]
            out.append({
                "layer": layer_of_unit(unit), "unit": unit, "entry": label,
                "caller": caller, "calls": count,
                "total_s": total, "self_s": self_time,
            })
        out.sort(key=lambda row: -row["self_s"])
        return out

    @staticmethod
    def _in(unit: Optional[str], prefixes: tuple[str, ...]) -> bool:
        return unit is not None and any(
            unit == prefix or unit.startswith(prefix + ".") for prefix in prefixes
        )

    def select(
        self,
        units: tuple[str, ...],
        labels: Optional[tuple[str, ...]] = None,
        callers: Optional[tuple[str, ...]] = None,
        contains: Optional[str] = None,
    ) -> tuple[int, float, float]:
        """(spans, total_s, self_s) of the spans opened in ``units`` (a
        layer names all its sub-units), optionally only for entry points
        in ``labels`` or whose name contains ``contains``, and only for
        callers in ``callers``."""
        spans, total, self_time = 0, 0.0, 0.0
        for (entry_id, caller), record in self.aggregate.items():
            unit, label = self._entries[entry_id]
            if not self._in(unit, units):
                continue
            if labels is not None and label not in labels:
                continue
            if contains is not None and contains not in label:
                continue
            if callers is not None and not self._in(caller, callers):
                continue
            spans += record[0]
            total += record[1]
            self_time += record[2]
        return spans, total, self_time

    def calls_of(self, units: tuple[str, ...], labels: tuple[str, ...]) -> int:
        """Every call, boundary-crossing or not, of the named entry points."""
        return sum(
            self.calls[entry_id]
            for entry_id, (unit, label) in enumerate(self._entries)
            if label in labels and self._in(unit, units)
        )

    def self_by_layer(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (entry_id, _caller), record in self.aggregate.items():
            layer = layer_of_unit(self._entries[entry_id][0])
            totals[layer] = totals.get(layer, 0.0) + record[2]
        return totals

    def dump(self) -> dict:
        """Everything kept, as JSON-ready data (see ``bench/README.md``)."""
        return {
            "entries": [list(entry) for entry in self._entries],
            "calls": self.calls,
            "aggregate": self.rows(),
            "span_fields": ["entry_id", "start", "end", "parent_span", "query_id"],
            "spans": [
                [s[0], s[1], s[2], s[3], format(s[4], "x") if isinstance(s[4], int) else s[4]]
                for s in self.spans if s is not None
            ],
            "spans_seen": self._span_counter,
        }


class _TracedSelector(selectors.DefaultSelector):
    """Makes the event loop's blocking waits spans of the ``idle`` unit.

    A poll with a zero timeout is work the loop does between callbacks
    and stays in the ``eventloop`` span around it.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self._unit = tracer._unit(IDLE)
        self._entry_id = tracer._entry(self._unit, "loop:wait")

    def select(self, timeout=None):
        if timeout is not None and timeout <= 0:
            return super().select(timeout)
        return self._tracer._span_call(
            self._unit, self._entry_id, super().select, (timeout,), {}
        )


class _TracedCoroutine(collections.abc.Coroutine):
    """Runs each step of a coroutine of a measured module inside a span."""

    __slots__ = ("_inner", "_tracer", "unit", "entry_id")

    def __init__(self, coro, tracer: Tracer, unit: str, entry_id: int) -> None:
        self._inner = coro.__await__()
        self._tracer = tracer
        self.unit = unit
        self.entry_id = entry_id

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _step(self, method: Callable, *args):
        tracer = self._tracer
        if tracer._state[0] is self.unit:
            return method(*args)
        return tracer._span_call(self.unit, self.entry_id, method, args, {})

    def send(self, value):
        return self._step(self._inner.send, value)

    def throw(self, *args):
        return self._step(self._inner.throw, *args)

    def close(self):
        return self._inner.close()

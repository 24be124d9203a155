"""Observability: metrics, structured tracing, and simulator profiling.

The measurement substrate for the whole reproduction:

* :mod:`repro.obs.metrics` — labeled counters and gauges with dict
  snapshots and JSONL export;
* :mod:`repro.obs.tracing` — the sinks that receive structured
  simulated-time trace records (query lifecycle, dissemination hops,
  aggregation flushes, predictor updates, churn handling);
* :mod:`repro.obs.profiling` — per-handler wall-clock time and
  event-queue depth inside the discrete-event simulator;
* :mod:`repro.obs.observer` — the :class:`Observer` facade threaded
  through :class:`~repro.core.system.SeaweedSystem`.

Off is ``None``: no observer, or an observer with no trace sink.

Quick use::

    from repro.core import Deployment
    from repro.obs import JSONLSink, Observer

    obs = Observer(trace_sink=JSONLSink("trace.jsonl"), profile=True)
    system = Deployment(population=200).build(observer=obs)
    ...
    print(system.metrics_snapshot()["profile"]["handlers"])
    obs.close()
"""

from repro.obs.metrics import Counter, Gauge, MetricsRegistry, series_name
from repro.obs.observer import Observer
from repro.obs.profiling import HandlerStats, SimProfiler
from repro.obs.tracing import JSONLSink, MemorySink, TraceSink, read_jsonl

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "series_name",
    "Observer",
    "HandlerStats",
    "SimProfiler",
    "JSONLSink",
    "MemorySink",
    "TraceSink",
    "read_jsonl",
]

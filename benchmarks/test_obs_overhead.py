"""Observability overhead: an observer without a trace sink must cost ~nothing.

The instrumentation contract (DESIGN.md §6.7) is that an unobserved run
pays one ``is None`` check per hot-path event, and an observer without a
sink only its counter increments.  These benches time the same small
packet-level deployment with no observer and with an observer that has
no sink, and the raw simulator loop with and without a profiler,
printing the measured wall times.  Thresholds are generous —
the point is to catch an accidental always-on record-building path
(which shows up as 2x+), not to detect single-digit-percent noise.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.deployment import Deployment
from repro.obs import Observer, SimProfiler
from repro.sim.simulator import Simulator
from repro.workload.anemone import AnemoneDataset, AnemoneParams

DEPLOYMENT = Deployment(
    "always_on",
    population=30,
    horizon=900.0,
    seed=11,
    dataset=AnemoneDataset(
        num_profiles=8,
        params=AnemoneParams(flows_per_day=40.0, days=7.0),
        rng=np.random.default_rng(7),
    ),
    startup_stagger=30.0,
)


def _run_deployment(observer) -> float:
    start = perf_counter()
    DEPLOYMENT.run(
        [(120.0, "SELECT COUNT(*) FROM Flow WHERE SrcPort = 80")], observer=observer
    )
    return perf_counter() - start


def test_sinkless_observer_within_noise_of_none():
    """An Observer without a trace sink builds no records: it must run
    within noise of no observer at all."""
    # Interleave and take minima so one GC pause cannot decide the test.
    none_times, sinkless_times = [], []
    _run_deployment(None)  # warm caches (imports, JIT-ish dict sizing)
    for _ in range(3):
        none_times.append(_run_deployment(None))
        sinkless_times.append(_run_deployment(Observer()))
    baseline = min(none_times)
    sinkless = min(sinkless_times)
    print(
        f"\ndeployment run: no observer {baseline:.3f}s, "
        f"observer without sink {sinkless:.3f}s "
        f"(ratio {sinkless / baseline:.2f})"
    )
    # Only counter increments differ; 1.5x absorbs scheduler/allocator
    # noise on loaded CI machines.
    assert sinkless < baseline * 1.5


def test_null_profiler_loop_cost():
    """The event loop without a profiler must not be slower than with one."""

    def drive(profiler) -> float:
        sim = Simulator(profiler=profiler)

        def chain(remaining: int) -> None:
            if remaining:
                sim.schedule(1.0, chain, remaining - 1)

        start = perf_counter()
        for _ in range(200):
            sim.schedule(1.0, chain, 500)
        sim.run_until(600.0)
        return perf_counter() - start

    # Interleave and take minima so a load spike during one block of
    # repetitions cannot decide the test.
    bare_times, profiled_times = [], []
    drive(None)  # warmup
    for _ in range(3):
        bare_times.append(drive(None))
        profiled_times.append(drive(SimProfiler()))
    bare = min(bare_times)
    profiled = min(profiled_times)
    print(
        f"\nsimulator loop (100k events): bare {bare:.3f}s, "
        f"profiled {profiled:.3f}s (ratio {profiled / bare:.2f})"
    )
    # The None fast path must not cost more than the instrumented path
    # (modulo noise); if it does, the guard itself grew a hidden cost.
    assert bare < profiled * 1.25

"""The simulator workloads: ``sim-steady-2k``, ``sim-query-burst``, ``sim-churn-feed``.

One *repetition* builds a fresh :class:`~repro.core.SeaweedSystem` with
the default ``SeaweedConfig()`` and drives it through the workload's
simulated window.  Only ``run_until``/``inject_query`` calls are inside
the timed window; ground truth is computed afterwards.

The deployment (population, node ids, topology, availability trace,
dataset and its assignment to endsystems) and the SQL texts are fixed
per workload by ``deployment_seed``; ``--seed`` draws the endsystem each
query enters at and the rows the live feed inserts.  README.md ("What
the seed varies") records why.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import time
from typing import Optional

import numpy as np

from repro.core import SeaweedSystem
from repro.db import parse
from repro.traces import generate_farsite_trace, generate_gnutella_trace
from repro.workload import FLOW_INTERVAL, PAPER_QUERIES, AnemoneDataset, LiveAnemoneFeed

from common import KindCounter, current_rss_mb, median, succeeded

NUM_PROFILES = 40
#: SeaweedSystem's default roll-out window; scaled with ``--quick``.
STARTUP_STAGGER = 300.0
#: A query is done when the root holds this share of the rows held by
#: the endsystems that were online when it was injected.
DONE_SHARE = 0.99
#: Set-ups per run: ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Simulated seconds between queue-depth samples in the traced pass.
DEPTH_SAMPLE_PERIOD = 10.0

_PORTS = (80, 443, 445, 53, 139, 25, 1433, 3389)
_APPS = ("HTTP", "HTTPS", "SMB", "DNS", "SMTP", "SQL", "RDP", "Other")


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    name: str
    population: int
    duration: float            # simulated seconds
    trace: str                 # "farsite" | "gnutella"
    first_query_at: float
    query_spacing: float
    num_queries: int           # 0: the four paper queries
    deployment_seed: int
    live_feed: bool = False    # private databases + LiveAnemoneFeed inserts

    def scaled(self, scale: float) -> "SimWorkload":
        """``--quick``: population and every duration times ``scale``."""
        if scale == 1.0:
            return self
        return dataclasses.replace(
            self,
            population=max(16, int(self.population * scale)),
            duration=self.duration * scale,
            first_query_at=self.first_query_at * scale,
            query_spacing=self.query_spacing * scale,
            num_queries=min(self.num_queries, 5),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        SimWorkload("sim-steady-2k", 2000, 900.0, "farsite", 600.0, 60.0, 0, 1),
        SimWorkload("sim-query-burst", 500, 640.0, "farsite", 400.0, 15.0, 12, 7),
        SimWorkload("sim-churn-feed", 400, 2400.0, "gnutella", 1200.0, 90.0, 12, 4,
                    live_feed=True),
    )
}


def make_queries(workload: SimWorkload) -> list[str]:
    """The workload's SQL texts.  Their parameters are drawn so that the
    queries of one run are distinct (no two share a selectivity-cache
    key); the text fixes a query's id and so its root, which is why they
    belong to the deployment and not to ``--seed``."""
    if workload.num_queries == 0:
        return [query.sql for query in PAPER_QUERIES]
    rng = np.random.default_rng(workload.deployment_seed + 3)
    queries = []
    for index in range(workload.num_queries):
        port = int(rng.choice(_PORTS))
        app = str(rng.choice(_APPS))
        threshold = int(rng.integers(1000, 50000))
        local_port = int(rng.integers(200, 1024))
        form = index % 5
        if form == 0:
            sql = f"SELECT SUM(Bytes) FROM Flow WHERE SrcPort = {port}"
        elif form == 1:
            sql = f"SELECT COUNT(*) FROM Flow WHERE Bytes > {threshold}"
        elif form == 2:
            sql = (f"SELECT SUM(Packets), COUNT(*) FROM Flow "
                   f"WHERE LocalPort < {local_port} AND Bytes > {threshold}")
        elif form == 3:
            sql = f"SELECT AVG(Bytes) FROM Flow WHERE App = '{app}'"
        else:
            sql = f"SELECT COUNT(*) FROM Flow WHERE Bytes > {threshold} GROUP BY App"
        queries.append(sql)
    return queries


class Stopwatch:
    """Accumulates wall time over several timed sections."""

    def __init__(self) -> None:
        self.wall = 0.0

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall += time.perf_counter() - self._started


def build(workload: SimWorkload, seed: int, scale: float) -> tuple[SeaweedSystem, dict]:
    """Set up one fresh deployment; returns it and the set-up time split."""
    parts = {}
    clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        parts[name] = now - clock
        clock = now

    generate = generate_farsite_trace if workload.trace == "farsite" else generate_gnutella_trace
    trace = generate(
        workload.population,
        horizon=workload.duration,
        rng=np.random.default_rng(workload.deployment_seed),
    )
    lap("traces.generate_s")
    dataset = AnemoneDataset(
        num_profiles=NUM_PROFILES,
        rng=np.random.default_rng(workload.deployment_seed + 1),
    )
    lap("workload.generate_s")
    system = SeaweedSystem(
        trace,
        dataset,
        num_endsystems=workload.population,
        master_seed=workload.deployment_seed,
        startup_stagger=STARTUP_STAGGER * scale,
        private_databases=workload.live_feed,
    )
    if workload.live_feed:
        LiveAnemoneFeed(
            system, np.random.default_rng(seed + 2), period=FLOW_INTERVAL * scale
        )
    lap("core.construct_s")
    system.pretrain_availability()
    lap("core.pretrain_s")
    parts["setup_s"] = sum(parts.values())
    return system, parts


def drive(workload: SimWorkload, system: SeaweedSystem, queries: list[str],
          seed: int, sample_depth: bool = False) -> dict:
    """The timed window: advance, inject each query on schedule, finish.

    Each query enters at an online endsystem drawn from ``seed``.
    """
    origins = np.random.default_rng(seed + 4)
    watch = Stopwatch()
    injected = []
    depth_peak = 0

    def advance(until: float) -> None:
        nonlocal depth_peak
        if not sample_depth:
            system.run_until(until)
            return
        now = system.metrics_snapshot()["sim"]["now"]
        while now < until:
            now = min(until, now + DEPTH_SAMPLE_PERIOD)
            system.run_until(now)
            depth_peak = max(
                depth_peak, system.metrics_snapshot()["sim"]["pending_events"]
            )

    for index, sql in enumerate(queries):
        with watch:
            advance(workload.first_query_at + index * workload.query_spacing)
            online = [i for i, node in enumerate(system.nodes) if node.pastry.online]
            _origin, descriptor = system.inject_query(
                sql, origin_index=online[int(origins.integers(len(online)))],
                bind_now=False,
            )
        injected.append((descriptor, online))
    with watch:
        advance(workload.duration)
    return {
        "run_s": watch.wall,
        "injected": injected,
        "peak_queue_depth": depth_peak,
    }


def judge(system: SeaweedSystem, injected: list) -> tuple[list[dict], list[str]]:
    """Per-query latencies and verdicts against ground truth, plus gate errors."""
    records, errors = [], []
    for descriptor, online in injected:
        query = parse(descriptor.sql)
        per_db: dict[int, int] = {}

        def rows_of(node) -> int:
            key = id(node.database)
            if key not in per_db:
                per_db[key] = node.database.relevant_row_count(query)
            return per_db[key]

        online_truth = sum(rows_of(system.nodes[i]) for i in online)
        truth = sum(rows_of(node) for node in system.nodes)
        record = {"sql": descriptor.sql, "failed": None, "truth_rows": truth}
        records.append(record)
        status = system.status_of(descriptor)
        if status is None or status.predictor is None:
            record["failed"] = "no predictor by the end of the run"
            continue
        record["rows"] = status.rows_processed
        record["predictor_ready_at"] = status.predictor_ready_at
        if status.rows_processed > truth:
            errors.append(
                f"root rows {status.rows_processed} exceed ground truth {truth}: "
                f"{descriptor.sql}"
            )
        at = descriptor.injected_at
        record["ttp"] = status.predictor_ready_at - at
        first = next((t for t, rows in status.history if rows > 0), None)
        done = next(
            (t for t, rows in status.history if rows >= DONE_SHARE * online_truth), None
        )
        if first is None or done is None:
            record["failed"] = (
                f"root reached {status.rows_processed} of {online_truth} rows "
                f"held by endsystems online at injection"
            )
            continue
        record["ttfirst"] = first - at
        record["ttdone"] = done - at
        record["pred_err_pct"] = (
            100.0 * abs(status.predictor.expected_total - truth) / truth
        )
    return records, errors


def fingerprint(system: SeaweedSystem, records: list[dict]) -> dict:
    """What two runs of one seed must agree on, bit for bit."""
    snapshot = system.metrics_snapshot()
    return {
        "events": snapshot["sim"]["events_processed"],
        "total_tx": snapshot["bandwidth"]["total_tx"],
        "rows": [record.get("rows") for record in records],
        "predictor_ready_at": [record.get("predictor_ready_at") for record in records],
    }


def run_rep(workload: SimWorkload, seed: int, scale: float, tracer=None) -> dict:
    """One fresh-system repetition; under ``tracer`` when given."""
    gc.collect()
    queries = make_queries(workload)
    if tracer is not None:
        tracer.start()
    started = time.perf_counter()
    rss_before = current_rss_mb()
    system, parts = build(workload, seed, scale)
    rss_after_setup = current_rss_mb()
    kinds = None
    if tracer is not None:
        kinds = KindCounter()
        system.transport.add_interceptor(kinds)
    driven = drive(workload, system, queries, seed, sample_depth=tracer is not None)
    traced_wall = time.perf_counter() - started
    if tracer is not None:
        tracer.stop()
    records, errors = judge(system, driven["injected"])
    snapshot = system.metrics_snapshot()
    rep = {
        "parts": parts,
        "run_s": driven["run_s"],
        "records": records,
        "errors": errors,
        "fingerprint": fingerprint(system, records),
        "tx_bytes_per_es_s": (
            snapshot["bandwidth"]["total_tx"] / system.online_endsystem_seconds()
        ),
        "snapshot": snapshot,
        "rss_mb_after_setup": rss_after_setup,
        "kb_per_endsystem": 1024.0 * (rss_after_setup - rss_before) / workload.population,
        "peak_queue_depth": driven["peak_queue_depth"],
        "traced_wall_s": traced_wall,
        "message_kinds": kinds.counts if kinds is not None else None,
    }
    del system
    return rep


def run_untraced(name: str, seed: int, seconds: float, quick: bool) -> dict:
    """Repeat the workload until ``seconds`` of timed window have been
    measured; ``run_s`` is the fastest repetition, ``setup_s`` the median
    set-up."""
    scale = 0.1 if quick else 1.0
    workload = WORKLOADS[name].scaled(scale)
    reps = []
    while not reps or (not quick and sum(rep["run_s"] for rep in reps) < seconds):
        reps.append(run_rep(workload, seed, scale))
    errors = list(reps[0]["errors"])
    for rep in reps[1:]:
        if rep["fingerprint"] != reps[0]["fingerprint"]:
            errors.append(
                f"repetitions of seed {seed} disagree: "
                f"{reps[0]['fingerprint']} != {rep['fingerprint']}"
            )
    setups = [rep["parts"]["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES and not quick:
        gc.collect()
        setups.append(build(workload, seed, scale)[1]["setup_s"])

    first = reps[0]
    records = first["records"]
    good = succeeded(records)
    # Identical work: interference only ever adds time, so the fastest
    # repetition is the steadiest estimate of its cost.
    run_s = min(rep["run_s"] for rep in reps)
    metrics = {
        "setup_s": median(setups),
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ttp_s_p50": median([record["ttp"] for record in good]),
        "ttdone_s_p50": median([record["ttdone"] for record in good]),
        "tx_bytes_per_es_s": first["tx_bytes_per_es_s"],
        "queries_per_s": len(good) / run_s,
    }
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": len(records) - len(good),
        "failures": [r["failed"] for r in records if r["failed"]][:5],
        "errors": errors,
        "reps": len(reps),
        "fingerprint": first["fingerprint"],
    }


def run_traced(name: str, seed: int, quick: bool, tracer) -> tuple[dict, dict, Optional[str]]:
    """One untraced repetition, then one under ``tracer``.

    Returns both and, if the traced repetition did not reproduce the
    untraced fingerprint, the mismatch.
    """
    scale = 0.1 if quick else 1.0
    workload = WORKLOADS[name].scaled(scale)
    plain = run_rep(workload, seed, scale)
    tracer.install()
    traced = run_rep(workload, seed, scale, tracer=tracer)
    mismatch = None
    if traced["fingerprint"] != plain["fingerprint"]:
        mismatch = (
            f"traced fingerprint {traced['fingerprint']} != "
            f"untraced {plain['fingerprint']}"
        )
    return plain, traced, mismatch

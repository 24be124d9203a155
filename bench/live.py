"""The ``live-16n`` workload: a real 2-process x 8-node cluster over loopback TCP.

Untraced pass: :class:`~repro.serve.LocalCluster` spawns two host
processes; the bench process drives a closed loop of two
:class:`~repro.serve.ServeClient` connections (one per host) for
``seconds`` wall seconds at ``time_scale=1``.  Traced pass: the same
2x8 spec runs as two :class:`~repro.serve.NodeHost` objects inside the
bench's own event loop so the tracer can see ``serve`` and ``proto``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time

import numpy as np

from repro.serve import LocalCluster, NodeHost, ServeClient, plan_cluster

from common import OUT_DIR, KindCounter, current_rss_mb, grouped_median, median, succeeded

HOSTS = 2
#: Fixes node ids, hence the aggregation-tree depth that quantises
#: latency (about 0.24 s or 0.44 s per query) on this 16-node ring.
DEPLOYMENT_SEED = 5
NODES_PER_HOST = 8
#: Streaming poll period asked of the service (its floor is 0.02 s).
POLL = 0.02
QUERY_TIMEOUT = 30.0
#: Grace after every node reports joined: freshly joined nodes need to
#: push metadata before predictors cover the whole population.
SETTLE = 2.0
#: ``--quick`` sends this many queries in total instead of timing out.
QUICK_QUERIES = 6

_PORTS = (80, 443, 445, 53)


def sql_mix(seed: int) -> list[str]:
    """Five SQL texts (4 scalar aggregates + 1 GROUP BY) drawn from ``seed``."""
    rng = np.random.default_rng(seed + 3)
    ports = rng.permutation(_PORTS)
    low, high = (int(v) for v in rng.integers(500, 20000, size=2))
    return [
        f"SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE SrcPort = {ports[0]}",
        f"SELECT COUNT(*) FROM Flow WHERE Bytes > {high}",
        f"SELECT SUM(Packets) FROM Flow WHERE SrcPort = {ports[1]} AND Bytes > {low}",
        f"SELECT AVG(Bytes) FROM Flow WHERE LocalPort < {int(rng.integers(200, 1024))}",
        f"SELECT COUNT(*) FROM Flow WHERE Bytes > {low} GROUP BY App",
    ]


def _expected(truth) -> dict:
    """The ground-truth answer in the shape of a ``final`` event."""
    groups = None
    if truth.groups:
        groups = {
            "|".join(str(part) for part in key): values
            for key, values in truth.group_values().items()
        }
    return {
        "rows": truth.row_count,
        "values": truth.values() if truth.states else None,
        "groups": groups,
    }


async def _one_query(client: ServeClient, sql: str, expected: dict) -> dict:
    """Run one streamed query; returns its latencies and verdict."""
    sent = time.perf_counter()
    seen: dict[str, float] = {}
    completeness: list[float] = []

    def note(event: dict) -> None:
        now = time.perf_counter()
        completeness.append(event["completeness"])
        if event["predicted"] is not None:
            seen.setdefault("ttp", now - sent)
        if event["rows"] > 0:
            seen.setdefault("ttfirst", now - sent)

    record = {"sql": sql, "failed": None}
    try:
        final = await client.query(
            sql, timeout=QUERY_TIMEOUT, poll=POLL, on_partial=note
        )
    except (OSError, RuntimeError, ValueError) as error:
        record["failed"] = f"{type(error).__name__}: {error}"
        return record
    note(final)
    record["ttdone"] = time.perf_counter() - sent
    record.update(seen)
    if completeness != sorted(completeness):
        record["failed"] = record["wrong"] = f"completeness not monotone: {completeness}"
    elif any(final[key] != expected[key] for key in expected):
        record["failed"] = record["wrong"] = (
            f"final {({key: final[key] for key in expected})} != truth {expected}"
        )
    elif "ttp" not in seen or "ttfirst" not in seen:
        record["failed"] = "no predictor or no rows before final"
    else:
        # The row total the streamed completeness was computed against.
        predicted_total = final["rows"] / max(final["completeness"], 1e-9)
        record["pred_err_pct"] = (
            100.0 * abs(predicted_total - expected["rows"]) / expected["rows"]
        )
    return record


async def _closed_loop(spec, mix, expected, seconds: float, quick: bool,
                       after_each=None) -> tuple[list[dict], float]:
    """Two connections, one per host, each sending its next query only
    after the previous ``final``.  Returns the per-query records and the
    wall time from first send to last final."""

    async def worker(index: int) -> list[dict]:
        host = spec.hosts[index]
        records = []
        async with ServeClient(host.host, host.client_port) as client:
            turn = index
            while True:
                if quick and len(records) >= QUICK_QUERIES // HOSTS:
                    break
                if not quick and time.perf_counter() >= deadline:
                    break
                sql = mix[turn % len(mix)]
                turn += HOSTS
                records.append(await _one_query(client, sql, expected[sql]))
                if after_each is not None:
                    after_each()
        return records

    start = time.perf_counter()
    deadline = start + seconds
    per_worker = await asyncio.gather(*(worker(i) for i in range(HOSTS)))
    return [r for records in per_worker for r in records], time.perf_counter() - start


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _tx_bytes_per_node_s(cluster: LocalCluster, spawned_at: float) -> float:
    """Bytes per second per node since ``spawned_at`` (``time.time()``).

    Each host rewrites its metrics file every two seconds: wait for the
    next rewrite, so that the byte count and its timestamp belong
    together, instead of reading a file of unknown age.  Shutdown is
    left out: it can take the hosts' whole drain timeout.
    """
    asked = time.time()
    rate = 0.0
    for host in cluster.spec.hosts:
        path = cluster.metrics_path(host.index)
        while path.stat().st_mtime <= asked:
            if time.time() - asked > 10.0:
                raise RuntimeError(f"{path} is not being rewritten")
            time.sleep(0.05)
        time.sleep(0.05)  # let the host finish writing the file
        written = path.stat().st_mtime
        for line in path.read_text().splitlines():
            series = json.loads(line)
            if series["name"] == "transport.bytes_total" and not series["labels"]:
                rate += series["value"] / (written - spawned_at)
    return rate / (HOSTS * NODES_PER_HOST)


def plan(seed: int):
    """The cluster spec, the SQL mix and each text's ground-truth answer.

    The cluster (node ids, dataset) comes from :data:`DEPLOYMENT_SEED`,
    the SQL mix from ``seed`` (README.md, "What the seed varies").
    """
    spec = plan_cluster(HOSTS, NODES_PER_HOST, seed=DEPLOYMENT_SEED)
    mix = sql_mix(seed)
    expected = {sql: _expected(spec.ground_truth(sql)) for sql in mix}
    for sql, answer in expected.items():
        if answer["rows"] <= 0:
            raise RuntimeError(f"seed {seed}: no rows match {sql!r}")
    return spec, mix, expected


def run_untraced(seed: int, seconds: float, quick: bool) -> dict:
    """Spawn the cluster, drive the closed loop, return end-to-end metrics."""
    spec, mix, expected = plan(seed)
    workdir = OUT_DIR / f"live-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)

    spawned_at = time.time()
    started = time.perf_counter()
    # The context manager reaps the host processes on any exception.
    with LocalCluster(spec, str(workdir), metrics=True) as cluster:
        cluster.wait_ready(timeout=60.0, settle=SETTLE)
        ready = time.perf_counter()
        records, run_s = asyncio.run(
            _closed_loop(spec, mix, expected, seconds, quick)
        )
        peak_rss_mb = sum(
            _proc_peak_rss_mb(process.pid) for process in cluster.processes
        )
        tx_rate = _tx_bytes_per_node_s(cluster, spawned_at)

    good = succeeded(records)
    metrics = {
        "setup_s": ready - started,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        # The predictor is seen at the first poll after it arrives.
        "ttp_s_p50": grouped_median([r["ttp"] for r in good], POLL),
        "ttdone_s_p50": median([r["ttdone"] for r in good]),
        "tx_bytes_per_es_s": tx_rate,
        "queries_per_s": len(good) / run_s,
    }
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": len(records) - len(good),
        "failures": [r["failed"] for r in records if r["failed"]][:5],
        # A query that times out has failed; one that answers wrongly
        # makes the run incorrect.
        "errors": [r["wrong"] for r in records if "wrong" in r][:5],
    }


async def _wait_all_online(hosts: list[NodeHost], timeout: float = 60.0) -> None:
    deadline = time.perf_counter() + timeout
    while not all(
        node.pastry.online for host in hosts for node in host.nodes.values()
    ):
        if time.perf_counter() > deadline:
            raise RuntimeError("in-process cluster did not come up")
        await asyncio.sleep(0.1)


def run_in_process(seed: int, seconds: float, quick: bool, tracer=None) -> dict:
    """The same 2x8 cluster as two ``NodeHost`` objects inside the bench's
    own event loop (as ``tests/serve/test_live_cluster.py`` does), under
    ``tracer`` when given.  Returns the per-query records, the process CPU
    spent in the query window and the hosts' own counters.
    """
    spec, mix, expected = plan(seed)

    async def main() -> dict:
        rss_before = current_rss_mb()
        hosts = [NodeHost(spec, index) for index in range(HOSTS)]
        kinds = KindCounter()
        started = time.perf_counter()
        try:
            for host in hosts:
                await host.start()
                host.transport.add_interceptor(kinds)
            await _wait_all_online(hosts)
            await asyncio.sleep(SETTLE)
            ready = time.perf_counter()
            rss_ready = current_rss_mb()
            transports = [host.transport for host in hosts]
            depth_max = 0

            def sample_depth() -> None:
                nonlocal depth_max
                depth_max = max(depth_max, sum(t.write_queue_depth for t in transports))

            cpu_before = time.process_time()
            records, run_s = await _closed_loop(
                spec, mix, expected, seconds, quick, after_each=sample_depth
            )
            cpu_s = time.process_time() - cpu_before
            counters: dict[str, float] = {}
            for host in hosts:
                for name, value in host.metrics.snapshot()["counters"].items():
                    counters[name] = counters.get(name, 0) + value
            return {
                "records": records,
                "run_s": run_s,
                "cpu_s": cpu_s,
                "spawn_to_ready_s": ready - started,
                "frames_sent": sum(t.messages_sent for t in transports),
                "bytes_sent": sum(t.bytes_sent for t in transports),
                "connections": sum(t.connection_count for t in transports),
                "write_queue_depth_max": depth_max,
                "scheduler_events": sum(h.scheduler.events_fired for h in hosts),
                "dropped_offline": sum(t.dropped_offline for t in transports),
                "reroutes": sum(h.overlay.reroutes for h in hosts),
                "routing_drops": sum(h.overlay.routing_drops for h in hosts),
                "counters": counters,
                "message_kinds": kinds.counts,
                "rss_mb_after_setup": rss_ready,
                "kb_per_endsystem": (
                    1024.0 * (rss_ready - rss_before) / (HOSTS * NODES_PER_HOST)
                ),
            }
        finally:
            for host in hosts:
                await host.stop()

    if tracer is None:
        return asyncio.run(main())
    started = time.perf_counter()
    tracer.start()
    try:
        result = tracer.run_loop(main)
    finally:
        tracer.stop()
    # Spans cover set-up and shutdown too, so the window they are
    # compared with does as well.
    result["traced_wall_s"] = time.perf_counter() - started
    return result

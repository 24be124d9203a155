"""Command-line interface: run Seaweed experiments without writing code.

Subcommands::

    seaweed-repro models  [--N --u --d --c ...]   analytic cost comparison
    seaweed-repro trace   [--kind --population]   trace statistics (Fig 1)
    seaweed-repro predict [--sql --population]    completeness prediction
    seaweed-repro run     [--population --hours]  packet-level deployment
    seaweed-repro chaos   [--scenario --seed]     audited fault-injection campaign
    seaweed-repro serve-plan [--hosts --nodes]    plan a live cluster spec
    seaweed-repro serve   --spec FILE --index N   run one live host process
    seaweed-repro serve-query --port P --sql ...  query a live cluster

Every subcommand prints plain-text tables via the reporting helpers and
is driven by explicit seeds, so runs are reproducible.  The ``serve-*``
family is the live mode (:mod:`repro.serve`): real processes, real TCP,
same node code as the simulator.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.analysis import (
        TABLE1,
        centralized_overhead,
        centralized_seaweed_crossover,
        dht_replicated_overhead,
        pier_overhead,
        seaweed_overhead,
    )
    from repro.harness.reporting import format_bytes_rate, format_table

    params = TABLE1.with_overrides(
        num_endsystems=args.N,
        update_rate=args.u,
        database_size=args.d,
        churn_rate=args.c,
        fraction_online=args.f_on,
    )
    rows = [
        ("centralized", format_bytes_rate(centralized_overhead(params))),
        ("seaweed", format_bytes_rate(seaweed_overhead(params))),
        ("dht-replicated", format_bytes_rate(dht_replicated_overhead(params))),
        ("pier (5 min)", format_bytes_rate(pier_overhead(params))),
        (
            "pier (1 h)",
            format_bytes_rate(
                pier_overhead(params.with_overrides(pier_refresh_rate=1 / 3600.0))
            ),
        ),
    ]
    print(format_table(["design", "maintenance bandwidth"], rows,
                       title="Analytic maintenance overhead (paper Eqs. 1-4)"))
    print(
        f"centralized/seaweed crossover: u = "
        f"{centralized_seaweed_crossover(params):.1f} bytes/s per endsystem"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.deployment import Deployment
    from repro.harness.reporting import format_table
    from repro.harness.trace_stats import compute_trace_statistics

    trace = Deployment(
        args.kind, population=args.population, horizon=args.days * 86400.0,
        seed=args.seed,
    ).trace_set()
    stats = compute_trace_statistics(trace, sample_days=min(7.0, args.days))
    rows = [
        ("population", stats.population),
        ("horizon (days)", f"{stats.horizon_days:.1f}"),
        ("mean availability", f"{stats.mean_availability:.3f}"),
        ("departure rate /online-es/s", f"{stats.departure_rate:.2e}"),
        ("churn rate /es/s", f"{stats.churn_rate:.2e}"),
        ("diurnal swing", f"{stats.diurnal_amplitude:.2f}"),
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.kind} trace statistics (Fig 1 / Table 1)"))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.harness.prediction import PredictionSimulator
    from repro.harness.reporting import format_table
    from repro.traces.farsite import generate_farsite_trace
    from repro.workload.anemone import AnemoneDataset

    print(f"generating trace ({args.population} endsystems) and dataset...")
    trace = generate_farsite_trace(
        args.population, horizon=35 * 86400.0, rng=np.random.default_rng(args.seed)
    )
    dataset = AnemoneDataset(
        num_profiles=args.profiles, rng=np.random.default_rng(args.seed + 1)
    )
    simulator = PredictionSimulator(
        trace, dataset, rng=np.random.default_rng(args.seed + 2)
    )
    inject = args.inject_day * 86400.0 + args.inject_hour * 3600.0
    outcome = simulator.run(args.sql, inject)
    rows = []
    for index, delay in enumerate(outcome.checkpoints):
        label = "immediate" if delay == 0 else f"+{delay / 3600.0:g} h"
        rows.append(
            (
                label,
                f"{outcome.predicted[index]:,.0f}",
                f"{outcome.actual[index]:,.0f}",
                f"{outcome.prediction_error()[index]:+.2f}%",
            )
        )
    print(format_table(["delay", "predicted", "actual", "error"], rows,
                       title=f"Completeness prediction: {args.sql}"))
    print(
        f"available at injection: {outcome.available_fraction:.1%}   "
        f"total-count error: {outcome.total_count_error():+.3f}%"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.core.deployment import Deployment, QueryScheduleError
    from repro.harness.overhead import run_overhead_experiment
    from repro.harness.reporting import format_table
    from repro.net.stats import (
        CATEGORY_MAINTENANCE,
        CATEGORY_OVERLAY,
        CATEGORY_QUERY,
    )
    from repro.obs import JSONLSink, Observer

    observer = None
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out or metrics_out:
        observer = Observer(
            trace_sink=JSONLSink(trace_out) if trace_out else None,
            profile=True,
        )

    print(
        f"running packet-level deployment: {args.population} endsystems, "
        f"{args.hours:.1f} h, {args.kind} trace..."
    )
    deployment = Deployment(
        args.kind, population=args.population, horizon=args.hours * 3600.0,
        seed=args.seed,
    )
    try:
        result = run_overhead_experiment(
            deployment, query_sql=args.sql, observer=observer
        )
    except QueryScheduleError as error:
        if observer is not None:
            observer.close()
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [
        ("MSPastry", f"{result.tx_by_category[CATEGORY_OVERLAY]:.1f}"),
        ("Seaweed maintenance", f"{result.tx_by_category[CATEGORY_MAINTENANCE]:.1f}"),
        ("Seaweed query", f"{result.tx_by_category[CATEGORY_QUERY]:.2f}"),
        ("total", f"{result.mean_tx:.1f}"),
        ("p99 endsystem-hour", f"{result.tx_percentile(99):.1f}"),
    ]
    print(format_table(["component", "tx bytes/s per online es"], rows,
                       title="Overhead breakdown (cf. Fig 9a)"))
    print(f"predictor latency: {result.predictor_latency}")
    print(f"completeness samples: {result.completeness}")

    if observer is not None:
        observer.close()
        if trace_out:
            print(f"trace written to {trace_out}")
        snapshot = result.metrics
        if metrics_out and snapshot is not None:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
            print(f"metrics written to {metrics_out}")
        profile = snapshot.get("profile") if snapshot else None
        if profile:
            hot = sorted(
                profile["handlers"].items(),
                key=lambda item: item[1]["total_s"],
                reverse=True,
            )[:5]
            prows = [
                (label, f"{stats['count']}", f"{stats['total_s'] * 1e3:.1f}")
                for label, stats in hot
            ]
            print(format_table(["handler", "events", "total ms"], prows,
                               title="Hottest simulator handlers"))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import builtin_scenarios, report_to_json, run_campaign
    from repro.harness.reporting import format_table

    available = builtin_scenarios()
    if args.scenario == "all":
        selected = list(available.values())
    elif args.scenario in available:
        selected = [available[args.scenario]]
    else:
        names = ", ".join(sorted(available))
        print(f"unknown scenario {args.scenario!r} (choose from: all, {names})")
        return 2

    print(
        f"running chaos campaign: {len(selected)} scenario(s) under the "
        f"ground-truth oracle, seed {args.seed}..."
    )
    report = run_campaign(selected, master_seed=args.seed, population=args.population)
    rows = []
    for name, section in sorted(report["scenarios"].items()):
        queries = section["audit"]["queries"].values()
        truth = sum(q["truth_rows_contributed"] for q in queries)
        final = sum(q["root_rows_final"] for q in queries)
        calibration = [
            q["calibration"]["final_error"]
            for q in queries
            if q["calibration"] is not None
        ]
        drops = section["transport"]["drops_by_reason"]
        drop_text = (
            " ".join(f"{reason}={count}" for reason, count in sorted(drops.items()))
            or "-"
        )
        rows.append((
            name,
            f"{section['faults_injected']}",
            f"{section['query']['completeness']:.3f}",
            f"{final}/{truth}",
            f"{calibration[0]:+.3f}" if calibration else "-",
            drop_text,
            f"{section['violation_count']}",
        ))
    print(format_table(
        ["scenario", "faults", "completeness", "root/truth rows", "calib err",
         "drops", "violations"],
        rows,
        title="Chaos campaign under the ground-truth oracle (seeded, reproducible)",
    ))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report_to_json(report))
        print(f"report written to {args.out}")
    if not report["ok"]:
        for section in report["scenarios"].values():
            for violation in section["violations"]:
                print(f"VIOLATION [{section['name']}] {violation['check']}: "
                      f"{violation['detail']}")
        return 1
    print("all conformance checks held")
    return 0


def _cmd_serve_plan(args: argparse.Namespace) -> int:
    from repro.serve.cluster import plan_cluster

    spec = plan_cluster(
        num_hosts=args.hosts,
        nodes_per_host=args.nodes,
        host=args.bind,
        seed=args.seed,
        num_profiles=args.profiles,
        time_scale=args.time_scale,
        base_port=args.base_port,
    )
    if args.out:
        spec.save(args.out)
        print(f"cluster spec written to {args.out}")
    else:
        print(spec.to_json())
    bootstrap = spec.hosts[0]
    print(
        f"# {args.hosts} host(s) x {args.nodes} node(s); bootstrap "
        f"{bootstrap.host}:{bootstrap.port}; query any host's client port"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.cluster import ClusterSpec
    from repro.serve.host import serve_host

    spec = ClusterSpec.load(args.spec)
    asyncio.run(serve_host(spec, args.index, metrics_out=args.metrics_out))
    return 0


def _cmd_serve_query(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError, run_query

    def on_partial(event: dict) -> None:
        predicted = event.get("predicted")
        predicted_text = "-" if predicted is None else f"{predicted:.3f}"
        print(
            f"  t={event['elapsed']:7.2f}s rows={event['rows']:>8} "
            f"completeness={event['completeness']:.3f} "
            f"predicted={predicted_text}"
        )

    print(f"querying {args.host}:{args.port}: {args.sql}")
    try:
        final = run_query(
            args.host, args.port, args.sql,
            timeout=args.timeout, target=args.target,
            on_partial=on_partial if not args.quiet else None,
        )
    except (ServeError, ConnectionError, OSError) as error:
        print(f"error: {error}")
        return 1
    print(
        f"final: rows={final['rows']} "
        f"completeness={final['completeness']:.3f} values={final['values']}"
    )
    if final.get("groups"):
        for key, values in sorted(final["groups"].items()):
            print(f"  {key}: {values}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="seaweed-repro",
        description="Seaweed (VLDB 2006) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="analytic cost models (Figs 3-4)")
    models.add_argument("--N", type=float, default=300_000)
    models.add_argument("--u", type=float, default=970.0)
    models.add_argument("--d", type=float, default=2.6e9)
    models.add_argument("--c", type=float, default=6.9e-6)
    models.add_argument("--f-on", dest="f_on", type=float, default=0.81)
    models.set_defaults(func=_cmd_models)

    trace = sub.add_parser("trace", help="trace statistics (Fig 1)")
    trace.add_argument("--kind", choices=("farsite", "gnutella"), default="farsite")
    trace.add_argument("--population", type=int, default=5000)
    trace.add_argument("--days", type=float, default=14.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(func=_cmd_trace)

    predict = sub.add_parser("predict", help="completeness prediction (Figs 5-8)")
    predict.add_argument(
        "--sql", default="SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80"
    )
    predict.add_argument("--population", type=int, default=8000)
    predict.add_argument("--profiles", type=int, default=120)
    predict.add_argument("--inject-day", type=int, default=15)
    predict.add_argument("--inject-hour", type=float, default=0.0)
    predict.add_argument("--seed", type=int, default=0)
    predict.set_defaults(func=_cmd_predict)

    run = sub.add_parser("run", help="packet-level deployment (Figs 9-10)")
    run.add_argument("--population", type=int, default=200)
    run.add_argument("--hours", type=float, default=4.0)
    run.add_argument("--kind", choices=("farsite", "gnutella"), default="farsite")
    run.add_argument(
        "--sql", default="SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80"
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a JSONL event trace of the run to FILE",
    )
    run.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the final metrics snapshot (JSON) to FILE",
    )
    run.set_defaults(func=_cmd_run)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign under the ground-truth oracle",
    )
    chaos.add_argument(
        "--scenario", default="all",
        help="scenario name, or 'all' (default) for the full campaign",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--population", type=int, default=None,
        help="override every scenario's endsystem population",
    )
    chaos.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the JSON campaign report to FILE",
    )
    chaos.set_defaults(func=_cmd_chaos)

    serve_plan = sub.add_parser(
        "serve-plan", help="plan a live cluster spec (repro.serve)"
    )
    serve_plan.add_argument("--hosts", type=int, default=4)
    serve_plan.add_argument("--nodes", type=int, default=2,
                            help="nodes per host process")
    serve_plan.add_argument("--bind", default="127.0.0.1")
    serve_plan.add_argument("--seed", type=int, default=0)
    serve_plan.add_argument("--profiles", type=int, default=8)
    serve_plan.add_argument("--time-scale", type=float, default=1.0)
    serve_plan.add_argument(
        "--base-port", type=int, default=0,
        help="first port of a sequential range (0 = OS-assigned)",
    )
    serve_plan.add_argument("--out", metavar="FILE", default=None)
    serve_plan.set_defaults(func=_cmd_serve_plan)

    serve = sub.add_parser(
        "serve", help="run one live host process of a planned cluster"
    )
    serve.add_argument("--spec", required=True, metavar="FILE")
    serve.add_argument("--index", required=True, type=int,
                       help="which host entry of the spec this process is")
    serve.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="periodically write a metrics snapshot (JSONL) to FILE",
    )
    serve.set_defaults(func=_cmd_serve)

    serve_query = sub.add_parser(
        "serve-query", help="stream one query against a live cluster"
    )
    serve_query.add_argument("--host", default="127.0.0.1")
    serve_query.add_argument("--port", required=True, type=int,
                             help="a host's client service port")
    serve_query.add_argument(
        "--sql", default="SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80"
    )
    serve_query.add_argument("--timeout", type=float, default=60.0)
    serve_query.add_argument("--target", type=float, default=0.999)
    serve_query.add_argument("--quiet", action="store_true",
                             help="suppress partial-result lines")
    serve_query.set_defaults(func=_cmd_serve_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

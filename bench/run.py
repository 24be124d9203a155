#!/usr/bin/env python3
"""The repository benchmark: one command, every metric by name.

    python3 bench/run.py --seed 7                       # every workload, untraced then traced
    python3 bench/run.py --workload live-16n --trace 0  # one run, in this process
    python3 bench/run.py --quick                        # 0.1x sizes, for selftest.py
    python3 bench/run.py --runs 10 --trace 0 --out A.json   # ten seeds, for compare.py

A single run (``--workload`` and ``--trace`` both given) measures in this
process and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``.  Anything else runs each selected single run as a child
process (so ``peak_rss_mb`` is per workload) and prints a summary.
Exit status is non-zero on a wrong answer or a missing metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys

from common import OUT_DIR, ROOT, load_definition, median, percentile, succeeded

LIVE_WORKLOAD = "live-16n"


def require_source() -> None:
    """Put ``src/`` on the path; the benchmark measures this checkout only."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {source}/repro is missing")
    sys.path.insert(0, str(source))


def environment() -> dict:
    """Where the numbers were taken; ``noisy`` marks a loaded machine."""
    import numpy

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "load_1m_start": load,
        "noisy": load > 0.5 * nproc,
    }


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------


def untraced(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    if workload == LIVE_WORKLOAD:
        import live

        return live.run_untraced(seed, seconds, quick)
    import sim

    return sim.run_untraced(workload, seed, seconds, quick)


def traced(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """The traced pass: per-layer metrics plus ``out/trace-<workload>.json``."""
    import layers
    from tracer import Tracer

    tracer = Tracer(weights=layers.WEIGHTS)
    metrics = dict.fromkeys(
        (metric["name"] for metric in load_definition()["per_layer"]), 0.0
    )
    if workload == LIVE_WORKLOAD:
        import live

        window = seconds / 2.0
        plain = live.run_in_process(seed, window, quick)
        tracer.install()
        run = live.run_in_process(seed, window, quick, tracer=tracer)
        records = run["records"]
        errors = [r["wrong"] for r in plain["records"] + records if "wrong" in r]
        judged = succeeded(plain["records"])
        metrics["serve.ttdone_s_p90"] = percentile([r["ttdone"] for r in judged], 90)
        metrics.update(layers.from_tracer(tracer, run["traced_wall_s"]))
        counters = run["counters"]
        metrics.update({
            "net.tx_bytes.maintenance": counters.get("transport.bytes_total{category=maintenance}", 0),
            "net.tx_bytes.query": counters.get("transport.bytes_total{category=query}", 0),
            "net.tx_bytes.overlay": counters.get("transport.bytes_total{category=overlay}", 0),
            "net.drops_offline": run["dropped_offline"],
            "overlay.reroutes": run["reroutes"],
            "overlay.routing_drops": run["routing_drops"],
            "proto.frame_bytes": run["bytes_sent"],
            "serve.frames_sent": run["frames_sent"],
            "serve.frames_per_s": run["frames_sent"] / run["run_s"],
            "serve.bytes_sent": run["bytes_sent"],
            "serve.write_queue_depth_max": run["write_queue_depth_max"],
            "serve.connections": run["connections"],
            "serve.scheduler_events": run["scheduler_events"],
            "serve.spawn_to_ready_s": plain["spawn_to_ready_s"],
            "mem.rss_mb_after_setup": plain["rss_mb_after_setup"],
            "mem.kb_per_endsystem": plain["kb_per_endsystem"],
            "serve.cpu_ms_per_query": 1000.0 * plain["cpu_s"] / len(plain["records"]),
            "trace.overhead_ratio": (
                (run["cpu_s"] / len(run["records"]))
                / (plain["cpu_s"] / len(plain["records"]))
            ),
        })
        kinds = run["message_kinds"]
        detail = {"plain": _without(plain, "records"), "traced": _without(run, "records")}
    else:
        import sim

        plain, run, mismatch = sim.run_traced(workload, seed, quick, tracer)
        records = run["records"]
        judged = succeeded(records)
        errors = plain["errors"] + run["errors"] + ([mismatch] if mismatch else [])
        metrics.update(layers.from_tracer(tracer, run["traced_wall_s"]))
        snapshot = run["snapshot"]
        categories = snapshot["bandwidth"]["tx_by_category"]
        metrics.update({
            "sim.events": snapshot["sim"]["events_processed"],
            "sim.events_per_s": snapshot["sim"]["events_processed"] / plain["run_s"],
            "sim.peak_queue_depth": run["peak_queue_depth"],
            "net.tx_bytes.maintenance": categories.get("maintenance", 0),
            "net.tx_bytes.query": categories.get("query", 0),
            "net.tx_bytes.overlay": categories.get("overlay", 0),
            "net.drops_offline": snapshot["transport"]["dropped_offline"],
            "overlay.reroutes": snapshot["overlay"]["reroutes"],
            "overlay.routing_drops": snapshot["overlay"]["routing_drops"],
            "traces.generate_s": plain["parts"]["traces.generate_s"],
            "workload.generate_s": plain["parts"]["workload.generate_s"],
            "core.construct_s": plain["parts"]["core.construct_s"],
            "core.pretrain_s": plain["parts"]["core.pretrain_s"],
            "mem.rss_mb_after_setup": plain["rss_mb_after_setup"],
            "mem.kb_per_endsystem": plain["kb_per_endsystem"],
            "trace.overhead_ratio": run["run_s"] / plain["run_s"],
        })
        kinds = run["message_kinds"]
        detail = {
            "fingerprint": run["fingerprint"],
            "untraced_run_s": plain["run_s"],
            "traced_run_s": run["run_s"],
            "message_kinds": run["message_kinds"],
        }

    for name, kind in layers.KIND_METRICS.items():
        metrics[name] = kinds.get(kind, 0)
    metrics["core.pred_err_pct_p50"] = median([r["pred_err_pct"] for r in judged])
    metrics["core.ttfirst_s_p50"] = median([r["ttfirst"] for r in judged])

    shares = layers.layer_shares(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}.json"
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload, "seed": seed, "quick": quick,
             "layer_self_s": shares, **detail, **tracer.dump()},
            handle,
        )
    good = sum(1 for record in records if record["failed"] is None)
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": len(records) - good,
        "failures": [r["failed"] for r in records if r["failed"]][:5],
        "errors": errors,
        "layer_self_s": shares,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


def single_run(args: argparse.Namespace) -> int:
    require_source()
    definition = load_definition()
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in definition[section]}
    env = environment()

    runner = traced if args.trace else untraced
    result = runner(args.workload, args.seed, args.seconds, args.quick)
    env["load_1m_end"] = os.getloadavg()[0]

    problems = list(result.get("errors", []))
    for name in units:
        value = result["metrics"].get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} missing or not finite: {value!r}")
    for name in result["metrics"]:
        if name not in units:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}"
          f"{' quick' if args.quick else ''}{' NOISY' if env['noisy'] else ''}")
    for name, unit in units.items():
        print(f"{name:32s} {result['metrics'].get(name)!r:>24} {unit}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':32s} {failed_frac!r:>24} ratio "
          f"({result['failed']} of {result['attempted']} failed)")
    for share in result.get("layer_self_s", []):
        print(f"# self time {share[0]:10s} {share[1]:8.3f} s")
    for line in result.get("failures", []) + problems:
        print(f"# PROBLEM: {line}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    detail_file = OUT_DIR / f"run-{args.workload}-trace{args.trace}.json"
    with open(detail_file, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "quick": args.quick, "env": env, "problems": problems, **result},
                  handle, indent=1, default=str)

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"].get(name), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Every selected run, each in a child process
# ----------------------------------------------------------------------


def orchestrate(args: argparse.Namespace) -> int:
    require_source()
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    if args.workload:
        names = [args.workload]
    passes = [args.trace] if args.trace is not None else [0, 1]
    env = environment()
    results = []
    status = 0
    for name in names:
        for trace in passes:
            for run in range(args.runs):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--trace", str(trace),
                    "--seed", str(args.seed + run), "--seconds", str(args.seconds),
                ] + (["--quick"] if args.quick else [])
                child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = child.stdout.strip().splitlines()
                sys.stdout.write("\n".join(lines[:-1]) + "\n")
                sys.stdout.flush()
                if child.returncode != 0 or not lines:
                    print(f"# FAILED: {name} trace={trace} seed={args.seed + run} "
                          f"exit {child.returncode}", file=sys.stderr)
                    status = 1
                    continue
                results.append({"workload": name, "trace": trace,
                                "seed": args.seed + run, **json.loads(lines[-1])})
    env["load_1m_end"] = os.getloadavg()[0]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "quick": args.quick, "seconds": args.seconds,
                       "results": results}, handle, indent=1)
    print(f"# {len(results)} run(s) recorded"
          f"{' on a NOISY machine' if env['noisy'] else ''}; exit {status}")
    return status


def main() -> int:
    definition = load_definition()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in definition["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"],
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="populations and durations x0.1, one repetition")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload and pass, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args()
    if args.workload and args.trace is not None and args.runs == 1 and not args.out:
        return single_run(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())

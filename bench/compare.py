#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, how much worse B
is than A as a share of A, the metric's bound from ``BENCHMARK.json``,
and a verdict:

``ok``          B is not worse than A by more than the bound;
``regressed``   it is;
``unresolved``  the run-to-run spread of either side (distance between
                the quartiles as a share of the median, from the file's
                several runs) is wider than the bound, so the difference
                cannot be told from noise.

A workload whose share of failed queries rose is ``regressed`` whatever
its latencies say.  Exit status is 1 if any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys

from common import load_definition


def load(path: str) -> dict[str, list[dict]]:
    """workload -> its untraced runs."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    runs: dict[str, list[dict]] = {}
    for result in document["results"]:
        if result["trace"] == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(a_runs: dict, b_runs: dict, definition: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in definition["workloads"]):
        side_a, side_b = a_runs.get(workload), b_runs.get(workload)
        if not side_a or not side_b:
            continue
        failed_a = sum(r["failed"] for r in side_a) / sum(r["attempted"] for r in side_a)
        failed_b = sum(r["failed"] for r in side_b) / sum(r["attempted"] for r in side_b)
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio",
            "a": failed_a, "b": failed_b, "worse": failed_b - failed_a,
            "bound": 0.0, "spread": 0.0,
            "verdict": "regressed" if failed_b > failed_a else "ok",
        })
        for metric in definition["end_to_end"]:
            name = metric["name"]
            values_a = [r["metrics"][name]["value"] for r in side_a]
            values_b = [r["metrics"][name]["value"] for r in side_b]
            a, b = statistics.median(values_a), statistics.median(values_b)
            worse = (b - a) / abs(a) if metric["better"] == "lower" else (a - b) / abs(a)
            noise = max(spread(values_a), spread(values_b))
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": a, "b": b, "worse": worse, "bound": metric["bound"],
                "spread": noise, "verdict": verdict,
            })
    return rows


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(sys.argv[1]), load(sys.argv[2]), load_definition())
    if not rows:
        print("no workload has untraced runs in both files", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':24s} {'A':>14s} {'B':>14s} "
          f"{'worse':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:16s} {row['metric']:24s} {row['a']:14.6g} "
              f"{row['b']:14.6g} {row['worse']:+8.1%} {row['bound']:6.0%} "
              f"{row['spread']:7.1%}  {row['verdict']}")
    counts = {verdict: sum(1 for row in rows if row["verdict"] == verdict)
              for verdict in ("ok", "regressed", "unresolved")}
    print(f"# {counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())

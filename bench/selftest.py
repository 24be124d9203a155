#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 bench/selftest.py`` (< 60 s).

Runs every workload once untraced and once traced with ``--quick`` and
checks that

* ``BENCHMARK.json`` is well formed (keys, name and unit syntax, limits);
* every run prints every declared metric with its declared unit and a
  finite value, and answers correctly;
* every end-to-end metric is non-zero (a bound is a share of the value);
* the tracer attributes at least 95% of the traced time to named layers;
* the bypass predictions hold: no ``proto.encode``/``serve`` work on the
  simulator workloads and some on ``live-16n``; row inserts only on
  ``sim-churn-feed``; no simulator events on ``live-16n``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time

from common import BENCH_DIR, OUT_DIR, load_definition

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def check_definition(definition: dict) -> list[str]:
    problems = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(definition) != expected_keys:
        problems.append(f"top-level keys {sorted(definition)} != {sorted(expected_keys)}")
    names = []
    for workload in definition["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 \
                or "\n" in workload["why"]:
            problems.append(f"workload entry malformed: {workload}")
        names.append(workload["name"])
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for metric in definition[section]:
            if set(metric) != keys:
                problems.append(f"{section} entry keys {sorted(metric)}")
            if not UNIT.match(metric["unit"]):
                problems.append(f"bad unit {metric['unit']!r}")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"bad direction in {metric}")
            if section == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"bound out of range in {metric}")
            names.append(metric["name"])
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in definition["end_to_end"]):
        problems.append("no setup_s metric")
    if not (2 <= len(definition["workloads"]) <= 8 and 1 <= len(definition["end_to_end"]) <= 16
            and 1 <= len(definition["per_layer"]) <= 128
            and 1 <= definition["run_seconds"] <= 60):
        problems.append("a count is outside the contract's limits")
    return problems


def check_results(definition: dict, results: list[dict]) -> list[str]:
    problems = []
    by_run = {(r["workload"], r["trace"]): r for r in results}
    for workload in (w["name"] for w in definition["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            run = by_run.get((workload, trace))
            if run is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            where = f"{workload} trace={trace}"
            if not run["correct"]:
                problems.append(f"{where}: incorrect")
            if run["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            declared = {m["name"]: m["unit"] for m in definition[section]}
            if set(run["metrics"]) != set(declared):
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(run['metrics']) ^ set(declared))}"
                )
            for name, unit in declared.items():
                got = run["metrics"].get(name, {})
                value = got.get("value")
                if got.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {got.get('unit')!r} != {unit!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
                elif trace == 0 and value == 0:
                    problems.append(f"{where}: end-to-end metric {name} is 0")

        layer = by_run.get((workload, 1), {}).get("metrics", {})

        def value(name: str) -> float:
            return layer.get(name, {}).get("value", math.nan)

        live = workload == "live-16n"
        if not value("trace.unattributed_frac") <= 0.05:
            problems.append(
                f"{workload}: {value('trace.unattributed_frac'):.1%} of the traced "
                f"time is not attributed to a layer"
            )
        for name in ("proto.encode_calls", "proto.decode_calls",
                     "serve.frames_sent", "serve.scheduler_events"):
            if (value(name) > 0) != live:
                problems.append(f"{workload}: {name} = {value(name)}")
        if (value("sim.events") > 0) == live:
            problems.append(f"{workload}: sim.events = {value('sim.events')}")
        if (value("db.insert_calls") > 0) != (workload == "sim-churn-feed"):
            problems.append(f"{workload}: db.insert_calls = {value('db.insert_calls')}")
    return problems


def main() -> int:
    started = time.perf_counter()
    definition = load_definition()
    problems = check_definition(definition)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "selftest.json"
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if child.returncode != 0:
        problems.append(f"run.py --quick exited {child.returncode}:\n{child.stdout[-2000:]}")
    else:
        with open(out, encoding="utf-8") as handle:
            problems += check_results(definition, json.load(handle)["results"])
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"selftest took {elapsed:.0f} s (limit 60 s)")
    for problem in problems:
        print(f"FAIL: {problem}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problem(s)'} "
          f"in {elapsed:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

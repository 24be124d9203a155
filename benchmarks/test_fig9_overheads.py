"""Figure 9: Seaweed's packet-level overheads on the enterprise trace.

Four panels, all from full packet-level deployments:

(a) overhead over time per online endsystem, split into MSPastry /
    Seaweed maintenance / Seaweed query (paper at 20,000 endsystems:
    total mean 69 B/s, maintenance dominant);
(b) the cumulative distribution of per-endsystem-hour bandwidth
    (paper: p99 = 178 B/s tx, evenly distributed);
(c) insensitivity to the endsystemId assignment (paper: five runs
    visually indistinguishable);
(d) overhead vs N: maintenance O(1) per endsystem, query and Pastry
    O(log N), plus predictor latency (paper: 3.1 s at 2,000 endsystems
    to 12.0 s at 51,663).

Populations are scaled down (Python event-loop budget; see DESIGN.md):
shapes and per-endsystem quantities are asserted rather than absolutes.
"""

from dataclasses import replace

import numpy as np

from benchmarks.conftest import overhead_scale
from repro.core.deployment import Deployment
from repro.harness.overhead import run_overhead_experiment
from repro.harness.reporting import format_table, summarize_distribution
from repro.net.stats import CATEGORY_MAINTENANCE, CATEGORY_OVERLAY, CATEGORY_QUERY


def test_fig9a_overhead_breakdown(benchmark):
    scale = overhead_scale()
    deployment = Deployment(
        population=scale["base_population"], horizon=scale["duration"], seed=7,
        live_feed=True,
    )
    result = benchmark.pedantic(
        run_overhead_experiment, args=(deployment,), rounds=1, iterations=1
    )

    print()
    rows = [
        ("MSPastry", f"{result.tx_by_category[CATEGORY_OVERLAY]:.1f}",
         f"{result.rx_by_category[CATEGORY_OVERLAY]:.1f}"),
        ("Seaweed maintenance", f"{result.tx_by_category[CATEGORY_MAINTENANCE]:.1f}",
         f"{result.rx_by_category[CATEGORY_MAINTENANCE]:.1f}"),
        ("Seaweed query", f"{result.tx_by_category[CATEGORY_QUERY]:.1f}",
         f"{result.rx_by_category[CATEGORY_QUERY]:.1f}"),
        ("total", f"{result.mean_tx:.1f}", f"{result.mean_rx:.1f}"),
    ]
    print(
        format_table(
            ["component", "tx B/s per online es", "rx B/s per online es"],
            rows,
            title=(
                f"Fig 9(a) — overhead breakdown, N={result.num_endsystems} "
                f"(paper: 69 B/s total at N=20,000)"
            ),
        )
    )
    print(f"predictor latency: {result.predictor_latency}")
    print(f"completeness over time: {result.completeness}")

    # Shape: maintenance dominates; query traffic is far below it.
    maintenance = result.tx_by_category[CATEGORY_MAINTENANCE]
    query = result.tx_by_category[CATEGORY_QUERY]
    assert maintenance > result.tx_by_category[CATEGORY_OVERLAY]
    assert query < maintenance / 3
    # Order of magnitude: tens to a few hundred bytes/s per endsystem.
    assert 5.0 < result.mean_tx < 2000.0
    # Fig 9(b): distribution across endsystem-hours.
    stats = summarize_distribution(result.tx_samples)
    print(
        format_table(
            ["stat", "tx B/s"],
            [(k, f"{v:.1f}" if k != "zeros" else f"{v:.2f}") for k, v in stats.items()],
            title="Fig 9(b) — per-endsystem-hour bandwidth distribution",
        )
    )
    # The zero fraction is the mean unavailability (paper's y-intercept).
    assert 0.05 < stats["zeros"] < 0.45
    # Load is evenly distributed: p99 within a small factor of the mean
    # over non-zero samples (paper: 178 B/s p99 vs 69 B/s mean).
    nonzero = result.tx_samples[result.tx_samples > 0]
    assert np.percentile(nonzero, 99) < 30 * nonzero.mean()
    # Incremental results should be flowing by the later checkpoints.
    assert result.completeness[-1][1] > 0


def test_fig9c_id_assignment_insensitivity(benchmark):
    scale = overhead_scale()
    base = Deployment(
        population=max(100, scale["base_population"] // 2),
        horizon=scale["duration"] / 2,
        seed=7,
        live_feed=True,
    )

    def sweep():
        # Identical runs differing only in endsystemId assignment.
        return {
            id_seed: run_overhead_experiment(replace(base, id_seed=id_seed))
            for id_seed in scale["id_seeds"]
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    means = {seed: result.mean_tx for seed, result in results.items()}
    print()
    print(
        format_table(
            ["id seed", "mean tx B/s per online es"],
            [(seed, f"{mean:.2f}") for seed, mean in means.items()],
            title="Fig 9(c) — endsystemId assignment sensitivity",
        )
    )
    values = np.array(list(means.values()))
    spread = (values.max() - values.min()) / values.mean()
    print(f"relative spread: {spread:.3f}")
    # Paper: the five CDFs are visually indistinguishable.
    assert spread < 0.25


def test_fig9d_scaling_with_population(benchmark):
    scale = overhead_scale()
    base = Deployment(horizon=scale["duration"] / 2, seed=7, live_feed=True)

    def sweep():
        return {
            population: run_overhead_experiment(replace(base, population=population))
            for population in scale["scaling_populations"]
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for population, result in results.items():
        rows.append(
            (
                population,
                f"{result.tx_by_category[CATEGORY_OVERLAY]:.1f}",
                f"{result.tx_by_category[CATEGORY_MAINTENANCE]:.1f}",
                f"{result.tx_by_category[CATEGORY_QUERY]:.2f}",
                "-" if result.predictor_latency is None
                else f"{result.predictor_latency:.1f}s",
            )
        )
    print()
    print(
        format_table(
            ["N", "pastry B/s", "maintenance B/s", "query B/s", "pred latency"],
            rows,
            title="Fig 9(d) — per-endsystem overhead vs N "
                  "(paper: maintenance O(1), others O(log N))",
        )
    )

    populations = sorted(results)
    smallest, largest = results[populations[0]], results[populations[-1]]
    growth = populations[-1] / populations[0]
    # Maintenance per endsystem is O(1): grows far slower than N.
    maintenance_ratio = (
        largest.tx_by_category[CATEGORY_MAINTENANCE]
        / max(1e-9, smallest.tx_by_category[CATEGORY_MAINTENANCE])
    )
    assert maintenance_ratio < growth / 1.5
    # Predictor latency stays in seconds (paper: 3.1 s - 12.0 s).
    for result in results.values():
        assert result.predictor_latency is not None
        assert result.predictor_latency < 60.0

"""Ablation benchmarks for Seaweed's design parameters.

Not figures from the paper, but the design trade-offs its §3-§4 discuss
qualitatively, measured on the same packet-level deployment:

* metadata replication factor k — maintenance bandwidth vs how many
  offline endsystems the completeness predictor still covers;
* summary push period — the dominant maintenance cost knob (§4.3.3
  notes the histogram push dominates Fig. 9a);
* result-tree vertex backups m — replication traffic paid for
  failure-resilient exactly-once aggregation.
"""

from repro.core.config import SeaweedConfig
from repro.core.deployment import Deployment
from repro.harness.overhead import run_overhead_experiment
from repro.harness.reporting import format_table
from repro.net.stats import CATEGORY_MAINTENANCE, CATEGORY_QUERY

POPULATION = 140
DURATION = 3 * 3600.0


def run_with(config: SeaweedConfig, seed: int = 3):
    deployment = Deployment(
        population=POPULATION,
        horizon=DURATION,
        seed=seed,
        num_profiles=20,
        config=config,
    )
    return run_overhead_experiment(deployment, sample_checkpoints=(60.0,))


def test_ablation_metadata_replication_factor(benchmark):
    def sweep():
        results = {}
        for k in (2, 4, 8):
            results[k] = run_with(SeaweedConfig(metadata_replicas=k))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (k, f"{result.tx_by_category[CATEGORY_MAINTENANCE]:.1f}")
        for k, result in results.items()
    ]
    print()
    print(
        format_table(
            ["k", "maintenance tx B/s per online es"],
            rows,
            title="Ablation — metadata replication factor",
        )
    )
    # Maintenance cost grows with k (each push fans out to k replicas)...
    assert (
        results[8].tx_by_category[CATEGORY_MAINTENANCE]
        > 1.5 * results[2].tx_by_category[CATEGORY_MAINTENANCE]
    )
    # ...roughly linearly, as the analytic model (Eq. 2) predicts.
    ratio = (
        results[8].tx_by_category[CATEGORY_MAINTENANCE]
        / results[2].tx_by_category[CATEGORY_MAINTENANCE]
    )
    assert 1.5 < ratio < 8.0


def test_ablation_summary_push_period(benchmark):
    def sweep():
        results = {}
        for minutes in (5.0, 17.5, 60.0):
            config = SeaweedConfig(summary_push_period=minutes * 60.0)
            results[minutes] = run_with(config)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (f"{minutes:g} min", f"{result.tx_by_category[CATEGORY_MAINTENANCE]:.1f}")
        for minutes, result in results.items()
    ]
    print()
    print(
        format_table(
            ["push period", "maintenance tx B/s per online es"],
            rows,
            title="Ablation — summary push period (paper default 17.5 min)",
        )
    )
    # Push cost scales inversely with the period.
    assert (
        results[5.0].tx_by_category[CATEGORY_MAINTENANCE]
        > 2 * results[17.5].tx_by_category[CATEGORY_MAINTENANCE]
    )
    assert (
        results[17.5].tx_by_category[CATEGORY_MAINTENANCE]
        > 1.5 * results[60.0].tx_by_category[CATEGORY_MAINTENANCE]
    )


def test_ablation_vertex_backups(benchmark):
    def sweep():
        none = run_with(SeaweedConfig(vertex_backups=0))
        paper = run_with(SeaweedConfig(vertex_backups=3))
        return none, paper

    none, paper = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["m (backups)", "query tx B/s per online es", "final rows"],
            [
                ("0", f"{none.tx_by_category[CATEGORY_QUERY]:.2f}",
                 none.completeness[-1][1] if none.completeness else 0),
                ("3 (paper)", f"{paper.tx_by_category[CATEGORY_QUERY]:.2f}",
                 paper.completeness[-1][1] if paper.completeness else 0),
            ],
            title="Ablation — result-tree vertex replication",
        )
    )
    # Replicating vertex state costs query-category bandwidth...
    assert (
        paper.tx_by_category[CATEGORY_QUERY]
        > none.tx_by_category[CATEGORY_QUERY]
    )
    # ...but both configurations deliver results in this benign run.
    assert none.completeness[-1][1] > 0
    assert paper.completeness[-1][1] > 0

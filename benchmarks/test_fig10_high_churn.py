"""Figure 10: Seaweed overhead under Gnutella-grade churn.

The paper repeats the overhead experiment on a 60-hour Gnutella trace
(7,602 endsystems, departure rate 9.46e-5 /online-es/s — 23x Farsite)
and finds the mean overhead grows only ~7x (to 472 B/s, p99 1,515 B/s):
churn-driven re-replication costs metadata, not data.

We run both environments at equal (scaled-down) population and assert
the sublinear overhead growth.
"""

from benchmarks.conftest import overhead_scale
from repro.core.deployment import Deployment
from repro.harness.overhead import run_overhead_experiment
from repro.harness.reporting import format_table, summarize_distribution


def test_fig10_high_churn_overhead(benchmark):
    scale = overhead_scale()
    population = max(120, scale["base_population"] // 2)
    duration = scale["duration"]

    farsite_deployment = Deployment(
        "farsite", population=population, horizon=duration, seed=7,
        live_feed=True,
    )
    gnutella_deployment = Deployment(
        "gnutella", population=population, horizon=duration, seed=7,
        live_feed=True,
    )

    def run_both():
        return (
            run_overhead_experiment(farsite_deployment),
            run_overhead_experiment(gnutella_deployment),
        )

    farsite, gnutella = benchmark.pedantic(run_both, rounds=1, iterations=1)

    farsite_trace = farsite_deployment.trace_set()
    gnutella_trace = gnutella_deployment.trace_set()
    departure_ratio = gnutella_trace.departure_rate() / max(
        1e-12, farsite_trace.departure_rate()
    )
    overhead_ratio = gnutella.mean_tx / max(1e-9, farsite.mean_tx)

    print()
    rows = [
        ("mean tx B/s per online es", f"{farsite.mean_tx:.1f}",
         f"{gnutella.mean_tx:.1f}", "69 -> 472 (7x)"),
        ("p99 tx B/s", f"{farsite.tx_percentile(99):.1f}",
         f"{gnutella.tx_percentile(99):.1f}", "178 -> 1,515"),
        ("departure rate /online-es/s",
         f"{farsite_trace.departure_rate():.2e}",
         f"{gnutella_trace.departure_rate():.2e}", "4.06e-6 -> 9.46e-5 (23x)"),
    ]
    print(
        format_table(
            ["metric", "farsite", "gnutella", "paper"],
            rows,
            title=f"Fig 10 — overhead under high churn (N={population})",
        )
    )
    print(f"departure ratio: {departure_ratio:.1f}x, overhead ratio: {overhead_ratio:.1f}x")
    stats = summarize_distribution(gnutella.tx_samples)
    print(
        format_table(
            ["stat", "tx B/s"],
            [(k, f"{v:.1f}" if k != "zeros" else f"{v:.2f}") for k, v in stats.items()],
            title="Fig 10(b) — gnutella per-endsystem-hour bandwidth",
        )
    )

    # Churn costs more...
    assert gnutella.mean_tx > farsite.mean_tx
    # ...but sublinearly: the overhead ratio is well below the departure
    # rate ratio (paper: 7x vs 23x).
    assert overhead_ratio < departure_ratio
    # The gnutella zero fraction reflects its much lower availability.
    assert stats["zeros"] > 0.3

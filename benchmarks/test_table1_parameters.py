"""Table 1: model parameters.

Regenerates the parameter table and validates the Seaweed-derived
entries against our own implementation: the availability model really
serializes to ~48 bytes, and an Anemone endsystem's five indexed-column
histograms really come to kilobytes (the paper: 6,473 bytes).
"""

import numpy as np

from repro.analysis.parameters import TABLE1, table1_rows
from repro.core.availability_model import AvailabilityModel
from repro.core.config import SeaweedConfig
from repro.core.metadata import EndsystemMetadata
from repro.harness.reporting import format_table
from repro.proto import codec


def test_table1_parameters(anemone_dataset, benchmark):
    def build_measured():
        database = anemone_dataset.database(0)
        metadata = EndsystemMetadata.build(
            owner=0, database=database, availability=AvailabilityModel()
        )
        return metadata

    metadata = benchmark.pedantic(build_measured, rounds=1, iterations=1)

    print()
    print(format_table(["var", "description", "value", "source"], table1_rows(),
                       title="Table 1 — model parameters (paper values)"))

    summary_sizes = []
    for database in anemone_dataset.databases[:50]:
        m = EndsystemMetadata.build(owner=0, database=database,
                                    availability=AvailabilityModel())
        summary_sizes.append(codec.summary_size(m))
    availability_bytes = codec.metadata_size(metadata) - codec.summary_size(metadata)
    rows = [
        ("h (summary bytes, ours)", f"{np.mean(summary_sizes):,.0f}", "6,473"),
        ("a (availability model bytes)", availability_bytes, "48"),
        ("histograms per endsystem",
         sum(len(cols) for cols in metadata.summaries.values()), "5 (Flow)"),
        ("d (database bytes, ours)",
         f"{anemone_dataset.mean_database_bytes():,.0f}",
         "2.6e9 (1 month full capture)"),
    ]
    print(format_table(["quantity", "measured", "paper"], rows,
                       title="Table 1 — measured Seaweed constants"))

    assert availability_bytes == codec.AVAILABILITY == 48
    # Same order of magnitude as the paper's 6,473-byte summary.
    assert 500 <= np.mean(summary_sizes) <= 60_000
    # Flow contributes 5 histograms, Packet contributes its own.
    assert len(metadata.summaries["flow"]) == 5


def test_table1_parameter_object():
    assert TABLE1.num_endsystems == 300_000
    assert TABLE1.fraction_online == 0.81
    assert TABLE1.summary_size == 6_473
    # The model pushes at the simulation's rate, not Table 1's stated
    # 0.033/s (30 s), which contradicts the paper's Figure 3 and §4.3
    # (DESIGN.md §6.6); the table itself still quotes the paper.
    assert TABLE1.push_rate == 1.0 / SeaweedConfig().summary_push_period
    [push_row] = [row for row in table1_rows() if row[0] == "p"]
    assert push_row[2] == "0.033 /s"

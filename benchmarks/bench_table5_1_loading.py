"""Table 5.1 — starting and bulk loading a MPPDB.

Prints the calibrated model's startup-and-init and bulk-load times next to
the paper's measurements for the five table rows, plus the aggregate load
rate (the paper reports ~1.2 GB/min).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.mppdb.loading import LoadTimeModel, PAPER_LOAD_TABLE
from repro.units import format_duration, format_size_gb


def test_table5_1_loading():
    model = LoadTimeModel()

    def experiment():
        rows = []
        for nodes, (data_gb, paper_startup, paper_load) in sorted(PAPER_LOAD_TABLE.items()):
            rows.append(
                [
                    f"{nodes}-node / {format_size_gb(data_gb)}",
                    round(model.startup_seconds(nodes)),
                    round(paper_startup),
                    round(model.bulk_load_seconds(data_gb)),
                    round(paper_load),
                ]
            )
        return rows

    rows = experiment()
    print()
    print(
        format_table(
            ["tenant/data", "start_model_s", "start_paper_s", "load_model_s", "load_paper_s"],
            rows,
            title="Table 5.1: starting and bulk loading a MPPDB (model vs paper)",
        )
    )
    rate_gb_min = model.load_rate_gb_s() * 60
    print(f"aggregate parallel load rate: {rate_gb_min:.2f} GB/min (paper: ~1.2)")
    total = model.provision_seconds(10, 1024.0)
    print(f"10-node / 1TB time-to-ready: {format_duration(total)} (paper: ~14.5h)")
    for row in rows:
        __, start_model, start_paper, load_model, load_paper = row
        assert abs(start_model - start_paper) <= 0.11 * start_paper
        assert abs(load_model - load_paper) <= 0.03 * load_paper

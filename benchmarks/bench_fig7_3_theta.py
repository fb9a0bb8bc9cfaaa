"""Figure 7.3 — varying the tenant-size distribution skew theta.

Paper shape: the 2-step heuristic's effectiveness is insensitive to theta
(its first step isolates the size classes), while FFD — whose ordering
ignores the largest item — moves around much more; theta also mildly
affects the 2-step run time through the size of the biggest initial group.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.sweeps import GROUPING_HEADERS, sweep_parameter
from repro.config import PAPER_THETAS


def test_fig7_3_varying_theta(scale):
    def experiment():
        return sweep_parameter("theta", list(PAPER_THETAS), scale=scale)

    rows = experiment()
    print()
    print(
        format_table(
            GROUPING_HEADERS,
            [r.as_list() for r in rows],
            title="Figure 7.3: varying tenant distribution theta",
        )
    )
    two_step = [r.two_step_effectiveness for r in rows]
    ffd = [r.ffd_effectiveness for r in rows]
    # (a) the 2-step heuristic is less influenced by theta than FFD.
    assert np.std(two_step) <= np.std(ffd) + 0.01
    assert max(two_step) - min(two_step) < 0.12
    # 2-step beats FFD at every theta.
    assert all(r.advantage_points > 0.0 for r in rows)

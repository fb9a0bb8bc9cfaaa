"""Figure 1.1 — query performance in a shared-process MPPDB.

Panel (a): TPC-H Q1 speedup vs node count for 1T, 2T-SEQ, 2T-CON, 4T-SEQ,
4T-CON.  SEQ lines track the single-tenant line (shared-process overhead is
negligible for non-overlapping tenants); CON lines are 2x / 4x slower.

Panel (b): Q1 latency points A (2-node dedicated), B (one active tenant on
a shared 6-node MPPDB) and C (two active tenants on the 6-node MPPDB) with
B < C <= A — the second consolidation opportunity.

Panel (c): TPC-H Q19's non-linear scale-out.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.mppdb.execution import ExecutionEngine
from repro.simulation.engine import Simulator
from repro.workload.tpch import tpch_template

_NODES = (1, 2, 4, 8)
_DATA_GB = 100.0  # SF100 per tenant, as in §1.1


def _concurrent_latency(template, nodes: int, tenants: int) -> float:
    """Average latency when `tenants` tenants submit the query together."""
    sim = Simulator()
    engine = ExecutionEngine(sim)
    work = template.dedicated_latency_s(_DATA_GB, nodes)
    executions = [engine.submit(tenant_id=t, work_s=work) for t in range(tenants)]
    sim.run()
    return sum(e.latency_s for e in executions) / len(executions)


def _sequential_latency(template, nodes: int, tenants: int) -> float:
    """Average latency when tenants submit one after the other."""
    sim = Simulator()
    engine = ExecutionEngine(sim)
    work = template.dedicated_latency_s(_DATA_GB, nodes)
    latencies = []
    for t in range(tenants):
        execution = engine.submit(tenant_id=t, work_s=work)
        sim.run()
        latencies.append(execution.latency_s)
    return sum(latencies) / len(latencies)


def _speedup_rows(template):
    base = _concurrent_latency(template, 1, 1)
    rows = []
    for nodes in _NODES:
        rows.append(
            [
                nodes,
                round(base / _sequential_latency(template, nodes, 1), 2),
                round(base / _sequential_latency(template, nodes, 2), 2),
                round(base / _concurrent_latency(template, nodes, 2), 2),
                round(base / _sequential_latency(template, nodes, 4), 2),
                round(base / _concurrent_latency(template, nodes, 4), 2),
            ]
        )
    return rows


def test_fig1_1a_q1_speedup():
    q1 = tpch_template(1)

    def experiment():
        return _speedup_rows(q1)

    rows = experiment()
    print()
    print(
        format_table(
            ["nodes", "1T", "2T-SEQ", "2T-CON", "4T-SEQ", "4T-CON"],
            rows,
            title="Figure 1.1a: TPC-H Q1 speedup (vs 1-node single tenant)",
        )
    )
    # Shape assertions: SEQ tracks 1T; CON is ~2x / ~4x slower.
    for row in rows:
        __, one_t, seq2, con2, seq4, con4 = row
        assert abs(seq2 - one_t) < 0.01 * one_t + 0.01
        assert abs(con2 - one_t / 2) < 0.05 * one_t
        assert abs(con4 - one_t / 4) < 0.05 * one_t


def test_fig1_1b_q1_latency_points():
    q1 = tpch_template(1)

    def experiment():
        point_a = _concurrent_latency(q1, 2, 1)  # dedicated 2-node
        point_b = _concurrent_latency(q1, 6, 1)  # 1 active on shared 6-node
        point_c = _concurrent_latency(q1, 6, 2)  # 2 active on shared 6-node
        return point_a, point_b, point_c

    point_a, point_b, point_c = experiment()
    print()
    print(
        format_table(
            ["point", "setting", "latency_s"],
            [
                ["A", "dedicated 2-node, 1 active", round(point_a, 2)],
                ["B", "shared 6-node, 1 active", round(point_b, 2)],
                ["C", "shared 6-node, 2 active", round(point_c, 2)],
            ],
            title="Figure 1.1b: Q1 latency (SLA = A seconds)",
        )
    )
    assert point_b < point_c <= point_a + 1e-9


def test_fig1_1c_q19_nonlinear():
    q19 = tpch_template(19)

    def experiment():
        base = _concurrent_latency(q19, 1, 1)
        return [
            [nodes, round(base / _concurrent_latency(q19, nodes, 1), 2)]
            for nodes in _NODES
        ]

    rows = experiment()
    print()
    print(
        format_table(
            ["nodes", "speedup"],
            rows,
            title="Figure 1.1c: TPC-H Q19 speedup (non-linear scale-out)",
        )
    )
    # Q19 speedup is clearly sublinear at 8 nodes.
    assert rows[-1][1] < 0.7 * _NODES[-1]
    # Consequence (Ch.1): the 6-node trick of Fig 1.1b fails for Q19 —
    # two concurrent Q19s on 6 nodes are slower than dedicated 2-node.
    assert _concurrent_latency(q19, 6, 2) > _concurrent_latency(q19, 2, 1)

"""Ablation — the Chapter 8 divergent design for template-known tenants.

The paper's future work: tenants that never submit ad-hoc queries (their
templates are extractable) get a specialized tenant-driven *divergent*
design — ``U > n_1`` upfront plus per-replica partition schemes — so
overflow concurrency on ``MPPDB_0`` meets the SLA even for non-linear
queries, the case where plain TDD's manual tuning is provably impossible
(``recommended_tuning_nodes`` diverges for Amdahl queries at MPL >= 1/s).

The experiment runs MPL-2 overflow of each known template on ``MPPDB_0``
under the standard design (U = n) and the divergent design (sized U,
favoured-template speedup) and reports the worst normalized latency.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.divergent import DivergentDesigner, template_serial_fraction
from repro.errors import ConfigurationError
from repro.core.tuning import recommended_tuning_nodes
from repro.mppdb.execution import ExecutionEngine
from repro.simulation.engine import Simulator
from repro.workload.tenant import TenantSpec
from repro.workload.tpch import tpch_template

_NODES = 4
_MPL = 2
_TEMPLATES = [tpch_template(1), tpch_template(6), tpch_template(17), tpch_template(19)]


def _tenants(count=6):
    return [
        TenantSpec(tenant_id=i, nodes_requested=_NODES, data_gb=_NODES * 100.0)
        for i in range(1, count + 1)
    ]


def _worst_concurrent_normalized(template, tuning_nodes, speedup):
    """Normalized latency of MPL-2 concurrent execution on MPPDB_0."""
    sim = Simulator()
    engine = ExecutionEngine(sim)
    data_gb = _NODES * 100.0
    target = template.dedicated_latency_s(data_gb, _NODES)
    work = template.dedicated_latency_s(data_gb, tuning_nodes) / speedup
    executions = [engine.submit(tenant_id=t, work_s=work) for t in range(_MPL)]
    sim.run()
    return max(e.latency_s for e in executions) / target


def test_ablation_divergent_design():
    designer = DivergentDesigner(divergence_speedup=1.5)

    def experiment():
        divergent = designer.design_group(
            "dg0", _tenants(), _TEMPLATES, num_instances=3, absorbed_concurrency=_MPL
        )
        rows = []
        for template in _TEMPLATES:
            serial = template_serial_fraction(template)
            standard = _worst_concurrent_normalized(template, _NODES, 1.0)
            favoured = divergent.favoured_replica(template.name) == "dg0/mppdb0"
            diverged = _worst_concurrent_normalized(
                template,
                divergent.design.tuning_parallelism,
                designer.divergence_speedup if favoured else 1.0,
            )
            try:
                plain_u = recommended_tuning_nodes(_NODES, _MPL, serial)
            except ConfigurationError:
                plain_u = None
            rows.append([template.name, round(serial, 3), round(standard, 2),
                         round(diverged, 2), plain_u if plain_u is not None else "impossible"])
        return divergent, rows

    divergent, rows = experiment()
    print()
    print(
        format_table(
            ["template", "serial_frac", "standard_norm", "divergent_norm", "plain_U_needed"],
            rows,
            title=(
                f"Divergent design: MPL-{_MPL} overflow on MPPDB_0 "
                f"(n={_NODES}, U={divergent.design.tuning_parallelism}, "
                f"speedup={designer.divergence_speedup})"
            ),
        )
    )
    print(f"divergent group nodes: {divergent.total_nodes} "
          f"(standard TDD: {3 * _NODES})")
    # Standard design: every template misses the SLA at MPL 2 (2x slower).
    assert all(row[2] > 1.5 for row in rows)
    # Divergent design: every template, including the Amdahl ones whose
    # plain manual tuning is impossible, meets the SLA.
    assert all(row[3] <= 1.0 + 1e-9 for row in rows)
    # And it pays for this with a bounded number of extra nodes upfront.
    assert divergent.total_nodes < 3 * _NODES + 3 * _NODES

"""Exception hierarchy for the Thrifty reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without also swallowing programming errors.  The
subclasses mirror the layers of the system: configuration, workload
generation, the MPPDB simulator, optimization/packing, and the run-time
service components.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "WorkloadError",
    "SimulationError",
    "ClusterError",
    "MPPDBError",
    "TenantNotHostedError",
    "InstanceNotReadyError",
    "CapacityError",
    "PackingError",
    "InfeasiblePackingError",
    "RoutingError",
    "NoHealthyInstanceError",
    "DeploymentError",
    "ScalingError",
    "FaultError",
    "RetriesExhaustedError",
    "FailoverDeadlineError",
    "ParallelError",
    "LintError",
    "ObservabilityError",
]


class ReproError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A parameter value is out of its documented range or inconsistent."""


class WorkloadError(ReproError):
    """Tenant log generation or composition failed."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. time travel)."""


class ClusterError(ReproError):
    """Machine-pool level failure (allocation, release, failure handling)."""


class MPPDBError(ReproError):
    """MPPDB simulator level failure."""


class TenantNotHostedError(MPPDBError):
    """A query was submitted for a tenant whose data is not on the instance."""


class InstanceNotReadyError(MPPDBError):
    """An operation requires a started and loaded MPPDB instance."""


class CapacityError(ClusterError):
    """The machine pool cannot satisfy an allocation request."""


class PackingError(ReproError):
    """Tenant-grouping / bin-packing level failure."""


class InfeasiblePackingError(PackingError):
    """A tenant cannot satisfy the fuzzy-capacity constraint even alone.

    Raised when a single tenant is active in more than ``(100 - P)%`` of
    epochs at replication factor ``R`` — the paper excludes such always-on
    tenants from consolidation (Chapter 3, footnote 1); the caller is
    expected to divert them to a dedicated service plan instead.
    """


class RoutingError(ReproError):
    """The query router was asked to route against an invalid deployment."""


class NoHealthyInstanceError(RoutingError):
    """Every instance hosting the tenant is degraded, down, or provisioning.

    Distinct from the base :class:`RoutingError` (tenant not deployed at
    all) so the fault-tolerance plane can queue the query until a replica
    recovers instead of treating it as a configuration error.
    """


class DeploymentError(ReproError):
    """Deployment advisor / master level failure."""


class ScalingError(ReproError):
    """Elastic-scaling level failure."""


class FaultError(ReproError):
    """A query could not be completed despite fault handling."""


class RetriesExhaustedError(FaultError):
    """A query was aborted by node failures more times than the retry cap."""


class FailoverDeadlineError(FaultError):
    """A query queued for a healthy replica ran out its graceful-degradation deadline."""


class ParallelError(ReproError):
    """:func:`repro.parallel.ordered_map` was misused or its workers crashed twice."""


class LintError(ReproError):
    """The :mod:`repro.tools.lint` static-analysis pass was misused."""


class ObservabilityError(ReproError):
    """The :mod:`repro.obs` metrics/tracing layer was used incorrectly."""

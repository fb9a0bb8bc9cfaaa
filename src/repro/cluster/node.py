"""Machine nodes.

The paper's experimental nodes are Amazon EC2 Extra Large instances
("15 GB memory and 8 EC2 Compute Units", §7.2); :data:`DEFAULT_NODE_SPEC`
mirrors that.  Thrifty currently assumes a homogeneous cluster (Chapter 3),
which :class:`~repro.cluster.pool.MachinePool` enforces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

from ..errors import ClusterError

__all__ = ["NodeSpec", "NodeState", "Node", "DEFAULT_NODE_SPEC"]


@dataclass(frozen=True)
class NodeSpec:
    """Static hardware description of one machine node.

    ``relative_speed`` scales query execution on instances built from this
    class (1.0 = the baseline EC2 Extra Large): the hook for the paper's
    first future-work item, heterogeneous clusters.
    """

    cpu_units: int = 8
    ram_gb: float = 15.0
    disk_gb: float = 1690.0
    io_mb_per_s: float = 100.0
    relative_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_units < 1:
            raise ClusterError("cpu_units must be >= 1")
        if self.ram_gb <= 0 or self.disk_gb <= 0 or self.io_mb_per_s <= 0:
            raise ClusterError("ram_gb, disk_gb and io_mb_per_s must be positive")
        if self.relative_speed <= 0:
            raise ClusterError("relative_speed must be positive")


#: EC2 Extra Large, as used in §7.2.
DEFAULT_NODE_SPEC = NodeSpec()


class NodeState(enum.Enum):
    """Lifecycle states of a node."""

    HIBERNATED = "hibernated"
    STARTING = "starting"
    RUNNING = "running"
    FAILED = "failed"


class Node:
    """One machine node: identity, spec, lifecycle state and assignment."""

    #: Legal lifecycle moves; :meth:`_transition` rejects every other edge.
    #: HIBERNATED -> STARTING -> RUNNING, failure from either active state,
    #: and every path back to the pool ends in HIBERNATED.
    _TRANSITIONS: ClassVar[dict[NodeState, frozenset[NodeState]]] = {
        NodeState.HIBERNATED: frozenset({NodeState.STARTING}),
        NodeState.STARTING: frozenset(
            {NodeState.RUNNING, NodeState.FAILED, NodeState.HIBERNATED}
        ),
        NodeState.RUNNING: frozenset({NodeState.FAILED, NodeState.HIBERNATED}),
        NodeState.FAILED: frozenset({NodeState.HIBERNATED}),
    }

    def __init__(
        self, node_id: int, spec: NodeSpec = DEFAULT_NODE_SPEC, node_class: str = "standard"
    ) -> None:
        if node_id < 0:
            raise ClusterError(f"node ids must be non-negative, got {node_id!r}")
        self._node_id = int(node_id)
        self._spec = spec
        self._node_class = node_class
        self._state = NodeState.HIBERNATED
        self._assigned_to: str | None = None

    @property
    def node_class(self) -> str:
        """Hardware class name within a heterogeneous pool."""
        return self._node_class

    @property
    def node_id(self) -> int:
        """Stable integer identity within the pool."""
        return self._node_id

    @property
    def spec(self) -> NodeSpec:
        """Hardware description."""
        return self._spec

    @property
    def state(self) -> NodeState:
        """Current lifecycle state."""
        return self._state

    @property
    def assigned_to(self) -> str | None:
        """Name of the MPPDB instance holding this node, if any."""
        return self._assigned_to

    @property
    def is_available(self) -> bool:
        """True when the node can be handed out by the pool."""
        return self._state == NodeState.HIBERNATED and self._assigned_to is None

    def _transition(self, target: NodeState) -> None:
        """Move to ``target``; raises :class:`ClusterError` on an undeclared edge."""
        if target not in self._TRANSITIONS[self._state]:
            raise ClusterError(
                f"node {self._node_id} cannot go from {self._state.value} to {target.value}"
            )
        self._state = target

    def assign(self, owner: str) -> None:
        """Reserve the node for an MPPDB instance and begin starting it.

        Only a hibernated node can start, and a hibernated node is never
        assigned, so the transition table alone rejects a double assign.
        """
        self._transition(NodeState.STARTING)
        self._assigned_to = owner

    def mark_running(self) -> None:
        """Transition a starting node to running."""
        self._transition(NodeState.RUNNING)

    def fail(self) -> None:
        """Mark the node failed (must currently be starting or running)."""
        self._transition(NodeState.FAILED)

    def release(self) -> None:
        """Return an assigned node to the pool (hibernate it)."""
        self._transition(NodeState.HIBERNATED)
        self._assigned_to = None

    def repair(self) -> None:
        """Repair a failed node back into the available pool."""
        if self._state != NodeState.FAILED:
            raise ClusterError(f"node {self._node_id} is not failed")
        self._transition(NodeState.HIBERNATED)
        self._assigned_to = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self._node_id}, state={self._state.value}, owner={self._assigned_to!r})"

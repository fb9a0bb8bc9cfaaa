"""Instance-level fault-tolerance state machine (DEGRADED/DOWN/recovery)."""

import pytest

from repro.errors import MPPDBError
from repro.mppdb.catalog import TenantData
from repro.mppdb.instance import InstanceState, MPPDBInstance
from repro.simulation.engine import Simulator


def _ready_instance(parallelism=3, node_ids=(10, 11, 12)):
    sim = Simulator()
    instance = MPPDBInstance("tg0/mppdb0", parallelism, sim, node_ids=node_ids)
    instance.deploy_tenant(TenantData(tenant_id=1, data_gb=2.0))
    instance.mark_ready()
    return sim, instance


class TestNodeFailure:
    def test_failure_degrades_ready_instance(self):
        _, instance = _ready_instance()
        instance.record_node_failure(10)
        assert instance.state is InstanceState.DEGRADED
        assert instance.failed_nodes == {10}
        assert not instance.is_ready

    def test_all_nodes_failed_is_down(self):
        _, instance = _ready_instance()
        for node_id in (10, 11, 12):
            instance.record_node_failure(node_id)
        assert instance.state is InstanceState.DOWN
        assert instance.impaired_node_count == 3

    def test_foreign_node_rejected(self):
        _, instance = _ready_instance()
        with pytest.raises(MPPDBError):
            instance.record_node_failure(999)

    def test_abort_running_kills_inflight_queries(self):
        sim, instance = _ready_instance()
        execution = instance.submit_query(1, 100.0)
        sim.run(until=5.0)
        instance.record_node_failure(11)
        aborted = instance.abort_running()
        assert aborted == [execution]
        assert execution.aborted


class TestNodeReplacement:
    def test_replacement_swaps_node_ids(self):
        _, instance = _ready_instance()
        instance.record_node_failure(11)
        instance.begin_node_replacement(11, 42, token=1)
        assert instance.node_ids == (10, 42, 12)
        assert instance.recovering_nodes == {42}
        assert instance.state is InstanceState.DEGRADED

    def test_completion_restores_ready(self):
        _, instance = _ready_instance()
        instance.record_node_failure(11)
        instance.begin_node_replacement(11, 42, token=1)
        assert instance.complete_node_replacement(42, token=1) is True
        assert instance.state is InstanceState.READY
        assert instance.impaired_node_count == 0

    def test_stale_token_rejected(self):
        _, instance = _ready_instance()
        instance.record_node_failure(11)
        instance.begin_node_replacement(11, 42, token=1)
        # The replacement itself fails mid-load; a fresh one is issued.
        instance.record_node_failure(42)
        instance.begin_node_replacement(42, 43, token=2)
        assert instance.complete_node_replacement(42, token=1) is False
        assert instance.state is InstanceState.DEGRADED
        assert instance.complete_node_replacement(43, token=2) is True
        assert instance.state is InstanceState.READY

    def test_replacing_healthy_node_rejected(self):
        _, instance = _ready_instance()
        with pytest.raises(MPPDBError):
            instance.begin_node_replacement(10, 42, token=1)

    def test_partial_recovery_stays_degraded(self):
        _, instance = _ready_instance()
        instance.record_node_failure(10)
        instance.record_node_failure(11)
        instance.begin_node_replacement(10, 40, token=1)
        instance.complete_node_replacement(40, token=1)
        assert instance.state is InstanceState.DEGRADED
        instance.begin_node_replacement(11, 41, token=2)
        instance.complete_node_replacement(41, token=2)
        assert instance.state is InstanceState.READY

    def test_down_instance_recovers_through_replacement(self):
        _, instance = _ready_instance(parallelism=1, node_ids=(10,))
        instance.record_node_failure(10)
        assert instance.state is InstanceState.DOWN
        instance.begin_node_replacement(10, 42, token=1)
        instance.complete_node_replacement(42, token=1)
        assert instance.state is InstanceState.READY


class TestProvisioningFailures:
    def test_mark_ready_lands_degraded_when_impaired(self):
        sim = Simulator()
        instance = MPPDBInstance("tg1/mppdb0", 2, sim, node_ids=(20, 21))
        instance.record_node_failure(20)
        instance.mark_ready()
        assert instance.state is InstanceState.DEGRADED

    def test_degraded_instance_rejects_queries(self):
        _, instance = _ready_instance()
        instance.record_node_failure(10)
        from repro.errors import InstanceNotReadyError

        with pytest.raises(InstanceNotReadyError):
            instance.submit_query(1, 1.0)


class TestTransitionTable:
    def test_undeclared_edge_is_rejected(self):
        _, instance = _ready_instance()
        instance.mark_down()
        with pytest.raises(MPPDBError, match="cannot go from down to degraded"):
            instance._transition(InstanceState.DEGRADED)
        assert instance.state is InstanceState.DOWN

    def test_node_failure_does_not_promote_down_to_degraded(self):
        # Regression: losing another node once DOWN used to land DEGRADED.
        _, instance = _ready_instance()
        instance.record_node_failure(10)
        instance.mark_down()
        instance.record_node_failure(11)
        assert instance.state is InstanceState.DOWN


def _instance_in(state):
    """An instance in ``state``; DEGRADED and DOWN have replacement 42 loading."""
    sim = Simulator()
    instance = MPPDBInstance("tg0/mppdb0", 3, sim, node_ids=(10, 11, 12))
    if state is InstanceState.PROVISIONING:
        return instance
    instance.mark_ready()
    if state in (InstanceState.DEGRADED, InstanceState.DOWN):
        instance.record_node_failure(10)
        instance.begin_node_replacement(10, 42, token=1)
    if state is InstanceState.DOWN:
        instance.mark_down()
    if state is InstanceState.RETIRED:
        instance.retire()
    assert instance.state is state
    return instance


_MUTATORS = {
    "mark_ready": lambda i: i.mark_ready(),
    "retire": lambda i: i.retire(),
    "record_node_failure": lambda i: i.record_node_failure(11),
    "mark_down": lambda i: i.mark_down(),
    "begin_node_replacement": lambda i: i.begin_node_replacement(11, 43, token=2),
    "complete_node_replacement": lambda i: i.complete_node_replacement(42, token=1),
}

_ROUTES_TO_READY = {
    (InstanceState.PROVISIONING, "mark_ready"),
    (InstanceState.DEGRADED, "complete_node_replacement"),
    (InstanceState.DOWN, "complete_node_replacement"),
}


@pytest.mark.parametrize("mutator", sorted(_MUTATORS))
@pytest.mark.parametrize("state", list(InstanceState), ids=lambda s: s.name)
def test_every_mutator_from_every_state_follows_the_table(state, mutator):
    instance = _instance_in(state)
    try:
        _MUTATORS[mutator](instance)
    except MPPDBError:
        assert instance.state is state
    after = instance.state
    assert after is state or after in MPPDBInstance._TRANSITIONS[state]
    reached_ready = after is InstanceState.READY and state is not InstanceState.READY
    assert reached_ready == ((state, mutator) in _ROUTES_TO_READY)

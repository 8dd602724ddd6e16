"""Tests for transactional cluster state."""

import pytest

from repro.cluster.node import CapacityError
from repro.cluster.replicas import ReplicaError
from repro.cluster.state import ClusterState
from repro.core.metrics import InvariantViolation


class TestServe:
    def test_serve_places_replica_and_allocates(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        node = tiny_instance.placement_nodes[4]
        assignment = state.serve(query, dataset, node)
        assert assignment.node == node
        assert state.replicas.has(0, node)
        assert state.nodes[node].allocated_ghz == pytest.approx(
            dataset.volume_gb * query.compute_rate
        )

    def test_serve_at_origin_consumes_no_slot(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        before = state.replicas.count(0)
        state.serve(query, dataset, dataset.origin_node)
        assert state.replicas.count(0) == before

    def test_serve_rejects_deadline_violation(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        # Shrink the deadline below any achievable latency.
        import dataclasses

        tight = dataclasses.replace(query, deadline_s=1e-9)
        with pytest.raises(ValueError, match="deadline"):
            state.serve(tight, tiny_instance.dataset(0), tiny_instance.placement_nodes[0])

    def test_serve_rolls_back_replica_on_capacity_error(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(1)
        dataset = tiny_instance.dataset(1)
        node = tiny_instance.placement_nodes[4]
        # Fill the node first.
        state.nodes[node].allocate("filler", state.nodes[node].available_ghz)
        with pytest.raises(CapacityError):
            state.serve(query, dataset, node)
        assert not state.replicas.has(1, node)

    def test_release_returns_compute(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        node = dataset.origin_node
        assignment = state.serve(query, dataset, node)
        state.release(assignment)
        assert state.nodes[node].allocated_ghz == 0.0

    def test_k_exhaustion_raises(self, tiny_instance):
        state = ClusterState(tiny_instance)  # K = 2
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        nodes = [
            v for v in tiny_instance.placement_nodes if v != dataset.origin_node
        ]
        state.replicas.place(0, nodes[0])  # slot 2 of 2 used
        with pytest.raises(ReplicaError):
            state.serve(query, dataset, nodes[1])


class TestFeasibilityHelpers:
    def test_compute_demand(self, tiny_instance):
        state = ClusterState(tiny_instance)
        q = tiny_instance.query(2)
        d = tiny_instance.dataset(1)
        assert state.compute_demand(q, d) == pytest.approx(4.0 * 1.2)

    def test_can_serve_consistent_with_serve(self, tiny_instance):
        state = ClusterState(tiny_instance)
        for q in tiny_instance.queries:
            for d_id in q.demanded:
                d = tiny_instance.dataset(d_id)
                for v in tiny_instance.placement_nodes:
                    if state.can_serve(q, d, v):
                        with state.transaction():
                            state.serve(q, d, v)  # must not raise
                        break

    def test_reserved_fraction(self, tiny_instance):
        state = ClusterState(tiny_instance, reserved_fraction=0.5)
        for v, node in state.nodes.items():
            assert node.available_ghz == pytest.approx(
                0.5 * tiny_instance.topology.capacity(v)
            )

    def test_bad_reserved_fraction(self, tiny_instance):
        with pytest.raises(ValueError):
            ClusterState(tiny_instance, reserved_fraction=1.0)


class TestTransaction:
    def test_rollback_restores_everything(self, tiny_instance):
        state = ClusterState(tiny_instance)
        node = tiny_instance.placement_nodes[5]
        with state.transaction():
            state.serve(tiny_instance.query(0), tiny_instance.dataset(0), node)
            # no commit
        assert not state.replicas.has(0, node)
        assert state.nodes[node].allocated_ghz == 0.0

    def test_commit_keeps_mutations(self, tiny_instance):
        state = ClusterState(tiny_instance)
        node = tiny_instance.placement_nodes[5]
        with state.transaction() as txn:
            state.serve(tiny_instance.query(0), tiny_instance.dataset(0), node)
            txn.commit()
        assert state.replicas.has(0, node)
        assert state.nodes[node].allocated_ghz > 0.0

    def test_rollback_on_exception(self, tiny_instance):
        state = ClusterState(tiny_instance)
        node = tiny_instance.placement_nodes[5]
        with pytest.raises(RuntimeError):
            with state.transaction():
                state.serve(tiny_instance.query(0), tiny_instance.dataset(0), node)
                raise RuntimeError("boom")
        assert not state.replicas.has(0, node)

    def test_rollback_after_partial_serve_failure(self, tiny_instance):
        """A serve that fails mid-transaction after earlier pairs placed
        replicas must leave no trace: the replica store and every node
        ledger roll back together."""
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(1)  # demands datasets 0 and 1
        good = tiny_instance.placement_nodes[4]
        full = tiny_instance.placement_nodes[5]
        state.nodes[full].allocate("filler", state.nodes[full].available_ghz)
        with pytest.raises(CapacityError):
            with state.transaction():
                state.serve(query, tiny_instance.dataset(0), good)
                state.serve(query, tiny_instance.dataset(1), full)  # raises
        assert not state.replicas.has(0, good)
        assert state.nodes[good].allocated_ghz == 0.0
        assert state.nodes[good].allocation_tags() == ()
        # The pre-transaction filler allocation survives the rollback.
        assert state.nodes[full].allocation_tags() == ("filler",)

    def test_nested_state_unaffected_before_transaction(self, tiny_instance):
        state = ClusterState(tiny_instance)
        pre = state.serve(
            tiny_instance.query(0),
            tiny_instance.dataset(0),
            tiny_instance.dataset(0).origin_node,
        )
        with state.transaction():
            state.serve(
                tiny_instance.query(2),
                tiny_instance.dataset(1),
                tiny_instance.dataset(1).origin_node,
            )
        # Pre-transaction allocation survives the rollback.
        assert (pre.query_id, pre.dataset_id) in [
            tag for n in state.nodes.values() for tag in n.allocation_tags()
        ]


class TestLiveness:
    def test_fresh_state_all_up(self, tiny_instance):
        state = ClusterState(tiny_instance)
        assert not state.has_down_nodes
        assert state.down_nodes() == frozenset()
        assert all(state.is_up(v) for v in tiny_instance.placement_nodes)
        assert state.up_mask().all()
        assert state.has_live_copy(0)

    def test_mark_down_then_up(self, tiny_instance):
        state = ClusterState(tiny_instance)
        node = tiny_instance.placement_nodes[4]
        state.mark_down(node)
        assert not state.is_up(node)
        assert state.down_nodes() == frozenset({node})
        idx = tiny_instance.node_index[node]
        assert not state.up_mask()[idx]
        state.mark_up(node)
        assert state.is_up(node)
        assert not state.has_down_nodes

    def test_double_crash_rejected(self, tiny_instance):
        state = ClusterState(tiny_instance)
        node = tiny_instance.placement_nodes[4]
        state.mark_down(node)
        with pytest.raises(ValueError, match="already down"):
            state.mark_down(node)

    def test_mark_up_requires_down(self, tiny_instance):
        state = ClusterState(tiny_instance)
        with pytest.raises(ValueError, match="not down"):
            state.mark_up(tiny_instance.placement_nodes[4])

    def test_unknown_node_rejected(self, tiny_instance):
        state = ClusterState(tiny_instance)
        with pytest.raises(ValueError, match="unknown"):
            state.mark_down(-1)

    def test_down_node_cannot_serve(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        node = tiny_instance.placement_nodes[4]
        assert state.can_serve(query, dataset, node)
        state.mark_down(node)
        assert not state.can_serve(query, dataset, node)
        with pytest.raises(CapacityError, match="down"):
            state.serve(query, dataset, node)

    def test_no_live_copy_blocks_fresh_replica(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        state.mark_down(dataset.origin_node)  # the only copy
        other = tiny_instance.placement_nodes[4]
        assert not state.has_live_copy(0)
        assert not state.can_serve(query, dataset, other)
        with pytest.raises(ReplicaError, match="live copy"):
            state.serve(query, dataset, other)

    def test_surviving_replica_keeps_dataset_serveable(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        node = tiny_instance.placement_nodes[4]
        assignment = state.serve(query, dataset, node)  # clones a replica
        state.release(assignment)
        state.mark_down(dataset.origin_node)
        assert state.has_live_copy(0)
        assert state.can_serve(query, dataset, node)

    def test_can_serve_mask_consistent_under_faults(self, tiny_instance):
        state = ClusterState(tiny_instance)
        state.mark_down(tiny_instance.dataset(0).origin_node)
        state.mark_down(tiny_instance.placement_nodes[4])
        for q in tiny_instance.queries:
            for d_id in q.demanded:
                d = tiny_instance.dataset(d_id)
                mask = state.can_serve_mask(q, d)
                for i, v in enumerate(tiny_instance.placement_nodes):
                    assert mask[i] == state.can_serve(q, d, v)

    def test_evict_allocations(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        node = tiny_instance.placement_nodes[4]
        state.serve(query, dataset, node)
        tags = state.evict_allocations(node)
        assert tags == ((0, 0),)
        assert state.nodes[node].allocated_ghz == 0.0

    def test_drop_replicas_keeps_origin(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        node = tiny_instance.placement_nodes[4]
        state.serve(query, dataset, node)
        assert state.drop_replicas(node) == (0,)
        assert not state.replicas.has(0, node)
        # The origin's ledger entry is never dropped.
        assert state.drop_replicas(dataset.origin_node) == ()
        assert state.replicas.has(0, dataset.origin_node)


class TestReporting:
    def test_total_allocated(self, tiny_instance):
        state = ClusterState(tiny_instance)
        q = tiny_instance.query(0)
        d = tiny_instance.dataset(0)
        state.serve(q, d, d.origin_node)
        assert state.total_allocated() == pytest.approx(
            state.compute_demand(q, d)
        )

    def test_utilization_by_node(self, tiny_instance):
        state = ClusterState(tiny_instance)
        utils = state.utilization_by_node()
        assert set(utils) == set(tiny_instance.placement_nodes)
        assert all(u == 0.0 for u in utils.values())


class TestRollbackLiveness:
    """Transaction rollback interleaved with crash eviction.

    A snapshot taken *before* a crash must not resurrect what the crash
    evicted: rollback re-applies the liveness cleanup for every node that
    is down at rollback time.
    """

    def test_rollback_does_not_resurrect_evicted_allocations(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        victim = dataset.origin_node
        state.serve(query, dataset, victim)
        with state.transaction():
            # Crash arrives while an admission transaction is open.
            state.mark_down(victim)
            state.evict_allocations(victim)
            state.drop_replicas(victim)
            # no commit: the admission aborts
        assert not state.is_up(victim)  # liveness itself is not transactional
        assert state.nodes[victim].allocation_tags() == ()
        assert state.nodes[victim].allocated_ghz == 0.0
        state.check_invariants()

    def test_rollback_does_not_resurrect_dropped_replicas(self, tiny_instance):
        state = ClusterState(tiny_instance)
        dataset = tiny_instance.dataset(0)
        copy_node = next(
            v for v in tiny_instance.placement_nodes if v != dataset.origin_node
        )
        state.replicas.place(0, copy_node)
        with state.transaction():
            state.mark_down(copy_node)
            state.evict_allocations(copy_node)
            state.drop_replicas(copy_node)
        assert not state.replicas.has(0, copy_node)
        state.check_invariants()

    def test_committed_work_on_up_nodes_survives_crash_cleanup(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        safe = tiny_instance.placement_nodes[4]
        victim = tiny_instance.placement_nodes[5]
        state.mark_down(victim)
        with state.transaction() as txn:
            a = state.serve(query, dataset, safe)
            txn.commit()
        assert state.replicas.has(0, safe)
        state.check_invariants([a])


class TestCheckInvariants:
    def test_clean_state_passes(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        a = state.serve(query, dataset, dataset.origin_node)
        state.check_invariants([a], deadlines={0: query.deadline_s})

    def test_detects_corrupt_ledger_total(self, tiny_instance):
        state = ClusterState(tiny_instance)
        node = tiny_instance.placement_nodes[4]
        state.nodes[node]._total = 1.0  # corrupt the running total
        with pytest.raises(InvariantViolation, match="ledger"):
            state.check_invariants()

    def test_detects_stale_maintained_vectors(self, tiny_instance):
        state = ClusterState(tiny_instance)
        ledger = state.nodes[tiny_instance.placement_nodes[4]]
        # Bypass the ledger hooks: the ledger stays self-consistent, but
        # the state's maintained vectors never hear of the change.
        ledger._allocations[(9, 9)] = 1.0
        ledger._total = 1.0
        with pytest.raises(InvariantViolation, match="maintained available"):
            state.check_invariants()

    def test_maintained_vectors_track_direct_mutations(self, tiny_instance):
        state = ClusterState(tiny_instance)
        node = tiny_instance.placement_nodes[4]
        state.nodes[node].allocate("direct", 1.5)
        state.nodes[node].reserved_ghz = 0.5
        state.check_invariants()
        position = tiny_instance.node_index[node]
        assert state.available_array()[position] == state.nodes[node].available_ghz
        assert state.utilization_array()[position] == state.nodes[node].utilization

    def test_detects_over_replication(self, tiny_instance):
        state = ClusterState(tiny_instance)
        nodes = [
            v
            for v in tiny_instance.placement_nodes
            if v != tiny_instance.dataset(0).origin_node
        ]
        for v in nodes[: tiny_instance.max_replicas]:  # one past the bound
            state.replicas._locations[0].add(v)
        with pytest.raises(InvariantViolation, match="copies"):
            state.check_invariants()

    def test_detects_lost_origin(self, tiny_instance):
        state = ClusterState(tiny_instance)
        origin = tiny_instance.dataset(0).origin_node
        state.replicas._locations[0].discard(origin)
        with pytest.raises(InvariantViolation, match="origin"):
            state.check_invariants()

    def test_detects_allocation_on_down_node(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        node = dataset.origin_node
        state.serve(query, dataset, node)
        state._down.add(node)  # bypass mark_down's eviction on purpose
        with pytest.raises(InvariantViolation, match="down"):
            state.check_invariants()

    def test_detects_missing_inflight_backing(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        a = state.serve(query, dataset, dataset.origin_node)
        state.release(a)
        with pytest.raises(InvariantViolation):
            state.check_invariants([a])

    def test_detects_deadline_violation(self, tiny_instance):
        state = ClusterState(tiny_instance)
        query = tiny_instance.query(0)
        dataset = tiny_instance.dataset(0)
        a = state.serve(query, dataset, dataset.origin_node)
        with pytest.raises(InvariantViolation, match="deadline"):
            state.check_invariants([a], deadlines={0: a.latency_s / 2.0})

"""Journaled transactions against the copy-everything rollback oracle.

Hypothesis draws random operation sequences — serve / release, crash
eviction, replica drops, liveness flips, the direct ledger and replica
mutations placement code performs (greedy's ``replicas.place``, the
gateway's ``ledger.release``), and nested transactions that commit, roll
back, or raise part-way (a crash in mid-transaction) — and applies each
one in lockstep to a journaled :class:`ClusterState` and to the
:class:`SnapshotState` oracle.  After every step both must agree exactly:
every ledger's items in order, every total down to its ``repr`` (bits
and int/float type), every replica set, and the bytes of the available
and utilisation vectors, which must also equal vectors rebuilt from the
ledgers.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.node import CapacityError
from repro.cluster.replicas import ReplicaError
from repro.cluster.state import ClusterState
from repro.core.instance import ProblemInstance
from repro.core.types import Assignment
from repro.serve.client import QueryFactory
from repro.topology.twotier import TwoTierConfig, generate_two_tier
from repro.util.rng import spawn_rng
from repro.workload.datasets import generate_datasets
from repro.workload.params import PaperDefaults
from tests.cluster.snapshot_oracle import SnapshotState

TOPOLOGY = generate_two_tier(
    TwoTierConfig(
        num_data_centers=2,
        num_cloudlets=6,
        num_switches=2,
        num_base_stations=2,
    ),
    seed=2,
)
DATASETS = generate_datasets(TOPOLOGY, spawn_rng(5, "ds"), PaperDefaults(), count=6)
_BASE = ProblemInstance(
    topology=TOPOLOGY, datasets=DATASETS, queries=(), max_replicas=3
)
_FACTORY = QueryFactory(_BASE, seed=7)
INSTANCE = ProblemInstance(
    topology=TOPOLOGY,
    datasets=DATASETS,
    queries=tuple(_FACTORY.make() for _ in range(12)),
    max_replicas=3,
)
PLACEMENT = tuple(INSTANCE.placement_nodes)
SHARD = PLACEMENT[: len(PLACEMENT) // 2]
DATASET_IDS = tuple(sorted(DATASETS))

PROPERTY = settings(
    settings.get_profile("ci"),
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

_node = st.integers(0, len(PLACEMENT) - 1)
_serve = st.tuples(
    st.just("serve"), st.integers(0, INSTANCE.num_queries - 1), st.integers(0, 5), _node
)
_leaf = st.one_of(
    _serve,
    _serve,
    _serve,
    st.tuples(st.just("release"), _node, st.integers(0, 50)),
    st.tuples(st.just("ledger-release"), _node, st.integers(0, 50)),
    st.tuples(st.just("ledger-allocate"), _node, st.floats(0.0, 8.0)),
    st.tuples(st.just("place"), st.sampled_from(DATASET_IDS), _node),
    st.tuples(st.just("remove"), st.sampled_from(DATASET_IDS), _node),
    st.tuples(st.just("evict"), _node),
    st.tuples(st.just("drop"), _node),
    st.tuples(st.just("crash"), _node),
    st.tuples(st.just("down"), _node),
    st.tuples(st.just("up"), _node),
)
#: A transaction block: its operations, then how it ends.  ``raise`` is
#: a crash in mid-transaction (rollback); ``commit-raise`` commits and
#: then raises (the mutations stay).
_ops = st.recursive(
    _leaf,
    lambda inner: st.tuples(
        st.just("txn"),
        st.sampled_from(("commit", "rollback", "raise", "commit-raise")),
        st.lists(inner, max_size=6),
    ),
    max_leaves=40,
)


class _Crash(Exception):
    """Raised inside a transaction block to abort it mid-way."""


def _rebuilt(state: ClusterState) -> tuple[np.ndarray, np.ndarray]:
    available = np.full(len(PLACEMENT), -np.inf)
    utilization = np.zeros(len(PLACEMENT))
    for i, v in enumerate(PLACEMENT):
        if v in state.nodes:
            available[i] = state.nodes[v].available_ghz
            utilization[i] = state.nodes[v].utilization
    return available, utilization


def assert_same(journaled: ClusterState, oracle: ClusterState) -> None:
    assert list(journaled.nodes) == list(oracle.nodes)
    for v, ledger in journaled.nodes.items():
        expected = oracle.nodes[v]
        assert list(ledger._allocations.items()) == list(
            expected._allocations.items()
        ), v
        assert repr(ledger._total) == repr(expected._total), v
    for d_id in DATASET_IDS:
        assert journaled.replicas.nodes(d_id) == oracle.replicas.nodes(d_id), d_id
    assert journaled.down_nodes() == oracle.down_nodes()
    for state in (journaled, oracle):
        available, utilization = _rebuilt(state)
        assert state.available_array().tobytes() == available.tobytes()
        assert state.utilization_array().tobytes() == utilization.tobytes()
    assert journaled.available_array().tobytes() == oracle.available_array().tobytes()
    assert (
        journaled.utilization_array().tobytes()
        == oracle.utilization_array().tobytes()
    )


def _nth_tag(state: ClusterState, node: int, j: int):
    tags = state.nodes[node].allocation_tags()
    return tags[j % len(tags)] if tags else None


def _apply(state: ClusterState, op: tuple, serial: int) -> None:
    """Apply one leaf operation; errors propagate to the caller."""
    kind = op[0]
    if kind == "serve":
        _, qi, k, ni = op
        # A fresh query id per step keeps allocation tags distinct.
        query = dataclasses.replace(INSTANCE.query(qi), query_id=serial)
        dataset = INSTANCE.dataset(query.demanded[k % len(query.demanded)])
        state.serve(query, dataset, PLACEMENT[ni])
        return
    if kind in ("place", "remove"):
        d_id, v = op[1], PLACEMENT[op[2]]
        if v not in state.nodes:
            return
        if kind == "place":
            state.replicas.place(d_id, v)
        else:
            state.replicas.remove(d_id, v)
        return
    v = PLACEMENT[op[1]]
    if v not in state.nodes:
        return
    if kind in ("release", "ledger-release"):
        tag = _nth_tag(state, v, op[2])
        if tag is None:
            return
        if kind == "ledger-release" or tag[0] == "direct":
            state.nodes[v].release(tag)
        else:
            state.release(
                Assignment(
                    query_id=tag[0],
                    dataset_id=tag[1],
                    node=v,
                    latency_s=0.0,
                    compute_ghz=0.0,
                )
            )
    elif kind == "ledger-allocate":
        state.nodes[v].allocate(("direct", serial), op[2])
    elif kind == "evict":
        state.evict_allocations(v)
    elif kind == "drop":
        state.drop_replicas(v)
    elif kind == "crash":
        if state.is_up(v):
            state.mark_down(v)
            state.evict_allocations(v)
            state.drop_replicas(v)
    elif kind == "down":
        if state.is_up(v):
            state.mark_down(v)
    elif kind == "up":
        if not state.is_up(v):
            state.mark_up(v)


_ERRORS = (CapacityError, ReplicaError, ValueError)


class _Lockstep:
    def __init__(self, shard: tuple[int, ...] | None) -> None:
        self.journaled = ClusterState(INSTANCE, shard_nodes=shard)
        self.oracle = SnapshotState(INSTANCE, shard_nodes=shard)
        self.serial = 0

    def run(self, ops: list) -> None:
        for op in ops:
            self.step(op)

    def step(self, op: tuple) -> None:
        self.serial += 1
        if op[0] == "txn":
            self._txn(op[1], op[2])
        else:
            outcomes = []
            for state in (self.journaled, self.oracle):
                try:
                    _apply(state, op, self.serial)
                    outcomes.append(None)
                except _ERRORS as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], op
        assert_same(self.journaled, self.oracle)

    def _txn(self, ending: str, body: list) -> None:
        with self.journaled.transaction() as j_txn, self.oracle.transaction() as o_txn:
            try:
                self.run(body)
                if ending in ("commit", "commit-raise"):
                    j_txn.commit()
                    o_txn.commit()
                if ending in ("raise", "commit-raise"):
                    raise _Crash
            except _Crash:
                pass


@PROPERTY
@given(ops=st.lists(_ops, max_size=25), sharded=st.booleans())
def test_journal_matches_snapshot_rollback(ops, sharded):
    lockstep = _Lockstep(SHARD if sharded else None)
    assert_same(lockstep.journaled, lockstep.oracle)
    lockstep.run(ops)


@PROPERTY
@given(ops=st.lists(_ops, max_size=25))
def test_raise_through_transaction_rolls_back(ops):
    """An exception escaping an uncommitted block undoes it exactly."""
    lockstep = _Lockstep(None)
    lockstep.run(ops[: len(ops) // 2])
    for state in (lockstep.journaled, lockstep.oracle):
        with pytest.raises(_Crash):
            with state.transaction():
                for op in ops[len(ops) // 2 :]:
                    if op[0] != "txn":
                        try:
                            _apply(state, op, 0)
                        except _ERRORS:
                            pass
                raise _Crash
    assert_same(lockstep.journaled, lockstep.oracle)


class TestEviction:
    def test_release_all_matches_one_by_one(self):
        journaled = ClusterState(INSTANCE)
        oracle = SnapshotState(INSTANCE)
        v = PLACEMENT[0]
        for state in (journaled, oracle):
            for i in range(5):
                state.nodes[v].allocate(("t", i), 0.5 + i)
        for state in (journaled, oracle):
            with state.transaction():
                tags = state.evict_allocations(v)
                assert tags == tuple(("t", i) for i in range(5))
                assert repr(state.nodes[v]._total) == "0"
        assert_same(journaled, oracle)
        assert journaled.evict_allocations(v) == oracle.evict_allocations(v)
        assert_same(journaled, oracle)
        assert repr(journaled.nodes[v]._total) == "0"

    def test_eviction_of_empty_ledger_records_nothing(self):
        state = ClusterState(INSTANCE)
        with state.transaction() as txn:
            assert state.evict_allocations(PLACEMENT[0]) == ()
            assert state._journal._entries == []
            txn.commit()


class TestNesting:
    def test_inner_commit_then_outer_mutation_rolls_back(self):
        """An inner frame's allocate, committed, then released by the outer
        frame after it had saved that ledger: the outer rollback must not
        replay the inner allocate's undo against the released ledger."""
        journaled = ClusterState(INSTANCE)
        oracle = SnapshotState(INSTANCE)
        v = PLACEMENT[2]
        for state in (journaled, oracle):
            state.nodes[v].allocate("base", 1.0)
            with state.transaction():
                state.nodes[v].release("base")  # outer saves the ledger
                with state.transaction() as inner:
                    state.nodes[v].allocate("inner", 2.0)
                    inner.commit()
                state.nodes[v].release("inner")
        assert_same(journaled, oracle)
        assert journaled.nodes[v].allocation_tags() == ("base",)

    def test_inner_rollback_keeps_outer_work(self):
        journaled = ClusterState(INSTANCE)
        oracle = SnapshotState(INSTANCE)
        v, w = PLACEMENT[1], PLACEMENT[3]
        for state in (journaled, oracle):
            with state.transaction() as outer:
                state.nodes[v].allocate("a", 1.0)
                with state.transaction():
                    state.nodes[v].allocate("b", 1.0)
                    state.nodes[w].allocate("c", 1.0)
                    state.evict_allocations(v)
                outer.commit()
        assert_same(journaled, oracle)
        assert journaled.nodes[v].allocation_tags() == ("a",)
        assert journaled.nodes[w].allocation_tags() == ()
        assert journaled._journal._frames == []
        assert journaled._journal._entries == []

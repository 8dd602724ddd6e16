"""Vectorised-kernel parity tests.

The admission hot path was rewritten from per-node scalar loops to NumPy
array expressions.  These tests pin the contract that made that safe:
every vectorised quantity is *bit-identical* to the scalar computation it
replaced — same IEEE operations in the same order, evaluated elementwise.

Scalar references live in the production code (``_Kernel.cost_rate``,
``ClusterState.pair_latency``), in test oracles (the networkx partition
path, ``partition_oracle.py``) or inline here as straight transliterations
of the pre-vectorisation loops.
"""

import numpy as np
import pytest

from repro.cluster.state import ClusterState
from repro.core.duals import NodePrices
from repro.core.feasibility import (
    CandidateNode,
    candidate_nodes,
    candidate_set,
    pair_latency_vector,
)
from repro.core.graph_partition import partition_placement_nodes
from repro.core.metrics import evaluate_solution
from repro.core.primal_dual import PrimalDualConfig, _Kernel
from repro.core.registry import available_algorithms, make_algorithm
from repro.experiments.runner import make_instance
from repro.topology.twotier import TwoTierConfig
from repro.workload.params import PaperDefaults
from tests.core.partition_oracle import partition_reference

_TOPOLOGY = TwoTierConfig(
    num_data_centers=2,
    num_cloudlets=8,
    num_switches=2,
    num_base_stations=3,
)
_SEEDS = (11, 23, 47)


def _instance(seed, special=False, topology=None):
    params = PaperDefaults()
    if special:
        params = params.single_dataset()
    return make_instance(topology or _TOPOLOGY, params, seed, 0)


def _pairs(instance, limit=40):
    count = 0
    for query in instance.queries:
        for d_id in query.demanded:
            yield query, instance.dataset(d_id)
            count += 1
            if count >= limit:
                return


# -- latency vector ------------------------------------------------------


@pytest.mark.parametrize("seed", _SEEDS)
def test_latency_vector_matches_scalar(seed):
    instance = _instance(seed)
    state = ClusterState(instance)
    for query, dataset in _pairs(instance):
        vec = pair_latency_vector(state, query, dataset)
        for i, node in enumerate(instance.placement_nodes):
            assert vec[i] == state.pair_latency(query, dataset, node)


# -- candidate enumeration ----------------------------------------------


def _scalar_candidates(state, query, dataset):
    """Transliteration of the pre-vectorisation candidate loop."""
    out = []
    d_id = dataset.dataset_id
    demand = state.compute_demand(query, dataset)
    slots_left = state.replicas.remaining_slots(d_id) > 0
    for node in state.instance.placement_nodes:
        has_replica = state.replicas.has(d_id, node)
        if not has_replica and not slots_left:
            continue
        if not state.meets_deadline(query, dataset, node):
            continue
        if not state.nodes[node].can_fit(demand):
            continue
        out.append(
            CandidateNode(
                node=node,
                latency_s=state.pair_latency(query, dataset, node),
                has_replica=has_replica,
            )
        )
    return out


@pytest.mark.parametrize("seed", _SEEDS)
def test_candidate_set_matches_scalar_enumeration(seed):
    instance = _instance(seed)
    state = ClusterState(instance)
    for query, dataset in _pairs(instance):
        assert candidate_nodes(state, query, dataset) == _scalar_candidates(
            state, query, dataset
        )


def test_candidate_set_tracks_replica_and_capacity_state():
    """Parity must hold on *evolved* state, not just the initial one."""
    instance = _instance(_SEEDS[0])
    state = ClusterState(instance)
    for query in instance.queries:
        for d_id in query.demanded:
            dataset = instance.dataset(d_id)
            scalar = _scalar_candidates(state, query, dataset)
            assert candidate_nodes(state, query, dataset) == scalar
            for cand in scalar:
                if state.can_serve(query, dataset, cand.node):
                    state.serve(query, dataset, cand.node)
                    break


# -- cost vector ---------------------------------------------------------


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("capacity_pricing", [True, False])
def test_cost_vector_matches_cost_rate(seed, capacity_pricing):
    instance = _instance(seed)
    config = PrimalDualConfig(capacity_pricing=capacity_pricing)
    kernel = _Kernel(config, instance)
    state = ClusterState(instance)
    for query, dataset in _pairs(instance):
        cands = candidate_set(state, query, dataset)
        if not cands:
            continue
        cost = kernel.cost_vector(state, query, cands, dataset.dataset_id)
        for i, cand in enumerate(candidate_nodes(state, query, dataset)):
            assert cost[i] == kernel.cost_rate(
                state, query, cand, dataset.dataset_id
            )
        # argmin parity with the scalar min(key=(cost, node)) rule
        best = kernel.argmin_candidate(cands, cost)
        scalar_best = min(
            range(len(cands)), key=lambda i: (cost[i], int(cands.nodes[i]))
        )
        assert best == scalar_best


def test_theta_array_matches_scalar_theta():
    instance = _instance(_SEEDS[0])
    state = ClusterState(instance)
    prices = NodePrices(theta_floor=0.05)
    # load a few nodes so utilisations differ
    for query, dataset in _pairs(instance, limit=10):
        for node in instance.placement_nodes:
            if state.can_serve(query, dataset, node):
                state.serve(query, dataset, node)
                break
    theta = prices.theta_array(state)
    for i, node in enumerate(instance.placement_nodes):
        assert theta[i] == prices.theta(state, node)


# -- graph partition -----------------------------------------------------


@pytest.mark.parametrize("seed", (0, 3, 9))
@pytest.mark.parametrize("size", (32, 60))
def test_fast_partition_matches_networkx(seed, size):
    instance = _instance(
        2019, topology=TwoTierConfig().scaled_to(size)
    )
    for num_parts in (2, 5, max(2, instance.num_placement_nodes // 8)):
        fast = partition_placement_nodes(instance, num_parts, seed)
        assert fast == partition_reference(instance, num_parts, seed)


# -- whole-solution invariants ------------------------------------------


@pytest.mark.parametrize("name", available_algorithms())
def test_solutions_deterministic_across_runs(name):
    """The vectorised path is deterministic: two runs on the same instance
    produce bit-identical solutions and metrics."""
    special = name.endswith("-s")
    instance = _instance(_SEEDS[0], special=special)
    first = make_algorithm(name).solve(instance)
    second = make_algorithm(name).solve(instance)
    assert first.admitted == second.admitted
    assert first.rejected == second.rejected
    assert dict(first.replicas) == dict(second.replicas)
    assert dict(first.assignments) == dict(second.assignments)
    assert dict(first.extras) == dict(second.extras)
    assert evaluate_solution(instance, first) == evaluate_solution(
        instance, second
    )


def test_greedy_deadline_vector_matches_scalar():
    """The deadline mask greedy/popularity precompute equals per-node checks."""
    instance = _instance(_SEEDS[1])
    state = ClusterState(instance)
    node_index = instance.node_index
    for query, dataset in _pairs(instance):
        deadline_ok = pair_latency_vector(state, query, dataset) <= query.deadline_s
        for node in instance.placement_nodes:
            assert bool(deadline_ok[node_index[node]]) == state.meets_deadline(
                query, dataset, node
            )


def test_can_fit_mask_matches_scalar_can_fit():
    instance = _instance(_SEEDS[2])
    state = ClusterState(instance)
    demands = [0.0, 0.5, 4.0, 1e6]
    for demand in demands:
        mask = state.can_fit_mask(demand)
        for i, node in enumerate(instance.placement_nodes):
            assert bool(mask[i]) == state.nodes[node].can_fit(demand)

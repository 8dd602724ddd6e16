"""Graph-partitioning baseline (paper §4.1, benchmark 2; Golab et al. [10]).

"[It] places K replicas for each dataset at data centers or cloudlets, if
the delay requirement of the query can be satisfied by evaluating the
replica at the data center or the cloudlet ...  It then makes a graph
partitioning with maximum volume of datasets demanded by admitted queries."

Two phases:

1. **Replica pre-placement** — for each dataset, score every placement
   node by the total volume of queries demanding the dataset whose
   deadline that node can meet, and place the dataset's ``K − 1`` extra
   replicas on the top-scoring nodes.
2. **Partitioned assignment** — partition the placement-node graph with
   recursive Kernighan–Lin bisection (communication-minimising, as in
   distributed data-placement systems), then admit queries greedily by
   descending volume, each query restricted to replica-holding nodes
   *inside its home partition* (no new replicas at query time).

The partition restriction is the benchmark's communication-cost lens; it
uses node resources better than Greedy but cannot trade partition locality
against global admission, which is where Appro wins.
"""

from __future__ import annotations

import random

import numpy as np

from repro.cluster.state import ClusterState
from repro.core.base import PlacementAlgorithm, SolutionBuilder, require_special_case
from repro.core.feasibility import delay_feasible_nodes
from repro.core.instance import ProblemInstance
from repro.core.kl import kl_refine_sides
from repro.core.types import Assignment, PlacementSolution, Query
from repro.util.validation import check_positive

__all__ = ["GraphS", "GraphG", "partition_placement_nodes"]


def partition_placement_nodes(
    instance: ProblemInstance,
    num_parts: int,
    seed: int = 0,
) -> dict[int, int]:
    """Partition placement nodes by recursive Kernighan–Lin bisection.

    Edge weights are inverse path delays between placement nodes (closer
    nodes attract each other into a part).  Returns node id → part id.

    Bisection runs the vectorised reimplementation in
    :mod:`repro.core.kl`; its output matches the original
    ``networkx.algorithms.community.kernighan_lin_bisection`` path
    (``tests/core/partition_oracle.py``) partition for partition.
    """
    check_positive("num_parts", num_parts)
    nodes = list(instance.placement_nodes)
    if num_parts <= 1 or len(nodes) <= 1:
        return {v: 0 for v in nodes}

    idx = np.fromiter(nodes, dtype=np.intp, count=len(nodes))
    delays = np.asarray(instance.paths.delays_matrix())[np.ix_(idx, idx)]
    # The reference adds each edge once in (earlier, later) node order and
    # shares that weight in both directions; the all-pairs delay matrix is
    # direction-asymmetric at ulp level (per-source summation order), so
    # mirror the upper triangle before inverting.
    delays = np.triu(delays, 1)
    delays = delays + delays.T
    # Inverse-delay attraction; unreachable pairs (inf delay) get weight 0,
    # as does the (delay 0) diagonal — a 0-weight edge is value-identical
    # to the reference's absent edge in every KL sum.
    weights = np.zeros_like(delays)
    np.divide(1.0, delays, out=weights, where=delays > 0)

    pos = {v: i for i, v in enumerate(nodes)}
    # Bookkeeping mirrors the reference *including its set semantics*: a
    # networkx subgraph view iterates the filter set (hash order) whenever
    # the part is less than half the graph, and that order feeds the
    # seeded shuffle.  Performing the same set constructions in the same
    # insertion order reproduces it exactly.
    parts: list[set[int]] = [set(nodes)]
    while len(parts) < num_parts:
        # Split the currently largest part.
        parts.sort(key=len, reverse=True)
        largest = parts.pop(0)
        if len(largest) <= 1:
            parts.append(largest)
            break
        sub_filter = set(n for n in largest)
        if 2 * len(sub_filter) < len(nodes):
            sub_nodes = list(sub_filter)
        else:
            sub_nodes = [n for n in nodes if n in sub_filter]
        random.Random(seed).shuffle(sub_nodes)
        # Ascending-position submatrix: initial KL sums then run in the
        # same ascending neighbour order as the reference's adjacency.
        sel = np.asarray(sorted(pos[v] for v in sub_nodes), dtype=np.intp)
        local = {p: i for i, p in enumerate(sel)}
        side = np.zeros(len(sub_nodes), dtype=bool)
        for v in sub_nodes[: len(sub_nodes) // 2]:
            side[local[pos[v]]] = True
        kl_refine_sides(weights[np.ix_(sel, sel)], side)
        a = {v for v in sub_nodes if not side[local[pos[v]]]}
        b = {v for v in sub_nodes if side[local[pos[v]]]}
        parts.extend([set(a), set(b)])
    return {v: i for i, part in enumerate(parts) for v in part}


def _preplace_replicas(state: ClusterState) -> None:
    """Phase 1: query-driven, delay-checked replica placement.

    Per the benchmark's description, replicas are placed while scanning
    the queries: for each (query, dataset) demand, if no existing copy can
    meet the query's deadline and the dataset still has ``K`` slots, a new
    replica is placed at the highest-capacity node that *does* meet the
    deadline.  Unlike Greedy, no slot is ever burned on a delay-infeasible
    node; unlike Appro, placement is capacity-greedy per query rather than
    price-guided, so popular regions pile replicas on the same large nodes.
    """
    instance = state.instance
    # Projected compute load per node: placement anticipates the demand it
    # routes toward each replica, so copies spread instead of piling onto
    # one large node (the capacity term of Golab et al.'s formulation).
    projected: dict[int, float] = {v: 0.0 for v in instance.placement_nodes}

    def headroom(v: int) -> float:
        return instance.topology.capacity(v) - projected[v]

    for query in instance.queries:
        for d_id in query.demanded:
            dataset = instance.dataset(d_id)
            demand = state.compute_demand(query, dataset)
            holders = [
                v
                for v in state.replicas.nodes(d_id)
                if state.meets_deadline(query, dataset, v)
            ]
            if holders:
                target = max(holders, key=lambda v: (headroom(v), -v))
                projected[target] += demand
                continue
            if state.replicas.remaining_slots(d_id) == 0:
                continue
            feasible = [
                int(v)
                for v in delay_feasible_nodes(state, query, dataset)
                if not state.replicas.has(d_id, int(v))
            ]
            if not feasible:
                continue
            best = max(feasible, key=lambda v: (headroom(v), -v))
            state.replicas.place(d_id, best)
            projected[best] += demand


def _assign_in_partition(
    state: ClusterState,
    query: Query,
    dataset_id: int,
    parts: dict[int, int],
) -> Assignment | None:
    """Phase 2 step: serve the pair from a replica, preferring the home partition.

    Partition locality is a *preference* (it minimises the communication
    the partitioning was built for), not a hard rule: when the home
    partition has no usable replica, any feasible replica-holding node is
    used.  No new replicas are created at query time.
    """
    dataset = state.instance.dataset(dataset_id)
    home_part = parts[query.home_node]
    feasible = [
        v
        for v in state.replicas.nodes(dataset_id)
        if state.meets_deadline(query, dataset, v)
        and state.nodes[v].can_fit(state.compute_demand(query, dataset))
    ]
    if not feasible:
        return None
    local = [v for v in feasible if parts.get(v) == home_part]
    pool = local if local else feasible
    # Volume-maximising assignment spreads load: prefer the replica node
    # with the most available compute (latency as tie-break).
    best = max(
        pool,
        key=lambda v: (
            state.nodes[v].available_ghz,
            -state.pair_latency(query, dataset, v),
            -v,
        ),
    )
    return state.serve(query, dataset, best)


def _default_parts(instance: ProblemInstance) -> int:
    """Partition count: ~8 placement nodes per part, at least 2."""
    return max(2, instance.num_placement_nodes // 8)


class GraphS(PlacementAlgorithm):
    """Graph-partitioning baseline, special case."""

    name = "graph-s"

    def __init__(self, num_parts: int | None = None, seed: int = 0) -> None:
        self.num_parts = num_parts
        self.seed = seed

    def solve(self, instance: ProblemInstance) -> PlacementSolution:
        require_special_case(instance, self.name)
        state = ClusterState(instance)
        builder = SolutionBuilder(instance, self.name)
        parts = partition_placement_nodes(
            instance, self.num_parts or _default_parts(instance), self.seed
        )
        _preplace_replicas(state)
        order = sorted(
            instance.queries,
            key=lambda q: (-q.demanded_volume(instance.datasets), q.query_id),
        )
        for query in order:
            assignment = _assign_in_partition(state, query, query.demanded[0], parts)
            if assignment is None:
                builder.reject(query.query_id)
            else:
                builder.admit(query.query_id, [assignment])
        builder.extra("replicas_total", state.replicas.total_replicas())
        builder.extra("num_parts", float(len(set(parts.values()))))
        return builder.build(state)


class GraphG(PlacementAlgorithm):
    """Graph-partitioning baseline, general case (all-or-nothing)."""

    name = "graph-g"

    def __init__(self, num_parts: int | None = None, seed: int = 0) -> None:
        self.num_parts = num_parts
        self.seed = seed

    def solve(self, instance: ProblemInstance) -> PlacementSolution:
        state = ClusterState(instance)
        builder = SolutionBuilder(instance, self.name)
        parts = partition_placement_nodes(
            instance, self.num_parts or _default_parts(instance), self.seed
        )
        _preplace_replicas(state)
        order = sorted(
            instance.queries,
            key=lambda q: (-q.demanded_volume(instance.datasets), q.query_id),
        )
        for query in order:
            assignments: list[Assignment] = []
            with state.transaction() as txn:
                for d_id in query.demanded:
                    a = _assign_in_partition(state, query, d_id, parts)
                    if a is None:
                        assignments.clear()
                        break
                    assignments.append(a)
                else:
                    txn.commit()
            if assignments:
                builder.admit(query.query_id, assignments)
            else:
                builder.reject(query.query_id)
        builder.extra("replicas_total", state.replicas.total_replicas())
        builder.extra("num_parts", float(len(set(parts.values()))))
        return builder.build(state)

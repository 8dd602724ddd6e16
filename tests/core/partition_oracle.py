"""The networkx-backed partitioner: the reference the fast path must match.

:func:`partition_reference` is the original implementation of
:func:`repro.core.graph_partition.partition_placement_nodes`: build the
placement-node graph with inverse-delay edge weights, then split the
largest part with ``networkx``'s seeded ``kernighan_lin_bisection``
until ``num_parts`` parts exist.  ``test_vector_parity.py`` demands the
vectorised path return the identical partition dict for the same seed.
"""

from __future__ import annotations

import networkx as nx

from repro.core.instance import ProblemInstance


def partition_reference(
    instance: ProblemInstance, num_parts: int, seed: int
) -> dict[int, int]:
    """Partition placement nodes by networkx Kernighan–Lin bisection."""
    nodes = list(instance.placement_nodes)
    if num_parts <= 1 or len(nodes) <= 1:
        return {v: 0 for v in nodes}
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            delay = instance.paths.delay(u, v)
            if delay > 0:
                graph.add_edge(u, v, weight=1.0 / delay)

    parts: list[set[int]] = [set(nodes)]
    while len(parts) < num_parts:
        parts.sort(key=len, reverse=True)
        largest = parts.pop(0)
        if len(largest) <= 1:
            parts.append(largest)
            break
        sub = graph.subgraph(largest)
        a, b = nx.algorithms.community.kernighan_lin_bisection(
            sub, weight="weight", seed=seed
        )
        parts.extend([set(a), set(b)])
    return {v: i for i, part in enumerate(parts) for v in part}

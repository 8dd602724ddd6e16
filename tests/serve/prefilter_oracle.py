"""The per-pair batch prefilter: the reference the screen kernel must match.

:func:`prefilter` is the gateway's original batch feasibility screen:
every (query, dataset) pair's cached latency vector is stacked row by
row, checked against capacity and deadline in one pass, then gated per
dataset on replica slots and liveness.  The stacked kernel in
:mod:`repro.serve.screenpool` must return the same verdict for every
query (``TestKernelParity``), and a gateway screening through this
oracle (:class:`OracleGateway`) must answer byte-identically and write
byte-identical checkpoints (``TestGoldenParity``).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import _EPS
from repro.core.types import Query
from repro.serve import AdmissionGateway


def dataset_gate(gateway: AdmissionGateway, dataset_id: int) -> np.ndarray | None:
    """Replica-slot + liveness node gate for one dataset.

    ``None`` means every node passes (slots remain, no nodes down).
    """
    state, inst = gateway.state, gateway.instance
    gate: np.ndarray | None = None
    if state.replicas.remaining_slots(dataset_id) <= 0:
        gate = np.zeros(inst.num_placement_nodes, dtype=bool)
        holders = state.replicas.nodes(dataset_id)
        if holders:
            gate[[inst.node_index[v] for v in holders]] = True
    if state.has_down_nodes:
        up = state.up_mask()
        gate = up if gate is None else gate & up
        if not state.has_live_copy(dataset_id):
            gate = np.zeros(inst.num_placement_nodes, dtype=bool)
    return gate


def prefilter(
    gateway: AdmissionGateway, batch: list, available: np.ndarray
) -> list[bool]:
    """Per-query verdicts for ``batch`` (items carry ``.query``)."""
    inst = gateway.instance
    pairs: list[tuple[int, int, Query]] = [
        (i, d_id, pending.query)
        for i, pending in enumerate(batch)
        for d_id in pending.query.demanded
    ]
    num_nodes = inst.num_placement_nodes
    latency = np.empty((len(pairs), num_nodes))
    demand = np.empty(len(pairs))
    deadline = np.empty(len(pairs))
    for row, (_, d_id, query) in enumerate(pairs):
        latency[row] = gateway._latency_vector(query, d_id)
        demand[row] = inst.dataset(d_id).volume_gb * query.compute_rate
        deadline[row] = query.deadline_s
    node_ok = demand[:, None] <= available[None, :] + _EPS * inst.capacities
    node_ok &= latency <= deadline[:, None]
    gates: dict[int, np.ndarray | None] = {}
    for row, (_, d_id, _query) in enumerate(pairs):
        if d_id not in gates:
            gates[d_id] = dataset_gate(gateway, d_id)
        if gates[d_id] is not None:
            node_ok[row] &= gates[d_id]
    pair_ok = node_ok.any(axis=1)
    verdict = [True] * len(batch)
    for row, (i, _d_id, _query) in enumerate(pairs):
        if not pair_ok[row]:
            verdict[i] = False
    return verdict


class OracleGateway(AdmissionGateway):
    """A gateway whose batch screen is the per-pair :func:`prefilter`."""

    def _screen(self, batch: list) -> list[bool]:
        return prefilter(self, batch, self.state.available_array())

"""The admission screen: one stacked kernel over a micro-batch.

The gateway's batch screen answers one question per submission: *does
any placement node pass capacity + deadline + replica-slot + liveness
for every demanded pair?*  This module answers it in one vectorised
pass over flat ``(query, dataset)`` pair rows:

* :func:`build_rows` flattens a batch into :class:`ScreenRows`;
* :func:`snapshot_state` reads the live state arrays the screen needs;
* :func:`screen_rows` scores every pair against every placement node at
  once, with one fancy-indexed latency matrix;
* :func:`verdicts_from_pairs` folds pair verdicts into query verdicts.

The kernel is element-for-element equal to the original per-pair
prefilter, which lives on as the test oracle
``tests/serve/prefilter_oracle.py`` (pinned by
``tests/serve/test_screenpool.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cluster.node import _EPS
from repro.serve.shm import ScreenStatics, StateSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.state import ClusterState
    from repro.core.types import Query

__all__ = [
    "ScreenRows",
    "build_rows",
    "screen_rows",
    "snapshot_state",
    "verdicts_from_pairs",
]


@dataclass(frozen=True)
class ScreenRows:
    """One micro-batch flattened to ``(query, dataset)`` pair rows.

    ``query_row[r]`` maps pair ``r`` back to its position in the batch;
    the remaining arrays carry everything the kernel needs to score the
    pair against every placement node at once.
    """

    query_row: np.ndarray  # intp[R] — batch index of each pair
    dataset_idx: np.ndarray  # intp[R] — row into the statics' dataset axis
    home: np.ndarray  # intp[R] — topology id of the query's home node
    alpha: np.ndarray  # float64[R] — selectivity of the pair
    rate: np.ndarray  # float64[R] — query compute rate (GHz/GB)
    deadline_s: np.ndarray  # float64[R]

    def __len__(self) -> int:
        return int(self.query_row.shape[0])


def build_rows(queries: Sequence["Query"], statics: ScreenStatics) -> ScreenRows:
    """Flatten a batch of queries into kernel-ready pair rows."""
    query_row: list[int] = []
    dataset_idx: list[int] = []
    home: list[int] = []
    alpha: list[float] = []
    rate: list[float] = []
    deadline: list[float] = []
    index = statics.dataset_index
    for i, query in enumerate(queries):
        selectivity = query.selectivity
        for j, d_id in enumerate(query.demanded):
            query_row.append(i)
            dataset_idx.append(index[d_id])
            home.append(query.home_node)
            alpha.append(selectivity[j])
            rate.append(query.compute_rate)
            deadline.append(query.deadline_s)
    return ScreenRows(
        query_row=np.asarray(query_row, dtype=np.intp),
        dataset_idx=np.asarray(dataset_idx, dtype=np.intp),
        home=np.asarray(home, dtype=np.intp),
        alpha=np.asarray(alpha, dtype=np.float64),
        rate=np.asarray(rate, dtype=np.float64),
        deadline_s=np.asarray(deadline, dtype=np.float64),
    )


def screen_rows(
    statics: ScreenStatics, view: StateSnapshot, rows: ScreenRows
) -> np.ndarray:
    """Per-pair feasibility verdicts (``bool[R]``) against one view.

    Element-for-element the per-pair prefilter's verdict: a pair passes iff
    some placement node simultaneously fits its compute demand (with the
    scalar check's epsilon slack), meets its deadline, and — when the
    dataset is out of replica slots or nodes are down — already holds a
    live copy.  Every float op is the same IEEE expression the cached
    per-pair vectors evaluate, so the bits agree exactly.
    """
    di = rows.dataset_idx
    volumes = statics.volumes_gb[di]
    latency = volumes[:, None] * (
        statics.proc_delays[None, :]
        + rows.alpha[:, None] * statics.home_delays[rows.home]
    )
    demand = volumes * rows.rate
    node_ok = demand[:, None] <= view.free_ghz[None, :] + _EPS * statics.capacities
    node_ok &= latency <= rows.deadline_s[:, None]
    tight = view.slots_left[di] <= 0
    if tight.any():
        node_ok[tight] &= view.presence[di[tight]]
    if view.any_down:
        node_ok &= view.up[None, :]
        live = (view.presence & view.up[None, :]).any(axis=1)
        if statics.origin_external is not None:
            # Shard-scoped gateway: a remote origin is always a clone
            # source (its health is the owning shard's concern), exactly
            # as ClusterState.has_live_copy counts external copies.
            live = live | statics.origin_external
        node_ok[~live[di]] = False
    return node_ok.any(axis=1)


def verdicts_from_pairs(
    rows: ScreenRows, pair_ok: np.ndarray, batch_size: int
) -> list[bool]:
    """Fold pair verdicts into per-query verdicts (all pairs must pass)."""
    verdict = np.ones(batch_size, dtype=bool)
    bad = rows.query_row[~pair_ok]
    if bad.size:
        verdict[bad] = False
    return verdict.tolist()


def snapshot_state(
    state: "ClusterState", statics: ScreenStatics
) -> StateSnapshot:
    """Read the live state arrays :func:`screen_rows` scores against."""
    return StateSnapshot(
        free_ghz=state.available_array(),
        up=state.up_mask(),
        slots_left=state.remaining_slots_array(statics.dataset_ids),
        presence=state.replica_presence_matrix(statics.dataset_ids),
    )

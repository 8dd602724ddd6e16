"""The screen's input tables: frozen instance arrays and a state read.

:mod:`repro.serve.screenpool` scores each micro-batch against two kinds
of input:

* :class:`ScreenStatics` — everything static about the screen, built
  once per instance (and again after a path recompute): per-node
  processing delays and capacities, per-dataset volumes, and the
  instance's full home→placement delay matrix;
* :class:`StateSnapshot` — the four live arrays read from the
  :class:`~repro.cluster.state.ClusterState` at batch start: free
  compute per node, node liveness, remaining ``K`` slots per dataset,
  and replica presence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instance import ProblemInstance

__all__ = ["ScreenStatics", "StateSnapshot"]


@dataclass(frozen=True)
class ScreenStatics:
    """Immutable per-instance arrays the screening kernel indexes.

    All arrays are placement-ordered (column ``i`` is
    ``placement_nodes[i]``); dataset-indexed arrays follow
    ``dataset_ids`` (the instance's sorted dataset ids).  Every element
    is the exact float the scalar accessors return, so screens computed
    from these tables are bit-identical to the per-pair prefilter.
    """

    dataset_ids: tuple[int, ...]
    dataset_index: dict[int, int]
    volumes_gb: np.ndarray  # float64[D]
    proc_delays: np.ndarray  # float64[N]
    capacities: np.ndarray  # float64[N]
    home_delays: np.ndarray  # float64[H, N] — row h = delays to home h
    #: Per-dataset flag: origin lives outside this gateway's shard, so
    #: the dataset stays clonable even with zero local copies.  ``None``
    #: for an unscoped gateway (the original single-gateway layout).
    origin_external: np.ndarray | None = None  # bool[D]

    @classmethod
    def from_instance(
        cls,
        instance: ProblemInstance,
        *,
        shard_nodes: tuple[int, ...] | None = None,
    ) -> "ScreenStatics":
        """Extract the static screen tables from ``instance``.

        ``shard_nodes`` marks datasets whose origin is outside the shard
        (see :attr:`origin_external`); the node-indexed tables stay full
        placement length — shard confinement rides on the ``-inf``
        available-compute mask the scoped state publishes.
        """
        dataset_ids = tuple(sorted(instance.datasets))
        volumes = np.fromiter(
            (instance.dataset(d).volume_gb for d in dataset_ids),
            dtype=np.float64,
            count=len(dataset_ids),
        )
        origin_external = None
        if shard_nodes is not None:
            local = frozenset(shard_nodes)
            origin_external = np.fromiter(
                (instance.dataset(d).origin_node not in local for d in dataset_ids),
                dtype=np.bool_,
                count=len(dataset_ids),
            )
        return cls(
            dataset_ids=dataset_ids,
            dataset_index={d: i for i, d in enumerate(dataset_ids)},
            volumes_gb=volumes,
            proc_delays=np.asarray(instance.proc_delays),
            capacities=np.asarray(instance.capacities),
            home_delays=np.asarray(instance.home_delay_matrix),
            origin_external=origin_external,
        )


@dataclass(frozen=True)
class StateSnapshot:
    """One read of the live state arrays (private copies)."""

    free_ghz: np.ndarray  # float64[N]
    up: np.ndarray  # bool[N]
    slots_left: np.ndarray  # int64[D]
    presence: np.ndarray  # bool[D, N]

    @property
    def any_down(self) -> bool:
        """Whether any placement node is marked down in this snapshot."""
        return not bool(self.up.all())

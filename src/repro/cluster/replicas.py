"""Replica placement ledger with the per-dataset ``K`` bound.

Tracks, for every dataset, the set of nodes holding a copy.  The original
(origin) copy is seeded at construction and can never be removed; total
copies per dataset (origin included) never exceed ``K`` — the paper's "each
dataset S_n has at most K replicas in the system".

A store may be scoped to a *shard* of the placement nodes
(``local_nodes``): it then tracks only the copies living on those nodes,
and datasets whose origin lies outside the shard carry one *external*
copy — the remote origin — which counts against ``K`` but is never
locally addressable.  With ``local_nodes=None`` (the default) nothing
changes: no external copies exist and every code path below reduces to
the original full-cluster behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.types import Dataset
from repro.util.validation import check_positive

if TYPE_CHECKING:
    from repro.cluster.journal import Journal

__all__ = ["ReplicaError", "ReplicaStore"]


class ReplicaError(RuntimeError):
    """Raised on invalid replica operations (over-K, duplicates, origins)."""


class ReplicaStore:
    """Mutable mapping: dataset id → nodes holding a copy.

    Parameters
    ----------
    datasets:
        The collection ``S``; origin copies are seeded from
        ``Dataset.origin_node``.
    max_replicas:
        ``K`` — upper bound on copies per dataset, origin included.
    local_nodes:
        When given, the store is shard-scoped: it only seeds origin
        copies whose node is in this set, and every dataset whose origin
        is *not* in it carries one permanent external copy (the remote
        origin) that consumes a ``K`` slot.  ``None`` means the store
        spans the whole cluster (the original behaviour).
    """

    __slots__ = ("max_replicas", "_origins", "_locations", "_external", "_journal")

    def __init__(
        self,
        datasets: Mapping[int, Dataset],
        max_replicas: int,
        *,
        local_nodes: Iterable[int] | None = None,
    ) -> None:
        check_positive("max_replicas", max_replicas)
        self.max_replicas = int(max_replicas)
        self._origins: dict[int, int] = {
            d.dataset_id: d.origin_node for d in datasets.values()
        }
        if local_nodes is None:
            self._locations: dict[int, set[int]] = {
                d.dataset_id: {d.origin_node} for d in datasets.values()
            }
            self._external: dict[int, int] = {}
        else:
            local = frozenset(local_nodes)
            self._locations = {
                d.dataset_id: ({d.origin_node} if d.origin_node in local else set())
                for d in datasets.values()
            }
            self._external = {
                d.dataset_id: 1
                for d in datasets.values()
                if d.origin_node not in local
            }
        self._journal: Journal | None = None

    def attach(self, journal: Journal) -> None:
        """Record undo entries in ``journal``: while one of its frames is
        open, the first change to a dataset's holder set saves the set as
        a ``frozenset`` so rollback can rebuild it."""
        self._journal = journal

    # -- queries ----------------------------------------------------------

    def origin(self, dataset_id: int) -> int:
        """Origin node of a dataset."""
        return self._origins[dataset_id]

    def nodes(self, dataset_id: int) -> frozenset[int]:
        """Nodes currently holding the dataset (origin included)."""
        return frozenset(self._locations[dataset_id])

    def count(self, dataset_id: int) -> int:
        """Copies of the dataset in the system (origin + external included)."""
        return len(self._locations[dataset_id]) + self._external.get(dataset_id, 0)

    def external_copies(self, dataset_id: int) -> int:
        """Copies held outside this store's shard (0 when unscoped)."""
        return self._external.get(dataset_id, 0)

    def has(self, dataset_id: int, node: int) -> bool:
        """Whether ``node`` holds a copy of the dataset."""
        return node in self._locations[dataset_id]

    def can_place(self, dataset_id: int, node: int) -> bool:
        """Whether a new replica may be placed at ``node`` (slot + absent)."""
        locs = self._locations[dataset_id]
        return node not in locs and self.count(dataset_id) < self.max_replicas

    def remaining_slots(self, dataset_id: int) -> int:
        """How many more replicas of the dataset may be created here."""
        return self.max_replicas - self.count(dataset_id)

    def datasets_on(self, node: int) -> frozenset[int]:
        """Datasets with a copy on ``node``."""
        return frozenset(
            d for d, locs in self._locations.items() if node in locs
        )

    def total_replicas(self) -> int:
        """Total local copies across all datasets (external copies excluded)."""
        return sum(len(locs) for locs in self._locations.values())

    def replica_map(self) -> dict[int, tuple[int, ...]]:
        """Immutable-ish export: dataset id → sorted node tuple."""
        return {d: tuple(sorted(locs)) for d, locs in self._locations.items()}

    # -- mutations ----------------------------------------------------------

    def place(self, dataset_id: int, node: int) -> None:
        """Place a new replica of ``dataset_id`` at ``node``.

        Raises
        ------
        ReplicaError
            If the node already holds the dataset or ``K`` is exhausted.
        """
        locs = self._locations[dataset_id]
        if node in locs:
            raise ReplicaError(
                f"dataset {dataset_id} already has a copy on node {node}"
            )
        if self.count(dataset_id) >= self.max_replicas:
            raise ReplicaError(
                f"dataset {dataset_id} already has K={self.max_replicas} copies"
            )
        self._save(dataset_id)
        locs.add(node)

    def remove(self, dataset_id: int, node: int) -> None:
        """Drop a replica (the origin copy is permanent).

        Raises
        ------
        ReplicaError
            If removing the origin copy or a copy that does not exist.
        """
        if node == self._origins[dataset_id]:
            raise ReplicaError(
                f"cannot remove the origin copy of dataset {dataset_id}"
            )
        locs = self._locations[dataset_id]
        if node not in locs:
            raise ReplicaError(
                f"dataset {dataset_id} has no copy on node {node}"
            )
        self._save(dataset_id)
        locs.remove(node)

    def _save(self, dataset_id: int) -> None:
        journal = self._journal
        if journal is not None and journal.claim(dataset_id):
            journal.record(
                dataset_id, self._reset, dataset_id, self.nodes(dataset_id)
            )

    def _reset(self, dataset_id: int, holders: frozenset[int]) -> None:
        self._locations[dataset_id] = set(holders)

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict[int, frozenset[int]]:
        """Copy of the location table, for rollback."""
        return {d: frozenset(locs) for d, locs in self._locations.items()}

    def restore(self, snap: Mapping[int, Iterable[int]]) -> None:
        """Replace the location table with a snapshot copy."""
        for d_id in self._locations:
            self._save(d_id)
        self._locations = {d: set(locs) for d, locs in snap.items()}

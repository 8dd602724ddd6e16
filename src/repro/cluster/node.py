"""Per-node computing-resource accounting.

Each placement node tracks its capacity ``B(v)``, the compute currently
allocated to admitted query evaluations, and the tags of those allocations
(so a rejected or departing query releases exactly what it took).  The
capacity invariant ``allocated <= capacity`` (within floating tolerance) is
enforced on every mutation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:
    import numpy as np

    from repro.cluster.journal import Journal

__all__ = ["CapacityError", "ComputeNode"]

#: Relative slack tolerated on the capacity invariant (floating error only).
_EPS = 1e-9


class CapacityError(RuntimeError):
    """Raised when an allocation would exceed a node's capacity."""


class ComputeNode:
    """Mutable compute ledger for one placement node.

    Parameters
    ----------
    node_id:
        Topology node id.
    capacity_ghz:
        ``B(v)``; fixed for the node's lifetime.
    reserved_ghz:
        Compute already in use before this problem instance (models the
        paper's distinction between capacity ``B(v)`` and *available*
        resource ``A(v) = B(v) - reserved``).

    A :class:`~repro.cluster.state.ClusterState` attaches each of its
    ledgers (:meth:`attach`) to its undo :class:`~repro.cluster.journal.Journal`
    and to its available/utilisation vectors.  Every mutation then
    records its undo while a transaction is open and rewrites this node's
    two vector entries with the scalar properties' own expressions, so
    code that mutates a ledger directly stays transactional and keeps the
    vectors exact.  A detached node does neither.
    """

    __slots__ = (
        "node_id",
        "capacity_ghz",
        "_reserved_ghz",
        "_allocations",
        "_total",
        "_journal",
        "_views",
    )

    def __init__(
        self, node_id: int, capacity_ghz: float, reserved_ghz: float = 0.0
    ) -> None:
        check_positive("capacity_ghz", capacity_ghz)
        check_non_negative("reserved_ghz", reserved_ghz)
        if reserved_ghz > capacity_ghz * (1.0 + _EPS):
            raise CapacityError(
                f"node {node_id}: reserved {reserved_ghz} exceeds capacity "
                f"{capacity_ghz}"
            )
        self.node_id = node_id
        self.capacity_ghz = float(capacity_ghz)
        self._reserved_ghz = float(reserved_ghz)
        self._allocations: dict[object, float] = {}
        # ``sum(())``: the total is always exactly the left-to-right sum of
        # the live amounts, down to its type, whether it was accumulated,
        # re-folded or rebuilt from a snapshot.
        self._total: float = 0
        self._journal: Journal | None = None
        self._views: tuple[np.ndarray, np.ndarray, int] | None = None

    def attach(
        self,
        journal: Journal,
        available: np.ndarray,
        utilization: np.ndarray,
        position: int,
    ) -> None:
        """Record undo entries in ``journal`` and keep entry ``position``
        of the ``available``/``utilization`` vectors current."""
        self._journal = journal
        self._views = (available, utilization, position)
        self._sync()

    def _sync(self) -> None:
        views = self._views
        if views is not None:
            available, utilization, position = views
            available[position] = self.available_ghz
            utilization[position] = self.utilization

    @property
    def reserved_ghz(self) -> float:
        """Compute held by background work outside this library."""
        return self._reserved_ghz

    @reserved_ghz.setter
    def reserved_ghz(self, value: float) -> None:
        self._reserved_ghz = value
        self._sync()

    @property
    def allocated_ghz(self) -> float:
        """Compute allocated to query evaluations by this library."""
        return self._total

    @property
    def available_ghz(self) -> float:
        """``A(v)`` — capacity minus reservations minus allocations."""
        return self.capacity_ghz - self._reserved_ghz - self._total

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use, in [0, 1]."""
        return (self._reserved_ghz + self._total) / self.capacity_ghz

    def can_fit(self, amount_ghz: float) -> bool:
        """Whether an allocation of ``amount_ghz`` would respect capacity."""
        return amount_ghz <= self.available_ghz + _EPS * self.capacity_ghz

    def allocate(self, tag: object, amount_ghz: float) -> None:
        """Allocate ``amount_ghz`` under ``tag``.

        Raises
        ------
        CapacityError
            If the allocation does not fit or the tag is already in use.
        """
        check_non_negative("amount_ghz", amount_ghz)
        if tag in self._allocations:
            raise CapacityError(f"node {self.node_id}: tag {tag!r} already allocated")
        if not self.can_fit(amount_ghz):
            raise CapacityError(
                f"node {self.node_id}: cannot allocate {amount_ghz:.3f} GHz "
                f"(available {self.available_ghz:.3f})"
            )
        journal = self._journal
        if journal is not None and journal.tracks(self):
            journal.record(self, self._unallocate, tag, self._total)
        self._allocations[tag] = float(amount_ghz)
        self._total += float(amount_ghz)
        self._sync()

    def _unallocate(self, tag: object, total: float) -> None:
        # Undo of ``allocate``: ``tag`` is the newest key, so deleting it
        # leaves the dict exactly as it was before the allocation.
        del self._allocations[tag]
        self._total = total
        self._sync()

    def _save(self) -> None:
        # First destructive change inside an open transaction frame: keep
        # the ledger as it stands so rollback can restore it.
        journal = self._journal
        if journal is not None and journal.claim(self):
            journal.record(self, self._load, self.snapshot())

    def release(self, tag: object) -> float:
        """Release the allocation under ``tag``; returns the freed amount."""
        if tag not in self._allocations:
            raise CapacityError(
                f"node {self.node_id}: no allocation under tag {tag!r}"
            )
        self._save()
        amount = self._allocations.pop(tag)
        # Re-fold instead of decrementing: ``_total`` stays exactly the
        # left-to-right sum of the surviving amounts, so a ledger rebuilt
        # from a state dump (replaying allocations in insertion order)
        # reproduces the live value bit-for-bit.
        self._total = sum(self._allocations.values())
        self._sync()
        return amount

    def release_all(self) -> tuple[object, ...]:
        """Release every allocation at once; returns the tags in insertion
        order.  Same result as releasing them one by one, in O(n)."""
        tags = tuple(self._allocations)
        if tags:
            self._save()
            self._allocations = {}
            self._total = 0  # sum(()), as the last one-by-one release leaves it
            self._sync()
        return tags

    def allocation_tags(self) -> tuple[object, ...]:
        """Tags of live allocations (insertion order)."""
        return tuple(self._allocations)

    def snapshot(self) -> dict[object, float]:
        """Copy of the allocation ledger."""
        return dict(self._allocations)

    def restore(self, ledger: dict[object, float]) -> None:
        """Replace the allocation ledger with a snapshot copy."""
        self._save()
        self._load(ledger)

    def _load(self, ledger: dict[object, float]) -> None:
        self._allocations = dict(ledger)
        self._total = sum(ledger.values())
        self._sync()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputeNode(id={self.node_id}, cap={self.capacity_ghz:.1f}, "
            f"alloc={self._total:.2f})"
        )

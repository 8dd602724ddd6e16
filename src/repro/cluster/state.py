"""Combined mutable cluster state with transactional rollback.

:class:`ClusterState` owns one :class:`~repro.cluster.node.ComputeNode` per
placement node plus the :class:`~repro.cluster.replicas.ReplicaStore`, and
provides the two operations every placement algorithm needs:

* ``serve(query, dataset, node)`` — place a replica if needed and allocate
  ``|S_n|·r_m`` GHz on the node, returning the resulting
  :class:`~repro.core.types.Assignment`;
* ``transaction()`` — a context manager that rolls back every mutation
  made inside the block unless it calls :meth:`Transaction.commit` (used
  for all-or-nothing admission of multi-dataset queries).  The ledgers
  journal their own undo records (:mod:`repro.cluster.journal`), so a
  transaction costs what its block touches, not a copy of the state.

A state may be *shard-scoped* (``shard_nodes=...``): it then owns ledgers
for a subset of the placement nodes only, masks every other node out of
its vectorised views (``-inf`` available compute auto-fails every
capacity screen), and accounts datasets with remote origins through the
:class:`~repro.cluster.replicas.ReplicaStore` external-copy ledger.  The
sharded serving control plane (:mod:`repro.serve.shard`) builds one such
state per shard gateway; reservation bookkeeping
(:meth:`ClusterState.record_reservation` /
:meth:`~ClusterState.commit_reservation` /
:meth:`~ClusterState.abort_reservation`) backs its two-phase cross-shard
admission protocol.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from repro.cluster.journal import Journal
from repro.cluster.node import CapacityError, ComputeNode, _EPS
from repro.cluster.replicas import ReplicaError, ReplicaStore
from repro.core.instance import ProblemInstance
from repro.core.metrics import InvariantViolation
from repro.core.types import Assignment, Dataset, Query

if TYPE_CHECKING:  # cluster → network import stays lazy at runtime
    from repro.network.dynamics import LinkState

__all__ = ["ClusterState", "Reservation", "Transaction"]


@dataclass(frozen=True)
class Reservation:
    """Provisional admission held by a shard pending cross-shard consensus.

    The reserve phase applies the placement for one query's shard-local
    dataset subset *for real* (allocations + replicas), then records this
    receipt.  Commit merely forgets the receipt (the resources are
    already held); abort releases every allocation and removes every
    replica the reserve newly placed — precise undo, never a leak.
    """

    reservation_id: str
    query_id: int
    #: Assignments the reserve committed (one per shard-local dataset).
    assignments: tuple[Assignment, ...]
    #: ``(dataset_id, node)`` pairs for replicas that did not exist
    #: before the reserve — *all* new holders, including copies a
    #: placement rule's walk left behind on nodes it did not assign.
    placed: tuple[tuple[int, int], ...]


class Transaction:
    """Handle for an open :meth:`ClusterState.transaction` block."""

    __slots__ = ("_committed",)

    def __init__(self) -> None:
        self._committed = False

    def commit(self) -> None:
        """Keep the mutations made inside the block."""
        self._committed = True

    @property
    def committed(self) -> bool:
        """Whether :meth:`commit` was called."""
        return self._committed


class ClusterState:
    """Mutable compute + replica state for one problem instance.

    Parameters
    ----------
    instance:
        The problem instance; capacities and origin copies are read from it.
    reserved_fraction:
        Fraction of each node's capacity already consumed by background
        work (``A(v) = (1 - reserved_fraction)·B(v)``). Defaults to 0 —
        the whole capacity is available, as in the paper's simulations.
    shard_nodes:
        When given, scope this state to that subset of the placement
        nodes: only those nodes get compute ledgers, vectorised views
        stay full placement length but mask every other node out
        (``-inf`` available compute), and datasets with remote origins
        are tracked through the replica store's external-copy ledger.  A
        subset covering *all* placement nodes is normalised to ``None``
        (full scope) so a 1-shard deployment runs the byte-identical
        unscoped code path.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        *,
        reserved_fraction: float = 0.0,
        shard_nodes: Iterable[int] | None = None,
    ) -> None:
        if not 0.0 <= reserved_fraction < 1.0:
            raise ValueError(
                f"reserved_fraction must be in [0, 1), got {reserved_fraction}"
            )
        self.instance = instance
        if shard_nodes is not None:
            wanted = set(shard_nodes)
            unknown = wanted - set(instance.placement_nodes)
            if unknown:
                raise ValueError(
                    f"shard_nodes contains non-placement nodes {sorted(unknown)}"
                )
            if not wanted:
                raise ValueError("shard_nodes must name at least one node")
            if len(wanted) == instance.num_placement_nodes:
                shard_nodes = None  # full coverage: plain unscoped state
            else:
                # Members kept in placement order so iteration over
                # ``self.nodes`` matches the unscoped ordering contract.
                shard_nodes = tuple(
                    v for v in instance.placement_nodes if v in wanted
                )
        self.shard_nodes: tuple[int, ...] | None = shard_nodes
        members = instance.placement_nodes if shard_nodes is None else shard_nodes
        self.nodes: dict[int, ComputeNode] = {
            v: ComputeNode(
                v,
                instance.topology.capacity(v),
                reserved_ghz=reserved_fraction * instance.topology.capacity(v),
            )
            for v in members
        }
        self.replicas = ReplicaStore(
            instance.datasets, instance.max_replicas, local_nodes=shard_nodes
        )
        # Every ledger journals into one undo log and keeps its own entries
        # of the available/utilisation vectors current (out-of-shard
        # entries stay -inf / 0.0).
        self._journal = Journal()
        self.replicas.attach(self._journal)
        num_nodes = instance.num_placement_nodes
        self._available = np.full(num_nodes, -np.inf)
        self._utilization = np.zeros(num_nodes, dtype=np.float64)
        node_index = instance.node_index
        for v, ledger in self.nodes.items():
            ledger.attach(
                self._journal, self._available, self._utilization, node_index[v]
            )
        self._down: set[int] = set()
        self._reservations: dict[str, Reservation] = {}

    # -- liveness ---------------------------------------------------------
    #
    # Fault injection (``repro.sim.faults``) marks nodes down/up while an
    # online session runs.  All feasibility queries and ``serve`` exclude
    # down nodes; every check is guarded by ``self._down`` being non-empty
    # so the fault-free paths stay bit-identical to the pre-fault code.

    @property
    def has_down_nodes(self) -> bool:
        """Whether any placement node is currently marked down."""
        return bool(self._down)

    def is_up(self, node: int) -> bool:
        """Whether ``node`` is currently serving (not crashed)."""
        return node not in self._down

    def down_nodes(self) -> frozenset[int]:
        """The placement nodes currently marked down."""
        return frozenset(self._down)

    def up_mask(self) -> np.ndarray:
        """Boolean up/down vector over placement nodes, in placement order."""
        mask = np.ones(self.instance.num_placement_nodes, dtype=bool)
        if self._down:
            node_index = self.instance.node_index
            mask[[node_index[v] for v in self._down]] = False
        return mask

    def has_live_copy(self, dataset_id: int) -> bool:
        """Whether any *up* node holds a copy to serve or clone from.

        External copies (a remote origin, in a shard-scoped state) count
        as live: their health is the owning shard's concern, and they
        remain a clone source for this shard.  Unscoped states have no
        external copies, so the fault-injection semantics are unchanged.
        """
        if not self._down:
            return True
        if any(v not in self._down for v in self.replicas.nodes(dataset_id)):
            return True
        return self.replicas.external_copies(dataset_id) > 0

    def mark_down(self, node: int) -> None:
        """Take ``node`` offline (idempotence is an error: a down node
        cannot crash again)."""
        if node not in self.nodes:
            raise ValueError(f"unknown placement node {node}")
        if node in self._down:
            raise ValueError(f"node {node} is already down")
        self._down.add(node)

    def mark_up(self, node: int) -> None:
        """Bring ``node`` back online."""
        if node not in self._down:
            raise ValueError(f"node {node} is not down")
        self._down.discard(node)

    def evict_allocations(self, node: int) -> tuple[object, ...]:
        """Drop every live allocation on ``node`` (a crash kills them).

        Returns the evicted tags in allocation (insertion) order so the
        caller can map them back to running queries.
        """
        return self.nodes[node].release_all()

    def drop_replicas(self, node: int) -> tuple[int, ...]:
        """Destroy the non-origin replicas on ``node`` (freeing K slots).

        Origin copies are *not* dropped — mirroring
        :func:`repro.core.repair.repair_placement`, the record of the
        authoritative copy survives its node being down (it still occupies
        a ``K`` slot and returns to service when the node recovers).
        Returns the dataset ids whose copy on ``node`` was destroyed.
        """
        dropped = []
        for d_id in sorted(self.replicas.datasets_on(node)):
            if self.replicas.origin(d_id) != node:
                self.replicas.remove(d_id, node)
                dropped.append(d_id)
        return tuple(dropped)

    # -- feasibility ------------------------------------------------------

    def pair_latency(self, query: Query, dataset: Dataset, node: int) -> float:
        """Analytic per-dataset latency of serving at ``node`` (§2.3)."""
        return self.instance.pair_latency(query, dataset, node)

    def meets_deadline(self, query: Query, dataset: Dataset, node: int) -> bool:
        """Whether serving ``dataset`` at ``node`` respects ``d_qm``."""
        return self.pair_latency(query, dataset, node) <= query.deadline_s

    def compute_demand(self, query: Query, dataset: Dataset) -> float:
        """Compute the pair would consume: ``|S_n|·r_m`` GHz."""
        return dataset.volume_gb * query.compute_rate

    # -- vectorised views -------------------------------------------------
    #
    # The ledgers maintain these vectors themselves: every ComputeNode
    # mutation, direct ones included, rewrites its node's entries with
    # the scalar properties' own expressions.  Each element is therefore
    # the exact float the scalar property returns, so vectorised
    # feasibility decisions match scalar ones bit-for-bit, and
    # :meth:`check_invariants` verifies the vectors against ledgers.

    def available_array(self) -> np.ndarray:
        """``A(v)`` per placement node, in placement order (GHz).

        Always full placement length.  In a shard-scoped state,
        out-of-shard entries are ``-inf`` — every capacity comparison of
        the form ``demand <= available + eps·capacity`` then auto-fails
        for them, which is what confines every screen, candidate set and
        placement rule to the shard without any of them knowing about
        shards.  Returns a copy.
        """
        return self._available.copy()

    def utilization_array(self) -> np.ndarray:
        """Utilisation fraction per placement node, in placement order.

        Full placement length; out-of-shard entries read 0.0 in a
        shard-scoped state (price terms only ever index candidate
        positions, which the ``-inf`` capacity mask keeps in-shard).
        Returns a copy.
        """
        return self._utilization.copy()

    def _rebuilt_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Both vectors recomputed from the ledgers' scalar properties."""
        available = np.full(self.instance.num_placement_nodes, -np.inf)
        utilization = np.zeros(self.instance.num_placement_nodes, dtype=np.float64)
        node_index = self.instance.node_index
        for v, ledger in self.nodes.items():
            available[node_index[v]] = ledger.available_ghz
            utilization[node_index[v]] = ledger.utilization
        return available, utilization

    def replica_presence_matrix(
        self, dataset_ids: Iterable[int] | None = None
    ) -> np.ndarray:
        """Replica presence as a dense ``(dataset, node)`` boolean matrix.

        Row ``r`` corresponds to ``dataset_ids[r]`` (the sorted dataset
        ids by default), column ``i`` to ``placement_nodes[i]``; an entry
        is ``True`` iff that node holds a copy.  This is the dense form
        of :meth:`ReplicaStore.nodes` the batch screen indexes.
        """
        inst = self.instance
        ids = sorted(inst.datasets) if dataset_ids is None else list(dataset_ids)
        matrix = np.zeros((len(ids), inst.num_placement_nodes), dtype=bool)
        node_index = inst.node_index
        for row, d_id in enumerate(ids):
            holders = self.replicas.nodes(d_id)
            if holders:
                matrix[row, [node_index[v] for v in holders]] = True
        return matrix

    def remaining_slots_array(
        self, dataset_ids: Iterable[int] | None = None
    ) -> np.ndarray:
        """:meth:`ReplicaStore.remaining_slots` per dataset, as int64.

        Entry ``r`` corresponds to ``dataset_ids[r]`` (sorted ids by
        default) — how many more replicas of that dataset may be created.
        """
        inst = self.instance
        ids = sorted(inst.datasets) if dataset_ids is None else list(dataset_ids)
        return np.fromiter(
            (self.replicas.remaining_slots(d) for d in ids),
            dtype=np.int64,
            count=len(ids),
        )

    def can_fit_mask(self, amount_ghz: float) -> np.ndarray:
        """Vectorised :meth:`~repro.cluster.node.ComputeNode.can_fit`.

        Element ``i`` is whether placement node ``i`` (placement order)
        can take an allocation of ``amount_ghz``, with the same epsilon
        slack as the scalar check.
        """
        return amount_ghz <= self._available + _EPS * self.instance.capacities

    def can_serve(self, query: Query, dataset: Dataset, node: int) -> bool:
        """Deadline + capacity + replica (+ liveness) feasibility at ``node``."""
        if self.shard_nodes is not None and node not in self.nodes:
            return False
        if self._down:
            if node in self._down:
                return False
            if not self.replicas.has(dataset.dataset_id, node) and not (
                self.has_live_copy(dataset.dataset_id)
            ):
                return False  # no surviving copy to clone a new replica from
        if not self.nodes[node].can_fit(self.compute_demand(query, dataset)):
            return False
        if not (
            self.replicas.has(dataset.dataset_id, node)
            or self.replicas.can_place(dataset.dataset_id, node)
        ):
            return False
        return self.meets_deadline(query, dataset, node)

    def can_serve_mask(self, query: Query, dataset: Dataset) -> np.ndarray:
        """Vectorised :meth:`can_serve` over all placement nodes.

        Element ``i`` equals ``can_serve(query, dataset, placement_nodes[i])``
        — the same capacity epsilon, replica-slot rule (``has ∨ can_place``
        collapses to ``has ∨ slots-remain``) and deadline comparison, each
        evaluated as one array pass.
        """
        inst = self.instance
        d_id = dataset.dataset_id
        mask = self.can_fit_mask(self.compute_demand(query, dataset))
        holders = self.replicas.nodes(d_id)
        if self.replicas.remaining_slots(d_id) <= 0:
            has_replica = np.zeros(inst.num_placement_nodes, dtype=bool)
            if holders:
                node_index = inst.node_index
                has_replica[[node_index[v] for v in holders]] = True
            mask &= has_replica
        if self._down:
            mask &= self.up_mask()
            if not self.has_live_copy(d_id):
                # No surviving copy anywhere: non-holders cannot clone and
                # every holder is down, so nothing can serve the pair.
                mask &= False
        latency = inst.pair_latency_vector(query, dataset)
        return mask & (latency <= query.deadline_s)

    # -- mutation ---------------------------------------------------------

    def serve(self, query: Query, dataset: Dataset, node: int) -> Assignment:
        """Commit serving ``dataset`` for ``query`` at ``node``.

        Places a replica when the node lacks one (consuming a ``K`` slot)
        and allocates the pair's compute.  Raises
        :class:`~repro.cluster.node.CapacityError` /
        :class:`~repro.cluster.replicas.ReplicaError` / ``ValueError``
        when infeasible, leaving state unchanged.
        """
        if self.shard_nodes is not None and node not in self.nodes:
            raise CapacityError(f"node {node} is outside this shard")
        if self._down:
            if node in self._down:
                raise CapacityError(f"node {node} is down")
            if not self.replicas.has(dataset.dataset_id, node) and not (
                self.has_live_copy(dataset.dataset_id)
            ):
                raise ReplicaError(
                    f"dataset {dataset.dataset_id} has no live copy to clone"
                )
        latency = self.pair_latency(query, dataset, node)
        if latency > query.deadline_s:
            raise ValueError(
                f"query {query.query_id} at node {node}: latency {latency:.3f}s "
                f"exceeds deadline {query.deadline_s:.3f}s"
            )
        placed_here = False
        if not self.replicas.has(dataset.dataset_id, node):
            self.replicas.place(dataset.dataset_id, node)  # may raise ReplicaError
            placed_here = True
        tag = (query.query_id, dataset.dataset_id)
        try:
            self.nodes[node].allocate(tag, self.compute_demand(query, dataset))
        except CapacityError:
            if placed_here:
                self.replicas.remove(dataset.dataset_id, node)
            raise
        return Assignment(
            query_id=query.query_id,
            dataset_id=dataset.dataset_id,
            node=node,
            latency_s=latency,
            compute_ghz=self.compute_demand(query, dataset),
        )

    def release(self, assignment: Assignment) -> None:
        """Undo an assignment's compute allocation (replicas stay placed)."""
        self.nodes[assignment.node].release(
            (assignment.query_id, assignment.dataset_id)
        )

    # -- reservations -------------------------------------------------------
    #
    # Two-phase cross-shard admission (repro.serve.router) applies a
    # query's shard-local placement for real during the reserve phase and
    # records a Reservation receipt here.  Commit forgets the receipt;
    # abort performs precise undo.  The receipts themselves are *not*
    # checkpointed: a restart restores the reserved allocations as
    # ordinary recovery holds, which release them after the recovery
    # window — the same self-healing a TTL expiry provides live.

    def record_reservation(self, reservation: Reservation) -> None:
        """Register a pending two-phase reservation receipt."""
        if reservation.reservation_id in self._reservations:
            raise ValueError(
                f"reservation {reservation.reservation_id!r} already pending"
            )
        self._reservations[reservation.reservation_id] = reservation

    def has_reservation(self, reservation_id: str) -> bool:
        """Whether a reservation receipt is still pending."""
        return reservation_id in self._reservations

    def pending_reservations(self) -> int:
        """Number of reservations awaiting commit or abort."""
        return len(self._reservations)

    def commit_reservation(self, reservation_id: str) -> Reservation:
        """Finalise a reservation: its resources stay held.

        The reserve phase already applied the placement, so committing
        only drops the receipt and hands it back (the caller arms the
        usual hold timers from it).
        """
        try:
            return self._reservations.pop(reservation_id)
        except KeyError:
            raise ValueError(
                f"no pending reservation {reservation_id!r}"
            ) from None

    def abort_reservation(self, reservation_id: str) -> Reservation | None:
        """Undo a reservation; idempotent (unknown ids return ``None``).

        Releases every allocation the reserve made (tolerating ones a
        crash already evicted) and removes every replica it newly placed
        — unless the copy has since vanished with its node, is an origin
        copy, or some *other* live allocation on that node now streams
        from it (then removing it would corrupt that query's service).
        """
        reservation = self._reservations.pop(reservation_id, None)
        if reservation is None:
            return None
        for a in reservation.assignments:
            try:
                self.nodes[a.node].release((a.query_id, a.dataset_id))
            except CapacityError:
                pass  # evicted by a crash between reserve and abort
        for d_id, v in reservation.placed:
            if not self.replicas.has(d_id, v):
                continue  # dropped with a crashed node
            if self.replicas.origin(d_id) == v:
                continue
            if any(tag[1] == d_id for tag in self.nodes[v].allocation_tags()):
                continue  # another admission now depends on this copy
            self.replicas.remove(d_id, v)
        return reservation

    # -- transactions -------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Roll back every mutation made in the block unless committed.

        The ledgers journal undo records while the block runs (see
        :mod:`repro.cluster.journal`): entering and committing cost O(1)
        and a rollback O(what the block touched).  A rollback restores
        ledger dict order, totals and replica sets exactly as a full
        snapshot restore would.  Transactions nest; an inner commit hands
        its records to the enclosing transaction.

        Up/down liveness is *not* transactional, but a rollback is
        liveness-aware: if a node crashed *while the transaction was
        open* (the re-optimizer's write-behind migration steps and the
        serving gateway interleave transactions with fault events),
        undoing the block must not resurrect the allocations the crash
        evicted or the replicas it destroyed — so after a rollback every
        currently-down node is re-evicted and re-stripped of non-origin
        replicas.  With no nodes down (the batch and fault-free online
        paths) the rollback is the plain undo, bit for bit.

        Examples
        --------
        >>> # inside an algorithm:
        >>> # with state.transaction() as txn:
        >>> #     for ds in query_datasets: state.serve(query, ds, pick(ds))
        >>> #     txn.commit()   # omit to roll everything back
        """
        journal = self._journal
        journal.begin()
        txn = Transaction()
        try:
            yield txn
        finally:
            if txn.committed:
                journal.commit()
            else:
                journal.rollback()
                for v in self._down:
                    self.evict_allocations(v)
                    self.drop_replicas(v)

    # -- invariants ----------------------------------------------------------

    def check_invariants(
        self,
        inflight: Iterable[Assignment] = (),
        *,
        deadlines: Mapping[int, float] | None = None,
        link_state: "LinkState | None" = None,
        homes: Mapping[int, int] | None = None,
    ) -> None:
        """Re-check the live-state counterparts of the ILP constraints.

        The serving-path analogue of :func:`repro.core.metrics.verify_solution`
        — callable at *any* instant of an online run, between migration
        steps, after a transaction rollback, or after an injected crash:

        1. per-node ledgers are internally consistent (the cached total is
           exactly the sum of the live allocations) and within capacity,
           and the maintained available/utilisation vectors equal vectors
           rebuilt from the ledgers, byte for byte;
        2. every dataset holds ≤ K copies, on placement nodes only, and
           its origin-ledger entry survives;
        3. crash semantics hold on every down node: no live allocations,
           no non-origin replicas;
        4. every ``inflight`` assignment is backed by a replica at its
           node and an allocation ledger entry of the exact compute it
           recorded; with ``deadlines`` (query id → deadline seconds) its
           latency also still meets the query's deadline;
        5. with ``link_state`` (a :class:`~repro.network.dynamics.LinkState`
           whose events drive this instance's path cache), every
           ``inflight`` assignment's serving path — node → query home —
           exists under the current effective delays and crosses no
           severed link.  ``homes`` (query id → home node) overrides the
           instance's query table for sessions whose query ids are not
           instance indices.  Omitting ``link_state`` (every
           dynamics-free run) skips this check entirely.

        Raises :class:`~repro.core.metrics.InvariantViolation` on the
        first violated constraint.
        """
        inst = self.instance
        for v, ledger in self.nodes.items():
            total = sum(ledger.snapshot().values())
            if ledger.allocated_ghz != total:
                raise InvariantViolation(
                    f"node {v} ledger total {ledger.allocated_ghz!r} != "
                    f"sum of allocations {total!r}"
                )
            if ledger.allocated_ghz + ledger.reserved_ghz > ledger.capacity_ghz * (
                1.0 + _EPS
            ):
                raise InvariantViolation(
                    f"node {v} load {ledger.allocated_ghz + ledger.reserved_ghz:.3f} "
                    f"GHz exceeds capacity {ledger.capacity_ghz:.3f} GHz"
                )
        for name, maintained, rebuilt in zip(
            ("available", "utilization"),
            (self._available, self._utilization),
            self._rebuilt_arrays(),
        ):
            if maintained.tobytes() != rebuilt.tobytes():
                bad = np.nonzero(maintained.view(np.int64) != rebuilt.view(np.int64))[0]
                raise InvariantViolation(
                    f"maintained {name} vector {maintained[bad].tolist()!r} != "
                    f"ledgers {rebuilt[bad].tolist()!r} at placement positions "
                    f"{bad.tolist()}"
                )
        placement = (
            set(inst.placement_nodes)
            if self.shard_nodes is None
            else set(self.nodes)
        )
        for d_id in inst.datasets:
            nodes = self.replicas.nodes(d_id)
            external = self.replicas.external_copies(d_id)
            if len(nodes) + external > inst.max_replicas:
                raise InvariantViolation(
                    f"dataset {d_id} has {len(nodes) + external} > "
                    f"K={inst.max_replicas} copies"
                )
            origin = self.replicas.origin(d_id)
            if external == 0 and origin not in nodes:
                raise InvariantViolation(
                    f"dataset {d_id} lost its origin copy at {origin}"
                )
            for v in nodes:
                if v not in placement:
                    raise InvariantViolation(
                        f"dataset {d_id} replicated to non-placement node {v}"
                    )
                if v in self._down and v != origin:
                    raise InvariantViolation(
                        f"dataset {d_id} keeps a non-origin copy on down node {v}"
                    )
        for v in self._down:
            if self.nodes[v].allocation_tags():
                raise InvariantViolation(
                    f"down node {v} still holds live allocations"
                )
        for a in inflight:
            if not self.replicas.has(a.dataset_id, a.node):
                raise InvariantViolation(
                    f"in-flight pair ({a.query_id}, {a.dataset_id}) served at "
                    f"node {a.node} without a replica"
                )
            ledger = self.nodes[a.node]
            recorded = ledger.snapshot().get((a.query_id, a.dataset_id))
            if recorded != a.compute_ghz:
                raise InvariantViolation(
                    f"in-flight pair ({a.query_id}, {a.dataset_id}) allocation "
                    f"{recorded!r} != assignment compute {a.compute_ghz!r}"
                )
            if deadlines is not None and a.query_id in deadlines:
                if a.latency_s > deadlines[a.query_id] * (1.0 + _EPS):
                    raise InvariantViolation(
                        f"in-flight pair ({a.query_id}, {a.dataset_id}) latency "
                        f"{a.latency_s:.4f}s exceeds deadline "
                        f"{deadlines[a.query_id]:.4f}s"
                    )
            if link_state is not None:
                self._check_serving_path(a, link_state, homes)

    def _check_serving_path(
        self,
        a: Assignment,
        link_state: "LinkState",
        homes: Mapping[int, int] | None,
    ) -> None:
        """Invariant 5: the pair's node → home path avoids severed links."""
        from repro.network.routing import extract_path

        inst = self.instance
        if homes is not None:
            home = homes.get(a.query_id)
            if home is None:
                return  # unknown query (e.g. ad-hoc gateway id): nothing to pin
        elif 0 <= a.query_id < inst.num_queries:
            home = inst.query(a.query_id).home_node
        else:
            return
        if not inst.paths.reachable(a.node, home):
            raise InvariantViolation(
                f"in-flight pair ({a.query_id}, {a.dataset_id}) served at "
                f"node {a.node} is partitioned from home {home}"
            )
        try:
            path = extract_path(inst.paths, a.node, home)
        except ValueError as exc:
            raise InvariantViolation(
                f"in-flight pair ({a.query_id}, {a.dataset_id}) has no "
                f"serving path: {exc}"
            ) from exc
        for u, v in zip(path, path[1:]):
            if link_state.is_severed(u, v):
                raise InvariantViolation(
                    f"in-flight pair ({a.query_id}, {a.dataset_id}) path "
                    f"crosses severed link ({u}, {v})"
                )

    # -- reporting -----------------------------------------------------------

    def total_allocated(self) -> float:
        """Total compute allocated across all nodes (GHz)."""
        return sum(n.allocated_ghz for n in self.nodes.values())

    def utilization_by_node(self) -> dict[int, float]:
        """Node id → utilisation fraction."""
        return {v: n.utilization for v, n in self.nodes.items()}

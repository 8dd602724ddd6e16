"""Copy-everything rollback: the reference the undo journal must match.

:class:`SnapshotState` is a :class:`~repro.cluster.state.ClusterState`
whose ``transaction()`` copies every node ledger and the whole replica
table on entry and restores all of them on rollback, and whose crash
eviction releases a node's allocations one tag at a time.  This is how
the state behaved before it journaled undo records; the journal suite
(``test_journal.py``) runs both side by side and demands identical
ledgers, totals, replica sets and vectors after every step.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.cluster.state import ClusterState, Transaction


class SnapshotState(ClusterState):
    """Cluster state with snapshot-on-entry transactions."""

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        node_snaps = {v: n.snapshot() for v, n in self.nodes.items()}
        replica_snap = self.replicas.snapshot()
        txn = Transaction()
        try:
            yield txn
        finally:
            if not txn.committed:
                for v, ledger in node_snaps.items():
                    self.nodes[v].restore(ledger)
                self.replicas.restore(replica_snap)
                for v in self._down:
                    self.evict_allocations(v)
                    self.drop_replicas(v)

    def evict_allocations(self, node: int) -> tuple[object, ...]:
        ledger = self.nodes[node]
        tags = ledger.allocation_tags()
        for tag in tags:
            ledger.release(tag)
        return tags

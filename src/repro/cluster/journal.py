"""Undo journal behind :meth:`ClusterState.transaction`.

A :class:`~repro.cluster.state.ClusterState` opens one *frame* per
``transaction()`` block.  While a frame is open, each
:class:`~repro.cluster.node.ComputeNode` and
:class:`~repro.cluster.replicas.ReplicaStore` mutation records just enough
to undo itself, so entering, committing or rolling back a transaction
costs O(what the block touched) instead of a copy of every ledger:

* ``allocate`` records its tag and the ledger's previous total.  Undo
  deletes the key — the last one inserted, so dict order comes back
  exactly — and puts the saved total back.
* The first destructive change to a ledger inside a frame (``release``,
  ``restore``, crash eviction) saves a copy of the ledger as it stands.
  Undo restores the ledger from that copy.  Later changes to the same
  ledger in the frame record nothing: restoring the copy covers them.
* The first change to a dataset's replica set inside a frame saves the
  set as a ``frozenset``; undo rebuilds it with ``set(...)``.

Rollback replays the frame's records newest first, so each undo sees the
ledger exactly as its mutation left it.  Frames nest: committing an inner
frame hands its records to the enclosing one, rolling it back undoes only
its own.  With no frame open every hook returns at once.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Journal"]


class Journal:
    """Stack of open transaction frames over one shared undo log.

    Ledgers key their saved copies by identity: a
    :class:`~repro.cluster.node.ComputeNode` by itself, a replica set by
    its dataset id (one store per journal).
    """

    __slots__ = ("_entries", "_frames")

    def __init__(self) -> None:
        #: Undo records, oldest first: ``(key, undo, *args)``.
        self._entries: list[tuple[Any, ...]] = []
        #: Open frames, innermost last: ``(first entry, saved keys)``.
        self._frames: list[tuple[int, set[object]]] = []

    def begin(self) -> None:
        """Open a frame."""
        self._frames.append((len(self._entries), set()))

    def commit(self) -> None:
        """Close the innermost frame keeping its mutations.

        The enclosing frame inherits the records, minus those for keys it
        had already saved before this frame opened: its own earlier copy
        covers them, and it records nothing further for such keys, so
        replaying them could meet a ledger they no longer describe.
        """
        start, saved = self._frames.pop()
        if not self._frames:
            self._entries.clear()
            return
        outer = self._frames[-1][1]
        if outer:
            tail = self._entries[start:]
            self._entries[start:] = [e for e in tail if e[0] not in outer]
        outer |= saved

    def rollback(self) -> None:
        """Close the innermost frame undoing its mutations, newest first."""
        start = self._frames.pop()[0]
        entries = self._entries
        while len(entries) > start:
            _, undo, *args = entries.pop()
            undo(*args)

    # -- hooks (called by the ledgers before they mutate) --------------------

    def tracks(self, key: object) -> bool:
        """Whether a frame is open and holds no saved copy of ``key``.

        An append-only change (``allocate``) records its own undo only
        then: once the frame saved the whole ledger, restoring that copy
        already covers it.
        """
        return bool(self._frames) and key not in self._frames[-1][1]

    def claim(self, key: object) -> bool:
        """Whether ``key`` must save a copy now: a frame is open and this
        is its first destructive change there.  Marks it saved."""
        if not self._frames:
            return False
        saved = self._frames[-1][1]
        if key in saved:
            return False
        saved.add(key)
        return True

    def record(self, key: object, undo: Callable[..., None], *args: Any) -> None:
        """Append an undo record for ``key``: rollback calls ``undo(*args)``."""
        self._entries.append((key, undo, *args))

"""The admission gateway: a long-running service over a live cluster.

The gateway owns one :class:`~repro.cluster.state.ClusterState` and
exposes submit/status/snapshot/shutdown over the newline-delimited JSON
protocol (:mod:`repro.serve.protocol`).  Three mechanisms keep it
serviceable under heavy traffic:

* **micro-batching** — submissions are coalesced by a
  :class:`~repro.serve.batcher.MicroBatcher` and admitted a batch at a
  time, so the per-request event-loop overhead (worker wake-up, queue
  round-trip) amortises over the batch and the capacity probe's
  available-compute vector is rebuilt only when an admission actually
  mutates state (releases cannot fire mid-batch — the worker holds the
  loop while a batch runs);
* **backpressure** — the pending queue is bounded and the gateway sheds
  (reject-newest with a ``retry_after_s`` hint derived from queue depth ×
  the observed per-request admission time) once the queue is full or
  allocated compute crosses ``compute_watermark``; queries whose deadline
  is infeasible at *every* node are fast-rejected from the cached latency
  vectors before they ever occupy a queue slot;
* **snapshot persistence** — the state (node ledgers, replicas,
  liveness) is checkpointed atomically every
  ``checkpoint_interval_s`` and on shutdown; a gateway started over an
  existing checkpoint restores a bit-identical
  :class:`~repro.cluster.state.ClusterState` and re-arms a bounded
  recovery hold for every restored allocation.

Admission itself is exactly the online session's rule: a vectorised
pre-probe (any demanded pair with an all-false feasibility mask dooms the
all-or-nothing admission), then the placement rule inside a transaction.
Admitted queries hold their compute for ``hold_factor ×`` their analytic
response latency of wall-clock time, then release.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import math
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.cluster.node import CapacityError, _EPS
from repro.cluster.state import ClusterState, Reservation
from repro.core.instance import ProblemInstance
from repro.core.online import (
    PlacementRule,
    appro_rule,
    greedy_rule,
    ship_greedy_rule,
    sync_greedy_rule,
)
from repro.core.types import Assignment, Query
from repro.io.serialize import atomic_write_text, state_from_dict, state_to_dict
from repro.obs import get_registry
from repro.obs.registry import Summary
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode_message,
    error_response,
    parse_submit_query,
)
from repro.serve.netfaults import NetFaultConfig, NetFaultDaemon
from repro.serve.preplacer import Preplacer, PreplacerConfig
from repro.serve.reoptimizer import Reoptimizer, ReoptimizerConfig
from repro.serve.screenpool import (
    build_rows,
    screen_rows,
    snapshot_state,
    verdicts_from_pairs,
)
from repro.serve.shm import ScreenStatics
from repro.util.validation import (
    ValidationError,
    check_non_negative,
    check_positive,
)

__all__ = [
    "AdmissionGateway",
    "GatewayConfig",
    "GatewayThread",
]

_FORMAT_CHECKPOINT = "repro/serve-checkpoint/v1"

#: Admission-latency histogram bucket upper bounds (seconds, "le"
#: semantics); the final implicit bucket is the +inf overflow.
_LATENCY_BUCKETS = np.array(
    [
        1e-5, 2e-5, 5e-5,
        1e-4, 2e-4, 5e-4,
        1e-3, 2e-3, 5e-3,
        1e-2, 2e-2, 5e-2,
        0.1, 0.2, 0.5,
        1.0, 2.0, 5.0, 10.0,
    ]
)


def _finite(value: float) -> float | None:
    """JSON-safe float: ``None`` replaces NaN/inf (empty summaries)."""
    return float(value) if math.isfinite(value) else None


def _summary_payload(summary: Summary) -> dict[str, Any]:
    """Wire form of a P² summary (counts, mean, tracked quantiles)."""
    return {
        "count": summary.count,
        "mean_s": _finite(summary.mean),
        "max_s": _finite(summary.max),
        "p50_s": _finite(summary.quantile(0.5)),
        "p90_s": _finite(summary.quantile(0.9)),
        "p99_s": _finite(summary.quantile(0.99)),
    }


def _histogram_quantile(
    counts: np.ndarray, edges: np.ndarray, q: float
) -> float | None:
    """Upper bucket edge covering quantile ``q`` (None: empty/overflow)."""
    total = int(counts.sum())
    if total == 0:
        return None
    rank = max(1, math.ceil(q * total))
    bucket = int(np.searchsorted(np.cumsum(counts), rank))
    if bucket >= edges.size:
        return None  # the quantile falls in the +inf overflow bucket
    return float(edges[bucket])

#: Placement rules a gateway can run, by config name.
_RULES: dict[str, Callable[[ProblemInstance], PlacementRule]] = {
    "appro": appro_rule,
    "greedy": greedy_rule,
    "greedy-ship": ship_greedy_rule,
    "greedy-sync": sync_greedy_rule,
}


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway tuning knobs.

    Attributes
    ----------
    host, port:
        Bind address; port 0 lets the OS pick (read
        :attr:`AdmissionGateway.address` after start).
    rule:
        Placement rule: ``"appro"`` (primal-dual kernel), ``"greedy"``,
        ``"greedy-ship"`` (greedy with admission-time replication
        paying its shipping latency against the deadline — the rule
        under which proactive pre-placement pays off), or
        ``"greedy-sync"`` (greedy charging the §2.4 consistency tax —
        a horizon of threshold-sized delta syncs from the origin —
        against the deadline when materialising a new copy).
    max_batch, max_wait_ms:
        Micro-batch flush thresholds.  ``max_batch=1`` disables batching
        — the one-at-a-time baseline.  ``max_wait_ms=0`` (default)
        flushes eagerly: a batch is exactly the backlog that accumulated
        while the previous batch was served; a positive value holds the
        flush open for stragglers.
    queue_bound:
        Pending-submission queue capacity; beyond it requests are shed.
    compute_watermark:
        Fraction of total cluster capacity; while allocated compute is at
        or above it, new submissions are shed (admission could only
        thrash).
    hold_factor:
        Wall-clock seconds an admitted query holds its compute, as a
        multiple of its analytic response latency.
    checkpoint_path:
        Where checkpoints are written; ``None`` disables persistence.
    checkpoint_interval_s:
        Period of the background checkpoint loop.
    recovery_hold_s:
        Hold re-armed for allocations restored from a checkpoint (their
        original release timers died with the previous process).
    reopt:
        Live re-optimization daemon config
        (:class:`~repro.serve.reoptimizer.ReoptimizerConfig`); ``None``
        (the default) disables the daemon entirely — the gateway then
        behaves byte-for-byte like the pre-re-optimizer service.
    predict:
        Predictive pre-placement daemon config
        (:class:`~repro.serve.preplacer.PreplacerConfig`); ``None`` (the
        default) disables the daemon entirely — the gateway then behaves
        byte-for-byte like the pre-predictor service.  Independent of
        ``reopt``: the predictor adds copies ahead of forecast demand,
        the re-optimizer migrates them once drift is a fact; both share
        the transactional step machinery and may run together.
    netfaults:
        Live network-dynamics daemon config
        (:class:`~repro.serve.netfaults.NetFaultConfig`); ``None`` (the
        default) disables the daemon entirely — paths are never
        recomputed, the path-cache generation stays 0, and the gateway
        behaves byte-for-byte like the pre-dynamics service.
    shard_nodes:
        Scope this gateway to a subset of the placement nodes (the
        sharded control plane's per-shard gateways; see
        :mod:`repro.serve.shard`).  ``None`` — the default — serves the
        whole cluster; a subset covering every placement node is
        normalised to full scope, so a 1-shard deployment runs the
        byte-identical single-gateway path.
    shard_id:
        Cosmetic shard label reported in ``status`` (and used by the
        router for per-shard accounting); independent of scoping so a
        1-shard (full-scope) gateway still identifies itself.
    reserve_ttl_s:
        How long a two-phase reservation may stay pending before the
        shard aborts it unilaterally (a router that died mid-protocol
        must not leak capacity forever).  Timeouts are treated as abort
        on both sides.
    """

    host: str = "127.0.0.1"
    port: int = 0
    rule: str = "appro"
    max_batch: int = 16
    max_wait_ms: float = 0.0
    queue_bound: int = 256
    compute_watermark: float = 0.98
    hold_factor: float = 1.0
    checkpoint_path: str | None = None
    checkpoint_interval_s: float = 5.0
    recovery_hold_s: float = 1.0
    reopt: ReoptimizerConfig | None = None
    predict: PreplacerConfig | None = None
    netfaults: NetFaultConfig | None = None
    shard_nodes: tuple[int, ...] | None = None
    shard_id: int | None = None
    reserve_ttl_s: float = 5.0

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise ValidationError(
                f"unknown rule {self.rule!r} (expected one of {sorted(_RULES)})"
            )
        check_positive("max_batch", self.max_batch)
        check_non_negative("max_wait_ms", self.max_wait_ms)
        check_positive("queue_bound", self.queue_bound)
        check_positive("hold_factor", self.hold_factor)
        check_positive("checkpoint_interval_s", self.checkpoint_interval_s)
        check_positive("recovery_hold_s", self.recovery_hold_s)
        if not 0.0 < self.compute_watermark <= 1.0:
            raise ValidationError(
                f"compute_watermark must be in (0, 1], got {self.compute_watermark}"
            )
        check_positive("reserve_ttl_s", self.reserve_ttl_s)
        if self.reopt is not None and self.shard_nodes is not None:
            raise ValidationError(
                "re-optimization on a shard-scoped gateway is not supported "
                "(the migration planner assumes whole-cluster replica "
                "authority); run the daemon on an unsharded deployment"
            )
        if self.predict is not None and self.shard_nodes is not None:
            raise ValidationError(
                "predictive pre-placement on a shard-scoped gateway is not "
                "supported (the planner assumes whole-cluster replica "
                "authority); run the daemon on an unsharded deployment"
            )
        if self.netfaults is not None and self.shard_nodes is not None:
            raise ValidationError(
                "network dynamics on a shard-scoped gateway is not supported "
                "(shard gateways share one in-process instance, and a path "
                "recompute would leak degraded delays across shards); run "
                "the daemon on an unsharded deployment"
            )


class _Pending:
    """One queued submission awaiting its batch."""

    __slots__ = ("query", "future", "enqueued_at")

    def __init__(self, query: Query, future: asyncio.Future) -> None:
        self.query = query
        self.future = future
        self.enqueued_at = time.perf_counter()


class AdmissionGateway:
    """Serve admission decisions for one problem instance's cluster.

    Parameters
    ----------
    instance:
        Topology + datasets + ``K`` the cluster serves.  Submitted
        queries are *ad hoc* — they need not appear in
        ``instance.queries``; they only have to reference the instance's
        datasets and placement nodes.
    config:
        Tuning knobs; see :class:`GatewayConfig`.
    """

    def __init__(
        self, instance: ProblemInstance, config: GatewayConfig | None = None
    ) -> None:
        self.instance = instance
        self.config = config or GatewayConfig()
        self.state = ClusterState(instance, shard_nodes=self.config.shard_nodes)
        #: Normalised shard scope (``None`` = full cluster, including a
        #: configured subset that covered every placement node).
        self.shard_nodes = self.state.shard_nodes
        self.recovered = False
        self._rule: PlacementRule = _RULES[self.config.rule](instance)
        self._batcher: MicroBatcher[_Pending] = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_ms / 1000.0,
            queue_bound=self.config.queue_bound,
        )
        if self.shard_nodes is None:
            self._total_capacity = float(instance.capacities.sum())
        else:
            self._total_capacity = float(
                sum(n.capacity_ghz for n in self.state.nodes.values())
            )
        self.counters: dict[str, int] = {
            "submitted": 0,
            "admitted": 0,
            "rejected": 0,
            "fast_rejected": 0,
            "shed": 0,
            "protocol_errors": 0,
            "admit_errors": 0,
            "task_crashes": 0,
            "batches": 0,
            "checkpoints": 0,
        }
        # Cached pair-latency vectors keyed by (dataset, home, selectivity):
        # state-independent, so they survive any amount of churn.  Zipf
        # traffic repeats keys heavily, which is what makes the SLO
        # fast-reject and the admission probe cheap at p99.  The cache is
        # additionally stamped with the path-cache generation: a network
        # dynamics recompute bumps the generation and the next probe
        # rebuilds from the degraded delays (generation 0 forever — and
        # hence the original behaviour — without the dynamics daemon).
        self._latency_cache: dict[tuple[int, int, float], np.ndarray] = {}
        self._latency_generation = instance.paths.generation
        self._statics = ScreenStatics.from_instance(
            instance, shard_nodes=self.shard_nodes
        )
        self._screen_s = Summary()
        self._commit_s = Summary()
        self._latency_hist = np.zeros(_LATENCY_BUCKETS.size + 1, dtype=np.int64)
        self._ewma_admission_s = 0.001  # seed estimate for retry_after hints
        self._started_at: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._peers: set[asyncio.StreamWriter] = set()
        self._tasks: list[asyncio.Task] = []
        self._holds: dict[int, asyncio.TimerHandle] = {}
        self._inflight: dict[int, tuple[Assignment, ...]] = {}
        # Home node per in-flight query (the dynamics daemon's severed-
        # path invariant needs it; ad-hoc queries are not in
        # ``instance.queries``).  Recovered holds have no recorded home
        # and are exempt from the path check for their grace period.
        self._inflight_homes: dict[int, int] = {}
        self._reserved_homes: dict[str, int] = {}
        # Two-phase reservation accounting lives outside ``counters``:
        # checkpoints serialise ``counters`` and their bytes must not
        # depend on whether a deployment is sharded.
        self.reserve_counters: dict[str, int] = {
            "reserved": 0,
            "committed": 0,
            "aborted": 0,
            "expired": 0,
            "rejected": 0,
        }
        self._reservation_timers: dict[str, asyncio.TimerHandle] = {}
        self._closed = asyncio.Event()
        self._stopping = False
        self.reoptimizer: Reoptimizer | None = (
            Reoptimizer(self, self.config.reopt)
            if self.config.reopt is not None
            else None
        )
        self.preplacer: Preplacer | None = (
            Preplacer(self, self.config.predict)
            if self.config.predict is not None
            else None
        )
        self.netfaults: NetFaultDaemon | None = (
            NetFaultDaemon(self, self.config.netfaults)
            if self.config.netfaults is not None
            else None
        )
        if self.config.checkpoint_path is not None:
            path = Path(self.config.checkpoint_path)
            if path.exists():
                self._restore_checkpoint(path)

    # -- checkpointing -----------------------------------------------------

    def _restore_checkpoint(self, path: Path) -> None:
        payload = json.loads(path.read_text())
        fmt = payload.get("format")
        if fmt != _FORMAT_CHECKPOINT:
            raise ValidationError(
                f"expected format {_FORMAT_CHECKPOINT!r}, got {fmt!r}"
            )
        self.state = state_from_dict(
            payload["state"], self.instance, shard_nodes=self.config.shard_nodes
        )
        for name, value in payload["counters"].items():
            if name in self.counters:
                self.counters[name] = int(value)
        self.recovered = True

    def checkpoint(self) -> Path:
        """Write a checkpoint now (atomic); returns the path written."""
        if self.config.checkpoint_path is None:
            raise ValidationError("gateway has no checkpoint_path configured")
        path = Path(self.config.checkpoint_path)
        payload = {
            "format": _FORMAT_CHECKPOINT,
            "state": state_to_dict(self.state),
            "counters": dict(self.counters),
        }
        atomic_write_text(path, json.dumps(payload, indent=1))
        self.counters["checkpoints"] += 1
        get_registry().inc("serve.checkpoints")
        return path

    def _rearm_recovered_holds(self) -> None:
        """Give restored allocations a bounded hold, then release them.

        The previous process's release timers are gone; rather than leak
        the compute forever, every allocation found in the checkpoint is
        released ``recovery_hold_s`` after startup (queries they belonged
        to were admitted — their service is honoured for the grace
        period, not dishonoured retroactively).
        """
        loop = asyncio.get_running_loop()
        by_query: dict[int, list[tuple[int, tuple[int, int]]]] = {}
        for node_id, ledger in self.state.nodes.items():
            for tag in ledger.allocation_tags():
                by_query.setdefault(tag[0], []).append((node_id, tag))
        for q_id, pairs in by_query.items():
            self._holds[q_id] = loop.call_later(
                self.config.recovery_hold_s,
                lambda q=q_id, ps=tuple(pairs): self._release_tags(q, ps),
            )

    def _release_tags(
        self, q_id: int, pairs: tuple[tuple[int, tuple[int, int]], ...]
    ) -> None:
        """Release a recovered hold's ``(node, tag)`` allocations."""
        self._holds.pop(q_id, None)
        self._inflight.pop(q_id, None)
        self._inflight_homes.pop(q_id, None)
        for node_id, tag in pairs:
            # A crash may have evicted the tag since the checkpoint loaded.
            with contextlib.suppress(CapacityError):
                self.state.nodes[node_id].release(tag)

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("gateway is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listener and spawn the worker/checkpoint tasks."""
        self._started_at = time.perf_counter()
        # The reader limit matches the protocol's hard line bound, so an
        # unframed peer overruns the buffer exactly when the protocol
        # would reject the line anyway — and gets an error response
        # instead of an unexplained disconnect (see _handle_connection).
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        if self.recovered:
            self._rearm_recovered_holds()
        self._tasks.append(asyncio.create_task(self._admission_worker()))
        if self.config.checkpoint_path is not None:
            self._tasks.append(asyncio.create_task(self._checkpoint_loop()))
        if self.reoptimizer is not None:
            self._tasks.append(asyncio.create_task(self.reoptimizer.run()))
        if self.preplacer is not None:
            self._tasks.append(asyncio.create_task(self.preplacer.run()))
        if self.netfaults is not None:
            self._tasks.append(asyncio.create_task(self.netfaults.run()))

    async def stop(self) -> None:
        """Checkpoint (when configured), stop accepting, cancel workers."""
        if self._server is None:
            return
        if self._stopping:
            # A shutdown request and GatewayThread.stop can race; the
            # second caller waits for the first teardown, never re-runs it.
            await self._closed.wait()
            return
        self._stopping = True
        try:
            self._server.close()
            await self._server.wait_closed()
            # Drop open peer connections too: a stopped shard must look
            # dead to a router holding a pooled link, not keep serving
            # reserves.
            for peer in list(self._peers):
                peer.close()
            for pending in self._batcher.drain_nowait():
                if not pending.future.done():
                    pending.future.set_result(self._shed_response())
            for task in self._tasks:
                task.cancel()
            for task in self._tasks:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                except Exception:
                    # A background task that already died must not wedge
                    # shutdown — record it and keep tearing down.
                    traceback.print_exc()
                    self.counters["task_crashes"] += 1
                    get_registry().inc("serve.task_crashes")
            self._tasks.clear()
            for handle in self._holds.values():
                handle.cancel()
            for handle in self._reservation_timers.values():
                handle.cancel()
            self._reservation_timers.clear()
            if (
                self.netfaults is not None
                and self.instance.paths.generation > 0
            ):
                # Hand the (possibly shared) instance back with pristine
                # delays: value-parity with a never-degraded cache, only
                # the generation stamp records that dynamics ran.
                self.netfaults.link_state.restore_all()
                self.instance.paths.recompute(
                    self.netfaults.link_state.effective_delays()
                )
            if self.config.checkpoint_path is not None:
                self.checkpoint()
        finally:
            # Whatever teardown raised, waiters (main(), GatewayThread,
            # ShardCluster) must unblock or shutdown hangs forever.
            self._closed.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` (or a shutdown request) completes."""
        await self._closed.wait()

    async def run_for(self, duration_s: float) -> None:
        """Serve (already started) for at most ``duration_s``, then stop.

        Returns early if a shutdown request stops the gateway first.
        """
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._closed.wait(), timeout=duration_s)
        if not self._closed.is_set():
            await self.stop()

    async def run(self, duration_s: float | None = None) -> None:
        """Start, serve until shutdown (or for ``duration_s``), stop."""
        await self.start()
        if duration_s is None:
            await self.wait_closed()
        else:
            await self.run_for(duration_s)

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.checkpoint_interval_s)
            self.checkpoint()

    # -- feasibility probes ------------------------------------------------

    def refresh_network_statics(self) -> None:
        """Rebuild latency-derived statics after a path recompute.

        Called by the dynamics daemon once per epoch bump.  The cached
        latency vectors invalidate lazily (generation check in
        :meth:`_latency_vector`); the screening statics copy the home
        delay matrix, so they rebuild eagerly.
        """
        self._statics = ScreenStatics.from_instance(
            self.instance, shard_nodes=self.shard_nodes
        )

    def _latency_vector(self, query: Query, dataset_id: int) -> np.ndarray:
        """Cached analytic pair-latency vector (placement order)."""
        generation = self.instance.paths.generation
        if generation != self._latency_generation:
            self._latency_cache.clear()
            self._latency_generation = generation
        alpha = query.alpha_for(dataset_id)
        key = (dataset_id, query.home_node, alpha)
        vec = self._latency_cache.get(key)
        if vec is None:
            vec = self.instance.pair_latency_vector(
                query, self.instance.dataset(dataset_id)
            )
            vec.flags.writeable = False
            self._latency_cache[key] = vec
        return vec

    def _deadline_infeasible(self, query: Query) -> bool:
        """SLO fast-reject: some demanded pair misses its deadline at
        *every* placement node — state-free, so no queueing is needed."""
        return any(
            float(self._latency_vector(query, d_id).min()) > query.deadline_s
            for d_id in query.demanded
        )

    def _probe_mask(
        self, query: Query, dataset_id: int, available: np.ndarray
    ) -> np.ndarray:
        """:meth:`ClusterState.can_serve_mask` with a caller-held
        available-compute vector (shared across a batch) and the cached
        latency vector — element-for-element identical (pinned by
        ``tests/serve/test_gateway.py``)."""
        state, inst = self.state, self.instance
        dataset = inst.dataset(dataset_id)
        demand = dataset.volume_gb * query.compute_rate
        mask = demand <= available + _EPS * inst.capacities
        holders = state.replicas.nodes(dataset_id)
        if state.replicas.remaining_slots(dataset_id) <= 0:
            has_replica = np.zeros(inst.num_placement_nodes, dtype=bool)
            if holders:
                node_index = inst.node_index
                has_replica[[node_index[v] for v in holders]] = True
            mask &= has_replica
        if state.has_down_nodes:
            mask &= state.up_mask()
            if not state.has_live_copy(dataset_id):
                mask &= False
        return mask & (self._latency_vector(query, dataset_id) <= query.deadline_s)

    def _screen(self, batch: list[_Pending]) -> list[bool]:
        """Batch-start feasibility screen: one stacked kernel pass.

        All of the batch's (query, dataset) pairs are checked together —
        capacity, deadline, replica-slot and liveness — against the live
        state.  Feasibility only *shrinks* while the batch is served
        (admissions consume capacity and replica slots; the screen and
        the commit loop run without an await between them, so no release
        fires mid-batch): a ``False`` here is exact, while a ``True`` is
        optimistic and is re-checked on the admission path.
        """
        rows = build_rows([p.query for p in batch], self._statics)
        view = snapshot_state(self.state, self._statics)
        pair_ok = screen_rows(self._statics, view, rows)
        return verdicts_from_pairs(rows, pair_ok, len(batch))

    # -- admission ---------------------------------------------------------

    def _admit_one(
        self, pending: _Pending, available: np.ndarray, *, probe: bool = True
    ) -> tuple[dict[str, Any], np.ndarray | None]:
        """Decide one submission; returns (response, fresh avail or None).

        A ``None`` second element means state did not change and the
        caller's available vector remains valid for the rest of the batch.
        ``probe=False`` skips the per-pair pre-probe when the caller's
        batch screen verdict is still exact (no mid-batch mutation) —
        the placement rule remains the authoritative feasibility check.
        """
        query = pending.query
        state = self.state
        fresh: np.ndarray | None = None
        if query.query_id in self._holds:
            # A live hold under this id (client retry, or a replayed
            # workload over a recovered checkpoint) would collide with
            # the new placement's allocation tags inside ``serve()``.
            # Latest decision wins: evict the old hold first, then
            # re-probe against the freed capacity.
            self._evict_hold(query.query_id)
            available = fresh = state.available_array()
            probe = True
        if probe:
            for d_id in query.demanded:
                if not self._probe_mask(query, d_id, available).any():
                    return self._rejected_response(), fresh
        assignments: list[Assignment] = []
        failed = False
        with state.transaction() as txn:
            for d_id in query.demanded:
                a = self._rule(state, query, d_id)
                if a is None:
                    failed = True
                    break
                assignments.append(a)
            if not failed:
                txn.commit()
        if failed:
            return self._rejected_response(), state.available_array()
        response_s = max(a.latency_s for a in assignments)
        self._arm_hold(query.query_id, tuple(assignments), response_s)
        self._inflight_homes[query.query_id] = query.home_node
        return (
            {
                "result": "admitted",
                "response_s": response_s,
                "assignments": [
                    {
                        "dataset_id": a.dataset_id,
                        "node": a.node,
                        "latency_s": a.latency_s,
                        "compute_ghz": a.compute_ghz,
                    }
                    for a in assignments
                ],
            },
            state.available_array(),
        )

    def _arm_hold(
        self, q_id: int, assignments: tuple[Assignment, ...], response_s: float
    ) -> None:
        if q_id in self._holds:  # stale id reuse: release the old hold now
            self._evict_hold(q_id)
        self._inflight[q_id] = assignments
        loop = asyncio.get_running_loop()
        self._holds[q_id] = loop.call_later(
            response_s * self.config.hold_factor,
            lambda: self._release_query(q_id),
        )

    def _evict_hold(self, q_id: int) -> None:
        """Release everything a live hold for ``q_id`` still pins.

        Holds armed this process track their allocations in
        ``_inflight``; recovered holds track only ledger tags (the
        checkpoint records allocations, not ``Assignment`` receipts), so
        after the ``_inflight`` release any tag still carrying ``q_id``
        is swept from the ledgers directly.
        """
        handle = self._holds.pop(q_id, None)
        if handle is not None:
            handle.cancel()
        self._inflight_homes.pop(q_id, None)
        for a in self._inflight.pop(q_id, ()):
            with contextlib.suppress(CapacityError):
                self.state.release(a)
        for ledger in self.state.nodes.values():
            for tag in [t for t in ledger.allocation_tags() if t[0] == q_id]:
                ledger.release(tag)

    def _release_query(self, q_id: int) -> None:
        self._holds.pop(q_id, None)
        self._inflight_homes.pop(q_id, None)
        for a in self._inflight.pop(q_id, ()):
            # A crash may have evicted the tag already (the hold timer
            # outlives the allocation it guards); releasing twice is fine.
            with contextlib.suppress(CapacityError):
                self.state.release(a)

    # -- two-phase reservations (cross-shard admission) --------------------
    #
    # The front router (repro.serve.router) splits a cross-shard query's
    # demanded datasets across the shards that can serve them and runs a
    # saga in miniature: reserve on every touched shard, commit on
    # unanimous accept, abort otherwise.  Each handler below is fully
    # synchronous (no awaits between probe and commit), so a reservation
    # can never interleave with the admission worker's batch — the same
    # event-loop atomicity the screen relies on.

    @staticmethod
    def _assignment_payload(assignments: tuple[Assignment, ...]) -> list[dict]:
        return [
            {
                "dataset_id": a.dataset_id,
                "node": a.node,
                "latency_s": a.latency_s,
                "compute_ghz": a.compute_ghz,
            }
            for a in assignments
        ]

    def _reserve_query(
        self, reservation_id: str, query: Query, dataset_ids: tuple[int, ...]
    ) -> dict[str, Any]:
        """Phase one: provisionally admit a query's dataset subset.

        Applies the placement for real (the resources are held from this
        instant), records a :class:`~repro.cluster.state.Reservation`
        receipt, and arms the TTL abort timer.  Rejections leave state
        untouched (the transaction rolls back).
        """
        obs = get_registry()
        state = self.state
        if state.has_reservation(reservation_id):
            raise ProtocolError(
                f"reservation {reservation_id!r} is already pending"
            )
        if query.query_id in self._holds:
            # Same latest-wins rule as _admit_one: a live hold under this
            # id would collide with the reserve's allocation tags.
            self._evict_hold(query.query_id)
        available = state.available_array()
        for d_id in dataset_ids:
            if not self._probe_mask(query, d_id, available).any():
                self.reserve_counters["rejected"] += 1
                obs.inc("serve.reserve.rejected")
                return self._rejected_response()
        pre_holders = {d_id: state.replicas.nodes(d_id) for d_id in dataset_ids}
        assignments: list[Assignment] = []
        failed = False
        with state.transaction() as txn:
            for d_id in dataset_ids:
                a = self._rule(state, query, d_id)
                if a is None:
                    failed = True
                    break
                assignments.append(a)
            if not failed:
                txn.commit()
        if failed:
            self.reserve_counters["rejected"] += 1
            obs.inc("serve.reserve.rejected")
            return self._rejected_response()
        # Every copy that exists now but not before the reserve belongs
        # to it — including copies a rule's walk placed on nodes it did
        # not assign (the greedy rule does this), so an abort can undo
        # them all.
        placed = tuple(
            sorted(
                (d_id, v)
                for d_id in dataset_ids
                for v in state.replicas.nodes(d_id) - pre_holders[d_id]
            )
        )
        state.record_reservation(
            Reservation(
                reservation_id=reservation_id,
                query_id=query.query_id,
                assignments=tuple(assignments),
                placed=placed,
            )
        )
        self._arm_reservation_ttl(reservation_id)
        self._reserved_homes[reservation_id] = query.home_node
        self.reserve_counters["reserved"] += 1
        obs.inc("serve.reserve.reserved")
        return {
            "result": "reserved",
            "assignments": self._assignment_payload(tuple(assignments)),
        }

    def _arm_reservation_ttl(self, reservation_id: str) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # synchronous harness: expiry is driven manually
        self._reservation_timers[reservation_id] = loop.call_later(
            self.config.reserve_ttl_s,
            lambda: self._expire_reservation(reservation_id),
        )

    def _expire_reservation(self, reservation_id: str) -> None:
        """TTL fired: the router went silent — treat the timeout as abort."""
        self._reservation_timers.pop(reservation_id, None)
        self._reserved_homes.pop(reservation_id, None)
        if self.state.abort_reservation(reservation_id) is not None:
            self.reserve_counters["expired"] += 1
            get_registry().inc("serve.reserve.expired")

    def _commit_reservation(self, reservation_id: str) -> dict[str, Any]:
        """Phase two, success: the resources stay held under a hold timer."""
        timer = self._reservation_timers.pop(reservation_id, None)
        if timer is not None:
            timer.cancel()
        try:
            reservation = self.state.commit_reservation(reservation_id)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        response_s = max(a.latency_s for a in reservation.assignments)
        self._arm_hold(
            reservation.query_id, reservation.assignments, response_s
        )
        home = self._reserved_homes.pop(reservation_id, None)
        if home is not None:
            self._inflight_homes[reservation.query_id] = home
        self.reserve_counters["committed"] += 1
        get_registry().inc("serve.reserve.committed")
        return {
            "committed": True,
            "response_s": response_s,
            "assignments": self._assignment_payload(reservation.assignments),
        }

    def _abort_reservation(self, reservation_id: str) -> dict[str, Any]:
        """Phase two, failure: precise undo.  Idempotent by design —
        the router aborts best-effort after timeouts, and the TTL may
        have expired the reservation first."""
        timer = self._reservation_timers.pop(reservation_id, None)
        if timer is not None:
            timer.cancel()
        self._reserved_homes.pop(reservation_id, None)
        if self.state.abort_reservation(reservation_id) is None:
            return {"found": False}
        self.reserve_counters["aborted"] += 1
        get_registry().inc("serve.reserve.aborted")
        return {"found": True}

    @staticmethod
    def _rejected_response() -> dict[str, Any]:
        return {"result": "rejected", "reason": "infeasible"}

    def _shed_response(self) -> dict[str, Any]:
        retry = max(
            (self._batcher.depth + 1) * self._ewma_admission_s, 0.001
        )
        return {"result": "shed", "retry_after_s": retry}

    def _overloaded(self) -> bool:
        return (
            self.state.total_allocated()
            >= self.config.compute_watermark * self._total_capacity
        )

    async def _admission_worker(self) -> None:
        obs = get_registry()
        latencies: list[float] = []
        while True:
            batch = await self._batcher.next_batch()
            started = time.perf_counter()
            self.counters["batches"] += 1
            obs.observe("serve.batch_size", len(batch))
            available = self.state.available_array()
            feasible = self._screen(batch)
            screened = time.perf_counter()
            mutated = False
            latencies.clear()
            for pending, screen_ok in zip(batch, feasible):
                if self.reoptimizer is not None:
                    self.reoptimizer.observe(pending.query)
                if self.preplacer is not None:
                    self.preplacer.observe(pending.query)
                if not screen_ok:
                    response = self._rejected_response()
                else:
                    # The screen verdict is exact until an admission
                    # mutates state mid-batch; after that, re-probe.
                    try:
                        response, fresh = self._admit_one(
                            pending, available, probe=mutated
                        )
                    except Exception:
                        # One poisoned query must not kill the worker
                        # (every later submission would then hang): the
                        # transaction rolled its partial effects back,
                        # so answer rejected and keep serving.
                        traceback.print_exc()
                        self.counters["admit_errors"] += 1
                        obs.inc("serve.admit_errors")
                        response = self._rejected_response()
                        fresh = self.state.available_array()
                    if fresh is not None:
                        available = fresh
                        mutated = True
                result = response["result"]
                self.counters[result] += 1
                obs.inc(f"serve.{result}")
                latencies.append(time.perf_counter() - pending.enqueued_at)
                obs.observe("serve.admission_s", latencies[-1])
                if not pending.future.done():
                    pending.future.set_result(response)
            finished = time.perf_counter()
            self._screen_s.observe(screened - started)
            self._commit_s.observe(finished - screened)
            obs.observe("serve.screen.screen_s", screened - started)
            obs.observe("serve.screen.commit_s", finished - screened)
            self._latency_hist += np.bincount(
                np.searchsorted(_LATENCY_BUCKETS, latencies, side="left"),
                minlength=self._latency_hist.size,
            )
            per_item = (finished - started) / len(batch)
            self._ewma_admission_s += 0.2 * (per_item - self._ewma_admission_s)
            obs.set_gauge("serve.queue_depth", self._batcher.depth)
            obs.set_gauge("serve.inflight_ghz", self.state.total_allocated())

    # -- protocol ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs = get_registry()
        write_lock = asyncio.Lock()
        message_tasks: set[asyncio.Task] = set()
        self._peers.add(writer)

        async def respond(payload: dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode_message(payload))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # The peer streamed more than MAX_LINE_BYTES without
                    # a newline (the reader limit matches the protocol
                    # bound).  The overrun buffer was discarded, so the
                    # stream is desynced: report the protocol error,
                    # then close rather than misparse what follows.
                    self.counters["protocol_errors"] += 1
                    obs.inc("serve.protocol_errors")
                    with contextlib.suppress(Exception):
                        await respond(
                            error_response(
                                None,
                                f"message exceeds {MAX_LINE_BYTES} bytes",
                            )
                        )
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    self.counters["protocol_errors"] += 1
                    obs.inc("serve.protocol_errors")
                    await respond(error_response(None, str(exc)))
                    continue
                task = asyncio.create_task(self._dispatch(request, respond))
                message_tasks.add(task)
                task.add_done_callback(message_tasks.discard)
        except asyncio.CancelledError:
            # Loop teardown cancels open connection handlers; exit
            # cleanly so the cancellation never reaches the stream
            # protocol's done-callback (which would log a traceback).
            pass
        finally:
            self._peers.discard(writer)
            for task in message_tasks:
                task.cancel()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self,
        request: dict[str, Any],
        respond: Callable[[dict[str, Any]], Any],
    ) -> None:
        obs = get_registry()
        request_id = request["id"]
        op = request["op"]
        try:
            if op == "submit":
                self.counters["submitted"] += 1
                obs.inc("serve.submitted")
                query = parse_submit_query(request)
                if self._deadline_infeasible(query):
                    self.counters["fast_rejected"] += 1
                    obs.inc("serve.fast_rejected")
                    await respond(
                        {
                            "id": request_id,
                            "ok": True,
                            "result": "rejected",
                            "reason": "deadline-infeasible",
                        }
                    )
                    return
                if self._overloaded():
                    self.counters["shed"] += 1
                    obs.inc("serve.shed")
                    await respond(
                        {"id": request_id, "ok": True, **self._shed_response()}
                    )
                    return
                future: asyncio.Future = asyncio.get_running_loop().create_future()
                if not self._batcher.offer(_Pending(query, future)):
                    self.counters["shed"] += 1
                    obs.inc("serve.shed")
                    await respond(
                        {"id": request_id, "ok": True, **self._shed_response()}
                    )
                    return
                response = await future
                await respond({"id": request_id, "ok": True, **response})
            elif op == "status":
                await respond({"id": request_id, "ok": True, **self.status()})
            elif op == "snapshot":
                path = self.checkpoint()
                await respond({"id": request_id, "ok": True, "path": str(path)})
            elif op == "reopt":
                if self.reoptimizer is None:
                    await respond(
                        error_response(request_id, "re-optimizer not enabled")
                    )
                    return
                report = await self.reoptimizer.run_cycle(
                    force=bool(request.get("force", False))
                )
                await respond(
                    {"id": request_id, "ok": True, **report.to_dict()}
                )
            elif op == "predict":
                if self.preplacer is None:
                    await respond(
                        error_response(request_id, "predictor not enabled")
                    )
                    return
                report = await self.preplacer.run_cycle(
                    force=bool(request.get("force", False))
                )
                await respond(
                    {"id": request_id, "ok": True, **report.to_dict()}
                )
            elif op == "netfault":
                if self.netfaults is None:
                    await respond(
                        error_response(
                            request_id, "network dynamics not enabled"
                        )
                    )
                    return
                report = await self.netfaults.run_cycle(
                    force=bool(request.get("force", False))
                )
                await respond(
                    {"id": request_id, "ok": True, **report.to_dict()}
                )
            elif op == "reserve":
                query = parse_submit_query(request)
                reservation_id = request.get("reservation_id")
                if not isinstance(reservation_id, str) or not reservation_id:
                    raise ProtocolError(
                        "reserve request carries no reservation_id"
                    )
                raw_ids = request.get("dataset_ids")
                if not isinstance(raw_ids, list) or not raw_ids:
                    raise ProtocolError("reserve request carries no dataset_ids")
                dataset_ids = tuple(raw_ids)
                demanded = set(query.demanded)
                if len(set(dataset_ids)) != len(dataset_ids) or any(
                    d not in demanded for d in dataset_ids
                ):
                    raise ProtocolError(
                        "dataset_ids must be a duplicate-free subset of the "
                        "query's demanded datasets"
                    )
                if self._overloaded():
                    self.reserve_counters["rejected"] += 1
                    obs.inc("serve.reserve.rejected")
                    await respond(
                        {"id": request_id, "ok": True, **self._shed_response()}
                    )
                    return
                response = self._reserve_query(
                    reservation_id, query, dataset_ids
                )
                await respond({"id": request_id, "ok": True, **response})
            elif op == "commit":
                reservation_id = request.get("reservation_id")
                if not isinstance(reservation_id, str) or not reservation_id:
                    raise ProtocolError(
                        "commit request carries no reservation_id"
                    )
                response = self._commit_reservation(reservation_id)
                await respond({"id": request_id, "ok": True, **response})
            elif op == "abort":
                reservation_id = request.get("reservation_id")
                if not isinstance(reservation_id, str) or not reservation_id:
                    raise ProtocolError(
                        "abort request carries no reservation_id"
                    )
                response = self._abort_reservation(reservation_id)
                await respond({"id": request_id, "ok": True, **response})
            elif op == "shutdown":
                await respond({"id": request_id, "ok": True, "stopping": True})
                asyncio.create_task(self.stop())
        except ProtocolError as exc:
            self.counters["protocol_errors"] += 1
            obs.inc("serve.protocol_errors")
            await respond(error_response(request_id, str(exc)))
        except ValidationError as exc:
            await respond(error_response(request_id, str(exc)))

    # -- introspection -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Service health snapshot (the ``status`` op's payload)."""
        uptime = (
            time.perf_counter() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        counts = self._latency_hist
        payload = {
            "uptime_s": uptime,
            "queue_depth": self._batcher.depth,
            "inflight_queries": len(self._inflight),
            "inflight_ghz": self.state.total_allocated(),
            "total_capacity_ghz": self._total_capacity,
            "down_nodes": sorted(self.state.down_nodes()),
            "recovered": self.recovered,
            "counters": dict(self.counters),
            "screen": {
                "screen_s": _summary_payload(self._screen_s),
                "commit_s": _summary_payload(self._commit_s),
            },
            "admission_latency": {
                # counts[i] ≤ buckets_le_s[i]; the trailing count is the
                # +inf overflow bucket.
                "buckets_le_s": _LATENCY_BUCKETS.tolist(),
                "counts": counts.tolist(),
                "p50_s": _histogram_quantile(counts, _LATENCY_BUCKETS, 0.5),
                "p90_s": _histogram_quantile(counts, _LATENCY_BUCKETS, 0.9),
                "p99_s": _histogram_quantile(counts, _LATENCY_BUCKETS, 0.99),
                "p999_s": _histogram_quantile(counts, _LATENCY_BUCKETS, 0.999),
            },
        }
        payload["two_phase"] = {
            "pending": self.state.pending_reservations(),
            **self.reserve_counters,
        }
        if self.shard_nodes is not None or self.config.shard_id is not None:
            payload["shard"] = {
                "id": self.config.shard_id,
                "scoped": self.shard_nodes is not None,
                # The router discovers shard membership from this list; a
                # full-scope shard 0 (1-shard deployment) reports every
                # placement node.
                "nodes": list(
                    self.shard_nodes
                    if self.shard_nodes is not None
                    else self.instance.placement_nodes
                ),
            }
        if self.reoptimizer is not None:
            payload["reopt"] = self.reoptimizer.status()
        if self.preplacer is not None:
            payload["predict"] = self.preplacer.status()
        if self.netfaults is not None:
            payload["netfault"] = self.netfaults.status()
        return payload


def _drive_stop_from_thread(
    stop: Callable[[], Any],
    closed: asyncio.Event,
    loop: asyncio.AbstractEventLoop,
    thread: threading.Thread,
    timeout: float = 30.0,
) -> None:
    """Schedule ``stop()`` on ``loop`` from another thread and wait it out.

    A shutdown request arriving over the wire stops the service from
    inside its own loop; if that teardown wins the race, the loop can
    close before our scheduled coroutine ever runs, leaving the
    concurrent future pending forever.  The closed event and thread
    liveness are the ground truth here, not the future.
    """
    coro = stop()
    try:
        future = asyncio.run_coroutine_threadsafe(coro, loop)
    except RuntimeError:  # loop already closed: the service stopped itself
        coro.close()
        return
    deadline = time.monotonic() + timeout
    while True:
        try:
            future.result(timeout=0.1)
            return
        except concurrent.futures.CancelledError:
            return  # loop teardown cancelled our task: service stopped
        except concurrent.futures.TimeoutError:
            if closed.is_set() or not thread.is_alive():
                # The service tore itself down (a shutdown request won
                # the race) and the scheduled coroutine may never run.
                # Let the loop thread finish, then close the
                # never-started coroutine by hand — cancelling the
                # future instead would ping the closed loop and log
                # spurious "Event loop is closed" errors.
                thread.join(max(0.0, deadline - time.monotonic()))
                if not future.done() and not thread.is_alive():
                    with contextlib.suppress(RuntimeError):
                        coro.close()
                return
            if time.monotonic() >= deadline:
                raise


class GatewayThread:
    """Run a gateway on a dedicated event-loop thread.

    The synchronous harness benches and tests need a live server while
    the calling thread drives load; this wrapper owns the loop/thread
    pair and proxies start/stop.
    """

    def __init__(self, gateway: AdmissionGateway) -> None:
        self.gateway = gateway
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the gateway; returns the bound address."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.gateway.address

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            try:
                await self.gateway.start()
            except BaseException as exc:  # surface bind errors to start()
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.gateway.wait_closed()

        try:
            self._loop.run_until_complete(main())
        finally:
            # Open connection handlers may still be parked in readline();
            # cancel them (they exit cleanly on CancelledError) so the
            # loop closes without destroying pending tasks.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    def stop(self) -> None:
        """Stop the gateway (checkpointing) and join the thread."""
        if self._loop is None or self._thread is None:
            return
        if not self.gateway._closed.is_set():
            _drive_stop_from_thread(
                self.gateway.stop, self.gateway._closed, self._loop, self._thread
            )
        self._thread.join(timeout=30)

"""Asyncio client and load generators for the admission gateway.

:class:`GatewayClient` speaks the newline-delimited JSON protocol with
pipelining: requests carry monotonically increasing ids, a background
reader task correlates responses, and any number of coroutines may await
their own in-flight requests over one connection.

The load generators drive a gateway the way the paper's workload would:
queries are *ad hoc* draws over the instance's datasets with Zipf
popularity (:func:`repro.workload.trace.zipf_weights` — the same
heavy-tailed shape as the usage trace), cloudlet-biased homes, and the
paper's selectivity/compute-rate/deadline ranges.

* :func:`run_closed_loop` — ``concurrency`` workers each keep one request
  outstanding; measures the service's sustainable throughput.
* :func:`run_open_loop` — Poisson arrivals at ``rate_rps`` regardless of
  response progress; measures latency/shed behaviour under offered load
  (the honest way to see backpressure engage).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.instance import ProblemInstance
from repro.core.types import Query
from repro.io.serialize import query_to_dict
from repro.util.rng import spawn_rng
from repro.util.validation import ValidationError, check_positive
from repro.workload.params import PaperDefaults
from repro.workload.trace import zipf_weights

from repro.serve.protocol import ProtocolError, decode_message, encode_message

__all__ = [
    "GatewayClient",
    "LoadReport",
    "QueryFactory",
    "run_closed_loop",
    "run_open_loop",
]

#: Popularity trajectories a :class:`QueryFactory` can follow.
_TRACE_MODES = ("stationary", "burst", "diurnal", "flash-crowd", "mobility")


class GatewayClient:
    """One pipelined connection to an admission gateway.

    Use as an async context manager, or pair :meth:`connect` with
    :meth:`close`.  All request methods are safe to call concurrently
    from many coroutines.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "GatewayClient":
        """Open a connection to the gateway at ``(host, port)``."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("connection closed by gateway")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                payload = decode_message(line)
                future = self._pending.pop(payload.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError) as exc:
            error = exc
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request and await its (id-matched) response."""
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        async with self._write_lock:
            self._writer.write(
                encode_message({"op": op, "id": request_id, **fields})
            )
            await self._writer.drain()
        return await future

    async def submit(self, query: Query) -> dict[str, Any]:
        """Submit one query; returns the admit/reject/shed response."""
        return await self.request("submit", query=query_to_dict(query))

    async def status(self) -> dict[str, Any]:
        """Fetch the gateway's health snapshot."""
        return await self.request("status")

    @staticmethod
    def render_status(payload: dict[str, Any]) -> str:
        """Human-readable render of a ``status`` payload.

        Counters, the screening engine's per-stage timings, the
        admission-latency histogram (non-empty buckets only), and — when
        present — the shard identity, two-phase reservation counters,
        and re-optimizer digest.  Every section is defensive: a gateway
        restored from a checkpoint reports *before* its first admission
        (empty histogram), older gateways omit whole sections, and a
        router's per-shard statuses may be partially populated — none of
        that may crash the render (``repro load --status`` runs it on
        whatever the wire returns).
        """

        def fmt_s(value: Any) -> str:
            if not isinstance(value, (int, float)):
                return "-"
            if value < 1e-3:
                return f"{value * 1e6:.0f}us"
            if value < 1.0:
                return f"{value * 1e3:.2f}ms"
            return f"{value:.3f}s"

        def fmt_count(value: Any) -> str:
            try:
                return str(int(value))
            except (TypeError, ValueError):
                return "-"

        def fmt_f(value: Any) -> str:
            if not isinstance(value, (int, float)):
                return "-"
            return f"{value:.1f}"

        lines = [
            f"uptime {fmt_f(payload.get('uptime_s', 0.0))}s  "
            f"queue {payload.get('queue_depth', 0)}  "
            f"inflight {payload.get('inflight_queries', 0)} queries / "
            f"{fmt_f(payload.get('inflight_ghz', 0.0))} GHz "
            f"of {fmt_f(payload.get('total_capacity_ghz', 0.0))} GHz",
            "counters: "
            + "  ".join(
                f"{k}={fmt_count(v)}"
                for k, v in sorted(payload.get("counters", {}).items())
            ),
        ]
        shard = payload.get("shard")
        if isinstance(shard, dict):
            nodes = shard.get("nodes") or []
            lines.append(
                f"shard: id={shard.get('id')} "
                f"scoped={shard.get('scoped', False)} "
                f"nodes={len(nodes)}"
            )
        two_phase = payload.get("two_phase")
        if isinstance(two_phase, dict) and any(
            isinstance(v, (int, float)) and v for v in two_phase.values()
        ):
            lines.append(
                "two-phase: "
                + "  ".join(
                    f"{k}={fmt_count(v)}" for k, v in sorted(two_phase.items())
                )
            )
        screen = payload.get("screen")
        if isinstance(screen, dict):
            for stage in ("screen_s", "commit_s"):
                stats = screen.get(stage)
                if isinstance(stats, dict) and stats.get("count"):
                    lines.append(
                        f"{stage[:-2]}/batch: mean {fmt_s(stats.get('mean_s'))}  "
                        f"p50 {fmt_s(stats.get('p50_s'))}  "
                        f"p90 {fmt_s(stats.get('p90_s'))}  "
                        f"p99 {fmt_s(stats.get('p99_s'))}"
                    )
        hist = payload.get("admission_latency")
        if isinstance(hist, dict):
            counts = hist.get("counts") or []
            edges = hist.get("buckets_le_s") or []
            total = sum(counts)
            if total > 0:
                lines.append(
                    "admission latency: "
                    + "  ".join(
                        f"{q[:-2]} {fmt_s(hist.get(q))}"
                        for q in ("p50_s", "p90_s", "p99_s", "p999_s")
                    )
                )
                for i, count in enumerate(counts):
                    if not count:
                        continue
                    label = f"<={fmt_s(edges[i])}" if i < len(edges) else "+inf"
                    bar = "#" * max(1, round(40 * count / total))
                    lines.append(f"  {label:>10} {count:>8} {bar}")
        reopt = payload.get("reopt")
        if isinstance(reopt, dict):
            lines.append(
                f"reopt: cycles={fmt_count(reopt.get('cycles', 0))} "
                f"migrated_steps={fmt_count(reopt.get('migrated_steps', 0))} "
                f"migrated_gb={fmt_f(reopt.get('migrated_gb', 0.0))} "
                f"reclaimed_gb={fmt_f(reopt.get('reclaimed_gain_gb', 0.0))}"
            )
        predict = payload.get("predict")
        if isinstance(predict, dict):
            lines.append(
                f"predict: cycles={fmt_count(predict.get('cycles', 0))} "
                f"estimator={predict.get('estimator', '-')} "
                f"window={fmt_count(predict.get('window', 0))} "
                f"preplaced_steps={fmt_count(predict.get('preplaced_steps', 0))} "
                f"preplaced_gb={fmt_f(predict.get('preplaced_gb', 0.0))}"
            )
        netfault = payload.get("netfault")
        if isinstance(netfault, dict):
            avail = netfault.get("link_availability")
            avail_s = (
                f"{avail:.3f}" if isinstance(avail, (int, float)) else "-"
            )
            lines.append(
                f"netfault: cycles={fmt_count(netfault.get('cycles', 0))} "
                f"events={fmt_count(netfault.get('events_applied', 0))} "
                f"severed={fmt_count(netfault.get('severed_links', 0))} "
                f"interrupted={fmt_count(netfault.get('interrupted', 0))} "
                f"gen={fmt_count(netfault.get('generation', 0))} "
                f"avail={avail_s}"
            )
        return "\n".join(lines)

    async def snapshot(self) -> dict[str, Any]:
        """Ask the gateway to checkpoint now."""
        return await self.request("snapshot")

    async def reopt(self, *, force: bool = False) -> dict[str, Any]:
        """Ask the gateway to run one re-optimization cycle now."""
        return await self.request("reopt", force=force)

    async def predict(self, *, force: bool = False) -> dict[str, Any]:
        """Ask the gateway to run one predictive pre-placement cycle now."""
        return await self.request("predict", force=force)

    async def netfault(self, *, force: bool = False) -> dict[str, Any]:
        """Ask the gateway to run one network-dynamics cycle now.

        ``force`` jumps the schedule clock to the next link event, so
        the cycle applies at least one while any remain.
        """
        return await self.request("netfault", force=force)

    async def reserve(
        self, reservation_id: str, query: Query, dataset_ids: list[int]
    ) -> dict[str, Any]:
        """Phase one of cross-shard admission: hold a dataset subset."""
        return await self.request(
            "reserve",
            reservation_id=reservation_id,
            query=query_to_dict(query),
            dataset_ids=list(dataset_ids),
        )

    async def commit(self, reservation_id: str) -> dict[str, Any]:
        """Phase two, success: finalise a reservation."""
        return await self.request("commit", reservation_id=reservation_id)

    async def abort(self, reservation_id: str) -> dict[str, Any]:
        """Phase two, failure: undo a reservation (idempotent)."""
        return await self.request("abort", reservation_id=reservation_id)

    async def shutdown(self) -> dict[str, Any]:
        """Ask the gateway to checkpoint and stop."""
        return await self.request("shutdown")

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._reader_task


class QueryFactory:
    """Deterministic stream of ad-hoc queries over an instance's datasets.

    Draws follow the paper's workload shape: dataset popularity is Zipf
    over dataset rank, homes are cloudlet-biased, and
    selectivity / compute rate / deadline come from the
    :class:`~repro.workload.params.PaperDefaults` ranges (deadline =
    largest demanded volume × a per-GB rate, as in the batch generator).

    Parameters
    ----------
    instance:
        Supplies the datasets and the topology the queries live on.
    seed:
        Root seed; the factory derives its own stream (label
        ``"serve-load"``), so two factories with one seed emit identical
        query sequences — what lets closed/open-loop comparisons share a
        workload.
    zipf_exponent:
        Skew of dataset popularity (the trace generator's default).
    rotate:
        Rotate the Zipf weight vector by this many positions over the
        (sorted) dataset ids, shifting which datasets are hot.  Two
        factories sharing a seed but differing in ``rotate`` emit the
        same query *shapes* over drifted popularity — the knob the
        re-optimizer bench and the drifting-load CLI use to synthesise
        controlled demand drift.
    mode:
        Popularity *trajectory* over the stream (``"stationary"``, the
        default, keeps the draw-for-draw behaviour of older factories):

        * ``"burst"`` — every other ``period``-draw phase, one rotating
          dataset surges to ``surge ×`` the hottest base weight, then
          demand snaps back — recurring hot spots with a cooldown.
        * ``"diurnal"`` — the weight vector rotates one full turn every
          ``2 × period`` draws, a smooth hot-set drift standing in for
          the trace's hour-of-day profile.
        * ``"flash-crowd"`` — stationary until draw ``period``, then the
          *coldest* dataset ramps linearly over ``period // 2`` draws to
          85% of all demand and stays there — the paper's viral-asset
          scenario.
        * ``"mobility"`` — dataset popularity stays stationary; instead
          the *home station* pool rotates one position every ``period``
          draws, so the workload's geographic anchor drifts —
          deterministic home churn standing in for users moving between
          base stations (what exercises mobility-aware path
          recomputation).

        Only the weight vector varies with the draw index; each mode is
        itself fully deterministic for a seed, and a non-stationary
        factory emits draw-for-draw the stationary stream until its
        first weight change (e.g. flash-crowd before ``period``).
    period:
        Phase length (draws) of the non-stationary modes.
    surge:
        Burst-mode boost: the hot dataset's weight is raised to
        ``surge × max(base weights)`` before renormalising.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        *,
        seed: int = 0,
        params: PaperDefaults | None = None,
        zipf_exponent: float = 1.2,
        rotate: int = 0,
        mode: str = "stationary",
        period: int = 120,
        surge: float = 6.0,
    ) -> None:
        if mode not in _TRACE_MODES:
            raise ValidationError(
                f"mode must be one of {_TRACE_MODES}, got {mode!r}"
            )
        check_positive("period", period)
        check_positive("surge", surge)
        self.instance = instance
        self.params = params or PaperDefaults()
        self.mode = mode
        self.period = period
        self.surge = surge
        self._rng = spawn_rng(seed, "serve-load")
        self._dataset_ids = sorted(instance.datasets)
        self._weights = np.roll(
            zipf_weights(len(self._dataset_ids), zipf_exponent),
            rotate % max(1, len(self._dataset_ids)),
        )
        self._flash_target = int(np.argmin(self._weights))
        self._next_id = 0
        topo = instance.topology
        self._cloudlets = list(topo.cloudlets)
        self._data_centers = list(topo.data_centers)

    def _weights_at(self, i: int) -> np.ndarray:
        """Popularity vector governing draw ``i`` under the trace mode."""
        base, n = self._weights, len(self._weights)
        if self.mode == "mobility":
            return base  # popularity is stationary; homes churn instead
        if self.mode == "burst":
            phase = i // self.period
            if phase % 2 == 0:
                return base
            hot = (n // 2 + 5 * (phase // 2)) % n
            w = base.copy()
            w[hot] = self.surge * base.max()
            return w / w.sum()
        if self.mode == "diurnal":
            shift = (i * n) // (2 * self.period) % n
            return np.roll(base, shift)
        # flash-crowd
        if i < self.period:
            return base
        ramp = max(1, self.period // 2)
        gamma = 0.85 * min(1.0, (i - self.period) / ramp)
        w = (1.0 - gamma) * base
        w[self._flash_target] += gamma
        return w / w.sum()

    def _draw_home(self) -> int:
        params, rng = self.params, self._rng
        use_cloudlet = bool(self._cloudlets) and (
            not self._data_centers or rng.random() < params.cloudlet_home_fraction
        )
        pool = self._cloudlets if use_cloudlet else self._data_centers
        index = int(rng.integers(len(pool)))
        if self.mode == "mobility":
            # Home-station churn: the pool rotates one position per
            # ``period`` draws, shifting every draw to a neighbouring
            # station.  The rng call sequence never changes — only the
            # indexing — so the stream is draw-for-draw identical to
            # stationary until the first rotation.
            index = (index + self._next_id // self.period) % len(pool)
        return int(pool[index])

    def make(self) -> Query:
        """Draw the next query of the stream."""
        params, rng = self.params, self._rng
        low, high = params.datasets_per_query
        high = min(high, len(self._dataset_ids))
        low = min(low, high)
        count = int(rng.integers(low, high + 1))
        weights = (
            self._weights
            if self.mode == "stationary"
            else self._weights_at(self._next_id)
        )
        demanded = tuple(
            int(self._dataset_ids[i])
            for i in rng.choice(
                len(self._dataset_ids), size=count, replace=False, p=weights
            )
        )
        selectivity = tuple(
            float(rng.uniform(*params.selectivity)) for _ in demanded
        )
        pivot = max(self.instance.dataset(d).volume_gb for d in demanded)
        deadline = pivot * float(rng.uniform(*params.deadline_s_per_gb))
        query = Query(
            query_id=self._next_id,
            home_node=self._draw_home(),
            demanded=demanded,
            selectivity=selectivity,
            compute_rate=float(rng.uniform(*params.compute_rate)),
            deadline_s=deadline,
            name=f"load-{self._next_id}",
        )
        self._next_id += 1
        return query


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    protocol_errors: int = 0
    duration_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)

    def record(self, response: dict[str, Any], latency_s: float) -> None:
        """Account one submit response."""
        self.submitted += 1
        self.latencies_s.append(latency_s)
        if not response.get("ok", False):
            self.protocol_errors += 1
            return
        result = response.get("result")
        if result == "admitted":
            self.admitted += 1
        elif result == "rejected":
            self.rejected += 1
        elif result == "shed":
            self.shed += 1
        else:
            self.protocol_errors += 1

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` in seconds (0 with no samples)."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions shed by backpressure."""
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed submissions per wall-clock second."""
        return self.submitted / self.duration_s if self.duration_s > 0 else 0.0

    def summary(self) -> dict[str, Any]:
        """JSON-ready digest (what the bench and CLI print)."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "protocol_errors": self.protocol_errors,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "shed_rate": self.shed_rate,
            "latency_p50_ms": self.percentile(50) * 1e3,
            "latency_p99_ms": self.percentile(99) * 1e3,
        }


async def run_closed_loop(
    host: str,
    port: int,
    factory: QueryFactory,
    *,
    num_requests: int,
    concurrency: int = 8,
) -> LoadReport:
    """Closed-loop load: ``concurrency`` workers, one request in flight each.

    Each worker submits, awaits the response, then submits again until the
    shared budget of ``num_requests`` is spent — throughput self-adjusts
    to what the gateway sustains.
    """
    check_positive("num_requests", num_requests)
    check_positive("concurrency", concurrency)
    report = LoadReport()
    remaining = num_requests
    loop = asyncio.get_running_loop()

    async with await GatewayClient.connect(host, port) as client:

        async def worker() -> None:
            nonlocal remaining
            while remaining > 0:
                remaining -= 1
                query = factory.make()
                started = loop.time()
                response = await client.submit(query)
                report.record(response, loop.time() - started)

        started = loop.time()
        await asyncio.gather(*(worker() for _ in range(min(concurrency, num_requests))))
        report.duration_s = loop.time() - started
    return report


async def run_open_loop(
    host: str,
    port: int,
    factory: QueryFactory,
    *,
    num_requests: int,
    rate_rps: float,
    seed: int = 0,
) -> LoadReport:
    """Open-loop load: Poisson arrivals at ``rate_rps``, unconditionally.

    Submissions fire on an exponential-gap clock whether or not earlier
    responses returned, so offered load is independent of service rate —
    queue growth, shedding, and the latency tail are all visible.
    Arrivals are scheduled against absolute deadlines (firing every
    submission whose time has come in one pass), so the offered rate is
    honoured even when the mean gap is below the event loop's sleep
    granularity.
    """
    check_positive("num_requests", num_requests)
    check_positive("rate_rps", rate_rps)
    report = LoadReport()
    fire_at = np.cumsum(
        spawn_rng(seed, "serve-arrivals").exponential(
            1.0 / rate_rps, size=num_requests
        )
    )
    loop = asyncio.get_running_loop()

    async with await GatewayClient.connect(host, port) as client:

        async def one(query: Query) -> None:
            started = loop.time()
            response = await client.submit(query)
            report.record(response, loop.time() - started)

        started = loop.time()
        tasks = []
        fired = 0
        while fired < num_requests:
            elapsed = loop.time() - started
            while fired < num_requests and fire_at[fired] <= elapsed:
                tasks.append(asyncio.create_task(one(factory.make())))
                fired += 1
            if fired < num_requests:
                await asyncio.sleep(fire_at[fired] - (loop.time() - started))
        await asyncio.gather(*tasks)
        report.duration_s = loop.time() - started
    return report

"""Serve workloads: a gateway process driven over loopback TCP.

A run is a few rounds, each on its own seeded request stream.  Every
phase runs against a fresh server process and sends a prefix of its
round's stream (warm-up first, excluded from the timings), so every
phase's decisions are a prefix of that stream's oracle replay:

* saturation — a closed loop with a fixed window of requests in flight;
  gives ``sat_rps``, ``cpu_ms_per_req``, ``server_rss_mb`` and the
  admitted volume;
* open-loop rung — Poisson arrivals at the round's ladder rate, timed
  from due; the first rung gives ``open_p50_ms`` / ``open_p99_ms``, and
  the capacity is the highest rate whose p99 stays within
  :data:`LATENCY_LIMIT_MS` with no failure.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hostspeed import reference, scale
from loadgen import (
    MAX_LATENESS_P50_MS,
    MAX_LATENESS_P99_MS,
    Connection,
    PhaseResult,
    ServerProcess,
    closed_loop,
    open_loop,
    pin_plan,
    poisson_offsets,
)
from replay import (
    decision_from_response,
    latency_key_repeat_share,
    oracle_decisions,
    traced_replay,
    volume_gb,
)
from workloads import WINDOW, encode_submits

#: Half the tightest deadline the stream can draw (1 GB x 0.04 s/GB).
LATENCY_LIMIT_MS = 20.0


@dataclass
class Phase:
    """One server's run: warm-up, the timed part, and its measurements."""

    warm: PhaseResult
    timed: PhaseResult
    before: dict
    after: dict
    cpu_s: float
    rss_mb: float
    setup_s: float
    spans: dict

    def responses(self) -> dict[int, dict]:
        return {**self.warm.responses, **self.timed.responses}

    def failures(self) -> int:
        return self.warm.failures() + self.timed.failures()

    def attempted(self) -> int:
        return len(self.warm.ids) + len(self.timed.ids)


def serve_phase(
    spawn: Callable[[], ServerProcess],
    lines: list[bytes],
    warmup: int,
    window: int,
    body: Callable[[Connection, ServerProcess], PhaseResult],
) -> Phase:
    """Start a server, warm it up, run ``body`` timed, stop the server."""
    with spawn() as server:
        with Connection(server.port) as conn:
            warm = closed_loop(conn, lines, range(warmup), window)
            before = server.request("status")
            cpu = server.cpu_s()
            timed = body(conn, server)
            cpu = server.cpu_s() - cpu
            after = server.request("status")
        rss = server.peak_rss_mb()
    return Phase(warm, timed, before, after, cpu, rss, server.setup_s, server.spans)


def _summary_total(summary: dict) -> tuple[int, float]:
    count = summary["count"]
    return count, (summary["mean_s"] or 0.0) * count


def _histogram_p50(counts: list[int], edges: list[float]) -> float:
    """Upper edge of the bucket holding the median (last edge on overflow)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(0.5 * total))
    bucket = int(np.searchsorted(np.cumsum(counts), rank))
    return edges[min(bucket, len(edges) - 1)]


def status_delta(before: dict, after: dict) -> dict[str, float]:
    """Per-phase figures from two ``status`` payloads of one gateway."""
    c0, c1 = before["counters"], after["counters"]
    d = {k: c1[k] - c0[k] for k in c1}
    queued = d["submitted"] - d["fast_rejected"] - d["shed"]
    batches = d["batches"]
    out = {
        "submitted": d["submitted"],
        "fast_rejected": d["fast_rejected"],
        "shed": d["shed"],
        "admitted": d["admitted"],
        "batches": batches,
        "fast_reject_share": d["fast_rejected"] / d["submitted"] if d["submitted"] else 0.0,
        "mean_batch": queued / batches if batches else 0.0,
        "inflight_queries": after["inflight_queries"],
    }
    for key in ("screen_s", "commit_s"):
        n0, t0 = _summary_total(before["screen"][key])
        n1, t1 = _summary_total(after["screen"][key])
        out[key + "_per_batch"] = (t1 - t0) / (n1 - n0) if n1 > n0 else 0.0
    hist0 = before["admission_latency"]
    hist1 = after["admission_latency"]
    counts = [b - a for a, b in zip(hist0["counts"], hist1["counts"])]
    out["admission_p50_s"] = _histogram_p50(counts, hist1["buckets_le_s"])
    per_item = (
        (out["screen_s_per_batch"] + out["commit_s_per_batch"]) / out["mean_batch"]
        if out["mean_batch"]
        else 0.0
    )
    out["queue_wait_p50_s"] = out["admission_p50_s"] - per_item
    return out


def percentile_ms(result: PhaseResult, q: float) -> float:
    lat = result.latencies_ms()
    return float(np.percentile(lat, q)) if lat.size else math.inf


def lateness_ms(result: PhaseResult) -> tuple[float, float]:
    lat = np.asarray(result.lateness_s) * 1e3
    return float(np.percentile(lat, 50)), float(np.percentile(lat, 99))


def lateness_ok(result: PhaseResult) -> bool:
    p50, p99 = lateness_ms(result)
    return p50 <= MAX_LATENESS_P50_MS and p99 <= MAX_LATENESS_P99_MS


@dataclass
class LadderStep:
    rate: float
    p99_ms: float
    failures: int
    lateness_ok: bool
    phase: Phase


def ladder_step(spawn, lines, warmup, window, rate, due) -> LadderStep:
    """One open-loop rung at ``rate`` on a fresh server."""
    ids = range(warmup, warmup + len(due))
    phase = serve_phase(
        spawn, lines, warmup, window,
        lambda conn, server: open_loop(conn, lines, ids, due),
    )
    return LadderStep(
        rate,
        percentile_ms(phase.timed, 99),
        phase.failures(),
        lateness_ok(phase.timed),
        phase,
    )


def ladder_capacity(rows: list[LadderStep]) -> float:
    """Highest rate whose p99 is within :data:`LATENCY_LIMIT_MS` with no
    failure."""
    passing = [r.rate for r in rows if r.failures == 0 and r.p99_ms <= LATENCY_LIMIT_MS]
    return max(passing, default=0.0)


def decision_mismatches(phase: Phase, oracle: list) -> int:
    """Responses whose decision differs from the oracle's."""
    bad = 0
    for request_id, response in phase.responses().items():
        try:
            decision = decision_from_response(response)
        except KeyError:
            continue  # a failure, counted as such
        if decision != oracle[request_id]:
            bad += 1
    return bad


@dataclass(frozen=True)
class ServePlan:
    """Phase sizes of one serve measurement.

    The run is ``len(rates)`` rounds; round ``r`` runs one saturation
    phase, then the caller's in-process work for the round, then the
    open-loop rung at ``rates[r]``, both on the round's own stream.
    ``rates[0]`` is the fixed open-loop rate the latency percentiles are
    read at.
    """

    warmup: int
    sat_requests: int
    mark_every: int
    rates: tuple[float, ...]
    rung_requests: int

    @property
    def stream_length(self) -> int:
        return self.warmup + max(self.sat_requests, self.rung_requests)


@dataclass
class Stream:
    """One round's request stream, its wire lines and oracle decisions."""

    queries: list
    lines: list[bytes]
    oracle: list

    @classmethod
    def build(cls, instance, queries) -> "Stream":
        return cls(queries, encode_submits(queries), oracle_decisions(instance, queries))


@dataclass
class Serving:
    """Everything one serve measurement produced."""

    streams: list[Stream]
    sats: list[Phase]
    ladder: list[LadderStep]
    pinning: str
    #: Host speed reference samples (s) on the server's CPU.
    server_ref: list[float]

    @property
    def phases(self) -> list[tuple[Phase, Stream]]:
        rungs = [r.phase for r in self.ladder]
        return list(zip(self.sats, self.streams)) + list(zip(rungs, self.streams))

    @property
    def open(self) -> Phase:
        return self.ladder[0].phase

    @property
    def mismatches(self) -> int:
        return sum(decision_mismatches(p, s.oracle) for p, s in self.phases)

    @property
    def attempted(self) -> int:
        return sum(p.attempted() for p, _ in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failures() for p, _ in self.phases)

    @property
    def lateness_ok(self) -> bool:
        return all(r.lateness_ok for r in self.ladder)

    def windows(self) -> list[tuple[float, float]]:
        """(responses/s, server CPU s per response) of every window."""
        return [w for p in self.sats for w in p.timed.window_rates()]


def measure_serving(
    root: Path,
    workload: str,
    seed: int,
    streams: list[Stream],
    plan: ServePlan,
    between: Callable[[int], None] | None = None,
) -> Serving:
    """Run every round of ``plan``, round ``r`` on ``streams[r]``,
    against fresh server processes."""
    server_cpu, generator_cpu = pin_plan()
    if generator_cpu is not None:
        os.sched_setaffinity(0, {generator_cpu})
        pinning = f"server cpu {server_cpu}, generator cpu {generator_cpu}"
    else:
        pinning = "unpinned (one CPU)"
    rng = np.random.default_rng([seed, 0x5E7])
    dues = [poisson_offsets(rng, rate, plan.rung_requests) for rate in plan.rates]

    def spawn() -> ServerProcess:
        return ServerProcess(root, workload, server_cpu)

    warm = plan.warmup
    sat_ids = range(warm, warm + plan.sat_requests)
    sats, ladder, server_ref = [], [], []
    for r, (rate, due, stream) in enumerate(zip(plan.rates, dues, streams)):
        lines = stream.lines
        server_ref += reference(server_cpu)
        sats.append(
            serve_phase(
                spawn, lines, warm, WINDOW,
                lambda conn, server: closed_loop(
                    conn, lines, sat_ids, WINDOW, plan.mark_every, server.cpu_s
                ),
            )
        )
        if between is not None:
            between(r)
        ladder.append(ladder_step(spawn, lines, warm, WINDOW, rate, due))
    server_ref += reference(server_cpu)
    return Serving(streams, sats, ladder, pinning, server_ref)


def serving_raw(serving: Serving) -> dict[str, float]:
    """Set-up time and server CPU per request as measured (medians over
    server starts and saturation windows)."""
    return {
        "setup_s": statistics.median(p.setup_s for p, _ in serving.phases),
        "cpu_ms_per_req": statistics.median(w[1] for w in serving.windows()) * 1e3,
    }


def serving_end_to_end(serving: Serving) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of a serve measurement, times at the reference
    host speed of the server's CPU."""
    raw = serving_raw(serving)
    k = scale(serving.server_ref)
    return {
        "setup_s": (raw["setup_s"] * k, "s"),
        "cpu_ms_per_req": (raw["cpu_ms_per_req"] * k, "ms"),
        "server_rss_mb": (statistics.median(p.rss_mb for p in serving.sats), "MiB"),
    }


def serving_report(instance, serving: Serving) -> dict[str, tuple[float, str]]:
    """Figures printed but not bounded (see the README)."""
    decided = admitted_gb = 0.0
    admitted = 0
    for sat, stream in zip(serving.sats, serving.streams):
        decided += sat.attempted()
        for i, response in sat.responses().items():
            if response.get("result") == "admitted":
                admitted += 1
                admitted_gb += volume_gb(instance, stream.queries[i])
    windows = serving.windows()
    late50, late99 = lateness_ms(serving.open.timed)
    steps = {}
    for row in serving.ladder:
        rate = f"{row.rate:g}"
        steps[f"ladder.{rate}.p99_ms"] = (row.p99_ms, "ms")
        steps[f"ladder.{rate}.lateness_p99_ms"] = (lateness_ms(row.phase.timed)[1], "ms")
    raw = serving_raw(serving)
    return {
        "raw.setup_s": (raw["setup_s"], "s"),
        "raw.cpu_ms_per_req": (raw["cpu_ms_per_req"], "ms"),
        "host.server_ref_ms": (statistics.median(serving.server_ref) * 1e3, "ms"),
        "sat_rps": (statistics.median(w[0] for w in windows), "1/s"),
        "admitted_share": (admitted / decided, "ratio"),
        "admitted_gb": (admitted_gb / len(serving.sats), "GB"),
        "open_p50_ms": (percentile_ms(serving.open.timed, 50), "ms"),
        "open_p99_ms": (percentile_ms(serving.open.timed, 99), "ms"),
        "capacity_rps": (ladder_capacity(serving.ladder), "1/s"),
        "failed_share": (serving.failed / serving.attempted, "ratio"),
        "generator_lateness_p50_ms": (late50, "ms"),
        "generator_lateness_p99_ms": (late99, "ms"),
        **steps,
    }


def serving_layers(instance, serving: Serving, tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the first round: status deltas plus a traced
    in-process replay of its saturation phase's requests."""
    first, stream = serving.sats[0], serving.streams[0]
    sat = status_delta(first.before, first.after)
    opened = status_delta(serving.open.before, serving.open.after)
    batch = max(1, round(sat["mean_batch"]))
    count = first.attempted()
    generator_ref = reference()
    stats = traced_replay(instance, stream.lines[:count], batch, tracer)
    generator_ref += reference()
    if stats.decisions != stream.oracle[:count]:
        raise AssertionError("traced replay disagrees with the decision oracle")
    n = stats.requests

    def per_call(name: str) -> float:
        return tracer.total(name) / max(1, tracer.count(name)) * 1e6

    # Like for like: the server's CPU per request over the timed part
    # against the replay's in-process layer time for the same requests,
    # each at the reference speed of the CPU it ran on.
    timed = len(first.timed.ids)
    cpu_us = first.cpu_s / timed * 1e6
    replay_us = tracer.top_level_total(min_request=first.timed.ids[0]) / timed * 1e6
    residual_us = (
        cpu_us * scale(serving.server_ref) - replay_us * scale(generator_ref)
    ) / scale(generator_ref)
    spans = {
        key: statistics.median(p.spans[key] for p, _ in serving.phases)
        for key in ("setup.import_s", "setup.instance_s", "setup.gateway_init_s", "setup.listen_s")
    }
    return {
        "protocol.decode_us": (per_call("protocol.decode"), "us"),
        "protocol.encode_us": (per_call("protocol.encode"), "us"),
        "protocol.response_bytes": (stats.response_bytes / n, "bytes"),
        "gateway.fast_reject_share": (sat["fast_reject_share"], "ratio"),
        "gateway.inflight_queries": (sat["inflight_queries"], "count"),
        "gateway.latency_key_repeat_share": (latency_key_repeat_share(stream.queries[:count]), "ratio"),
        "gateway.replay_per_req_us": (replay_us, "us"),
        "gateway.loop_residual_us": (residual_us, "us"),
        "batcher.mean_batch": (sat["mean_batch"], "count"),
        "batcher.queue_wait_p50_us": (opened["queue_wait_p50_s"] * 1e6, "us"),
        "screen.server_batch_us": (sat["screen_s_per_batch"] * 1e6, "us"),
        "screen.batch_us": (per_call("screen.batch"), "us"),
        "screen.build_rows_us": (per_call("screen.build_rows"), "us"),
        "screen.snapshot_us": (per_call("screen.snapshot"), "us"),
        "screen.screen_rows_us": (per_call("screen.screen_rows"), "us"),
        "screen.pairs": (stats.pairs / max(1, stats.screen_batches), "count"),
        "screen.pass_share": (stats.pairs_ok / max(1, stats.pairs), "ratio"),
        "commit.server_batch_us": (sat["commit_s_per_batch"] * 1e6, "us"),
        "commit.batch_us": (per_call("commit.batch"), "us"),
        "commit.rule_us": (per_call("commit.rule"), "us"),
        "commit.txn_us": (per_call("commit.txn"), "us"),
        "commit.inflight_at_commit": (stats.inflight_at_commit / max(1, stats.commits), "count"),
        "commit.rule_fail_share": (stats.rule_failed / max(1, stats.screen_passed), "ratio"),
        "paths.latency_vector_us": (per_call("paths.latency_vector"), "us"),
        "setup.import_s": (spans["setup.import_s"], "s"),
        "setup.instance_s": (spans["setup.instance_s"], "s"),
        "setup.gateway_init_s": (spans["setup.gateway_init_s"], "s"),
        "setup.listen_s": (spans["setup.listen_s"], "s"),
    }

"""Parsing per-phase figures out of two gateway ``status`` payloads."""

from __future__ import annotations

import pytest

from servebench import status_delta

_EDGES = [1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3]


def _status(counters, screen, commit, counts, inflight):
    names = ("submitted", "admitted", "rejected", "fast_rejected", "shed", "batches")
    return {
        "inflight_queries": inflight,
        "counters": dict(zip(names, counters)),
        "screen": {
            "screen_s": {"count": screen[0], "mean_s": screen[1]},
            "commit_s": {"count": commit[0], "mean_s": commit[1]},
        },
        "admission_latency": {"buckets_le_s": _EDGES, "counts": counts},
    }


def test_delta_of_counters_summaries_and_histogram():
    before = _status(
        (100, 10, 80, 10, 0, 20), (20, 1e-4), (20, 2e-4), [0, 0, 0, 50, 40, 0, 0, 0], 10
    )
    after = _status(
        (300, 30, 240, 30, 0, 50), (50, 1.6e-4), (50, 2.6e-4), [0, 0, 0, 50, 40, 200, 20, 0], 30
    )
    d = status_delta(before, after)
    assert d["submitted"] == 200
    assert d["fast_rejected"] == 20
    assert d["fast_reject_share"] == pytest.approx(0.1)
    assert d["batches"] == 30
    assert d["mean_batch"] == pytest.approx(180 / 30)
    assert d["inflight_queries"] == 30
    # Summaries carry count and running mean: the phase's own per-batch
    # mean is the difference of the totals over the difference of counts.
    assert d["screen_s_per_batch"] == pytest.approx((50 * 1.6e-4 - 20 * 1e-4) / 30)
    assert d["commit_s_per_batch"] == pytest.approx((50 * 2.6e-4 - 20 * 2e-4) / 30)
    # Only the phase's 220 new samples count: 200 of them sit at <= 5e-4.
    assert d["admission_p50_s"] == pytest.approx(5e-4)
    per_item = (d["screen_s_per_batch"] + d["commit_s_per_batch"]) / d["mean_batch"]
    assert d["queue_wait_p50_s"] == pytest.approx(5e-4 - per_item)


def test_empty_phase_is_all_zero():
    status = _status((5, 1, 4, 0, 0, 2), (2, 1e-4), (2, 1e-4), [0, 5, 0, 0, 0, 0, 0, 0], 1)
    d = status_delta(status, status)
    assert d["submitted"] == 0
    assert d["mean_batch"] == 0.0
    assert d["screen_s_per_batch"] == 0.0
    assert d["admission_p50_s"] == 0.0


def test_delta_against_a_live_gateway():
    from repro.serve import AdmissionGateway, GatewayConfig, GatewayThread

    from loadgen import Connection, closed_loop, control
    from workloads import HOLD_FACTOR, encode_submits, paper_instance, query_stream

    instance = paper_instance(1.0)
    lines = encode_submits(query_stream(instance, seed=5, count=300))
    gateway = AdmissionGateway(instance, GatewayConfig(hold_factor=HOLD_FACTOR))
    thread = GatewayThread(gateway)
    thread.start()
    try:
        port = gateway.address[1]
        with Connection(port) as conn:
            closed_loop(conn, lines, range(100), window=16)
            before = control(port, "status")
            closed_loop(conn, lines, range(100, 300), window=16)
            after = control(port, "status")
    finally:
        thread.stop()
    d = status_delta(before, after)
    assert d["submitted"] == 200
    assert d["admitted"] + (after["counters"]["rejected"] - before["counters"]["rejected"]) + d[
        "fast_rejected"
    ] == 200
    assert 1.0 <= d["mean_batch"] <= 16.0
    assert d["screen_s_per_batch"] > 0.0

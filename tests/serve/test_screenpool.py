"""Parity tests for the gateway's batch screen.

Two layers, mirroring the contract in ``docs/performance.md``:

* the stacked kernel (:func:`repro.serve.screenpool.screen_rows`) is
  element-for-element the original per-pair prefilter, kept as the test
  oracle in ``prefilter_oracle.py``;
* a gateway screening with the kernel makes the same decisions — and
  writes the same checkpoints — as one screening with the oracle.
"""

import asyncio
import contextlib
import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.io.serialize import state_to_dict
from repro.serve import (
    AdmissionGateway,
    GatewayConfig,
    GatewayClient,
    QueryFactory,
    ScreenStatics,
)
from repro.serve.screenpool import (
    build_rows,
    screen_rows,
    snapshot_state,
    verdicts_from_pairs,
)
from repro.util.rng import spawn_rng
from repro.workload.params import PaperDefaults
from repro.workload.queries import generate_workload
from tests.serve.prefilter_oracle import OracleGateway, prefilter


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def screen_instance(small_topology):
    """A compact workload instance for screening tests."""
    return generate_workload(small_topology, spawn_rng(7, "screen"), PaperDefaults())


@contextlib.asynccontextmanager
async def running_gateway(instance, gateway_cls=AdmissionGateway, **config):
    gateway = gateway_cls(instance, GatewayConfig(**config))
    await gateway.start()
    try:
        yield gateway
    finally:
        if not gateway._closed.is_set():
            await gateway.stop()


def churn_state(gateway, queries, *, down=()):
    """Admit a workload slice (and fail nodes) so screens see real state."""
    state = gateway.state
    for query in queries:
        for d_id in query.demanded:
            dataset = gateway.instance.dataset(d_id)
            for node in gateway.instance.placement_nodes:
                if state.can_serve(query, dataset, node):
                    state.serve(query, dataset, node)
                    break
    for node in down:
        state.mark_down(node)


class TestKernelParity:
    """screen_rows == the per-pair prefilter oracle, bit for bit."""

    def _assert_parity(self, gateway, queries):
        statics = ScreenStatics.from_instance(gateway.instance)
        batch = [SimpleNamespace(query=q) for q in queries]
        available = gateway.state.available_array()
        expected = prefilter(gateway, batch, available)
        rows = build_rows(queries, statics)
        view = snapshot_state(gateway.state, statics)
        np.testing.assert_array_equal(view.free_ghz, available)
        pair_ok = screen_rows(statics, view, rows)
        actual = verdicts_from_pairs(rows, pair_ok, len(batch))
        assert actual == expected

    def test_fresh_state(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        self._assert_parity(gateway, list(screen_instance.queries[:32]))

    def test_after_churn(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        churn_state(gateway, screen_instance.queries[:40])
        self._assert_parity(gateway, list(screen_instance.queries))

    def test_with_down_nodes(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        churn_state(
            gateway,
            screen_instance.queries[:40],
            down=screen_instance.placement_nodes[:2],
        )
        self._assert_parity(gateway, list(screen_instance.queries))

    def test_exhausted_slots_gate(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        # Burn every replica slot of the hottest datasets.
        state = gateway.state
        for d_id in list(screen_instance.datasets)[:5]:
            for node in screen_instance.placement_nodes:
                if state.replicas.remaining_slots(d_id) <= 0:
                    break
                if state.replicas.can_place(d_id, node):
                    state.replicas.place(d_id, node)
        self._assert_parity(gateway, list(screen_instance.queries))

    def test_tight_deadlines(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        squeezed = [
            dataclasses.replace(q, deadline_s=q.deadline_s * f)
            for q, f in zip(
                screen_instance.queries, [1.0, 0.5, 0.1, 0.01, 1e-6] * 100
            )
        ]
        self._assert_parity(gateway, squeezed[: len(screen_instance.queries)])


class TestBuildRows:
    def test_flattens_pairs_in_order(self, screen_instance):
        statics = ScreenStatics.from_instance(screen_instance)
        queries = list(screen_instance.queries[:8])
        rows = build_rows(queries, statics)
        expected_pairs = [
            (i, d) for i, q in enumerate(queries) for d in q.demanded
        ]
        assert len(rows) == len(expected_pairs)
        for r, (i, d_id) in enumerate(expected_pairs):
            assert rows.query_row[r] == i
            assert statics.dataset_ids[rows.dataset_idx[r]] == d_id
            assert rows.home[r] == queries[i].home_node
            assert rows.alpha[r] == queries[i].alpha_for(d_id)

    def test_statics_match_scalar_accessors(self, screen_instance):
        statics = ScreenStatics.from_instance(screen_instance)
        inst = screen_instance
        for r, d_id in enumerate(statics.dataset_ids):
            assert statics.volumes_gb[r] == inst.dataset(d_id).volume_gb
        for home in {q.home_node for q in inst.queries}:
            np.testing.assert_array_equal(
                statics.home_delays[home], inst.paths.placement_delays_to(home)
            )


async def drive(instance, n_queries, gateway_cls, *, seed=13, fail_at=None):
    """Run one gateway scenario; returns (responses, checkpoint dict)."""
    responses = []
    async with running_gateway(
        instance, gateway_cls, hold_factor=50.0
    ) as gateway:
        host, port = gateway.address
        factory = QueryFactory(instance, seed=seed)
        async with await GatewayClient.connect(host, port) as client:
            for i in range(n_queries):
                if fail_at is not None and i == fail_at:
                    gateway.state.mark_down(instance.placement_nodes[0])
                response = await client.submit(factory.make())
                responses.append(response)
        checkpoint = state_to_dict(gateway.state)
    return responses, checkpoint


class TestGoldenParity:
    """kernel screen == oracle screen, decisions and checkpoints alike."""

    def test_batch_engine_is_decision_identical(self, screen_instance):
        oracle = run(drive(screen_instance, 60, OracleGateway))
        batch = run(drive(screen_instance, 60, AdmissionGateway))
        assert json.dumps(batch[0]) == json.dumps(oracle[0])
        assert json.dumps(batch[1]) == json.dumps(oracle[1])

    def test_parity_survives_faults(self, screen_instance):
        oracle = run(drive(screen_instance, 60, OracleGateway, fail_at=25))
        batch = run(drive(screen_instance, 60, AdmissionGateway, fail_at=25))
        assert json.dumps(batch[0]) == json.dumps(oracle[0])
        assert json.dumps(batch[1]) == json.dumps(oracle[1])


class TestStatusScreenPayload:
    def test_status_reports_screen_and_histogram(self, screen_instance):
        async def scenario():
            async with running_gateway(screen_instance) as gateway:
                host, port = gateway.address
                factory = QueryFactory(screen_instance, seed=2)
                async with await GatewayClient.connect(host, port) as client:
                    for _ in range(20):
                        await client.submit(factory.make())
                    status = await client.status()
                screen = status["screen"]
                assert sorted(screen) == ["commit_s", "screen_s"]
                assert screen["screen_s"]["count"] > 0
                assert screen["commit_s"]["count"] > 0
                hist = status["admission_latency"]
                assert len(hist["counts"]) == len(hist["buckets_le_s"]) + 1
                # Fast-rejects never reach the batch loop, so the
                # histogram counts only batched decisions.
                batched = (
                    status["counters"]["admitted"]
                    + status["counters"]["rejected"]
                )
                assert sum(hist["counts"]) == batched > 0
                assert hist["p50_s"] is not None
                rendered = GatewayClient.render_status(status)
                assert "screen/batch" in rendered
                assert "admission latency" in rendered

        run(scenario())

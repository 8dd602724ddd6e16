"""End-to-end tests for the admission gateway (real TCP, real batches)."""

import asyncio
import contextlib
import dataclasses
import json

import numpy as np
import pytest

from repro.io.serialize import state_from_dict, state_to_dict
from repro.serve import (
    AdmissionGateway,
    GatewayClient,
    GatewayConfig,
    GatewayThread,
    QueryFactory,
    ReoptimizerConfig,
    run_closed_loop,
    run_open_loop,
)
from repro.util.rng import spawn_rng
from repro.util.validation import ValidationError
from repro.workload.params import PaperDefaults
from repro.workload.queries import generate_workload


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def serve_instance(small_topology):
    """A compact workload instance the gateway serves in these tests."""
    return generate_workload(small_topology, spawn_rng(5, "serve"), PaperDefaults())


@contextlib.asynccontextmanager
async def running_gateway(instance, **config):
    gateway = AdmissionGateway(instance, GatewayConfig(**config))
    await gateway.start()
    try:
        yield gateway
    finally:
        if not gateway._closed.is_set():
            await gateway.stop()


class TestConfig:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValidationError, match="rule"):
            GatewayConfig(rule="oracle")

    def test_bad_watermark_rejected(self):
        with pytest.raises(ValidationError, match="watermark"):
            GatewayConfig(compute_watermark=1.5)


class TestSubmit:
    def test_admit_and_reject_over_tcp(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    generous = await client.submit(tiny_instance.queries[0])
                    assert generous["ok"] and generous["result"] == "admitted"
                    assert generous["response_s"] > 0
                    assert len(generous["assignments"]) == 1

                    hopeless = dataclasses.replace(
                        tiny_instance.queries[2], query_id=77, deadline_s=1e-9
                    )
                    rejected = await client.submit(hopeless)
                    assert rejected["ok"] and rejected["result"] == "rejected"
                    assert rejected["reason"] == "deadline-infeasible"
                assert gateway.counters["admitted"] == 1
                assert gateway.counters["fast_rejected"] == 1

        run(scenario())

    def test_admission_allocates_and_places(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.submit(tiny_instance.queries[1])
                assert response["result"] == "admitted"
                total = sum(a["compute_ghz"] for a in response["assignments"])
                assert gateway.state.total_allocated() == pytest.approx(total)
                for a in response["assignments"]:
                    assert a["node"] in gateway.state.replicas.nodes(a["dataset_id"])

        run(scenario())

    def test_hold_releases_compute(self, tiny_instance):
        async def scenario():
            # hold_factor shrinks the wall-clock hold to ~milliseconds.
            async with running_gateway(tiny_instance, hold_factor=1e-3) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.submit(tiny_instance.queries[0])
                    assert response["result"] == "admitted"
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while gateway.state.total_allocated() > 0:
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.005)
                assert gateway.state.total_allocated() == 0.0

        run(scenario())

    def test_pipelined_requests_correlate(self, serve_instance):
        async def scenario():
            async with running_gateway(serve_instance) as gateway:
                host, port = gateway.address
                factory = QueryFactory(serve_instance, seed=3)
                async with await GatewayClient.connect(host, port) as client:
                    responses = await asyncio.gather(
                        *(client.submit(factory.make()) for _ in range(20))
                    )
                assert all(r["ok"] for r in responses)
                assert gateway.counters["submitted"] == 20

        run(scenario())


class TestProbeEquivalence:
    def test_probe_mask_matches_can_serve_mask(self, serve_instance):
        """The batch-shared probe is element-for-element ``can_serve_mask``."""

        async def scenario():
            async with running_gateway(serve_instance) as gateway:
                host, port = gateway.address
                factory = QueryFactory(serve_instance, seed=11)
                async with await GatewayClient.connect(host, port) as client:
                    for _ in range(30):  # build up replicas + allocations
                        await client.submit(factory.make())
                state = gateway.state
                available = state.available_array()
                for query in serve_instance.queries:
                    for d_id in query.demanded:
                        expected = state.can_serve_mask(
                            query, serve_instance.dataset(d_id)
                        )
                        actual = gateway._probe_mask(query, d_id, available)
                        assert np.array_equal(actual, expected)

        run(scenario())

    def test_batched_decisions_match_serial(self, serve_instance):
        """max_batch=16 admits exactly what one-at-a-time admits."""

        async def scenario(max_batch):
            results = []
            async with running_gateway(
                serve_instance, max_batch=max_batch, hold_factor=100.0
            ) as gateway:
                host, port = gateway.address
                factory = QueryFactory(serve_instance, seed=4)
                async with await GatewayClient.connect(host, port) as client:
                    for _ in range(40):
                        response = await client.submit(factory.make())
                        results.append(response["result"])
            return results

        serial = run(scenario(1))
        batched = run(scenario(16))
        assert serial == batched


class TestBackpressure:
    def test_watermark_sheds(self, tiny_instance):
        async def scenario():
            async with running_gateway(
                tiny_instance, compute_watermark=0.05
            ) as gateway:
                for ledger in gateway.state.nodes.values():
                    ledger.allocate((999, ledger.node_id), ledger.available_ghz / 2)
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.submit(tiny_instance.queries[0])
                assert response["result"] == "shed"
                assert response["retry_after_s"] > 0
                assert gateway.counters["shed"] == 1

        run(scenario())

    def test_full_queue_sheds(self, tiny_instance):
        async def scenario():
            gateway = AdmissionGateway(
                tiny_instance, GatewayConfig(queue_bound=2)
            )
            # No worker is running: offers pile up until the bound.
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in range(3)]
            from repro.serve.gateway import _Pending

            query = tiny_instance.queries[0]
            assert gateway._batcher.offer(_Pending(query, futures[0]))
            assert gateway._batcher.offer(_Pending(query, futures[1]))
            assert not gateway._batcher.offer(_Pending(query, futures[2]))

        run(scenario())


class TestProtocolOverWire:
    def test_garbage_line_keeps_connection_alive(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance) as gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                assert error["ok"] is False
                writer.write(b'{"op": "status", "id": 5}\n')
                await writer.drain()
                status = json.loads(await reader.readline())
                assert status["id"] == 5 and status["ok"] is True
                writer.close()
                await writer.wait_closed()
                assert gateway.counters["protocol_errors"] == 1

        run(scenario())

    def test_oversized_line_gets_error_response(self, tiny_instance):
        """A peer streaming > MAX_LINE_BYTES without a newline is told
        why before the (desynced) connection is closed — not dropped
        with an unexplained reset."""
        from repro.serve.protocol import MAX_LINE_BYTES

        async def scenario():
            async with running_gateway(tiny_instance) as gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"x" * (MAX_LINE_BYTES + 1024))
                await writer.drain()
                error = json.loads(await reader.readline())
                assert error["ok"] is False
                assert "exceeds" in error["error"]
                # The gateway closes the stream after the error.
                assert await reader.read() == b""
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                assert gateway.counters["protocol_errors"] == 1

        run(scenario())

    def test_status_reports_counters(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    await client.submit(tiny_instance.queries[0])
                    status = await client.status()
                assert status["counters"]["submitted"] == 1
                assert status["total_capacity_ghz"] > 0
                assert status["recovered"] is False

        run(scenario())

    def test_shutdown_op_stops_gateway(self, tiny_instance):
        async def scenario():
            gateway = AdmissionGateway(tiny_instance)
            await gateway.start()
            host, port = gateway.address
            async with await GatewayClient.connect(host, port) as client:
                response = await client.shutdown()
                assert response["stopping"] is True
            await asyncio.wait_for(gateway.wait_closed(), timeout=5.0)

        run(scenario())


class TestCheckpointing:
    def test_restart_restores_bit_identical_state(self, serve_instance, tmp_path):
        path = tmp_path / "gateway.ckpt.json"

        async def serve_and_stop():
            async with running_gateway(
                serve_instance, checkpoint_path=str(path), hold_factor=100.0
            ) as gateway:
                host, port = gateway.address
                await run_closed_loop(
                    host,
                    port,
                    QueryFactory(serve_instance, seed=6),
                    num_requests=60,
                    concurrency=4,
                )
                await gateway.stop()  # writes the final checkpoint
                return gateway

        async def restart():
            gateway = AdmissionGateway(
                serve_instance, GatewayConfig(checkpoint_path=str(path))
            )
            return gateway

        before = run(serve_and_stop())
        after = run(restart())
        assert after.recovered
        assert state_to_dict(after.state) == state_to_dict(before.state)
        assert np.array_equal(
            after.state.available_array(), before.state.available_array()
        )
        assert after.state.replicas.replica_map() == before.state.replicas.replica_map()
        assert after.counters["admitted"] == before.counters["admitted"]

    def test_recovered_holds_release(self, tiny_instance, tmp_path):
        """Allocations restored from a checkpoint drain after the grace hold."""
        path = tmp_path / "gateway.ckpt.json"

        async def first():
            async with running_gateway(
                tiny_instance, checkpoint_path=str(path), hold_factor=100.0
            ) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.submit(tiny_instance.queries[0])
                    assert response["result"] == "admitted"
                await gateway.stop()
                return gateway.state.total_allocated()

        async def second():
            gateway = AdmissionGateway(
                tiny_instance,
                GatewayConfig(checkpoint_path=str(path), recovery_hold_s=0.01),
            )
            assert gateway.recovered
            restored = gateway.state.total_allocated()
            await gateway.start()
            try:
                deadline = asyncio.get_running_loop().time() + 5.0
                while gateway.state.total_allocated() > 0:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
            finally:
                await gateway.stop()
            return restored

        held = run(first())
        assert held > 0
        assert run(second()) == pytest.approx(held)

    def test_recovered_holds_skip_crash_evicted_tags(
        self, serve_instance, tmp_path
    ):
        """Recovered holds span several nodes and one node crashes before
        they expire: expiry releases every surviving allocation, skips the
        evicted ones, and leaves the bytes a full per-ledger scan would."""
        path = tmp_path / "gateway.ckpt.json"

        async def fill():
            async with running_gateway(
                serve_instance, checkpoint_path=str(path), hold_factor=1e6
            ) as gateway:
                host, port = gateway.address
                await run_closed_loop(
                    host,
                    port,
                    QueryFactory(serve_instance, seed=6),
                    num_requests=80,
                    concurrency=4,
                )
                await gateway.stop()

        def crash(state, node):
            state.mark_down(node)
            state.evict_allocations(node)
            state.drop_replicas(node)

        run(fill())
        restored = state_from_dict(
            json.loads(path.read_text())["state"], serve_instance
        )
        holding = {
            v: ledger.allocation_tags()
            for v, ledger in restored.nodes.items()
            if ledger.allocation_tags()
        }
        assert len(holding) >= 3
        victim = max(holding, key=lambda v: len(holding[v]))
        split = {t[0] for t in holding[victim]} & {
            t[0] for v, tags in holding.items() if v != victim for t in tags
        }
        assert split  # some query holds compute on the victim and elsewhere

        # Reference: the same crash, then release every surviving tag.
        crash(restored, victim)
        for ledger in restored.nodes.values():
            for tag in ledger.allocation_tags():
                ledger.release(tag)

        async def expire():
            gateway = AdmissionGateway(
                serve_instance,
                GatewayConfig(checkpoint_path=str(path), recovery_hold_s=0.05),
            )
            await gateway.start()
            try:
                crash(gateway.state, victim)
                deadline = asyncio.get_running_loop().time() + 5.0
                while gateway._holds:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
                gateway.state.check_invariants()
                return json.dumps(state_to_dict(gateway.state))
            finally:
                await gateway.stop()

        assert run(expire()) == json.dumps(state_to_dict(restored))

    def test_periodic_checkpoints(self, tiny_instance, tmp_path):
        path = tmp_path / "gateway.ckpt.json"

        async def scenario():
            async with running_gateway(
                tiny_instance,
                checkpoint_path=str(path),
                checkpoint_interval_s=0.02,
            ) as gateway:
                deadline = asyncio.get_running_loop().time() + 5.0
                while not path.exists():
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
                payload = json.loads(path.read_text())
                assert payload["format"] == "repro/serve-checkpoint/v1"
                assert gateway.counters["checkpoints"] >= 1

        run(scenario())

    def test_wrong_format_rejected(self, tiny_instance, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other", "state": {}}))
        with pytest.raises(ValidationError, match="format"):
            AdmissionGateway(
                tiny_instance, GatewayConfig(checkpoint_path=str(path))
            )


class TestIdReuseAndCrashSafety:
    """Regressions for the recovered-hold tag collision and shutdown hang.

    Replaying a workload over a recovered checkpoint resubmits query ids
    whose holds are still live; the placement used to re-allocate the
    same (query, dataset) tag, raising ``CapacityError`` inside the
    admission worker, and ``stop()`` then re-raised it at ``await task``
    and never unblocked ``wait_closed()``.
    """

    def test_resubmit_live_id_replaces_hold(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance, hold_factor=100.0) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    first = await client.submit(tiny_instance.queries[0])
                    assert first["result"] == "admitted"
                    held = gateway.state.total_allocated()
                    second = await client.submit(tiny_instance.queries[0])
                    assert second["result"] == "admitted"
                # Latest decision wins: the old hold was evicted, not
                # stacked, so allocated compute did not double.
                assert gateway.state.total_allocated() == pytest.approx(held)
                assert gateway.counters["admit_errors"] == 0
                q_id = tiny_instance.queries[0].query_id
                assert len(gateway._inflight[q_id]) == len(second["assignments"])

        run(scenario())

    def test_replay_over_recovered_checkpoint(self, tiny_instance, tmp_path):
        path = tmp_path / "gateway.ckpt.json"

        async def first():
            async with running_gateway(
                tiny_instance, checkpoint_path=str(path), hold_factor=100.0
            ) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    for query in tiny_instance.queries[:2]:
                        response = await client.submit(query)
                        assert response["result"] == "admitted"
                await gateway.stop()

        async def replay():
            # A long recovery hold keeps every restored allocation live
            # while the identical workload is replayed at it.
            async with running_gateway(
                tiny_instance,
                checkpoint_path=str(path),
                recovery_hold_s=100.0,
                hold_factor=100.0,
            ) as gateway:
                assert gateway.recovered
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    for query in tiny_instance.queries[:2]:
                        response = await client.submit(query)
                        assert response["ok"]
                        assert response["result"] == "admitted"
                assert gateway.counters["admit_errors"] == 0
                await asyncio.wait_for(gateway.stop(), timeout=5.0)
                assert gateway._closed.is_set()

        run(first())
        run(replay())

    def test_stop_completes_after_task_crash(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance) as gateway:

                async def doomed():
                    raise RuntimeError("background task died")

                gateway._tasks.append(asyncio.create_task(doomed()))
                await asyncio.sleep(0)  # let it fail before stop() awaits it
                await asyncio.wait_for(gateway.stop(), timeout=5.0)
                assert gateway._closed.is_set()
                assert gateway.counters["task_crashes"] == 1

        run(scenario())


class TestLoadGenerators:
    def test_query_factory_deterministic(self, serve_instance):
        a = QueryFactory(serve_instance, seed=9)
        b = QueryFactory(serve_instance, seed=9)
        for _ in range(20):
            assert a.make() == b.make()

    def test_factory_respects_instance(self, serve_instance):
        factory = QueryFactory(serve_instance, seed=2)
        for _ in range(50):
            query = factory.make()
            assert set(query.demanded) <= set(serve_instance.datasets)
            assert query.deadline_s > 0

    def test_open_loop_report(self, serve_instance):
        async def scenario():
            async with running_gateway(serve_instance) as gateway:
                host, port = gateway.address
                report = await run_open_loop(
                    host,
                    port,
                    QueryFactory(serve_instance, seed=13),
                    num_requests=30,
                    rate_rps=2000.0,
                )
                return report

        report = run(scenario())
        assert report.submitted == 30
        assert report.admitted + report.rejected + report.shed == 30
        assert report.protocol_errors == 0
        assert report.percentile(99) >= report.percentile(50) >= 0
        summary = report.summary()
        assert summary["submitted"] == 30
        json.dumps(summary)


class TestGatewayThread:
    def test_serves_from_background_thread(self, serve_instance, tmp_path):
        gateway = AdmissionGateway(
            serve_instance,
            GatewayConfig(checkpoint_path=str(tmp_path / "t.ckpt.json")),
        )
        thread = GatewayThread(gateway)
        host, port = thread.start()
        try:
            report = run(
                run_closed_loop(
                    host,
                    port,
                    QueryFactory(serve_instance, seed=8),
                    num_requests=40,
                    concurrency=4,
                )
            )
            assert report.submitted == 40
            assert report.protocol_errors == 0
        finally:
            thread.stop()
        assert (tmp_path / "t.ckpt.json").exists()


class TestReoptimizerGoldenParity:
    """PR-5 pin: an enabled re-optimizer under zero drift is invisible.

    The same strictly-sequential submission stream is served twice — once
    by the plain gateway, once with the daemon enabled (a fast background
    interval *plus* explicit mid-stream cycles).  A stationary workload
    never crosses the drift gate, so every decision and the final
    checkpoint must be byte-for-byte identical to the baseline.
    """

    def _drive(self, serve_instance, path, reopt):
        async def scenario():
            results = []
            async with running_gateway(
                serve_instance,
                hold_factor=100.0,
                checkpoint_path=str(path),
                reopt=reopt,
            ) as gateway:
                host, port = gateway.address
                factory = QueryFactory(serve_instance, seed=8)
                async with await GatewayClient.connect(host, port) as client:
                    for i in range(40):
                        response = await client.submit(factory.make())
                        results.append(response["result"])
                        if reopt is not None and i in (19, 39):
                            cycle = await client.reopt()
                            assert cycle["ok"] is True
                status = gateway.status()
                await gateway.stop()  # writes the final checkpoint
                return results, status, dict(gateway.counters)

        return run(scenario())

    def test_zero_drift_is_bit_identical(self, serve_instance, tmp_path):
        plain_path = tmp_path / "plain.ckpt.json"
        reopt_path = tmp_path / "reopt.ckpt.json"
        config = ReoptimizerConfig(interval_s=0.01, window=64, min_window=8)

        plain_results, plain_status, plain_counters = self._drive(
            serve_instance, plain_path, None
        )
        reopt_results, reopt_status, reopt_counters = self._drive(
            serve_instance, reopt_path, config
        )

        assert reopt_results == plain_results
        assert reopt_counters == plain_counters
        assert reopt_path.read_bytes() == plain_path.read_bytes()

        # The daemon ran (explicit cycles at least) but never migrated.
        assert "reopt" not in plain_status
        daemon = reopt_status["reopt"]
        assert daemon["cycles"] >= 2
        assert daemon["migrated_steps"] == 0
        assert daemon["migrated_gb"] == 0.0
        last = daemon["last_cycle"]
        assert last["reason"] in ("drift-below-threshold", "reference-set")

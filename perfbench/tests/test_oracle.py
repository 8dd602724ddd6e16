"""The decision oracle against a live gateway and the online session."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from loadgen import Connection, closed_loop
from replay import decision_from_response, oracle_decisions, traced_replay
from run import serving_checks
from servebench import Phase, Serving, Stream, decision_mismatches
from tracing import Tracer
from workloads import HOLD_FACTOR, encode_submits, paper_instance, query_stream


@pytest.fixture(scope="module")
def instance():
    return paper_instance(1.0)


@pytest.fixture(scope="module")
def queries(instance):
    return query_stream(instance, seed=3, count=400)


def test_gateway_answers_exactly_the_oracle(instance, queries):
    from repro.serve import AdmissionGateway, GatewayConfig, GatewayThread

    gateway = AdmissionGateway(instance, GatewayConfig(hold_factor=HOLD_FACTOR))
    thread = GatewayThread(gateway)
    _, port = thread.start()
    try:
        lines = encode_submits(queries)
        with Connection(port) as conn:
            result = closed_loop(conn, lines, range(len(lines)), window=32)
    finally:
        thread.stop()
    assert result.failures() == 0
    oracle = oracle_decisions(instance, queries)
    served = [decision_from_response(result.responses[i]) for i in range(len(queries))]
    assert served == oracle
    assert any(d is not None for d in oracle) and any(d is None for d in oracle)


def test_online_session_agrees_with_the_oracle(instance, queries):
    from repro.core import OnlineConfig, OnlineSession, appro_rule
    from repro.core.instance import ProblemInstance

    batch = ProblemInstance(
        instance.topology, instance.datasets, queries, instance.max_replicas
    )
    report = OnlineSession(OnlineConfig(hold_factor=HOLD_FACTOR, seed=3)).run(
        batch, appro_rule
    )
    admitted = [o.admitted for o in report.outcomes]
    assert admitted == [d is not None for d in oracle_decisions(batch, queries)]


@pytest.mark.parametrize("batch_size", [1, 7, 16])
def test_traced_replay_reproduces_the_oracle(instance, queries, batch_size):
    tracer = Tracer()
    stats = traced_replay(instance, encode_submits(queries), batch_size, tracer)
    assert stats.decisions == oracle_decisions(instance, queries)
    assert stats.requests == len(queries)
    assert tracer.count("protocol.decode") == len(queries)
    assert tracer.count("protocol.encode") == len(queries)


def _phase(responses: dict[int, dict]) -> Phase:
    from loadgen import PhaseResult

    timed = PhaseResult(ids=sorted(responses), start_s={}, responses=responses)
    empty = PhaseResult(ids=[], start_s={})
    return Phase(empty, timed, {}, {}, 0.0, 0.0, 0.0, {})


def test_mismatch_counting_flags_a_changed_node():
    admitted = {
        "id": 0,
        "ok": True,
        "result": "admitted",
        "assignments": [{"dataset_id": 2, "node": 5, "latency_s": 0.1, "compute_ghz": 1.0}],
    }
    rejected = {"id": 1, "ok": True, "result": "rejected", "reason": "infeasible"}
    shed = {"id": 2, "ok": True, "result": "shed", "retry_after_s": 0.01}
    phase = _phase({0: admitted, 1: rejected, 2: shed})
    assert decision_mismatches(phase, [((2, 5),), None, None]) == 0
    assert decision_mismatches(phase, [((2, 6),), None, None]) == 1
    assert decision_mismatches(phase, [((2, 5),), ((1, 1),), None]) == 1
    assert phase.failures() == 1  # the shed response


def test_unanswered_requests_fail_the_run():
    rejected = {"id": 0, "ok": True, "result": "rejected", "reason": "infeasible"}
    shed = {"id": 1, "ok": True, "result": "shed", "retry_after_s": 0.01}
    stream = Stream(queries=[], lines=[], oracle=[None, None])

    def checks(responses):
        return serving_checks(Serving([stream], [_phase(responses)], [], "", []))

    assert all(checks({0: rejected, 1: rejected}).values())
    shedding = checks({0: rejected, 1: shed})
    assert shedding["server decisions equal the oracle"]  # a shed carries no decision
    assert not shedding["every request answered admitted or rejected"]


def test_faulted_online_session_matches_recorded_counts():
    from solvers import online_fingerprint, run_online
    from workloads import online_config, online_instance

    recorded = json.loads((Path(__file__).parent.parent / "expected.json").read_text())
    instance = online_instance()
    _, _, report = run_online(instance, online_config())
    assert online_fingerprint(instance, report) == recorded["online_fingerprint"]


def test_decision_from_response_rejects_non_decisions():
    with pytest.raises(KeyError):
        decision_from_response({"result": "shed"})
    assert decision_from_response({"result": "rejected"}) is None


def test_oracle_is_deterministic(instance, queries):
    first = oracle_decisions(instance, queries)
    assert first == oracle_decisions(instance, queries)
    assert np.mean([d is not None for d in first]) > 0

"""In-process replays of a serve workload's request stream.

:func:`oracle_decisions` is the decision oracle: the stream decided one
query at a time with the plainest form of the gateway's rule — the SLO
fast-reject on ``pair_latency_vector``, then ``appro_rule`` for every
demanded dataset inside one ``ClusterState.transaction``.  Holds outlast
every run, so this sequence is exactly what a gateway must answer,
whatever its batching or screening.

:func:`traced_replay` replays the same request lines in batches of the
TCP run's mean size through the public functions of each serving layer
(protocol decode, fast-reject, batch screen, commit, encode), recording
a span around every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def decision_from_response(response: dict):
    """The decision a submit response carries: ``None`` for a rejection,
    else ``(dataset, node)`` pairs in demanded order (``KeyError`` when
    the response is no decision, e.g. shed)."""
    result = response["result"]
    if result == "rejected":
        return None
    if result != "admitted":
        raise KeyError(result)
    return tuple((a["dataset_id"], a["node"]) for a in response["assignments"])


def oracle_decisions(instance, queries) -> list:
    """Decide ``queries`` one at a time against a fresh cluster."""
    from repro.cluster.state import ClusterState
    from repro.core.online import appro_rule

    state = ClusterState(instance)
    rule = appro_rule(instance)
    decisions = []
    for query in queries:
        decisions.append(_decide(instance, state, rule, query))
    return decisions


def _decide(instance, state, rule, query):
    for d_id in query.demanded:
        vector = instance.pair_latency_vector(query, instance.dataset(d_id))
        if float(vector.min()) > query.deadline_s:
            return None
    placed = []
    with state.transaction() as txn:
        for d_id in query.demanded:
            assignment = rule(state, query, d_id)
            if assignment is None:
                return None
            placed.append((assignment.dataset_id, assignment.node))
        txn.commit()
    return tuple(placed)


def volume_gb(instance, query) -> float:
    """Eq. 1 contribution of an admitted query: its demanded volume."""
    return sum(instance.dataset(d).volume_gb for d in query.demanded)


def latency_key_repeat_share(queries) -> float:
    """Share of (dataset, home, selectivity) keys already seen earlier in
    the stream: the hit rate the gateway's latency cache could reach."""
    seen: set = set()
    repeats = pairs = 0
    for query in queries:
        for d_id, alpha in zip(query.demanded, query.selectivity):
            key = (d_id, query.home_node, alpha)
            pairs += 1
            if key in seen:
                repeats += 1
            else:
                seen.add(key)
    return repeats / pairs if pairs else 0.0


@dataclass
class ReplayStats:
    """Counts gathered by :func:`traced_replay`."""

    decisions: list = field(default_factory=list)
    requests: int = 0
    screen_batches: int = 0
    pairs: int = 0
    pairs_ok: int = 0
    screen_passed: int = 0
    rule_failed: int = 0
    commits: int = 0
    inflight_at_commit: int = 0
    response_bytes: int = 0


def traced_replay(instance, lines, batch_size: int, tracer) -> ReplayStats:
    """Replay ``lines`` in order through the serving layers, traced.

    Mirrors the gateway's per-batch work: every line is decoded and
    fast-rejected as it arrives; the survivors of each batch are screened
    together against batch-start state; screen-passed queries are
    re-probed once an earlier query of the batch touched state, then
    placed inside a transaction; every response is encoded.
    """
    from repro.cluster.state import ClusterState
    from repro.core.online import appro_rule
    from repro.serve.protocol import (
        decode_request,
        encode_message,
        parse_submit_query,
    )
    from repro.serve.screenpool import (
        build_rows,
        screen_rows,
        snapshot_state,
        verdicts_from_pairs,
    )
    from repro.serve.shm import ScreenStatics

    span = tracer.span
    state = ClusterState(instance)
    rule = appro_rule(instance)
    statics = ScreenStatics.from_instance(instance)
    stats = ReplayStats()
    inflight = 0

    def respond(request_id: int, payload: dict) -> None:
        with span("protocol.encode", request_id):
            wire = encode_message({"id": request_id, "ok": True, **payload})
        stats.response_bytes += len(wire)

    for start in range(0, len(lines), batch_size):
        pending = []
        for request_id in range(start, min(start + batch_size, len(lines))):
            with span("protocol.decode", request_id):
                query = parse_submit_query(decode_request(lines[request_id]))
            stats.requests += 1
            infeasible = False
            with span("gateway.fast_reject", request_id):
                for d_id in query.demanded:
                    with span("paths.latency_vector", request_id):
                        vector = instance.pair_latency_vector(
                            query, instance.dataset(d_id)
                        )
                    if float(vector.min()) > query.deadline_s:
                        infeasible = True
                        break
            if infeasible:
                stats.decisions.append(None)
                respond(request_id, {"result": "rejected", "reason": "deadline-infeasible"})
            else:
                stats.decisions.append(False)  # placeholder, set below
                pending.append((request_id, query))
        if not pending:
            continue
        with span("screen.batch", pending[0][0]):
            with span("screen.build_rows"):
                rows = build_rows([q for _, q in pending], statics)
            with span("screen.snapshot"):
                view = snapshot_state(state, statics)
            with span("screen.screen_rows"):
                pair_ok = screen_rows(statics, view, rows)
            verdicts = verdicts_from_pairs(rows, pair_ok, len(pending))
        stats.screen_batches += 1
        stats.pairs += len(rows)
        stats.pairs_ok += int(pair_ok.sum())
        mutated = False
        with span("commit.batch", pending[0][0]):
            for (request_id, query), passed in zip(pending, verdicts):
                decision = None
                if passed:
                    stats.screen_passed += 1
                    feasible = True
                    if mutated:
                        with span("commit.probe", request_id):
                            feasible = all(
                                state.can_serve_mask(
                                    query, instance.dataset(d_id)
                                ).any()
                                for d_id in query.demanded
                            )
                    if feasible:
                        decision, assignments = _traced_commit(
                            span, state, rule, query, request_id
                        )
                        stats.commits += 1
                        stats.inflight_at_commit += inflight
                        mutated = True
                        with span("commit.available", request_id):
                            state.available_array()
                        if decision is None:
                            stats.rule_failed += 1
                        else:
                            inflight += 1
                stats.decisions[request_id] = decision
                if decision is None:
                    respond(request_id, {"result": "rejected", "reason": "infeasible"})
                else:
                    respond(
                        request_id,
                        {
                            "result": "admitted",
                            "response_s": max(a.latency_s for a in assignments),
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
                    )
    return stats


def _traced_commit(span, state, rule, query, request_id):
    assignments = []
    with span("commit.txn", request_id):
        with state.transaction() as txn:
            for d_id in query.demanded:
                with span("commit.rule", request_id):
                    assignment = rule(state, query, d_id)
                if assignment is None:
                    return None, ()
                assignments.append(assignment)
            txn.commit()
    return tuple((a.dataset_id, a.node) for a in assignments), assignments

"""Tests for dual prices and the paper-faithful dual certificate."""

import pytest

from repro.cluster.state import ClusterState
from repro.core import evaluate_solution, make_algorithm
from repro.core.duals import NodePrices, dual_certificate


class TestNodePricesValidation:
    def test_floor_must_be_fraction(self):
        with pytest.raises(Exception):
            NodePrices(theta_floor=0.0)
        with pytest.raises(ValueError):
            NodePrices(theta_floor=1.0)

    def test_theta_all_covers_placement_nodes(self, tiny_instance):
        state = ClusterState(tiny_instance)
        prices = NodePrices()
        thetas = prices.theta_all(state)
        assert set(thetas) == set(tiny_instance.placement_nodes)
        assert all(0.0 < t <= 1.0 for t in thetas.values())


class TestThetaArrayMemo:
    def test_memoised_prices_track_every_change(self, paper_instance):
        """One NodePrices reused across commits, releases, a rollback and
        a second state: every call equals scalar ``theta`` bit for bit and
        a fresh, memo-free NodePrices."""
        prices = NodePrices(theta_floor=0.05)
        states = [ClusterState(paper_instance), ClusterState(paper_instance)]

        def check(state):
            memo = prices.theta_array(state)
            fresh = NodePrices(theta_floor=0.05).theta_array(state)
            assert memo.tobytes() == fresh.tobytes()
            for i, v in enumerate(paper_instance.placement_nodes):
                assert memo[i] == prices.theta(state, v)

        assignments = []
        for query in paper_instance.queries[:40]:
            state = states[query.query_id % 2]
            dataset = paper_instance.dataset(query.demanded[0])
            for node in paper_instance.placement_nodes:
                if state.can_serve(query, dataset, node):
                    assignments.append((state, state.serve(query, dataset, node)))
                    break
            check(state)
        for state, a in assignments[::3]:
            state.release(a)
            check(state)
        state = states[0]
        with state.transaction():
            for v, ledger in state.nodes.items():
                ledger.allocate(("fill", v), ledger.available_ghz)
            check(state)
        check(state)


class TestDualCertificate:
    def test_positive(self, paper_instance):
        state = ClusterState(paper_instance)
        cert = dual_certificate(paper_instance, state, NodePrices())
        assert cert > 0.0

    def test_upper_bounds_every_algorithm(self, paper_instance):
        """The certificate reported by Appro bounds all primal objectives
        on the same instance (weak-duality direction of Theorem 1)."""
        solution = make_algorithm("appro-g").solve(paper_instance)
        cert = solution.extras["dual_objective"]
        for name in ("appro-g", "greedy-g", "graph-g", "popularity-g"):
            primal = evaluate_solution(
                paper_instance, make_algorithm(name).solve(paper_instance)
            ).admitted_volume_gb
            assert primal <= cert

    def test_grows_with_utilisation(self, paper_instance):
        """Higher θ (fuller nodes) raises the capacity term of (8)."""
        idle = ClusterState(paper_instance)
        prices = NodePrices()
        cert_idle = dual_certificate(paper_instance, idle, prices)

        busy = ClusterState(paper_instance)
        for v, node in busy.nodes.items():
            node.allocate("fill", node.available_ghz / 2.0)
        cert_busy = dual_certificate(paper_instance, busy, prices)
        # The capacity term grows; the η term shrinks slightly with θ, but
        # on the paper instance the capacity term dominates the delta.
        assert cert_busy != cert_idle

    def test_deterministic(self, paper_instance):
        state = ClusterState(paper_instance)
        prices = NodePrices()
        assert dual_certificate(
            paper_instance, state, prices
        ) == dual_certificate(paper_instance, state, prices)

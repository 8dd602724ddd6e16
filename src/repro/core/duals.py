"""Dual variables, price dynamics and weak-duality certificates.

The paper derives the dual (8)–(14) of the placement ILP and drives the
approximation algorithm by *uniformly raising* dual variables until
constraint (9) tightens.  Operationally this realises as multiplicative
price dynamics: a node whose compute is nearly exhausted carries a price
near 1 (fully charged against the query's gain), an idle node a price near
``theta_floor`` — the standard primal-dual dynamic-update scheme for
packing problems.

:class:`NodePrices` implements the price state shared by
:mod:`repro.core.primal_dual`.  :func:`dual_certificate` evaluates the
paper's dual objective (8) at a feasible dual point constructed from the
final prices — a paper-faithful diagnostic of how much the prices "explain"
the admission decisions.  For a *rigorous* optimality gap use the LP
relaxation in :mod:`repro.core.ilp`, whose optimum upper-bounds every
integral solution by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.state import ClusterState
from repro.core.instance import ProblemInstance
from repro.util.validation import check_fraction

__all__ = ["NodePrices", "dual_certificate"]


@dataclass
class NodePrices:
    """Per-node compute prices ``θ_l`` driven by utilisation.

    ``θ_l = theta_floor ** (1 - u_l)`` with ``u_l`` the node's utilisation:
    an exponential interpolation from ``theta_floor`` (idle) to 1 (full).
    Raising prices exponentially in the consumed fraction is what makes
    primal-dual packing algorithms competitive — capacity is cheap early
    and prohibitive as it runs out, so low-value queries cannot crowd out
    high-value ones on scarce nodes.

    Attributes
    ----------
    theta_floor:
        Idle price ``θ_0 ∈ (0, 1)``.  The paper starts duals at zero and
        raises them; a small positive floor keeps the certificate finite.
    """

    theta_floor: float = 0.01
    #: Last ``(floor, exponents, prices)`` :meth:`theta_array` computed.
    _memo: tuple[float, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_fraction("theta_floor", self.theta_floor)
        if self.theta_floor >= 1.0:
            raise ValueError("theta_floor must be < 1")

    def theta(self, state: ClusterState, node: int) -> float:
        """Current price of ``node`` given its utilisation."""
        u = state.nodes[node].utilization
        return self.theta_floor ** (1.0 - min(1.0, u))

    def theta_all(self, state: ClusterState) -> dict[int, float]:
        """Prices of all placement nodes."""
        return {v: self.theta(state, v) for v in state.nodes}

    def theta_array(self, state: ClusterState) -> np.ndarray:
        """Prices of all placement nodes, in placement order (vectorised).

        Elementwise the same ``theta_floor ** (1 - min(1, u))`` as
        :meth:`theta`.  The exponent vector is computed with array ops,
        but the power itself goes through Python's ``**`` (C libm):
        NumPy's SIMD ``pow`` differs from libm by 1 ulp on some inputs,
        which would break bit-parity with the scalar path.

        Each price depends on its exponent alone, so the prices from the
        previous call are reused and ``**`` runs only where an exponent
        changed — usually the node or two the last commit touched.
        """
        u = state.utilization_array()
        exponents = 1.0 - np.minimum(1.0, u)
        floor = self.theta_floor
        memo = self._memo
        if memo is not None and memo[0] == floor and memo[1].size == exponents.size:
            prices = memo[2].copy()
            for i in np.flatnonzero(exponents != memo[1]).tolist():
                prices[i] = floor ** float(exponents[i])
        else:
            prices = np.fromiter(
                (floor**x for x in exponents.tolist()),
                dtype=np.float64,
                count=exponents.size,
            )
        self._memo = (floor, exponents, prices)
        return prices.copy()


def dual_certificate(
    instance: ProblemInstance,
    state: ClusterState,
    prices: NodePrices,
) -> float:
    """Evaluate the paper's dual objective (8) at a feasible dual point.

    Construction (per the dual constraints (9)–(14), with ``y = µ = 0``):
    take ``θ_l`` from the final node utilisations and, for every
    (query, dataset, node) triple, the smallest ``η`` satisfying (9),

    ``η_mnl = max(0, 1 − r_m·θ_l) / (d(v_l) + α_{nm}·dt(p(v_l, h_m)))``

    (units GB/s: constraint (9) divided through by ``|S_n|``).  The dual
    objective is then

    ``Σ_l A(v_l)·θ_l + Σ_m Σ_n Σ_l d_qm·η_mnl``.

    This mirrors the quantity bounded in the paper's Theorem 1 proof and is
    reported in solution extras as ``dual_objective``; it is loose by design
    (the paper's worst-case ratio is ``max(|Q|, |V|/K)``).
    """
    theta = prices.theta_all(state)
    nodes = instance.placement_nodes
    theta_vec = np.array([theta[v] for v in nodes])
    proc = instance.proc_delays
    total = float(
        np.dot(instance.capacities, theta_vec)
    )
    # Vectorised over placement nodes per (query, dataset) pair.
    for query in instance.queries:
        home_vec = instance.home_delay_vectors[query.home_node]
        slack = np.maximum(0.0, 1.0 - query.compute_rate * theta_vec)
        for alpha in query.selectivity:
            unit_lat = proc + alpha * home_vec
            with np.errstate(divide="ignore", invalid="ignore"):
                eta = np.where(unit_lat > 0.0, slack / unit_lat, 0.0)
            total += query.deadline_s * float(eta.sum())
    return total

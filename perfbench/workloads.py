"""Workload definitions shared by the benchmark's entry point and its server.

Both serve workloads run on one fixed paper topology (§4.1 defaults,
topology seed :data:`TOPOLOGY_SEED`); the run's ``--seed`` drives only
the query stream and the Poisson arrival draws, so every seed exercises
the same cluster with a different demand sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed of the paper topology both serve workloads run on.
TOPOLOGY_SEED = 0

#: Holds last this many times a query's analytic response latency.  The
#: shortest response the stream can draw is a few milliseconds, so every
#: hold outlasts the run by hours and no release ever fires: decisions
#: depend on the request order alone, never on wall time.
HOLD_FACTOR = 1.0e6


@dataclass(frozen=True)
class ServeWorkload:
    """One serve workload: the cluster's compute scale and phase sizes."""

    #: Multiplier on the paper's node capacities (DC 200-700 GHz,
    #: cloudlet 8-16 GHz).
    capacity_scale: float
    #: Requests sent before timing starts in every phase (the cluster
    #: fill happens here on ``serve-full``).
    warmup: int
    #: Timed requests of each closed-loop saturation phase.
    sat_requests: int
    #: Responses per throughput / CPU window of a saturation phase.
    mark_every: int
    #: Open-loop ladder of Poisson rates (1/s); every rung always runs.
    #: The first rung is the fixed rate the latency percentiles use.  The
    #: top rung stays under half the slowest saturation rate seen on a
    #: 2-CPU host, so a slow spell of the host does not make it shed.
    rates: tuple[float, ...]
    #: Timed requests of each rung.
    rung_requests: int
    #: Arrivals of the in-process online session over the stream.
    online_arrivals: int


#: Requests kept in flight on the one connection while saturating.
WINDOW = 64
#: Queries of the serve workloads' offline batch instance, cut from the
#: stream.
PLAN_QUERIES = 150
#: Passes of the four combinatorial solvers, and of LP-rounding, per
#: round of a serve workload.
PLAN_REPS = 6
LP_REPS = 3


SERVE_WORKLOADS = {
    "serve-full": ServeWorkload(
        capacity_scale=1.0,
        warmup=1000,
        sat_requests=12000,
        mark_every=2000,
        rates=(1000.0, 2000.0, 3000.0),
        rung_requests=2500,
        online_arrivals=4000,
    ),
    "serve-admit": ServeWorkload(
        capacity_scale=1.0e6,
        warmup=500,
        sat_requests=3000,
        mark_every=500,
        rates=(250.0, 500.0, 750.0),
        rung_requests=800,
        online_arrivals=1500,
    ),
}

#: ``sim-paper`` sizes: instance-set builds timed for ``setup_s``;
#: rounds of (four solvers ``plan_reps`` times, LP-rounding, online
#: session).
SIM_PAPER = {"setup_reps": 5, "rounds": 4, "plan_reps": 3}


def paper_instance(capacity_scale: float):
    """The §4.1 paper instance (topology seed :data:`TOPOLOGY_SEED`) with
    node capacities scaled."""
    from repro.experiments.runner import make_instance
    from repro.topology.twotier import TwoTierConfig
    from repro.workload.params import PaperDefaults

    base = TwoTierConfig()
    config = TwoTierConfig(
        dc_capacity=tuple(c * capacity_scale for c in base.dc_capacity),
        cl_capacity=tuple(c * capacity_scale for c in base.cl_capacity),
    )
    return make_instance(config, PaperDefaults(), TOPOLOGY_SEED, 0)


#: The §4.1 offline setup: 15 paper topologies from the experiments'
#: root seed.  Fixed, so every solver's admitted volume is a known value.
OFFLINE_SEED = 2019
OFFLINE_REPEATS = 15

#: ``sim-paper``'s online session: arrivals on the paper topology.  Its
#: stream and fault schedules use one fixed seed, whatever the run's
#: ``--seed``, so the session's counts are known values
#: (``expected.json``).
ONLINE_QUERIES = 10000
ONLINE_SEED = 3


def offline_instances() -> list:
    """The 15 paper instances the offline solvers run on."""
    from repro.experiments.runner import make_instance
    from repro.topology.twotier import TwoTierConfig
    from repro.workload.params import PaperDefaults

    return [
        make_instance(TwoTierConfig(), PaperDefaults(), OFFLINE_SEED, r)
        for r in range(OFFLINE_REPEATS)
    ]


def online_instance():
    """The paper topology carrying the online session's ``QueryFactory``
    arrivals (the serve workloads' topology and query shape)."""
    from repro.core.instance import ProblemInstance

    instance = paper_instance(1.0)
    return ProblemInstance(
        instance.topology,
        instance.datasets,
        query_stream(instance, ONLINE_SEED, ONLINE_QUERIES),
        instance.max_replicas,
    )


def online_config():
    """``sim-paper``'s faulted online session: node crashes and link
    degrade/sever/partition events over the whole arrival horizon."""
    from repro.core import OnlineConfig
    from repro.network.dynamics import LinkFaultConfig
    from repro.sim.faults import FaultConfig

    return OnlineConfig(
        mean_interarrival_s=0.2,
        hold_factor=10.0,
        seed=ONLINE_SEED,
        faults=FaultConfig(
            mean_time_to_failure_s=20.0, mean_downtime_s=2.0, seed=ONLINE_SEED
        ),
        link_faults=LinkFaultConfig(
            mean_time_to_event_s=25.0,
            mean_repair_s=2.0,
            inflation=4.0,
            partition_prob=0.25,
            seed=ONLINE_SEED,
        ),
    )


def serve_instance(workload: str):
    """The instance a gateway serves for ``workload``: the scaled paper
    topology for the serve workloads; for ``sim-paper`` (traced runs
    only) the online session's instance, so its queries can be served."""
    if workload in SERVE_WORKLOADS:
        return paper_instance(SERVE_WORKLOADS[workload].capacity_scale)
    return online_instance()


def gateway_config():
    """Gateway defaults (appro rule, batch 16) with run-outlasting holds."""
    from repro.serve import GatewayConfig

    return GatewayConfig(port=0, hold_factor=HOLD_FACTOR)


def query_stream(instance, seed: int, count: int) -> list:
    """The first ``count`` queries of the seeded ``QueryFactory`` stream."""
    from repro.serve import QueryFactory

    factory = QueryFactory(instance, seed=seed)
    return [factory.make() for _ in range(count)]


def encode_submits(queries) -> list[bytes]:
    """Wire lines of one submit per query; the request id is its index."""
    from repro.io.serialize import query_to_dict
    from repro.serve.protocol import encode_message

    return [
        encode_message({"op": "submit", "id": i, "query": query_to_dict(q)})
        for i, q in enumerate(queries)
    ]

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``
    Run algorithms on the paper's default setting, averaged over repeated
    topologies, and print the comparison table.
``figure``
    Regenerate one of the paper's evaluation figures (fig2…fig8) as a
    text table.
``testbed``
    Run the §4.3 testbed emulation for one algorithm and print the report.
``online``
    Play a workload as a Poisson arrival stream with compute churn.
``failover``
    Fail the most-loaded nodes under a placement and report availability
    after repair.
``serve``
    Run the admission gateway: a long-lived TCP service admitting a
    stream of ad-hoc queries against a live cluster, with micro-batched
    placement, backpressure, and periodic checkpoints (``docs/serving.md``).
``load``
    Drive a running gateway with generated Zipf load (closed- or
    open-loop) and print the latency/shed report.
``route``
    Run the front router over already-running shard gateways (discovers
    each shard's node ownership from its ``status``); ``serve --shards N``
    starts the whole sharded ensemble in one process instead.
``list``
    List the registered placement algorithms.

Global flags
------------
``--trace PATH``
    Collect trace spans and metrics during the run and write a JSONL
    event stream to ``PATH`` (see ``docs/observability.md``).
``--metrics PATH``
    Write a Prometheus-style text metrics dump to ``PATH`` after the run.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from repro.core.online import (
    OnlineConfig,
    OnlineSession,
    appro_rule,
    greedy_rule,
    ship_greedy_rule,
    sync_greedy_rule,
)
from repro.core.registry import available_algorithms, make_algorithm
from repro.core.explain import explain_rejections, rejection_histogram
from repro.core.repair import fail_nodes, repair_placement
from repro.experiments.runner import make_instance
from repro.topology.render import render_topology
from repro.topology.testbed import digitalocean_testbed
from repro.topology.twotier import TwoTierConfig, generate_two_tier
from repro.workload.params import PaperDefaults
from repro.workload.summary import profile_instance, render_profile
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURES
from repro.experiments.runner import compare_algorithms
from repro.experiments.plots import plot_figure
from repro.experiments.report import build_report
from repro.experiments.tables import render_comparison, render_figure
from repro.obs import MetricsRegistry, use_registry
from repro.obs.export import write_jsonl, write_prometheus
from repro.network.dynamics import LinkFaultConfig
from repro.sim.faults import FaultConfig
from repro.sim.testbed import TestbedExperiment, run_testbed_experiment
from repro.util.units import format_delay, format_volume

__all__ = ["main", "build_parser"]

_DEFAULT_COMPARE = ["appro-g", "greedy-g", "graph-g", "popularity-g"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "QoS-aware proactive data replication for edge-cloud analytics "
            "(reproduction of Xia et al., ICPP 2019 Workshops)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="collect observability data and write a JSONL span/metric "
        "trace of the run to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="collect observability data and write a Prometheus-style "
        "text metrics dump to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compare = sub.add_parser(
        "compare", help="compare algorithms on the paper's default setting"
    )
    p_compare.add_argument(
        "--algorithms",
        default=",".join(_DEFAULT_COMPARE),
        help="comma-separated registry names (default: the four general-case algorithms)",
    )
    p_compare.add_argument("--repeats", type=int, default=15)
    p_compare.add_argument("--seed", type=int, default=2019)
    p_compare.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the repeat fan-out (results are "
        "identical for any value)",
    )

    p_figure = sub.add_parser(
        "figure", help="regenerate a paper figure as a text table"
    )
    p_figure.add_argument("figure_id", choices=sorted(FIGURES))
    p_figure.add_argument("--repeats", type=int, default=15)
    p_figure.add_argument("--seed", type=int, default=2019)
    p_figure.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the repeat fan-out (results are "
        "identical for any value)",
    )
    p_figure.add_argument(
        "--plot", action="store_true", help="render Unicode bar charts instead of tables"
    )

    p_testbed = sub.add_parser(
        "testbed", help="run the §4.3 geo-testbed emulation"
    )
    p_testbed.add_argument("--algorithm", default="appro-g")
    p_testbed.add_argument("--seed", type=int, default=0)
    p_testbed.add_argument("--queries", type=int, default=50)
    p_testbed.add_argument("--datasets", type=int, default=12)

    p_online = sub.add_parser(
        "online", help="Poisson arrival stream with compute churn"
    )
    p_online.add_argument(
        "--rule",
        choices=["appro", "greedy", "greedy-ship", "greedy-sync"],
        default="appro",
    )
    p_online.add_argument("--seed", type=int, default=0)
    p_online.add_argument("--gap", type=float, default=0.2,
                          help="mean inter-arrival seconds")
    p_online.add_argument("--hold-factor", type=float, default=1.0,
                          help="compute hold time as a multiple of the "
                          "query's analytic latency")
    p_online.add_argument("--faults", action="store_true",
                          help="inject seeded node crash/recover events "
                          "during the session")
    p_online.add_argument("--mttf", type=float, default=5.0,
                          help="mean seconds between node crashes "
                          "(with --faults)")
    p_online.add_argument("--downtime", type=float, default=1.0,
                          help="mean node downtime seconds (with --faults)")
    p_online.add_argument("--fault-seed", type=int, default=0,
                          help="fault-schedule seed (with --faults)")
    p_online.add_argument("--link-faults", action="store_true",
                          help="inject seeded link degrade/sever/restore "
                          "events (and correlated partitions) during the "
                          "session, recomputing paths per event")
    p_online.add_argument("--link-mttf", type=float, default=5.0,
                          help="mean seconds between link events "
                          "(with --link-faults)")
    p_online.add_argument("--link-repair", type=float, default=1.0,
                          help="mean link repair seconds (with --link-faults)")
    p_online.add_argument("--link-inflation", type=float, default=4.0,
                          help="delay multiplier applied by degrade events "
                          "(with --link-faults)")
    p_online.add_argument("--partition-prob", type=float, default=0.0,
                          help="probability a sever escalates to a regional "
                          "partition cutting a whole node off "
                          "(with --link-faults)")
    p_online.add_argument("--link-seed", type=int, default=0,
                          help="link-schedule seed (with --link-faults)")

    p_failover = sub.add_parser(
        "failover", help="node-failure impact and repair for one placement"
    )
    p_failover.add_argument("--algorithm", default="appro-g")
    p_failover.add_argument("--failures", type=int, default=2)
    p_failover.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived admission gateway (docs/serving.md)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (0 = OS-assigned, printed at start)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="instance seed; a load generator must use the "
                         "same seed to target the same datasets")
    p_serve.add_argument(
        "--rule",
        choices=["appro", "greedy", "greedy-ship", "greedy-sync"],
        default="appro",
    )
    p_serve.add_argument("--max-batch", type=int, default=16,
                         help="micro-batch flush size (1 disables batching)")
    p_serve.add_argument("--max-wait-ms", type=float, default=0.0,
                         help="micro-batch accumulation window "
                         "(0 = eager: flush the queued backlog)")
    p_serve.add_argument("--queue-bound", type=int, default=256,
                         help="pending-queue capacity before shedding")
    p_serve.add_argument("--checkpoint", metavar="PATH", default=None,
                         help="checkpoint file; restored on startup when it "
                         "exists, rewritten periodically and on shutdown")
    p_serve.add_argument("--checkpoint-interval", type=float, default=5.0,
                         help="seconds between periodic checkpoints")
    p_serve.add_argument("--reopt", action="store_true",
                         help="enable the live re-optimization daemon "
                              "(bounded-churn replica migration under drift)")
    p_serve.add_argument("--reopt-interval", type=float, default=5.0,
                         help="seconds between re-optimization cycles")
    p_serve.add_argument("--reopt-window", type=int, default=128,
                         help="recent submissions the planner sees")
    p_serve.add_argument("--reopt-max-gb", type=float, default=50.0,
                         help="per-cycle migration volume cap (GB)")
    p_serve.add_argument("--reopt-max-moves", type=int, default=2,
                         help="per-dataset replica mutations per cycle "
                              "(0 = unbounded)")
    p_serve.add_argument("--reopt-drift", type=float, default=0.25,
                         help="total-variation drift threshold gating cycles")
    p_serve.add_argument("--reopt-planner", choices=["appro", "lp"],
                         default="appro",
                         help="pipeline producing the target placement")
    p_serve.add_argument("--predict", action="store_true",
                         help="enable the predictive pre-placement daemon "
                              "(replica adds ahead of forecast demand)")
    p_serve.add_argument("--predict-interval", type=float, default=5.0,
                         help="seconds between pre-placement cycles")
    p_serve.add_argument("--predict-window", type=int, default=256,
                         help="sliding demand window the forecaster sees "
                              "(observations)")
    p_serve.add_argument("--predict-threshold", type=float, default=0.02,
                         help="min predicted demand share a (region, dataset) "
                              "needs to earn a pre-placed copy")
    p_serve.add_argument("--predict-max-gb", type=float, default=25.0,
                         help="per-cycle pre-placement volume cap (GB)")
    p_serve.add_argument("--predict-estimator", choices=["ewma", "zipf"],
                         default="ewma",
                         help="demand estimator over the sliding window")
    p_serve.add_argument("--netfaults", action="store_true",
                         help="enable the live network-dynamics daemon "
                              "(seeded link degrade/sever/partition events "
                              "with epoch-stamped path recomputation)")
    p_serve.add_argument("--netfault-interval", type=float, default=1.0,
                         help="seconds between network-dynamics cycles "
                              "(also the schedule-clock step per cycle)")
    p_serve.add_argument("--netfault-horizon", type=float, default=600.0,
                         help="seconds of link-event schedule to pre-build")
    p_serve.add_argument("--link-mttf", type=float, default=5.0,
                         help="mean schedule-seconds between link events "
                              "(with --netfaults)")
    p_serve.add_argument("--link-repair", type=float, default=1.0,
                         help="mean link repair schedule-seconds "
                              "(with --netfaults)")
    p_serve.add_argument("--link-inflation", type=float, default=4.0,
                         help="delay multiplier applied by degrade events")
    p_serve.add_argument("--partition-prob", type=float, default=0.0,
                         help="probability a sever escalates to a regional "
                              "partition cutting a whole node off")
    p_serve.add_argument("--netfault-seed", type=int, default=0,
                         help="link-schedule seed (with --netfaults)")
    p_serve.add_argument("--duration", type=float, default=None,
                         help="stop after this many seconds (default: run "
                         "until a shutdown request or Ctrl-C)")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="partition the placement nodes across this many "
                              "shard gateways behind a front router "
                              "(docs/serving.md; incompatible with --reopt)")
    p_serve.add_argument("--reserve-ttl", type=float, default=5.0,
                         help="seconds a cross-shard reservation survives "
                              "without a commit before the shard expires it")
    p_serve.add_argument("--shard-index", type=int, default=None,
                         help="with --shards N: run only shard I of the plan "
                              "as a standalone gateway (front it with "
                              "`repro route`) instead of the whole ensemble")

    p_route = sub.add_parser(
        "route", help="run the front router over running shard gateways"
    )
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument("--port", type=int, default=0,
                         help="router listen port (0 = ephemeral, printed)")
    p_route.add_argument("--seed", type=int, default=0,
                         help="instance seed (must match the shard gateways')")
    p_route.add_argument("--shard", action="append", required=True,
                         metavar="HOST:PORT",
                         help="address of one shard gateway (repeat per shard); "
                              "node ownership is discovered from its status")
    p_route.add_argument("--rpc-timeout", type=float, default=30.0,
                         help="bound on each shard RPC issued for a client")
    p_route.add_argument("--duration", type=float, default=None,
                         help="stop after this many seconds (default: run "
                              "until a shutdown request or Ctrl-C)")

    p_load = sub.add_parser(
        "load", help="drive a running gateway with generated Zipf load"
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True)
    p_load.add_argument("--seed", type=int, default=0,
                        help="instance seed (must match the gateway's)")
    p_load.add_argument("--requests", type=int, default=200)
    p_load.add_argument("--mode", choices=["closed", "open"], default="closed")
    p_load.add_argument("--concurrency", type=int, default=8,
                        help="in-flight requests (closed-loop mode)")
    p_load.add_argument("--rate", type=float, default=200.0,
                        help="offered requests/second (open-loop mode)")
    p_load.add_argument("--load-seed", type=int, default=0,
                        help="query-stream seed (vary for distinct workloads)")
    p_load.add_argument("--rotate", type=int, default=0,
                        help="rotate Zipf dataset popularity by this many "
                             "positions (synthesises demand drift)")
    p_load.add_argument("--trace-mode", default="stationary",
                        choices=["stationary", "burst", "diurnal",
                                 "flash-crowd", "mobility"],
                        help="popularity trajectory over the stream "
                             "(recurring bursts, slow rotation, a flash "
                             "crowd on a cold dataset, or home-station "
                             "churn standing in for user mobility)")
    p_load.add_argument("--trace-period", type=int, default=120,
                        help="phase length (draws) of the non-stationary "
                             "trace modes")
    p_load.add_argument("--status", action="store_true",
                        help="fetch and render the gateway's status "
                             "(screen-stage timings, latency histogram) "
                             "after the run")
    p_load.add_argument("--shutdown", action="store_true",
                        help="send a shutdown request after the run")

    p_report = sub.add_parser(
        "report", help="assemble persisted bench tables into one markdown report"
    )
    p_report.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory the benches wrote their tables to",
    )
    p_report.add_argument("--output", default="-",
                          help="output path, or - for stdout")

    p_topology = sub.add_parser(
        "topology", help="render a topology as text (summary + map)"
    )
    p_topology.add_argument(
        "--kind", choices=["paper", "testbed", "figure1"], default="paper"
    )
    p_topology.add_argument("--seed", type=int, default=0)

    p_describe = sub.add_parser(
        "describe", help="profile a generated instance's regime"
    )
    p_describe.add_argument("--seed", type=int, default=0)

    p_explain = sub.add_parser(
        "explain", help="diagnose why queries were rejected by a placement"
    )
    p_explain.add_argument("--algorithm", default="appro-g")
    p_explain.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="list registered placement algorithms")
    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
    unknown = [n for n in names if n not in available_algorithms()]
    if unknown:
        print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(available_algorithms())}", file=sys.stderr)
        return 2
    config = ExperimentConfig(
        repeats=args.repeats, seed=args.seed, n_jobs=args.jobs
    )
    results = compare_algorithms(names, config)
    print(render_comparison(results))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        repeats=args.repeats, seed=args.seed, n_jobs=args.jobs
    )
    series = FIGURES[args.figure_id](config)
    print(plot_figure(series) if args.plot else render_figure(series))
    return 0


def _cmd_testbed(args: argparse.Namespace) -> int:
    if args.algorithm not in available_algorithms():
        print(f"unknown algorithm: {args.algorithm}", file=sys.stderr)
        return 2
    experiment = TestbedExperiment(
        num_queries=args.queries, num_datasets=args.datasets, seed=args.seed
    )
    report = run_testbed_experiment(make_algorithm(args.algorithm), experiment)
    m = report.metrics
    print(f"algorithm         : {args.algorithm}")
    print(f"admitted          : {m.num_admitted}/{m.num_queries} "
          f"(throughput {m.throughput:.3f})")
    print(f"admitted volume   : {format_volume(m.admitted_volume_gb)}")
    print(f"replicas placed   : {m.replicas_placed}")
    print(f"mean response     : {format_delay(report.execution.mean_response_s)}")
    print(f"deadline misses   : {report.execution.deadline_violations} "
          f"(contention-aware execution)")
    print(f"analytics checked : {report.analytics_checked} "
          f"(faithful: {report.results_faithful})")
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
    rules = {
        "appro": appro_rule,
        "greedy": greedy_rule,
        "greedy-ship": ship_greedy_rule,
        "greedy-sync": sync_greedy_rule,
    }
    rule = rules[args.rule]
    faults = None
    if args.faults:
        faults = FaultConfig(
            mean_time_to_failure_s=args.mttf,
            mean_downtime_s=args.downtime,
            seed=args.fault_seed,
        )
    link_faults = None
    if args.link_faults:
        link_faults = LinkFaultConfig(
            mean_time_to_event_s=args.link_mttf,
            mean_repair_s=args.link_repair,
            inflation=args.link_inflation,
            partition_prob=args.partition_prob,
            seed=args.link_seed,
        )
    report = OnlineSession(
        OnlineConfig(
            mean_interarrival_s=args.gap,
            hold_factor=args.hold_factor,
            seed=args.seed,
            faults=faults,
            link_faults=link_faults,
        )
    ).run(instance, rule)
    print(f"rule             : {args.rule}")
    print(f"arrivals         : {len(report.outcomes)}")
    print(f"admitted volume  : {format_volume(report.admitted_volume_gb)}")
    print(f"throughput       : {report.throughput:.3f}")
    print(f"peak allocation  : {report.peak_allocated_ghz:.1f} GHz")
    print(f"replicas placed  : {report.replicas_placed}")
    if report.faults is not None:
        f = report.faults
        print(f"crashes          : {f.crashes} ({f.recoveries} recovered)")
        print(f"availability     : {f.time_weighted_availability:.3f} "
              f"(time-weighted node uptime)")
        print(f"failovers        : {f.failovers_succeeded}/{f.failovers_attempted} "
              f"succeeded, MTTR {f.mttr_s * 1000:.1f} ms")
        print(f"queries hit      : {f.queries_recovered} recovered, "
              f"{f.queries_interrupted} interrupted")
        print(f"degraded admit   : {f.degraded_admitted}/{f.degraded_arrivals} "
              f"(throughput {f.degraded_throughput:.3f})")
    if report.netfaults is not None:
        n = report.netfaults
        print(f"link events      : {n.degrades} degraded, {n.severs} severed "
              f"({n.partitions} partitions), {n.restores} restored")
        print(f"path recomputes  : {n.recomputes}")
        print(f"link availability: {n.time_weighted_link_availability:.3f} "
              f"(time-weighted)")
        print(f"queries hit      : {n.queries_rerouted} rerouted, "
              f"{n.queries_recovered} recovered, "
              f"{n.queries_interrupted} interrupted")
    return 0


def _cmd_failover(args: argparse.Namespace) -> int:
    if args.algorithm not in available_algorithms():
        print(f"unknown algorithm: {args.algorithm}", file=sys.stderr)
        return 2
    instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
    solution = make_algorithm(args.algorithm).solve(instance)
    load: dict[int, float] = {}
    for a in solution.assignments.values():
        load[a.node] = load.get(a.node, 0.0) + a.compute_ghz
    victims = sorted(load, key=lambda v: load[v], reverse=True)[: args.failures]
    impact = fail_nodes(instance, solution, victims)
    report = repair_placement(instance, solution, impact)
    print(f"algorithm        : {args.algorithm}")
    print(f"failed nodes     : {sorted(impact.failed_nodes)}")
    print(f"lost pairs       : {len(impact.lost_pairs)} "
          f"across {len(impact.affected_queries)} queries")
    print(f"recovered        : {len(report.recovered_queries)} queries")
    print(f"dropped          : {len(report.dropped_queries)} queries")
    print(f"volume retention : {report.availability:.1%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        AdmissionGateway,
        GatewayConfig,
        NetFaultConfig,
        PreplacerConfig,
        ReoptimizerConfig,
    )

    if args.shards > 1 and args.shard_index is None:
        return _cmd_serve_sharded(args)

    shard_nodes = None
    shard_id = None
    if args.shard_index is not None:
        from repro.serve import ShardPlan
        from repro.util.validation import ValidationError

        if not 0 <= args.shard_index < args.shards:
            print(
                f"--shard-index {args.shard_index} outside 0..{args.shards - 1}",
                file=sys.stderr,
            )
            return 2
        if args.reopt:
            print("--reopt is incompatible with shard-scoped serving",
                  file=sys.stderr)
            return 2
        if args.predict:
            print("--predict is incompatible with shard-scoped serving",
                  file=sys.stderr)
            return 2
        if args.netfaults:
            print("--netfaults is incompatible with shard-scoped serving",
                  file=sys.stderr)
            return 2
        plan_instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
        try:
            plan = ShardPlan.build(plan_instance, args.shards)
        except ValidationError as exc:
            print(exc, file=sys.stderr)
            return 2
        shard_nodes = plan.members[args.shard_index]
        shard_id = args.shard_index

    reopt = None
    if args.reopt:
        reopt = ReoptimizerConfig(
            interval_s=args.reopt_interval,
            window=args.reopt_window,
            min_window=min(16, args.reopt_window),
            max_migration_gb=args.reopt_max_gb,
            max_moves_per_dataset=args.reopt_max_moves or None,
            drift_threshold=args.reopt_drift,
            planner=args.reopt_planner,
        )
    predict = None
    if args.predict:
        predict = PreplacerConfig(
            interval_s=args.predict_interval,
            window=args.predict_window,
            min_window=min(16, args.predict_window),
            threshold=args.predict_threshold,
            max_preplace_gb=args.predict_max_gb,
            estimator=args.predict_estimator,
        )
    netfaults = None
    if args.netfaults:
        netfaults = NetFaultConfig(
            interval_s=args.netfault_interval,
            horizon_s=args.netfault_horizon,
            faults=LinkFaultConfig(
                mean_time_to_event_s=args.link_mttf,
                mean_repair_s=args.link_repair,
                inflation=args.link_inflation,
                partition_prob=args.partition_prob,
                seed=args.netfault_seed,
            ),
        )
    instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
    gateway = AdmissionGateway(
        instance,
        GatewayConfig(
            host=args.host,
            port=args.port,
            rule=args.rule,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            queue_bound=args.queue_bound,
            checkpoint_path=args.checkpoint,
            checkpoint_interval_s=args.checkpoint_interval,
            reopt=reopt,
            predict=predict,
            netfaults=netfaults,
            shard_nodes=shard_nodes,
            shard_id=shard_id,
            reserve_ttl_s=args.reserve_ttl,
        ),
    )

    async def run() -> None:
        await gateway.start()
        host, port = gateway.address
        recovered = " (state recovered from checkpoint)" if gateway.recovered else ""
        scoped = (
            f" (shard {shard_id}/{args.shards}, {len(shard_nodes)} nodes)"
            if shard_nodes is not None
            else ""
        )
        print(f"gateway listening on {host}:{port}{recovered}{scoped}", flush=True)
        try:
            if args.duration is None:
                await gateway.wait_closed()
            else:
                await gateway.run_for(args.duration)
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        counters = gateway.counters
        with contextlib.suppress(BrokenPipeError):
            print(
                f"served {counters['submitted']} submissions: "
                f"{counters['admitted']} admitted, {counters['rejected']} rejected, "
                f"{counters['fast_rejected']} fast-rejected, {counters['shed']} shed"
            )
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    from repro.serve import GatewayConfig, RouterConfig, ShardCluster, ShardPlan
    from repro.util.validation import ValidationError

    if args.reopt:
        print("--reopt is incompatible with --shards > 1", file=sys.stderr)
        return 2
    if args.predict:
        print("--predict is incompatible with --shards > 1", file=sys.stderr)
        return 2
    if args.netfaults:
        print("--netfaults is incompatible with --shards > 1", file=sys.stderr)
        return 2
    instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
    try:
        plan = ShardPlan.build(instance, args.shards)
    except ValidationError as exc:
        print(exc, file=sys.stderr)
        return 2
    cluster = ShardCluster(
        instance,
        plan,
        GatewayConfig(
            rule=args.rule,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            queue_bound=args.queue_bound,
            checkpoint_path=args.checkpoint,
            checkpoint_interval_s=args.checkpoint_interval,
            reserve_ttl_s=args.reserve_ttl,
        ),
        RouterConfig(host=args.host, port=args.port),
    )
    try:
        host, port = cluster.start()
        sizes = "/".join(str(len(m)) for m in plan.members)
        print(
            f"router listening on {host}:{port} "
            f"({plan.num_shards} shards [{sizes} nodes], {plan.method} plan)",
            flush=True,
        )
        try:
            cluster.wait(args.duration)
        except KeyboardInterrupt:
            pass
    finally:
        cluster.stop()
        totals: dict[str, int] = {}
        for gateway in cluster.gateways:
            for key, value in gateway.counters.items():
                totals[key] = totals.get(key, 0) + value
        router_counts = (
            cluster.router.counters if cluster.router is not None else {}
        )
        with contextlib.suppress(BrokenPipeError):
            print(
                f"served {totals.get('submitted', 0)} shard submissions "
                f"({router_counts.get('routed_cross', 0)} cross-shard): "
                f"{totals.get('admitted', 0)} admitted, "
                f"{totals.get('rejected', 0)} rejected, "
                f"{totals.get('fast_rejected', 0)} fast-rejected, "
                f"{totals.get('shed', 0)} shed"
            )
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import FrontRouter, GatewayClient, RouterConfig

    instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
    addresses: list[tuple[str, int]] = []
    for spec in args.shard:
        host, sep, port = spec.rpartition(":")
        if not sep or not port.isdigit():
            print(f"bad --shard address {spec!r} (want HOST:PORT)", file=sys.stderr)
            return 2
        addresses.append((host, int(port)))

    async def run() -> None:
        shards = []
        for host, port in addresses:
            async with await GatewayClient.connect(host, port) as client:
                status = await client.status()
            shard = status.get("shard")
            if not isinstance(shard, dict) or "nodes" not in shard:
                raise RuntimeError(
                    f"gateway at {host}:{port} reports no shard membership "
                    "(start it with shard_nodes / serve --shards)"
                )
            shards.append(((host, port), tuple(shard["nodes"])))
        router = FrontRouter(
            instance,
            shards,
            RouterConfig(
                host=args.host, port=args.port, rpc_timeout_s=args.rpc_timeout
            ),
        )
        await router.start()
        host, port = router.address
        print(
            f"router listening on {host}:{port} ({len(shards)} shards)",
            flush=True,
        )
        try:
            if args.duration is None:
                await router.wait_closed()
            else:
                await router.run_for(args.duration)
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    except (ConnectionRefusedError, RuntimeError) as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import GatewayClient, QueryFactory, run_closed_loop, run_open_loop

    instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
    factory = QueryFactory(
        instance,
        seed=args.load_seed,
        rotate=args.rotate,
        mode=args.trace_mode,
        period=args.trace_period,
    )

    async def run():
        if args.mode == "closed":
            report = await run_closed_loop(
                args.host,
                args.port,
                factory,
                num_requests=args.requests,
                concurrency=args.concurrency,
            )
        else:
            report = await run_open_loop(
                args.host,
                args.port,
                factory,
                num_requests=args.requests,
                rate_rps=args.rate,
                seed=args.load_seed,
            )
        status_text = None
        if args.status:
            async with await GatewayClient.connect(args.host, args.port) as client:
                status_text = GatewayClient.render_status(await client.status())
        if args.shutdown:
            async with await GatewayClient.connect(args.host, args.port) as client:
                await client.shutdown()
        return report, status_text

    try:
        report, status_text = asyncio.run(run())
    except ConnectionRefusedError:
        print(f"no gateway at {args.host}:{args.port}", file=sys.stderr)
        return 2
    for key, value in report.summary().items():
        if isinstance(value, float):
            print(f"{key:18s}: {value:.3f}")
        else:
            print(f"{key:18s}: {value}")
    if status_text is not None:
        print(status_text)
    return 1 if report.protocol_errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        report = build_report(args.results_dir)
    except Exception as exc:  # ValidationError with guidance
        print(exc, file=sys.stderr)
        return 2
    if args.output == "-":
        print(report, end="")
    else:
        from pathlib import Path

        Path(args.output).write_text(report)
        print(f"wrote {args.output}")
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    if args.kind == "testbed":
        topology = digitalocean_testbed(seed=args.seed)
    elif args.kind == "figure1":
        from repro.topology.twotier import example_figure1

        topology = example_figure1(seed=args.seed or 7)
    else:
        topology = generate_two_tier(seed=args.seed)
    print(render_topology(topology))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
    print(render_profile(profile_instance(instance)))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.algorithm not in available_algorithms():
        print(f"unknown algorithm: {args.algorithm}", file=sys.stderr)
        return 2
    instance = make_instance(TwoTierConfig(), PaperDefaults(), args.seed, 0)
    solution = make_algorithm(args.algorithm).solve(instance)
    diagnoses = explain_rejections(instance, solution)
    hist = rejection_histogram(diagnoses)
    total = len(solution.rejected)
    print(
        f"{args.algorithm}: {len(solution.admitted)} admitted, "
        f"{total} rejected"
    )
    if total:
        print("rejections by bottleneck:")
        for reason, count in hist.items():
            if count:
                print(f"  {reason.value:24s} {count:4d} ({count / total:.0%})")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    for name in available_algorithms():
        print(name)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "testbed": _cmd_testbed,
        "online": _cmd_online,
        "failover": _cmd_failover,
        "serve": _cmd_serve,
        "route": _cmd_route,
        "load": _cmd_load,
        "explain": _cmd_explain,
        "describe": _cmd_describe,
        "topology": _cmd_topology,
        "report": _cmd_report,
        "list": _cmd_list,
    }
    handler = handlers[args.command]
    if args.trace is None and args.metrics is None:
        return handler(args)
    # Observability requested: run the command under a collecting registry,
    # the whole invocation wrapped in one root span.
    registry = MetricsRegistry()
    with use_registry(registry):
        with registry.span(f"cli.{args.command}", command=args.command):
            code = handler(args)
    if args.trace is not None:
        write_jsonl(registry, args.trace)
    if args.metrics is not None:
        write_prometheus(registry, args.metrics)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

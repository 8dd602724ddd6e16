"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-full --seed 1 --seconds 30 --trace 0

Workloads: ``serve-full``, ``serve-admit`` (a gateway server process
driven over loopback TCP) and ``sim-paper`` (the paper's solvers and a
faulted online session, in-process).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the traced replay instead and
prints the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any decision differs from the oracle or the load
generator ran late past its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: ``--seconds`` the phase sizes below were tuned for; other values
#: scale every request count and repeat count proportionally.
NOMINAL_SECONDS = 30

WORKLOADS = ("serve-full", "serve-admit", "sim-paper")


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _median(values) -> float:
    return statistics.median(list(values))


def environment() -> dict:
    """The steadiness record every run prints."""
    import numpy
    import scipy

    return {
        "host_cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


# -- per-layer solver metrics ---------------------------------------------


def traced_solver_section(plan_instances, online_inst, online_cfg, link_cfg, tracer):
    """Per-layer solver metrics, the tracing overhead, and the untraced
    round they are compared against.

    Runs one untraced round, then the same work traced; the overhead is
    the traced wall time over the untraced one, minus one.
    """
    from solvers import replay_recomputes, run_online, solver_round, traced_solvers

    started = time.perf_counter()
    untraced_round = solver_round(plan_instances, online_inst, online_cfg)
    untraced = time.perf_counter() - started
    started = time.perf_counter()
    layers = traced_solvers(plan_instances, tracer)
    _, _, report = run_online(online_inst, online_cfg, tracer)
    # The traced pass also builds and solves each LP model on its own,
    # which the untraced round does not: leave that out of the comparison.
    traced = (
        time.perf_counter() - started
        - tracer.total("core.lp_build")
        - tracer.total("core.lp_solve")
    )
    horizon = online_inst.num_queries * online_cfg.mean_interarrival_s
    events = replay_recomputes(online_inst.topology, horizon, link_cfg, tracer)
    arrivals = len(report.outcomes)
    metrics = {name: (value, "s") for name, value in layers.items()}
    metrics.update(
        {
            "online.arrivals": (arrivals, "count"),
            "online.failovers": (report.faults.failovers_attempted if report.faults else 0, "count"),
            "online.link_events": (len(report.netfaults.schedule) if report.netfaults else 0, "count"),
            "online.per_arrival_us": (tracer.total("online.session") / arrivals * 1e6, "us"),
            "online.rule_us": (tracer.total("online.rule") / max(1, tracer.count("online.rule")) * 1e6, "us"),
            "paths.recompute_ms": (tracer.total("paths.recompute") / max(1, events) * 1e3, "ms"),
            "trace.overhead_share": (traced / untraced - 1.0, "ratio"),
        }
    )
    return metrics, untraced_round


def solver_times(rounds) -> dict[str, float]:
    """Raw solver and online-session times: medians over the rounds."""
    return {
        "plan_s": _median(r.plan_s for r in rounds),
        "lp_s": _median(r.lp_s for r in rounds),
        "online_s": _median(r.online_s for r in rounds),
    }


def scaled(raw: dict[str, float], samples: list[float]) -> dict[str, tuple[float, str]]:
    """Raw times in seconds at the reference host speed."""
    from hostspeed import scale

    k = scale(samples)
    return {name: (value * k, "s") for name, value in raw.items()}


def solvers_match(rounds, expected: dict[str, float]) -> bool:
    """Every round's admitted GB per solver equals the recorded values."""
    return all(
        r.solver_gb.keys() == expected.keys()
        and all(abs(r.solver_gb[k] - v) <= 1e-6 for k, v in expected.items())
        for r in rounds
    )


def serving_checks(serving) -> dict[str, bool]:
    """Correctness of a serve measurement: every request got a decision,
    every decision equals the oracle's, and the generator kept time."""
    return {
        "every request answered admitted or rejected": serving.failed == 0,
        "server decisions equal the oracle": serving.mismatches == 0,
        "generator lateness within bound": serving.lateness_ok,
    }


# -- workloads -----------------------------------------------------------


def run_serve(name: str, seed: int, scale: float, trace: bool):
    from repro.core import OnlineConfig
    from repro.core.instance import ProblemInstance
    from repro.network.dynamics import LinkFaultConfig

    import servebench
    from hostspeed import reference
    from replay import oracle_decisions
    from solvers import solver_round
    from tracing import Tracer
    from workloads import (
        HOLD_FACTOR,
        LP_REPS,
        PLAN_QUERIES,
        PLAN_REPS,
        SERVE_WORKLOADS,
        TOPOLOGY_SEED,
        paper_instance,
        query_stream,
    )

    wl = SERVE_WORKLOADS[name]
    plan = servebench.ServePlan(
        warmup=wl.warmup,
        sat_requests=_scaled(wl.sat_requests // wl.mark_every, scale) * wl.mark_every,
        mark_every=wl.mark_every,
        rates=wl.rates[:1] if trace else wl.rates,
        rung_requests=_scaled(wl.rung_requests, scale),
    )
    instance = paper_instance(wl.capacity_scale)
    length = max(plan.stream_length, PLAN_QUERIES, wl.online_arrivals)
    # Each round serves its own seeded stream, so one run averages over
    # several demand sequences.
    round_seeds = [seed * 1000 + r for r in range(len(plan.rates))]
    streams = [
        servebench.Stream.build(instance, query_stream(instance, s, length))
        for s in round_seeds
    ]

    def batch(queries):
        return ProblemInstance(instance.topology, instance.datasets, queries, instance.max_replicas)

    # The in-process engines on this workload's cluster: the offline
    # solvers on a batch of the stream's shape, the online session over a
    # stream prefix.  Their input is one fixed stream (the topology seed's),
    # identical in every round and run, so their times carry no seed
    # variance; the serve phases carry the seed.
    fixed = query_stream(instance, TOPOLOGY_SEED, max(PLAN_QUERIES, wl.online_arrivals))
    engines = (
        [batch(fixed[:PLAN_QUERIES])],
        batch(fixed[: wl.online_arrivals]),
        OnlineConfig(hold_factor=HOLD_FACTOR, seed=TOPOLOGY_SEED),
    )

    rounds, generator_ref = [], []

    def solver_work(r: int) -> None:
        generator_ref.extend(reference())
        rounds.append(solver_round(*engines, plan_reps=PLAN_REPS, lp_reps=LP_REPS))
        generator_ref.extend(reference())

    serving = servebench.measure_serving(
        ROOT, name, seed, streams, plan, between=None if trace else solver_work
    )
    checks = serving_checks(serving)
    if trace:
        tracer = Tracer()
        metrics = servebench.serving_layers(instance, serving, tracer)
        link_cfg = LinkFaultConfig(mean_time_to_event_s=10.0, partition_prob=0.25, seed=seed)
        metrics.update(traced_solver_section(*engines, link_cfg, tracer)[0])
        report = {}
    else:
        tracer = None
        # The online session's instance carries the stream as its query
        # set, which the primal-dual rule's coverage term reads, so it
        # gets its own oracle replay.
        online_inst = engines[1]
        expected = [d is not None for d in oracle_decisions(online_inst, online_inst.queries)]
        checks["online session decisions equal the oracle"] = all(
            [o.admitted for o in r.report.outcomes] == expected for r in rounds
        )
        metrics = servebench.serving_end_to_end(serving)
        raw = solver_times(rounds)
        metrics.update(scaled(raw, generator_ref))
        report = {f"raw.{k}": (v, "s") for k, v in raw.items()}
        report["host.generator_ref_ms"] = (_median(generator_ref) * 1e3, "ms")
        report.update(servebench.serving_report(instance, serving))
    return {
        "metrics": metrics,
        "report": report,
        "checks": checks,
        "attempted": serving.attempted,
        "failed": serving.failed,
        "pinning": serving.pinning,
        "tracer": tracer,
    }


def run_sim_paper(seed: int, scale: float, trace: bool):
    import servebench
    from hostspeed import reference
    from solvers import solver_round
    from tracing import Tracer
    from workloads import SIM_PAPER, offline_instances, online_config, online_instance

    recorded = json.loads((HERE / "expected.json").read_text())
    expected, expected_online = recorded["offline_admitted_gb"], recorded["online_fingerprint"]
    online_cfg = online_config()
    # One CPU for the whole in-process workload, as the serve workloads'
    # generator uses.
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})

    host_ref = reference()
    setup_times = []
    for _ in range(SIM_PAPER["setup_reps"]):
        started = time.perf_counter()
        plan_instances = offline_instances()
        online_inst = online_instance()
        for inst in plan_instances + [online_inst]:
            inst.home_delay_vectors  # path cache and per-home delay vectors
        setup_times.append(time.perf_counter() - started)

    if trace:
        tracer = Tracer()
        metrics, untraced = traced_solver_section(
            plan_instances, online_inst, online_cfg, online_cfg.link_faults, tracer
        )
        # The serving layers measured on this workload's own arrivals: a
        # gateway serves the online instance's queries (traced runs only).
        plan = servebench.ServePlan(
            warmup=500,
            sat_requests=_scaled(4, scale) * 1000,
            mark_every=1000,
            rates=(1000.0,),
            rung_requests=_scaled(2000, scale),
        )
        stream = servebench.Stream.build(
            online_inst, list(online_inst.queries[: plan.stream_length])
        )
        os.sched_setaffinity(0, allowed)  # the serving phases pin their own
        serving = servebench.measure_serving(ROOT, "sim-paper", seed, [stream], plan)
        metrics.update(servebench.serving_layers(online_inst, serving, tracer))
        metrics["setup.instance_s"] = (_median(setup_times), "s")
        checks = {
            "solver admitted GB equal the recorded values": solvers_match([untraced], expected),
            "online report equals the recorded counts": untraced.fingerprint == expected_online,
            **serving_checks(serving),
        }
        return {
            "metrics": metrics,
            "report": {},
            "checks": checks,
            "attempted": serving.attempted,
            "failed": serving.failed,
            "pinning": serving.pinning,
            "tracer": tracer,
        }

    rounds = []
    for _ in range(_scaled(SIM_PAPER["rounds"], scale)):
        host_ref += reference()
        rounds.append(
            solver_round(plan_instances, online_inst, online_cfg, plan_reps=SIM_PAPER["plan_reps"])
        )
    host_ref += reference()
    first = rounds[0]
    arrivals = len(first.report.outcomes)
    checks = {
        "solver admitted GB equal the recorded values": solvers_match(rounds, expected),
        "online report equals the recorded counts": all(
            r.fingerprint == expected_online for r in rounds
        ),
    }
    raw = {
        "setup_s": _median(setup_times),
        "cpu_ms_per_req": _median(r.online_cpu_s for r in rounds) / arrivals * 1e3,
        **solver_times(rounds),
    }
    metrics = scaled(raw, host_ref)
    metrics["cpu_ms_per_req"] = (metrics["cpu_ms_per_req"][0], "ms")
    metrics["server_rss_mb"] = (peak_rss_mb(), "MiB")
    info = {f"raw.{k}": (v, "ms" if k == "cpu_ms_per_req" else "s") for k, v in raw.items()}
    info["host.ref_ms"] = (_median(host_ref) * 1e3, "ms")
    info["sat_rps"] = (arrivals / raw["online_s"], "1/s")
    info.update({f"solver_gb.{k}": (v, "GB") for k, v in first.solver_gb.items()})
    info["admitted_share"] = (first.report.throughput, "ratio")
    info["admitted_gb"] = (first.solver_gb["appro-g"], "GB")
    info["failed_share"] = (0.0, "ratio")  # nothing in-process can shed or time out
    info.update(
        {f"online.{k}": (v, "GB" if k == "admitted_gb" else "count") for k, v in first.fingerprint.items()}
    )
    solved = sum(i.num_queries for i in plan_instances) * 5 * len(rounds)
    return {
        "metrics": metrics,
        "report": info,
        "checks": checks,
        "attempted": arrivals * len(rounds) + solved,
        "failed": 0,
        "pinning": f"in-process on cpu {cpu}",
        "tracer": None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    scale = args.seconds / NOMINAL_SECONDS
    trace = bool(args.trace)
    host = environment()
    if args.workload == "sim-paper":
        outcome = run_sim_paper(args.seed, scale, trace)
    else:
        outcome = run_serve(args.workload, args.seed, scale, trace)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    if sorted(names) != sorted(outcome["metrics"]):
        missing = sorted(set(names) ^ set(outcome["metrics"]))
        print(f"metrics differ from BENCHMARK.json: {missing}", file=sys.stderr)
        return 3

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    host["pinning"] = outcome["pinning"]
    for key, value in host.items():
        print(f"# env {key} = {value}")
    for name, (value, unit) in {**outcome["metrics"], **outcome["report"]}.items():
        print(f"{name:<36} {value:>16} {unit}" if isinstance(value, str)
              else f"{name:<36} {value:>16.6g} {unit}")
    for check, ok in outcome["checks"].items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {check}")
    tracer = outcome["tracer"]
    if tracer is not None:
        out = ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(out)
        print(f"# {len(tracer)} spans written to {out.relative_to(ROOT)}")
        print(tracer.table())
    correct = all(outcome["checks"].values())
    result = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

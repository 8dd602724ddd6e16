"""In-process runs of the paper's solvers and the online session.

:func:`solver_round` times one untraced round, so a run can interleave
rounds with its other phases.  Every solution is re-checked with
``verify_solution`` and its admitted volume recomputed from the
instance (Eq. 1); outputs must be identical across repeats.  The
``traced_*`` variants wrap a span around each call into ``repro.core``
from here, for the per-layer table.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

#: The paper's four combinatorial general-case solvers (``plan_s``).
PLAN_ALGORITHMS = ("appro-g", "greedy-g", "graph-g", "popularity-g")
#: The LP-based solver, timed on its own (``lp_s``).
LP_ALGORITHM = "lp-rounding-g"


def admitted_gb(instance, admitted) -> float:
    """Eq. 1: demanded volume of the admitted queries."""
    return sum(
        instance.dataset(d).volume_gb
        for q in admitted
        for d in instance.query(q).demanded
    )


def solve_timed(name: str, instance) -> tuple[float, float]:
    """Solve one instance; (wall s, admitted GB of the verified solution)."""
    from repro import make_algorithm, verify_solution

    started = time.perf_counter()
    solution = make_algorithm(name).solve(instance)
    elapsed = time.perf_counter() - started
    verify_solution(instance, solution)
    return elapsed, admitted_gb(instance, solution.admitted)


def run_online(instance, config, tracer=None):
    """One ``OnlineSession`` run; (wall s, CPU s, report).

    With a tracer, every placement-rule call is wrapped in a span.
    """
    from repro.core import OnlineSession, appro_rule

    factory = appro_rule
    if tracer is not None:
        def factory(inst):
            rule = appro_rule(inst)
            span = tracer.span

            def traced_rule(state, query, dataset_id):
                with span("online.rule", query.query_id):
                    return rule(state, query, dataset_id)

            return traced_rule

    cpu = time.process_time()
    started = time.perf_counter()
    if tracer is None:
        report = OnlineSession(config).run(instance, factory)
    else:
        with tracer.span("online.session"):
            report = OnlineSession(config).run(instance, factory)
    return time.perf_counter() - started, time.process_time() - cpu, report


def online_fingerprint(instance, report) -> dict:
    """Counts of an online report, after checking they are consistent."""
    outcomes = report.outcomes
    admitted = [o for o in outcomes if o.admitted]
    if len(outcomes) != instance.num_queries:
        raise AssertionError("online session lost arrivals")
    recomputed = admitted_gb(instance, [o.query_id for o in admitted])
    if abs(recomputed - report.admitted_volume_gb) > 1e-6 * max(1.0, recomputed):
        raise AssertionError("online admitted volume disagrees with Eq. 1")
    if report.throughput != len(admitted) / len(outcomes):
        raise AssertionError("online throughput disagrees with its outcomes")
    faults = report.faults
    net = report.netfaults
    return {
        "arrivals": len(outcomes),
        "admitted": len(admitted),
        "admitted_gb": round(report.admitted_volume_gb, 6),
        "crashes": faults.crashes if faults else 0,
        "failovers_attempted": faults.failovers_attempted if faults else 0,
        "failovers_succeeded": faults.failovers_succeeded if faults else 0,
        "recomputes": net.recomputes if net else 0,
        "recovered": net.queries_recovered if net else 0,
        "interrupted": net.queries_interrupted if net else 0,
    }


@dataclass
class SolverRound:
    """One round's timings (s) and outputs."""

    plan_s: float
    lp_s: float
    online_s: float
    online_cpu_s: float
    solver_gb: dict[str, float]
    fingerprint: dict
    report: object


def solver_round(
    plan_instances, online_instance, online_config, *, plan_reps: int = 1, lp_reps: int = 1
) -> SolverRound:
    """Time every solver on ``plan_instances`` and one online session.

    The four combinatorial solvers run ``plan_reps`` times per instance,
    LP-rounding ``lp_reps`` times; a solver's time on an instance is the
    median, and ``plan_s`` / ``lp_s`` sum those medians.  Outputs must be
    identical across the repeats.
    """
    times: dict[tuple[str, int], list[float]] = defaultdict(list)
    solver_gb: dict[str, float] = {}
    passes = [PLAN_ALGORITHMS] * plan_reps + [(LP_ALGORITHM,)] * lp_reps
    for names in passes:
        for name in names:
            total = 0.0
            for index, inst in enumerate(plan_instances):
                elapsed, gb = solve_timed(name, inst)
                times[name, index].append(elapsed)
                total += gb
            if solver_gb.setdefault(name, total) != total:
                raise AssertionError(f"{name} outputs differ between repeats")

    def summed(names) -> float:
        return sum(
            statistics.median(t) for (name, _), t in times.items() if name in names
        )

    wall, cpu, report = run_online(online_instance, online_config)
    return SolverRound(
        plan_s=summed(PLAN_ALGORITHMS),
        lp_s=summed((LP_ALGORITHM,)),
        online_s=wall,
        online_cpu_s=cpu,
        solver_gb=solver_gb,
        fingerprint=online_fingerprint(online_instance, report),
        report=report,
    )


def traced_solvers(instances, tracer) -> dict[str, float]:
    """Traced pass over every solver; per-layer seconds by metric name."""
    from repro import make_algorithm
    from repro.core.ilp import build_lp_model, solve_lp_from_model

    span = tracer.span
    for name in PLAN_ALGORITHMS:
        with span("core.plan." + name):
            for inst in instances:
                make_algorithm(name).solve(inst)
    for inst in instances:
        with span("core.lp_build"):
            model = build_lp_model(inst)
        with span("core.lp_solve"):
            solve_lp_from_model(model)
        with span("core.lp_rounding_g"):
            make_algorithm(LP_ALGORITHM).solve(inst)
    build = tracer.total("core.lp_build")
    solve = tracer.total("core.lp_solve")
    layers = {
        "core." + name.replace("-", "_") + "_s": tracer.total("core.plan." + name)
        for name in PLAN_ALGORITHMS
    }
    layers["core.lp_build_s"] = build
    layers["core.lp_solve_s"] = solve
    # The solver builds and solves the same model itself; what remains of
    # its wall time is rounding and commit.
    layers["core.lp_round_s"] = tracer.total("core.lp_rounding_g") - build - solve
    return layers


def replay_recomputes(topology, horizon_s: float, config, tracer) -> int:
    """Replay a link schedule on a private path cache, tracing each
    ``PathCache.recompute``; returns the number of events replayed."""
    from repro.network.dynamics import LinkState, build_link_schedule
    from repro.network.paths import PathCache

    schedule = build_link_schedule(topology, horizon_s, config)
    links = LinkState(topology)
    paths = PathCache(topology)
    for event in schedule:
        if event.kind == "degrade":
            links.degrade(event.link, config.inflation)
        elif event.kind == "sever":
            links.sever(event.link)
        else:
            links.restore(event.link)
        with tracer.span("paths.recompute"):
            paths.recompute(links.effective_delays())
    return len(schedule)

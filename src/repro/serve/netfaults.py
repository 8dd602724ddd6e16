"""Live network dynamics inside the serving gateway.

The online simulator injects link faults on virtual time
(:class:`~repro.network.dynamics.NetworkDynamics`); a *serving* gateway
has no simulator clock, so this module drives the same seeded
:func:`~repro.network.dynamics.build_link_schedule` from a background
daemon on the re-optimizer/pre-placer pattern: each cycle advances a
deterministic schedule clock by ``interval_s``, applies every link event
that came due, and — when anything changed — recomputes the instance's
:class:`~repro.network.paths.PathCache` from the degraded topology.

The path recompute bumps the cache's *generation* stamp, which is the
single invalidation signal every latency consumer observes:

* the gateway's and the front router's cached pair-latency vectors are
  keyed by generation and rebuild lazily on the next probe;
* the batch screen's :class:`~repro.serve.shm.ScreenStatics` (a copy
  of the home→placement delay matrix) is rebuilt eagerly by the daemon;
* in-flight queries whose serving node was partitioned from their home
  are evicted (their compute released, ``serve.netfault.interrupted``)
  before :meth:`~repro.cluster.state.ClusterState.check_invariants`
  verifies that no surviving admission is served across a severed link.

A gateway configured without :class:`NetFaultConfig` never constructs
the daemon, never recomputes paths, and stays byte-identical to the
pre-dynamics service (generation 0 forever) — the same parity contract
as the re-optimizer and the predictor.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.network.dynamics import (
    LinkEvent,
    LinkFaultConfig,
    LinkState,
    build_link_schedule,
)
from repro.obs import get_registry
from repro.util.validation import check_positive

__all__ = ["NetFaultConfig", "NetFaultCycleReport", "NetFaultDaemon"]


@dataclass(frozen=True)
class NetFaultConfig:
    """Gateway network-dynamics daemon tuning knobs.

    Attributes
    ----------
    interval_s:
        Wall-clock period of the daemon loop; each cycle also advances
        the *schedule clock* by this much, so the event sequence a
        gateway replays depends only on ``faults.seed`` and the cycle
        count — never on wall-clock jitter.
    horizon_s:
        Length of schedule to pre-build.  Past it the daemon idles
        (``"schedule-exhausted"``); restores already drawn still fire.
    faults:
        The seeded link-fault process
        (:class:`~repro.network.dynamics.LinkFaultConfig`): event/repair
        rates, degrade-vs-sever mix, inflation factor, partition
        probability.
    history:
        Cycle reports retained for the status payload.
    """

    interval_s: float = 1.0
    horizon_s: float = 600.0
    faults: LinkFaultConfig = field(default_factory=LinkFaultConfig)
    history: int = 32

    def __post_init__(self) -> None:
        check_positive("interval_s", self.interval_s)
        check_positive("horizon_s", self.horizon_s)
        check_positive("history", self.history)


@dataclass(frozen=True)
class NetFaultCycleReport:
    """Outcome of one network-dynamics cycle.

    ``reason`` says why a cycle changed nothing (``""`` when it did):
    ``"no-events-due"`` (the clock advanced between scheduled events) or
    ``"schedule-exhausted"`` (the pre-built horizon is fully replayed).
    """

    cycle: int
    clock_s: float
    applied: int
    degrades: int = 0
    severs: int = 0
    partitions: int = 0
    restores: int = 0
    evicted: int = 0
    generation: int = 0
    link_availability: float = 1.0
    reason: str = ""
    duration_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``netfault`` op's response payload)."""
        return dataclasses.asdict(self)


class NetFaultDaemon:
    """Background link-dynamics daemon bound to one admission gateway.

    The gateway spawns :meth:`run` next to its admission worker;
    ``gateway`` is duck-typed — the daemon reads ``instance``, ``state``,
    ``_inflight``/``_inflight_homes``, and calls
    ``refresh_network_statics()`` after every path recompute.
    """

    def __init__(self, gateway: Any, config: NetFaultConfig | None = None) -> None:
        self.gateway = gateway
        self.config = config or NetFaultConfig()
        self.link_state = LinkState(gateway.instance.topology)
        self._schedule = build_link_schedule(
            gateway.instance.topology, self.config.horizon_s, self.config.faults
        )
        self._cursor = 0
        self._clock = 0.0
        self._cycles = 0
        self._applied = 0
        self._evicted = 0
        self._partitions = 0
        self._partition_stamps: set[float] = set()
        self._history: deque[NetFaultCycleReport] = deque(
            maxlen=self.config.history
        )
        self._lock = asyncio.Lock()

    # -- lifecycle ---------------------------------------------------------

    async def run(self) -> None:
        """Cycle forever (the gateway cancels this task on stop)."""
        obs = get_registry()
        while True:
            await asyncio.sleep(self.config.interval_s)
            try:
                await self.run_cycle()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A dynamics failure must never take the gateway down;
                # the next cycle retries from the same schedule cursor.
                obs.inc("serve.netfault.errors")

    async def run_cycle(self, *, force: bool = False) -> NetFaultCycleReport:
        """Advance the schedule clock one interval and apply due events.

        ``force`` (the ``netfault`` protocol op's behaviour) jumps the
        clock to the *next* scheduled event instead, so a forced cycle
        always applies at least one event while any remain — which is
        what makes smoke tests deterministic.
        """
        async with self._lock:
            return self._cycle(force)

    # -- one cycle (synchronous: no await between apply and verify) --------

    def _cycle(self, force: bool) -> NetFaultCycleReport:
        started = time.perf_counter()
        self._cycles += 1
        if self._cursor >= len(self._schedule):
            return self._finish(
                NetFaultCycleReport(
                    cycle=self._cycles,
                    clock_s=self._clock,
                    applied=0,
                    generation=self.gateway.instance.paths.generation,
                    link_availability=self.link_state.link_availability(),
                    reason="schedule-exhausted",
                    duration_s=time.perf_counter() - started,
                )
            )
        if force:
            self._clock = max(
                self._clock, self._schedule[self._cursor].time
            )
        else:
            self._clock += self.config.interval_s
        due: list[LinkEvent] = []
        while (
            self._cursor < len(self._schedule)
            and self._schedule[self._cursor].time <= self._clock
        ):
            due.append(self._schedule[self._cursor])
            self._cursor += 1
        if not due:
            return self._finish(
                NetFaultCycleReport(
                    cycle=self._cycles,
                    clock_s=self._clock,
                    applied=0,
                    generation=self.gateway.instance.paths.generation,
                    link_availability=self.link_state.link_availability(),
                    reason="no-events-due",
                    duration_s=time.perf_counter() - started,
                )
            )
        obs = get_registry()
        degrades = severs = partitions = restores = 0
        for event in due:
            if event.kind == "degrade":
                self.link_state.degrade(event.link, self.config.faults.inflation)
                degrades += 1
                obs.inc("serve.netfault.degrades")
            elif event.kind == "sever":
                self.link_state.sever(event.link)
                severs += 1
                obs.inc("serve.netfault.severs")
                if event.correlated and event.time not in self._partition_stamps:
                    self._partition_stamps.add(event.time)
                    partitions += 1
                    obs.inc("serve.netfault.partitions")
            else:
                self.link_state.restore(event.link)
                restores += 1
                obs.inc("serve.netfault.restores")
        self._applied += len(due)
        self._partitions += partitions

        # One recompute per cycle, however many events came due: the
        # admission loop only ever observes the post-cycle epoch.
        generation = self.gateway.instance.paths.recompute(
            self.link_state.effective_delays()
        )
        obs.inc("serve.netfault.recomputes")
        self.gateway.refresh_network_statics()
        evicted = self._evict_partitioned()
        self._evicted += evicted

        # No surviving admission may be served across a severed link.
        self.gateway.state.check_invariants(
            [a for group in self.gateway._inflight.values() for a in group],
            link_state=self.link_state,
            homes=dict(self.gateway._inflight_homes),
        )
        availability = self.link_state.link_availability()
        obs.set_gauge("serve.netfault.link_availability", availability)
        return self._finish(
            NetFaultCycleReport(
                cycle=self._cycles,
                clock_s=self._clock,
                applied=len(due),
                degrades=degrades,
                severs=severs,
                partitions=partitions,
                restores=restores,
                evicted=evicted,
                generation=generation,
                link_availability=availability,
                duration_s=time.perf_counter() - started,
            )
        )

    def _evict_partitioned(self) -> int:
        """Release every in-flight query cut off from its home.

        Paths were just recomputed from the severed topology, so any
        still-reachable pair's shortest path avoids severed links by
        construction; only *unreachable* (partitioned) pairs violate the
        serving contract and their service is interrupted — the compute
        frees rather than pretending a dead route still delivers.
        """
        gateway = self.gateway
        paths = gateway.instance.paths
        cut: list[int] = []
        for q_id, assignments in gateway._inflight.items():
            home = gateway._inflight_homes.get(q_id)
            if home is None:
                continue
            if any(not paths.reachable(a.node, home) for a in assignments):
                cut.append(q_id)
        obs = get_registry()
        for q_id in cut:
            gateway._evict_hold(q_id)
            obs.inc("serve.netfault.interrupted")
        return len(cut)

    def _finish(self, report: NetFaultCycleReport) -> NetFaultCycleReport:
        self._history.append(report)
        obs = get_registry()
        obs.inc("serve.netfault.cycles")
        obs.observe("serve.netfault.cycle_s", report.duration_s)
        return report

    # -- introspection -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Daemon health (the ``netfault`` section of the status payload)."""
        last = self._history[-1] if self._history else None
        return {
            "cycles": self._cycles,
            "clock_s": self._clock,
            "events_applied": self._applied,
            "events_remaining": len(self._schedule) - self._cursor,
            "partitions": self._partitions,
            "interrupted": self._evicted,
            "generation": self.gateway.instance.paths.generation,
            "link_availability": self.link_state.link_availability(),
            "severed_links": len(self.link_state.severed_links()),
            "last_cycle": last.to_dict() if last is not None else None,
        }

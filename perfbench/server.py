"""Gateway server process of the benchmark.

Usage: ``python3 perfbench/server.py --workload serve-full [--cpu N]``

Builds the workload's instance, starts an ``AdmissionGateway`` on
an ephemeral loopback port and prints one line::

    LISTENING <port> {"setup.import_s": ..., "setup.instance_s": ..., ...}

then serves until a ``shutdown`` request arrives (or
:data:`LIMIT_S` elapses).  The set-up spans on that line are the launcher's own timings
of each start-up step.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Longest a server lives: a benchmark run ends within 180 s.
LIMIT_S = 170.0


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    spans: dict[str, float] = {}
    mark = time.perf_counter()
    import asyncio

    import repro.experiments.runner  # noqa: F401 - instance builder
    from repro.serve import AdmissionGateway

    from workloads import gateway_config, serve_instance

    spans["setup.import_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    instance = serve_instance(args.workload)
    spans["setup.instance_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    gateway = AdmissionGateway(instance, gateway_config())
    spans["setup.gateway_init_s"] = time.perf_counter() - mark

    async def serve() -> None:
        mark = time.perf_counter()
        await gateway.start()
        spans["setup.listen_s"] = time.perf_counter() - mark
        spans["setup.in_process_s"] = time.perf_counter() - started
        port = gateway.address[1]
        print(f"LISTENING {port} {json.dumps(spans)}", flush=True)
        await gateway.run_for(LIMIT_S)

    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())

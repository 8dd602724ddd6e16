"""`repro.serve` — a long-running admission gateway over a live cluster.

Every other entry point in the library is a one-shot batch run.  This
package turns the admission machinery into a *service*: an asyncio
gateway owns a live :class:`~repro.cluster.state.ClusterState`, accepts a
stream of query submissions over a newline-delimited JSON TCP protocol,
micro-batches them through the vectorised admission kernel, sheds load
once its queue or compute crosses a watermark, and checkpoints its state
atomically so a restart resumes bit-identical.  See ``docs/serving.md``.

Pieces
------
* :mod:`repro.serve.protocol` — the wire format (versioned, validated).
* :mod:`repro.serve.batcher` — the bounded micro-batching queue.
* :mod:`repro.serve.gateway` — the admission gateway itself.
* :mod:`repro.serve.screenpool` — the batch screen: one stacked
  feasibility kernel over a micro-batch's (query, dataset) pairs.
* :mod:`repro.serve.shm` — the screen's inputs: frozen per-instance
  tables and a read of the live state arrays.
* :mod:`repro.serve.reoptimizer` — the live re-optimization daemon:
  bounded-churn replica migration against demand drift.
* :mod:`repro.serve.preplacer` — the predictive pre-placement daemon:
  add-only replica placement ahead of forecast demand
  (:mod:`repro.workload.forecast`).
* :mod:`repro.serve.netfaults` — the live network-dynamics daemon:
  seeded link degradation/partition schedules replayed against the
  gateway's path cache (:mod:`repro.network.dynamics`), with
  generation-stamped invalidation of every latency consumer.
* :mod:`repro.serve.client` — asyncio client + closed/open-loop load
  generators driven by the Zipf workload machinery.
* :mod:`repro.serve.shard` — deterministic placement-node partitioning
  (:class:`ShardPlan`) and the router + N-gateway ensemble
  (:class:`ShardCluster`).
* :mod:`repro.serve.router` — the front router: shard-local forwarding
  plus two-phase reserve/commit cross-shard admission.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.client import (
    GatewayClient,
    LoadReport,
    QueryFactory,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.gateway import (
    AdmissionGateway,
    GatewayConfig,
    GatewayThread,
)
from repro.serve.netfaults import (
    NetFaultConfig,
    NetFaultCycleReport,
    NetFaultDaemon,
)
from repro.serve.preplacer import PreplaceReport, Preplacer, PreplacerConfig
from repro.serve.protocol import ProtocolError, decode_message, encode_message
from repro.serve.reoptimizer import CycleReport, Reoptimizer, ReoptimizerConfig
from repro.serve.router import FrontRouter, RouterConfig, RouterThread
from repro.serve.screenpool import ScreenRows
from repro.serve.shard import ShardCluster, ShardPlan
from repro.serve.shm import ScreenStatics, StateSnapshot

__all__ = [
    "AdmissionGateway",
    "CycleReport",
    "FrontRouter",
    "GatewayConfig",
    "GatewayThread",
    "GatewayClient",
    "LoadReport",
    "MicroBatcher",
    "NetFaultConfig",
    "NetFaultCycleReport",
    "NetFaultDaemon",
    "PreplaceReport",
    "Preplacer",
    "PreplacerConfig",
    "ProtocolError",
    "QueryFactory",
    "Reoptimizer",
    "ReoptimizerConfig",
    "RouterConfig",
    "RouterThread",
    "ScreenRows",
    "ScreenStatics",
    "ShardCluster",
    "ShardPlan",
    "StateSnapshot",
    "decode_message",
    "encode_message",
    "run_closed_loop",
    "run_open_loop",
]

"""Cluster tier: a router placing content-addressed jobs on N workers.

The pieces:

- :mod:`~repro.service.cluster.ring` — weighted consistent hashing.
- :mod:`~repro.service.cluster.placement` — pluggable placement
  policies (``hash``, ``capacity``).
- :mod:`~repro.service.cluster.registry` — worker membership,
  heartbeats, and the alive → suspect → dead ladder.
- :mod:`~repro.service.cluster.router` — the router core + HTTP front
  end (``htp route``), on the worker's journal and job endpoints.
- :mod:`~repro.service.cluster.agent` — the worker-side join/heartbeat
  daemon (``htp serve --join``).
- :mod:`~repro.service.cluster.replication` — shared-nothing failover:
  the worker-side cluster view (fencing epoch, peers, standby URL) and
  the checkpoint replicator pushing CRC-stamped frames to ring-chosen
  peers.

See ``docs/cluster.md`` for the topology and failover walkthrough.
"""

from repro.service.cluster.agent import WorkerAgent, default_worker_id
from repro.service.cluster.placement import (
    POLICIES,
    CapacityPolicy,
    ConsistentHashPolicy,
    PlacementPolicy,
    make_policy,
    replica_owners,
)
from repro.service.cluster.replication import (
    CheckpointReplicator,
    ClusterView,
    PeerInfo,
)
from repro.service.cluster.registry import (
    WORKER_STATES,
    WorkerInfo,
    WorkerRegistry,
)
from repro.service.cluster.ring import HashRing, key_position
from repro.service.cluster.router import (
    ROUTER_CACHE,
    ClusterRouter,
    NoCapacityError,
    RouterJob,
    RouterServer,
    RouterThread,
)

__all__ = [
    "CapacityPolicy",
    "CheckpointReplicator",
    "ClusterRouter",
    "ClusterView",
    "ConsistentHashPolicy",
    "HashRing",
    "NoCapacityError",
    "POLICIES",
    "PeerInfo",
    "PlacementPolicy",
    "ROUTER_CACHE",
    "RouterJob",
    "RouterServer",
    "RouterThread",
    "WORKER_STATES",
    "WorkerAgent",
    "WorkerInfo",
    "WorkerRegistry",
    "default_worker_id",
    "key_position",
    "make_policy",
    "replica_owners",
]

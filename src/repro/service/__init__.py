"""The partitioning service: async job server, result cache, client.

Layers (each importable on its own):

- :mod:`repro.service.jobs` — :class:`JobSpec` (content-addressed work
  unit), the job state machine and the asyncio :class:`JobManager`
  (admission control, deadlines, checkpointed solves);
- :mod:`repro.service.journal` — :class:`Journal`, the append-only
  write-ahead log of job lifecycle transitions, and the pure
  :func:`replay` recovery function;
- :mod:`repro.service.cache` — :class:`ResultCache`, an in-memory LRU
  over optional on-disk CRC-enveloped JSON blobs keyed by the JobSpec
  hash (corrupt blobs quarantine to a miss, never an exception);
- :mod:`repro.service.server` — the stdlib HTTP front end
  (:class:`PartitionServer`, :class:`ServerThread`,
  :func:`run_until_signalled`);
- :mod:`repro.service.client` — the blocking :class:`ServiceClient`
  (idempotent reads retry reset connections with bounded backoff).

See the "Service" and "Durability & recovery" sections of
``docs/architecture.md`` for the endpoint table, the job lifecycle
diagram, the cache-key definition, the journal record format and the
crash-recovery matrix.
"""

from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import (
    CONFIG_DEFAULTS,
    AdmissionError,
    Job,
    JobContext,
    JobManager,
    JobSpec,
    JobState,
    ResultNotReady,
    TERMINAL_STATES,
    UnknownJobError,
    run_spec,
)
from repro.service.journal import Journal, RecoveredJob, RecoveredState, replay
from repro.service.server import PartitionServer, ServerThread

__all__ = [
    "CONFIG_DEFAULTS",
    "AdmissionError",
    "Job",
    "JobContext",
    "JobManager",
    "JobSpec",
    "JobState",
    "Journal",
    "PartitionServer",
    "RecoveredJob",
    "RecoveredState",
    "ResultCache",
    "ResultNotReady",
    "ServerThread",
    "ServiceClient",
    "ServiceClientError",
    "TERMINAL_STATES",
    "UnknownJobError",
    "replay",
    "run_spec",
]

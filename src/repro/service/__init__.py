"""The selection service layer: a batched, cache-warm daemon.

PRs 1–4 made one selection fast, observable and fault-tolerant; this
package makes *many concurrent* selections cheap by running them
through a long-lived daemon instead of one-shot CLI invocations:

* :mod:`repro.service.protocol` — the JSONL wire types (requests,
  responses, typed rejection/error codes);
* :mod:`repro.service.state` — chain snapshot epochs and the per-epoch
  warm :class:`~repro.core.perf.cache.SolverCache` /
  :class:`~repro.core.modules.ModuleUniverse`, advanced incrementally
  across commits (:class:`EpochDelta`), plus commit admission;
* :mod:`repro.service.batching` — bounded admission and epoch-aware
  micro-batching;
* :mod:`repro.service.daemon` — :class:`SelectionService`, the worker
  loop tying it together;
* :mod:`repro.service.partition` — the TokenMagic batch partition as a
  deterministic service-level shard key;
* :mod:`repro.service.router` — :class:`ShardRouter`, batch-keyed
  routing of requests over shard worker processes that solve their
  owned batches in parallel;
* :mod:`repro.service.server` / :mod:`repro.service.client` — stdio
  and unix-socket front-ends plus the matching client (both serve a
  single daemon or a shard router behind the same ops);
* :mod:`repro.service.journal` — the durable commit journal: a
  CRC-framed, fsync-batched write-ahead log plus compacted snapshots,
  replayed on startup into a byte-identical twin of a crashed daemon;
* :mod:`repro.service.pidfile` — single-daemon ownership guard for
  socket paths and journal directories.

The service changes *when* work happens, never *what* is selected:
``tests/test_service_equivalence.py`` pins every answer byte-identical
to a direct :func:`repro.core.bfs.bfs_select` /
:func:`repro.resilience.ladder.ladder_select` call at the same seed,
and ``benchmarks/test_bench_service.py`` records the batched-warm vs
sequential-cold throughput in ``benchmarks/results/BENCH_service.json``.
"""

from .batching import AdmissionQueue, Batch
from .client import RetrySpec, ServiceClient, ServiceUnavailable
from .daemon import PendingResult, SelectionService, ServiceConfig, ShardOutOfSync
from .journal import Journal, JournalCorruption, JournalError, RecoveredState
from .partition import TokenPartition
from .pidfile import AlreadyRunning, PidFile
from .protocol import (
    KNOWN_MODES,
    KNOWN_OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    SelectRequest,
    SelectResponse,
)
from .router import RouterConfig, ShardRouter
from .server import serve_socket, serve_stdio
from .state import (
    ChainSnapshot,
    DuplicateRingId,
    EpochDelta,
    ReservedRingId,
    ServiceState,
)
from .telemetry import ServiceTelemetry

__all__ = [
    "PROTOCOL_VERSION",
    "KNOWN_OPS",
    "KNOWN_MODES",
    "ProtocolError",
    "SelectRequest",
    "SelectResponse",
    "AdmissionQueue",
    "Batch",
    "ChainSnapshot",
    "EpochDelta",
    "DuplicateRingId",
    "ReservedRingId",
    "ServiceState",
    "ServiceConfig",
    "PendingResult",
    "SelectionService",
    "ShardOutOfSync",
    "TokenPartition",
    "RouterConfig",
    "ShardRouter",
    "ServiceTelemetry",
    "ServiceClient",
    "ServiceUnavailable",
    "RetrySpec",
    "Journal",
    "JournalError",
    "JournalCorruption",
    "RecoveredState",
    "PidFile",
    "AlreadyRunning",
    "serve_stdio",
    "serve_socket",
]

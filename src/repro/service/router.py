"""Batch-keyed shard routing over process shards.

The paper's TokenMagic partition (Sec 4) makes the mixin universes of
different batches disjoint, so selection requests whose targets fall in
different batches share no solver state at all.  :class:`ShardRouter`
exploits that: ``batch_of(target)`` is the shard key, each shard is a
forked worker process running a partitioned
:class:`~repro.service.daemon.SelectionService` (without its worker
thread), and every shard keeps the warm ``SolverCache`` /
``ModuleUniverse`` / result-memo slices of the batches it owns across
commits — the retention rule of
:meth:`repro.service.state.ServiceState.commit`, which the single
partitioned daemon applies too.  What the fleet adds is parallelism:
shards solve their batches' cold requests on separate cores at once.
``benchmarks/bench_shard.py`` measures it against the single
partitioned daemon (see ``docs/performance.md``): a win on a
multi-core host under a commit-interleaved load with enough cold
solving per round, a loss where IPC and per-commit broadcasts
dominate.

Routing and equivalence
-----------------------

* ``submit`` routes a request to ``partition.batch_of(target) % shards``
  and enqueues it on that shard's admission sub-queue (bounded, typed
  ``queue_full`` backpressure, identical detail text to the single
  daemon).  A target outside the universe is refused ``bad_request``
  at submission, byte-identical to the single daemon's refusal.
* Each shard's dispatcher thread drains its sub-queue with the same
  micro-batching policy the daemon uses
  (:class:`~repro.service.batching.AdmissionQueue`) and ships whole
  batches to the worker, which serves them through
  :meth:`SelectionService.execute_requests` — the same snapshot
  resolution, fault scoping and memo behaviour as the queued path.
* ``submit_many`` scatters a multi-batch request list across shards and
  merges responses back **in submission order**, so a scattered run
  reads exactly like a serialized one.
* ``tests/test_service_shard.py`` pins router responses byte-identical
  (modulo execution coordinates: elapsed, batch ids, warm/memo flags)
  to the partitioned single-worker service at equal seeds.

Lifecycle, loss and recovery
----------------------------

Worker dispatches run under
:func:`repro.resilience.supervisor.supervised_call`: a typed
:class:`~repro.resilience.supervisor.WorkerLost`, bounded retries and a
death-grace timeout.  A pool respawns a dead worker with the
*original* initargs, so every dispatch carries the router's epoch: a
lagging worker raises
:class:`~repro.service.daemon.ShardOutOfSync`, and the supervised
retry answers by attaching a full sync (ring log + epoch) to the
resend.  Commits are idempotent by ring id on the worker, so a commit
retried across a mid-commit death cannot double-apply.  Router-level
``fault_plan`` documents install *in the workers* (site
``shard.batch``), which is how the chaos suite kills a shard mid-batch
and asserts byte-identical replays.

Observability
-------------

The router runs its own fleet-level
:class:`~repro.service.telemetry.ServiceTelemetry` (admission, queue
wait, batch round-trips, statuses, ``shard.retries`` /
``shard.worker_lost`` marks) and aggregates shard-tagged ``stats`` /
``metrics`` / ``health`` probes: ``stats()`` carries a ``shards`` row
per worker (queue depth, warm/memo hit rates, rung distribution,
solve-latency quantiles), ``metrics_text()`` concatenates the fleet
exposition with per-shard bodies labelled ``shard="N"``, and
``health()`` degrades when the recent window saw shard retries or
losses, or any shard is degraded/unreachable.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.ring import Ring, TokenUniverse
from ..obs import events
from ..obs.clock import Clock
from ..resilience.supervisor import RetryPolicy, WorkerLost, supervised_call
from .batching import EPOCH_ANY, AdmissionQueue, Batch
from .daemon import (
    PendingResult,
    _init_shard_worker,
    _shard_call,
)
from .journal import Journal, metrics_lines
from .partition import TokenPartition
from .protocol import (
    ERROR_INTERNAL,
    REJECT_BAD_REQUEST,
    REJECT_QUEUE_FULL,
    SelectRequest,
    SelectResponse,
)
from .state import ChainSnapshot, ServiceState
from .telemetry import ServiceTelemetry

__all__ = ["RouterConfig", "ShardRouter"]


def _shard_pool(initargs: tuple) -> multiprocessing.pool.Pool:
    """A one-process pool running :func:`_init_shard_worker`, forked
    where the platform can fork."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return context.Pool(1, initializer=_init_shard_worker, initargs=initargs)


@dataclass(frozen=True, slots=True)
class RouterConfig:
    """Tunables of one :class:`ShardRouter`.

    Attributes:
        shards: worker processes to run (capped at the partition's
            batch count — a shard with nothing to own is pointless).
        batches: TokenMagic batches to partition the universe into
            (``None`` = one batch per shard).  More batches than
            shards means each shard owns several batch slices and a
            commit invalidates only the touched one.
        max_queue: per-shard admission bound (same ``queue_full``
            semantics and detail text as the single daemon).
        max_batch: largest micro-batch dispatched to a worker at once.
        linger_s: per-shard drain linger for batch-mates.
        default_budget: per-request exact-search budget when the
            request does not name one.
        fault_plan: a fault-plan document installed *in every shard
            worker* (each forked process gets its own counters).  This
            is how chaos reaches the ``shard.batch`` site; unlike
            ``ServiceConfig.fault_plan`` it is not applied per request.
        telemetry: run the fleet-level lifecycle instrument.
        clock: seconds source for the *router's* telemetry (workers
            always use real time; a forked copy of a manual clock
            would never advance).
        retry: supervised-dispatch policy (sentinel timeout, death
            grace, bounded backoff) for every worker call.
        journal: a :class:`~repro.service.journal.Journal` the
            *router's mirror* makes every commit durable through —
            same write-ahead discipline as the single daemon; workers
            never touch the journal (they are rebuilt from the mirror
            on respawn/sync).
    """

    shards: int = 2
    batches: int | None = None
    max_queue: int = 256
    max_batch: int = 32
    linger_s: float = 0.0
    default_budget: float | None = None
    fault_plan: Mapping | None = None
    telemetry: bool = True
    clock: Clock | None = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_retries=2, hang_timeout=120.0)
    )
    journal: Journal | None = None


class _Shard:
    """One shard's router-side half: sub-queue, dispatcher, pool."""

    __slots__ = ("index", "owned", "queue", "pool", "thread", "lock")

    def __init__(self, index: int, owned: tuple[int, ...], queue: AdmissionQueue):
        self.index = index
        self.owned = owned
        self.queue = queue
        self.pool = None
        self.thread: threading.Thread | None = None
        # Serializes pool access between the dispatcher thread and
        # commit/stats broadcasts — one supervised call per pool at a
        # time keeps death observation unambiguous.
        self.lock = threading.Lock()


class ShardRouter:
    """Batch-keyed routing over shard worker processes.

    Args:
        universe: the mixin universe T of the initial snapshot.
        rings: the initial ring history (must be batch-local).
        config: see :class:`RouterConfig`.

    Drop-in for :class:`~repro.service.daemon.SelectionService` where
    the front-ends are concerned: ``submit`` / ``submit_wait`` /
    ``commit_ring`` / ``stats`` / ``health`` / ``metrics_text`` /
    ``queue_depth`` / ``epoch`` / ``state`` all match, so
    :mod:`repro.service.server` serves either behind the same ops.
    """

    def __init__(
        self,
        universe: TokenUniverse,
        rings: Sequence[Ring] = (),
        config: RouterConfig | None = None,
        *,
        epoch: int = 0,
        recovered: Mapping | None = None,
    ) -> None:
        self.config = config or RouterConfig()
        if self.config.shards < 1:
            raise ValueError("shards must be >= 1")
        batches = (
            self.config.shards
            if self.config.batches is None
            else self.config.batches
        )
        self.partition = TokenPartition(universe, batches=batches)
        self.shards = min(self.config.shards, self.partition.batches)
        self.journal = self.config.journal
        self.recovered: dict | None = dict(recovered) if recovered else None
        # The router's own chain mirror: source of truth for epoch,
        # ring log (sync payloads) and commit admission.  Its caches
        # are never built — solving happens in the workers.
        self.state = ServiceState(universe, rings, partition=self.partition, epoch=epoch)
        self._universe = universe
        self._rings0 = tuple(rings)
        self._epoch0 = epoch
        self._shards = [
            _Shard(
                index,
                tuple(
                    b for b in range(self.partition.batches)
                    if b % self.shards == index
                ),
                AdmissionQueue(
                    max_depth=self.config.max_queue,
                    max_batch=self.config.max_batch,
                    linger_s=self.config.linger_s,
                ),
            )
            for index in range(self.shards)
        ]
        self._started = False
        self._stopping = threading.Event()
        self._seq_lock = threading.Lock()
        self._dispatch_seq = 0
        self._counters_lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.telemetry: ServiceTelemetry | None = (
            ServiceTelemetry(clock=self.config.clock)
            if self.config.telemetry
            else None
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardRouter":
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        self._stopping.clear()
        config_kwargs = dict(
            max_batch=self.config.max_batch,
            default_budget=self.config.default_budget,
            telemetry=self.config.telemetry,
        )
        fault_doc = (
            None if self.config.fault_plan is None else dict(self.config.fault_plan)
        )
        for shard in self._shards:
            shard.pool = _shard_pool(
                (
                    shard.index,
                    shard.owned,
                    self._universe,
                    self._rings0,
                    self.partition.batches,
                    config_kwargs,
                    fault_doc,
                    self._epoch0,
                ),
            )
            shard.thread = threading.Thread(
                target=self._dispatch_loop,
                args=(shard,),
                name=f"repro-shard-router-{shard.index}",
                daemon=True,
            )
            shard.thread.start()
        # One ping per shard: forces worker spawn + initializer now, so
        # the first real dispatch measures solving, not process birth.
        for shard in self._shards:
            self._call(shard, {"op": "ping"})
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the fleet; with ``drain`` (default) serve what is queued."""
        for shard in self._shards:
            shard.queue.close()
        if not drain:
            self._stopping.set()
        for shard in self._shards:
            if shard.thread is not None:
                shard.thread.join()
                shard.thread = None
        for shard in self._shards:
            if shard.pool is not None:
                shard.pool.terminate()
                shard.pool.join()
                shard.pool = None
        self._started = False

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- chain growth --------------------------------------------------------

    def commit_ring(
        self, tokens: Sequence[str], c: float, ell: int, rid: str | None = None
    ) -> ChainSnapshot:
        """Append an accepted ring and broadcast it to every shard.

        The router's mirror admits the commit first through
        :meth:`~repro.service.state.ServiceState.admit_commit` — the
        same rid rules, batch-locality validation and write-ahead
        journaling as the single daemon, so a spanning ring raises
        ``ValueError`` before any worker hears of it, and a rid already
        in the mirror returns the current head unchanged (the
        client-retry dedup).  Then each shard applies the ring: only the
        worker owning the touched batch changes warm state, every other
        slice carries over.  Shard application is idempotent by ring
        id, so supervised retries of the broadcast are safe; a shard
        lost mid-broadcast catches up through the epoch guard of its
        next dispatch.
        """
        snapshot, ring = self.state.admit_commit(
            tokens, c, ell, rid, journal=self.journal, telemetry=self.telemetry
        )
        if ring is None:
            self._bump("commits.replayed")
            return snapshot
        epoch = snapshot.epoch - 1
        payload = {"op": "commit", "epoch": epoch, "ring": ring}
        sync = {"rings": snapshot.rings[:-1], "epoch": epoch}
        for shard in self._shards:
            try:
                self._call(shard, payload, sync=sync)
            except WorkerLost:
                # The shard resyncs on its next dispatch (epoch guard);
                # the commit itself already happened in the mirror.
                self._bump("commits.lost")
                if self.telemetry is not None:
                    self.telemetry.mark("shard.worker_lost")
        return snapshot

    @property
    def epoch(self) -> int:
        return self.state.epoch

    # -- submission ----------------------------------------------------------

    def submit(self, request: SelectRequest) -> PendingResult:
        """Admit ``request`` on its target's shard (non-blocking).

        A target outside the universe is refused ``bad_request`` here,
        as the single daemon refuses it, without reaching a shard.
        """
        pending = PendingResult(request=request)
        try:
            batch = self.partition.batch_of(request.target)
        except KeyError:
            return self._refuse(
                pending,
                REJECT_BAD_REQUEST,
                f"target {request.target!r} is not a token of the universe",
            )
        shard = self._shards[batch % self.shards]
        epoch_key = EPOCH_ANY if request.epoch is None else request.epoch
        if not shard.queue.offer(pending, epoch_key):
            return self._refuse(
                pending,
                REJECT_QUEUE_FULL,
                f"admission queue at capacity ({shard.queue.max_depth}); retry later",
            )
        if self.telemetry is not None:
            pending.admitted_at = self.telemetry.admitted(self.queue_depth())
        if events.enabled():
            events.emit(events.RequestAdmitted(queue_depth=self.queue_depth()))
        return pending

    def _refuse(self, pending: PendingResult, code: str, detail: str) -> PendingResult:
        """Resolve ``pending`` with an admission rejection ``code``."""
        self._bump(f"rejected.{code}")
        if self.telemetry is not None:
            self.telemetry.admission_rejected(code)
        if events.enabled():
            events.emit(events.RequestRejected(code=code))
        pending.resolve(
            SelectResponse(
                request_id=pending.request.request_id,
                status="rejected",
                epoch=self.state.epoch,
                code=code,
                detail=detail,
            )
        )
        return pending

    def submit_wait(
        self, request: SelectRequest, timeout: float | None = None
    ) -> SelectResponse:
        return self.submit(request).wait(timeout)

    def submit_many(
        self, requests: Sequence[SelectRequest]
    ) -> list[PendingResult]:
        """Scatter ``requests`` across their shards, slots in input order."""
        return [self.submit(request) for request in requests]

    def submit_wait_many(
        self, requests: Sequence[SelectRequest], timeout: float | None = None
    ) -> list[SelectResponse]:
        """Scatter, then gather responses merged back in input order."""
        return [slot.wait(timeout) for slot in self.submit_many(requests)]

    def queue_depth(self) -> int:
        """Admitted-but-unserved requests across every shard sub-queue."""
        return sum(shard.queue.depth() for shard in self._shards)

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self, shard: _Shard) -> None:
        while not self._stopping.is_set():
            batch = shard.queue.drain_batch(timeout=0.05)
            if batch is None:
                if shard.queue.closed and shard.queue.depth() == 0:
                    return
                continue
            self._dispatch_batch(shard, batch)

    def _dispatch_batch(self, shard: _Shard, batch: Batch[PendingResult]) -> None:
        snap = self.state.current()
        with self._seq_lock:
            seq = self._dispatch_seq
            self._dispatch_seq += 1
        telemetry = self.telemetry
        started_ats: list[float] = []
        if telemetry is not None:
            telemetry.batch_started(len(batch), snap.epoch)
            started_ats = [
                telemetry.request_started(item.admitted_at) for item in batch.items
            ]
        if events.enabled():
            events.emit(events.BatchExecuted(size=len(batch), epoch=snap.epoch))
        self._bump("batches")
        payload = {
            "op": "batch",
            "epoch": snap.epoch,
            "seq": seq,
            "requests": [item.request for item in batch.items],
        }
        sync = {"rings": snap.rings, "epoch": snap.epoch}
        try:
            responses = self._call(shard, payload, sync=sync, index=seq)
        except WorkerLost as exc:
            self._bump("shard.worker_lost")
            if telemetry is not None:
                telemetry.mark("shard.worker_lost")
            responses = [
                SelectResponse(
                    request_id=item.request.request_id,
                    status="error",
                    epoch=snap.epoch,
                    batch_id=seq,
                    batch_size=len(batch),
                    code=ERROR_INTERNAL,
                    detail=str(exc),
                )
                for item in batch.items
            ]
        for position, (item, response) in enumerate(zip(batch.items, responses)):
            self._bump("requests")
            self._bump(f"status.{response.status}")
            if response.degraded:
                self._bump("degraded")
            if telemetry is not None:
                telemetry.request_finished(
                    response, item.admitted_at, started_ats[position]
                )
            item.resolve(response)

    def _call(
        self,
        shard: _Shard,
        payload: Mapping,
        sync: Mapping | None = None,
        index: int = 0,
    ):
        """One supervised worker RPC, sync attached on retries.

        Attempt 0 ships the bare payload; any retry — respawned
        worker, timeout, :class:`ShardOutOfSync` — resends it with the
        full sync (ring log + epoch, captured with the payload so they
        always agree) and the attempt number, which is what lets
        ``at_index``/``on_attempt`` fault specs spare the replay.
        """
        def make_args(attempt: int) -> tuple:
            doc = dict(payload)
            doc["attempt"] = attempt
            if attempt > 0 and sync is not None:
                doc["sync"] = dict(sync)
            return (doc,)

        def on_retry(attempt: int, reason: str) -> None:
            self._bump("shard.retries")
            if self.telemetry is not None:
                self.telemetry.mark("shard.retries")

        with shard.lock:
            return supervised_call(
                shard.pool,
                _shard_call,
                make_args,
                policy=self.config.retry,
                index=index,
                on_retry=on_retry,
            )

    # -- observability -------------------------------------------------------

    def _probe(self, op: str, extra: Mapping | None = None) -> list:
        """Run ``op`` on every shard; exceptions become error rows."""
        snap = self.state.current()
        sync = {"rings": snap.rings, "epoch": snap.epoch}
        results = []
        for shard in self._shards:
            payload = {"op": op, "epoch": snap.epoch}
            if extra:
                payload.update(extra)
            try:
                results.append((shard, self._call(shard, payload, sync=sync)))
            except WorkerLost as exc:
                results.append((shard, exc))
        return results

    @staticmethod
    def _shard_row(shard: _Shard, raw) -> dict:
        if isinstance(raw, Exception):
            return {
                "shard": shard.index,
                "batches": list(shard.owned),
                "queue_depth": shard.queue.depth(),
                "error": str(raw),
            }
        tele: Mapping = raw.get("telemetry", {})
        hist: Mapping = tele.get("histograms", {}).get("solve_s", {})
        gauges: Mapping = tele.get("gauges", {})
        return {
            "shard": shard.index,
            "batches": list(shard.owned),
            "queue_depth": shard.queue.depth(),
            "requests": raw.get("counters", {}).get("requests", 0),
            "epoch": raw.get("epoch"),
            "warm_hit_rate": gauges.get("warm_cache_rate"),
            "memo_hit_rate": gauges.get("memo_hit_rate"),
            "p50_s": hist.get("p50"),
            "p99_s": hist.get("p99"),
            "rungs": raw.get("resilience", {}).get("rung_served", {}),
            "caches_invalidated": raw.get("caches_invalidated", 0),
            "delta": raw.get("delta", {}),
        }

    def _aggregate_delta(self, rows: list) -> dict:
        """Fleet-wide ``delta.*`` counters: the shards' retention work, summed."""
        total = dict(self.state.delta_counters)
        for row in rows:
            for name, value in row.get("delta", {}).items():
                total[name] = total.get(name, 0) + int(value)
        return total

    def stats(self) -> dict:
        """The fleet ``stats`` payload: aggregate plus per-shard rows.

        Same shape as :meth:`SelectionService.stats` (so
        :func:`~repro.service.telemetry.format_stats` renders it), with
        an extra ``shards`` list carrying one condensed row per worker
        — sub-queue depth, requests served, warm/memo hit rates,
        solve-latency quantiles and the rung distribution, all probed
        live from the shard processes.
        """
        with self._counters_lock:
            counters = dict(sorted(self.counters.items()))
        queue_depth = self.queue_depth()
        offered = sum(shard.queue.offered for shard in self._shards)
        refused = sum(shard.queue.refused for shard in self._shards)
        rows = [self._shard_row(shard, raw) for shard, raw in self._probe("stats")]
        payload = {
            "epoch": self.state.epoch,
            "rings": len(self.state.current().rings),
            "queue_depth": queue_depth,
            "offered": offered,
            "refused": refused,
            "epochs_advanced": self.state.epochs_advanced,
            "caches_invalidated": sum(
                row.get("caches_invalidated", 0) for row in rows
            ),
            "delta": self._aggregate_delta(rows),
            "counters": counters,
            "shards": rows,
        }
        if self.journal is not None:
            payload["journal"] = self.journal.stats()
        if self.recovered is not None:
            payload["recovered"] = dict(self.recovered)
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.snapshot(queue_depth)
            payload["resilience"] = self.telemetry.resilience_counters()
        return payload

    def health(self) -> dict:
        """Fleet health: the router window plus every shard's verdict.

        Degraded when the recent window saw shard retries or worker
        losses, when any shard reports degraded, or when any shard is
        unreachable after supervised retries; draining once the
        sub-queues are closed.  ``shards`` carries the per-worker
        breakdown.
        """
        draining = any(shard.queue.closed for shard in self._shards)
        queue_depth = self.queue_depth()
        max_queue = self.config.max_queue * self.shards
        if self.telemetry is not None:
            payload = self.telemetry.health(
                queue_depth=queue_depth, max_queue=max_queue, draining=draining
            )
            window_s = payload["window_s"]
            for name in ("shard.retries", "shard.worker_lost"):
                count = self.telemetry.window_count(name)
                if count > 0:
                    payload["reasons"].append(
                        f"{name}={count} in the last {window_s:g}s"
                    )
        else:
            payload = {
                "health": "draining" if draining else "ready",
                "reasons": [],
                "queue_depth": queue_depth,
                "max_queue": max_queue,
            }
        rows = []
        for shard, raw in self._probe("health"):
            if isinstance(raw, Exception):
                rows.append(
                    {"shard": shard.index, "health": "unreachable",
                     "reasons": [str(raw)]}
                )
                payload["reasons"].append(f"shard {shard.index} unreachable")
            else:
                rows.append(raw)
                if raw.get("health") == "degraded":
                    payload["reasons"].append(f"shard {shard.index} degraded")
        payload["shards"] = rows
        if self.recovered is not None:
            payload["recovered"] = dict(self.recovered)
        if payload["health"] == "ready" and payload["reasons"]:
            payload["health"] = "degraded"
        return payload

    def metrics_text(self) -> str:
        """Fleet exposition plus per-shard bodies labelled ``shard="N"``.

        The router's own (unlabelled) body leads and carries the
        ``# TYPE`` declarations; each shard's body follows with the
        ``shard`` label and no repeated declarations, so one scrape
        reads fleet-wide and per-shard series from a single endpoint.
        """
        with self._counters_lock:
            counters = dict(sorted(self.counters.items()))
        if self.telemetry is not None:
            body = self.telemetry.prometheus(
                queue_depth=self.queue_depth(), service_counters=counters
            )
        else:
            from ..obs.telemetry import render_prometheus

            body = render_prometheus(
                {}, prefix="repro_service", extra_counters=counters
            )
        parts = [body]
        parts.append(
            metrics_lines(
                None if self.journal is None else self.journal.stats(),
                self.recovered,
            )
        )
        for shard, raw in self._probe("metrics", extra={"type_lines": False}):
            if not isinstance(raw, Exception):
                parts.append(raw)
        return "".join(parts)

    def drain_summary(self) -> str | None:
        if self.telemetry is None:
            return None
        return self.telemetry.drain_summary()

    def _bump(self, name: str, value: int = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + value

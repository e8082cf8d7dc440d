"""Chain snapshot epochs and the per-epoch warm solver state.

The service amortizes work across requests that see the *same* chain:
one :class:`~repro.core.perf.cache.SolverCache` (component closures +
base world enumerations) and one
:class:`~repro.core.modules.ModuleUniverse` (the practical-
configuration decomposition the ladder's degraded rungs use) per
snapshot, plus a result memo deduplicating identical requests (the
hot-target pattern: many clients asking about the same popular
denominations).  All three hold pure derived data — sharing them can
change only *when* the work happens, never what any request selects.

A snapshot is immutable.  When the chain grows (a ``commit`` op), the
service derives a *new* snapshot with the epoch incremented; requests
pinned to an older epoch are rejected with ``stale_epoch`` rather than
silently answered against history they did not ask about.  There is
one way to derive it: the commit is applied as an :class:`EpochDelta`
via :meth:`ChainSnapshot.advance` — the solver cache is advanced
component-wise, the module decomposition is extended locally under
Thm 6.1's superset-or-disjoint rule (or dropped, to be rebuilt on
first use, when the rule does not apply), and only state the new ring
can actually reach is invalidated.  Answers are byte-identical to a
cold rebuild at the same chain (the caches hold pure derived data);
``tests/test_epoch_delta.py`` holds the live service to a from-scratch
:class:`SelectionService <repro.service.daemon.SelectionService>`
oracle.

With a :class:`~repro.service.partition.TokenPartition` installed the
snapshot additionally holds one lazily built *sub-snapshot per batch*
(the batch's disjoint universe, its batch-local ring history, and that
slice's own warm cache/modules/memo).  Because batches are disjoint, a
commit touches exactly one batch: every *other* batch's sub-snapshot
— warm state and memo included — is carried into the new epoch
unchanged, since the (universe, rings) pair it solves against did not
move, and the touched batch's sub-snapshot is advanced like an
unpartitioned one.

:meth:`ServiceState.admit_commit` is the one admission path for a
commit *request* (rid dedup, sequence numbering, write-ahead
journaling); :meth:`ServiceState.commit` is the state transition
alone.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

from ..core.modules import ModuleUniverse
from ..core.perf.cache import SolverCache
from ..core.problem import DamsInstance
from ..core.ring import Ring, TokenUniverse
from ..obs import events
from .journal import Journal
from .partition import TokenPartition
from .telemetry import ServiceTelemetry

__all__ = [
    "AUTO_RID_PREFIX",
    "ChainSnapshot",
    "DuplicateRingId",
    "EpochDelta",
    "ReservedRingId",
    "ServiceState",
]

#: Ring ids the service assigns to anonymous commits (``svc:<seq>``).
#: Clients may not name rings with it, so an assigned id can never
#: collide with (or be shadowed by) one a client chose.
AUTO_RID_PREFIX = "svc:"


class DuplicateRingId(ValueError):
    """A ring id is already on the chain."""


class ReservedRingId(ValueError):
    """A commit request named its ring with :data:`AUTO_RID_PREFIX`."""


@dataclass(slots=True)
class EpochDelta:
    """One commit's worth of chain growth, plus what the advance kept.

    The input half is ``ring`` (the accepted ring) and ``touched_batch``
    (its batch under the partition, ``None`` unpartitioned).  The
    remaining fields are a report filled in by
    :meth:`ChainSnapshot.advance`: how much warm state survived the
    commit and how much was selectively invalidated.  The service
    accumulates these into the ``delta.*`` counters surfaced by
    ``stats``/``metrics``.
    """

    ring: Ring
    touched_batch: int | None = None
    worlds_retained: int = 0
    worlds_invalidated: int = 0
    kernel_retained: int = 0
    kernel_invalidated: int = 0
    modules_extended: int = 0
    modules_rebuilt: int = 0
    memo_dropped: int = 0
    parts_retained: int = 0

    def as_counters(self) -> dict[str, int]:
        return {
            "worlds_retained": self.worlds_retained,
            "worlds_invalidated": self.worlds_invalidated,
            "kernel_retained": self.kernel_retained,
            "kernel_invalidated": self.kernel_invalidated,
            "modules_extended": self.modules_extended,
            "modules_rebuilt": self.modules_rebuilt,
            "memo_dropped": self.memo_dropped,
            "parts_retained": self.parts_retained,
        }


@dataclass(slots=True)
class ChainSnapshot:
    """One immutable view of the chain, plus its lazily built warm state.

    Attributes:
        epoch: monotonically increasing snapshot counter (0 at start).
        universe: the mixin universe T of this snapshot.
        rings: the ring history of this snapshot, in proposal order.
    """

    epoch: int
    universe: TokenUniverse
    rings: tuple[Ring, ...]
    partition: TokenPartition | None = None
    _cache: SolverCache | None = field(default=None, repr=False)
    _modules: ModuleUniverse | None = field(default=None, repr=False)
    _memo: dict = field(default_factory=dict, repr=False)
    _parts: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def instance(self, target: str, c: float, ell: int) -> DamsInstance:
        """A per-request DA-MS instance over this snapshot."""
        return DamsInstance(self.universe, list(self.rings), target, c=c, ell=ell)

    def solve_view(self, target: str) -> "ChainSnapshot":
        """The snapshot ``target`` solves against.

        Unpartitioned this is the snapshot itself.  Partitioned it is
        the target's *batch sub-snapshot*: the batch's disjoint
        universe, its batch-local ring history, and that slice's own
        lazily built solver cache / module decomposition / result memo
        (built once per epoch per batch, shared by every request that
        routes there).

        Raises:
            KeyError: partitioned and ``target`` is in no batch.
        """
        if self.partition is None:
            return self
        batch = self.partition.batch_of(target)
        with self._lock:
            sub = self._parts.get(batch)
            if sub is None:
                sub = ChainSnapshot(
                    epoch=self.epoch,
                    universe=self.partition.universe_of(batch),
                    rings=self.partition.rings_of(batch, self.rings),
                )
                self._parts[batch] = sub
        return sub

    @property
    def cache_built(self) -> bool:
        if self.partition is None:
            return self._cache is not None
        with self._lock:
            return any(sub.cache_built for sub in self._parts.values())

    def solver_cache(self) -> SolverCache:
        """The snapshot's shared :class:`SolverCache` (built on first use)."""
        with self._lock:
            if self._cache is None:
                self._cache = SolverCache(self.universe, list(self.rings))
            return self._cache

    def module_universe(self) -> ModuleUniverse:
        """The snapshot's shared practical-configuration decomposition."""
        with self._lock:
            if self._modules is None:
                self._modules = ModuleUniverse(self.universe, list(self.rings))
            return self._modules

    def advance(self, delta: EpochDelta) -> "ChainSnapshot":
        """The next epoch's snapshot, keeping warm state the ring misses.

        Every derived structure the new ring provably cannot affect is
        carried over:

        * the :class:`SolverCache` is advanced component-wise
          (:meth:`SolverCache.advance`) — world sets and kernel states
          of token-overlap components the ring does not touch survive;
        * the :class:`ModuleUniverse` is extended locally under the
          superset-or-disjoint rule (:meth:`ModuleUniverse.extended`,
          Thm 6.1); when the rule does not apply it is dropped and
          rebuilt on first use, never inside the commit;
        * partitioned, untouched batch sub-snapshots are carried whole
          (their universe and rings did not move) and the *touched*
          batch's sub-snapshot is itself advanced;
        * the result memo of any snapshot that gained a ring is cleared:
          a selection is a function of the whole (sub-)history, and the
          new ring may legally change the chosen ring even for targets
          in untouched components — only untouched *batches* (disjoint
          universes) may keep their memo.

        ``self`` is left untouched; in-flight batches pinned to it keep
        serving against the old epoch.  The result is byte-identical in
        behavior to a cold rebuild — pinned by the cold-rebuild oracle
        tests in ``tests/test_epoch_delta.py``.
        """
        if self.partition is None:
            return self._advance_flat(delta, self.epoch + 1)
        head = ChainSnapshot(
            epoch=self.epoch + 1,
            universe=self.universe,
            rings=self.rings + (delta.ring,),
            partition=self.partition,
        )
        with self._lock:
            for batch, sub in self._parts.items():
                if batch == delta.touched_batch:
                    head._parts[batch] = sub._advance_flat(delta, sub.epoch + 1)
                else:
                    head._parts[batch] = sub
                    delta.parts_retained += 1
        return head

    def _advance_flat(self, delta: EpochDelta, epoch: int) -> "ChainSnapshot":
        """Advance an unpartitioned snapshot (or one batch sub-snapshot)."""
        ring = delta.ring
        head = ChainSnapshot(
            epoch=epoch, universe=self.universe, rings=self.rings + (ring,)
        )
        with self._lock:
            if self._cache is not None:
                head._cache, report = self._cache.advance(ring)
                delta.worlds_retained += report.worlds_retained
                delta.worlds_invalidated += report.worlds_invalidated
                delta.kernel_retained += report.kernel_retained
                delta.kernel_invalidated += report.kernel_invalidated
            if self._modules is not None:
                head._modules = self._modules.extended(ring)
                if head._modules is None:
                    delta.modules_rebuilt += 1
                else:
                    delta.modules_extended += 1
            delta.memo_dropped += len(self._memo)
        return head

    def result_memo(self) -> dict:
        """The snapshot's solved-request memo (hot-target deduplication).

        Selections are pure functions of (snapshot, solve parameters),
        so two identical requests against one snapshot must produce
        identical answers — the daemon stores the first and replays it
        for the rest.  The memo is never carried into a snapshot that
        gained a ring (only untouched batch sub-snapshots keep theirs);
        only the single worker thread mutates it.
        """
        return self._memo


class ServiceState:
    """The mutable head: which snapshot is current.

    Thread-safe; the front-ends (socket connections, the stdio loop)
    call :meth:`admit_commit` / :meth:`current` concurrently with the
    worker thread reading :meth:`current` at batch-execution time.
    The ring ids on the chain and the next proposal sequence number are
    kept alongside the head, so admitting a commit costs the same at
    any chain length.
    """

    def __init__(
        self,
        universe: TokenUniverse,
        rings: Sequence[Ring] = (),
        partition: TokenPartition | None = None,
        epoch: int = 0,
    ) -> None:
        self._lock = threading.Lock()
        # Serializes admissions so WAL frame order always matches the
        # order state mutations apply (commits arrive concurrently from
        # independent socket connections).
        self._commit_lock = threading.Lock()
        rings = tuple(rings)
        if partition is not None:
            for ring in rings:
                partition.batch_of_ring(ring.tokens)
        self._head = ChainSnapshot(
            epoch=epoch, universe=universe, rings=rings, partition=partition
        )
        self._rids = {ring.rid for ring in rings}
        self._next_seq = 1 + max((ring.seq for ring in rings), default=-1)
        self.epochs_advanced = 0
        self.caches_invalidated = 0
        self.delta_counters: dict[str, int] = {
            "worlds_retained": 0,
            "worlds_invalidated": 0,
            "kernel_retained": 0,
            "kernel_invalidated": 0,
            "modules_extended": 0,
            "modules_rebuilt": 0,
            "memo_dropped": 0,
            "parts_retained": 0,
        }

    def current(self) -> ChainSnapshot:
        """The head snapshot (immutable — safe to use without the lock)."""
        with self._lock:
            return self._head

    @property
    def epoch(self) -> int:
        return self.current().epoch

    def commit(self, ring: Ring) -> ChainSnapshot:
        """Append an accepted ring; returns the new head snapshot.

        The one epoch transition: the head is advanced through
        :meth:`ChainSnapshot.advance`, so warm worlds, kernel states and
        module decompositions survive for every component/batch the
        ring does not touch, and the per-commit retention report is
        accumulated into :attr:`delta_counters`.  No journal I/O
        happens here — :meth:`admit_commit` owns that.

        Raises:
            DuplicateRingId: ``ring.rid`` is already on the chain.
            ValueError: (partitioned) a ring that spans batches / names
                unknown tokens.
        """
        with self._lock:
            old = self._head
            if ring.rid in self._rids:
                raise DuplicateRingId(f"duplicate ring id {ring.rid!r} in commit")
            touched = None
            if old.partition is not None:
                touched = old.partition.batch_of_ring(ring.tokens)
            delta = EpochDelta(ring=ring, touched_batch=touched)
            head = old.advance(delta)
            self._head = head
            self._rids.add(ring.rid)
            self._next_seq = max(self._next_seq, ring.seq + 1)
            self.epochs_advanced += 1
            for name, value in delta.as_counters().items():
                self.delta_counters[name] += value
            # Dropped warm *solver* state only: every commit drops the
            # memo of what it touched, which delta.memo_dropped counts.
            if delta.worlds_invalidated or delta.kernel_invalidated or delta.modules_rebuilt:
                self.caches_invalidated += 1
        if events.enabled():
            events.emit(events.EpochAdvanced(epoch=head.epoch, rings=len(head.rings)))
        return head

    def admit_commit(
        self,
        tokens: Sequence[str],
        c: float,
        ell: int,
        rid: str | None = None,
        *,
        journal: Journal | None = None,
        telemetry: ServiceTelemetry | None = None,
    ) -> tuple[ChainSnapshot, Ring | None]:
        """Admit one commit request: the only way a ``commit`` op grows the chain.

        Builds the :class:`Ring` (an anonymous request gets
        ``svc:<seq>``), checks its id and batch-locality, journals it,
        applies it with :meth:`commit`, compacts the journal when due
        and marks the epoch advance in ``telemetry``.  Every check runs
        *before* the write-ahead frame lands, so a rejected commit never
        reaches the journal — the discipline recovery depends on.

        Idempotent by ring id: a ``rid`` already on the chain returns
        ``(head, None)`` with the head unchanged — the dedup a retrying
        client (resending across a daemon restart) relies on for
        exactly-once semantics.  Otherwise returns ``(head, ring)``.

        Raises:
            ReservedRingId: ``rid`` starts with :data:`AUTO_RID_PREFIX`.
            DuplicateRingId: the assigned ``svc:<seq>`` id is already on
                the chain (an initial history named a ring that way).
            ValueError: an empty ring, invalid (c, l) (a non-finite
                ``c`` included), or (partitioned) a ring that spans
                batches / names unknown tokens.
        """
        if not math.isfinite(c):
            raise ValueError(f"diversity parameter c must be finite, got {c!r}")
        if rid and rid.startswith(AUTO_RID_PREFIX):
            raise ReservedRingId(
                f"ring id {rid!r} uses the prefix {AUTO_RID_PREFIX!r}, which "
                f"is reserved for ids the service assigns"
            )
        with self._commit_lock:
            if rid and rid in self._rids:
                return self.current(), None
            seq = self._next_seq
            ring = Ring(
                rid=rid or f"{AUTO_RID_PREFIX}{seq}",
                tokens=frozenset(tokens),
                c=c,
                ell=ell,
                seq=seq,
            )
            if ring.rid in self._rids:
                raise DuplicateRingId(f"duplicate ring id {ring.rid!r} in commit")
            head = self.current()
            partition = head.partition
            if partition is not None:
                partition.batch_of_ring(ring.tokens)
            if journal is not None:
                journal.append_commit(head.epoch + 1, ring)
            head = self.commit(ring)
            if journal is not None:
                journal.maybe_snapshot(
                    head.epoch, None if partition is None else partition.batches
                )
        if telemetry is not None:
            telemetry.epoch_advanced(head.epoch, len(head.rings))
        return head, ring

"""Columnar batch kernels for the BFS candidate verdict hot path.

A stratum of the BFS evaluates *many* candidates against the *same*
base world set (the worlds of the candidate's related rings), and the
closure worlds of candidate τ factorize exactly:

    worlds(base + τ)  =  ⨆_{t ∈ τ}  { (w, t) : w ∈ F_t },
    F_t               =  full & ~presence[t],

where ``presence[t]`` is the bitmask of base worlds already consuming
token ``t``.  Every question the feasibility check asks of the closure
world set is answerable from these per-token *slices* without ever
materializing a single closure world:

* **non-eliminated** — a base ring's (position, token) pair survives the
  extension iff its pair mask intersects ``U = ⋃ F_t``; a candidate
  token ``t`` itself survives iff ``F_t ≠ 0`` (this is exactly the
  closure-SDR-existence semantics of the incremental matcher);
* **HT determination** — for a base-ring target, a pair set with
  combined base mask ``m`` determines HT ``h`` iff ``m & U`` is nonzero
  and misses the complement of the target's HT mask ``H_h`` (built once
  with the state); adding a candidate-row pair ``(τ, t0)`` restricts to
  the single slice ``m & F_t0``; for the candidate-row target the
  determined HT is the unique ``ht(t)`` among the slices the mask
  touches, i.e. the one HT group whose complement (the union of the
  other groups) the mask misses;
* **DTRS sweep** — minimal determining pair sets enumerated per closure
  target in ascending size directly on the slice masks (the same
  dominance-pruned backtracking as ``WorldSet.dtrss_of``, with a pair
  set represented as a base mask plus at most one candidate slice), and
  *early-exited* at the first violating minimal DTRS.  A leaf is tested
  for the HT it determines before its pair set is built and checked for
  dominance, and a branch whose prefix already determines is cut: that
  prefix was a leaf at its own size, so it either returned ``dtrs``
  there (it violated) or it, or a found set inside it, dominates every
  leaf below.  A clean candidate pays the full sweep and earns an exact
  "feasible" verdict;
* **the flat pass** — before the sweep sets up anything, one pass over
  two candidate-independent tables of the base (the mask of every base
  ring token, the mask of every base pair) answers the commonest
  rejection: one related ring taking a candidate token pins the
  candidate's HT.  Let ``G_h`` be the union of the slices of the
  candidate tokens of HT ``h``.  The empty pair set determines the
  candidate's HT iff there is one group; otherwise a base pair with
  mask ``m`` is a determining set iff ``m`` touches exactly one
  ``G_h``, and it is minimal, since its only proper subset is the empty
  set.  Its HT multiset holds one token, so recursive (c, l)-diversity
  reads ``1 < c * tail`` with ``tail`` 1 when l = 1 and 0 otherwise: it
  fails unless l = 1 and c > 1.  The sweep meets that DTRS at size 1 of
  the candidate row, where no other size-1 set dominates it, so the
  pass changes when a ``dtrs`` verdict is found, never which.  On
  servebench's batches nearly every ``dtrs`` verdict is of this kind.

:func:`prefilter_chunk` returns verdicts in chunk order, up to and
including the first ``feasible`` one: Algorithm 2 stops at a stratum's
first feasible candidate, and the candidates after it are often
feasible too, so resolving them would pay the full sweep for verdicts
no one reads.  Verdicts are pure functions of (instance, candidate),
never of how the stream was chunked, and each names the gate the seed
per-candidate check fails first (``tests/test_perf_kernels.py`` pins
them against the frozen seed in :mod:`~repro.core.perf.reference`).

The masks are CPython big integers taken from the WorldSet's pair
masks: at the few-dozen-world sets the exact pipeline reaches,
``&``/``|`` on them costs less than any vectorized dispatch would.
"""

from __future__ import annotations

import time
from itertools import combinations as subset_combinations
from typing import Iterable, Sequence

from ...obs import events
from ..diversity import ht_labels_satisfy
from ..ring import Ring, TokenUniverse
from .worlds import _DEADLINE_STRIDE, DeadlineExceeded, WorldSet

__all__ = [
    "KERNEL_BATCH_SIZE",
    "BACKEND",
    "KernelBackend",
    "KernelState",
    "one_token_fails",
    "prefilter_chunk",
]

#: Candidates per batched pre-filter call.
KERNEL_BATCH_SIZE = 64


def one_token_fails(c: float, ell: int) -> bool:
    """Does a one-token HT multiset fail recursive (c, l)-diversity?

    ``not satisfies_recursive_diversity([1], c, ell)`` in closed form
    for l >= 1: the tail sum q_l + ... is 1 when l = 1 and 0 otherwise,
    so the test ``1 < c * tail`` passes exactly when l = 1 and c > 1.
    It depends on the requirement alone, never on the candidate.
    """
    return ell != 1 or not c > 1


class _Row:
    """Per base-ring-position mask bundle of a kernel state.

    ``complements`` pairs each HT the ring takes with the worlds where
    it takes another HT: a realizable mask determines the ring's HT
    ``h`` iff it misses ``h``'s complement.
    """

    __slots__ = ("ring", "token_masks", "complements", "pairs")

    def __init__(self, ring: Ring, token_masks: dict, ht_masks: dict, full: int) -> None:
        self.ring = ring
        self.token_masks = token_masks
        self.complements = [(ht, full ^ mask) for ht, mask in ht_masks.items()]
        self.pairs = sorted(token_masks.items())


class KernelState:
    """Columnar masks of one cached base world set.

    Holds, per base ring position, the (token -> world mask) table and
    the complements of its HT masks, plus the global token-presence
    masks — everything :meth:`verdict_of` needs to resolve a candidate
    with a handful of mask operations.  Bit ``w`` of a mask is set iff base
    world ``w`` is in it; ``full`` has every world's bit.

    Two flat, candidate-independent tables feed the opening pass of
    :meth:`verdict_of`: ``ring_token_masks``, the world mask of every
    token of every base ring (0 where no world gives the token to its
    ring), and ``pair_masks``, the mask of every realizable base
    (position, token) pair.
    """

    __slots__ = ("rows", "presence", "full", "ring_token_masks", "pair_masks")

    def __init__(self, rows: list[_Row], presence: dict[str, int], full: int) -> None:
        self.rows = rows
        self.presence = presence
        self.full = full
        self.ring_token_masks = [
            row.token_masks.get(name, 0) for row in rows for name in row.ring.tokens
        ]
        self.pair_masks = [mask for row in rows for _, mask in row.pairs]

    # -- bulk world extension ---------------------------------------------

    def slices_of(self, tokens: Iterable[str]) -> tuple[dict[str, int], int]:
        """One candidate's extended world set, factorized by token.

        ``slices[t]`` masks the base worlds where token ``t`` is free
        (the worlds extended by assigning ``t`` to the candidate row),
        in sorted token order, and ``union`` is their union.  The
        extended set has ``sum(s.bit_count() for s in slices.values())``
        worlds, equal to ``len(WorldSet(base.rings + [candidate]))``
        without materializing any of them.
        """
        presence = self.presence
        full = self.full
        slices: dict[str, int] = {}
        union = 0
        for name in sorted(tokens):
            held = presence.get(name)
            free = full if held is None else full & ~held
            slices[name] = free
            union |= free
        return slices, union

    # -- the batched feasibility pre-sweep --------------------------------

    def verdict_of(
        self,
        universe: TokenUniverse,
        tokens: frozenset[str],
        c: float,
        ell: int,
        deadline: float | None = None,
    ) -> str:
        """Resolve one candidate against the base table.

        Returns ``"eliminated"`` / ``"dtrs"`` (exact infeasibility,
        named after the seed check that fails first) or
        ``"feasible"`` (exact; the complete DTRS sweep found no
        violating minimal DTRS for any closure ring).  The candidate's
        own HT gate is the caller's job (it needs no kernel state).

        A flat pass over the two base tables answers first, and counts
        as one sweep step toward the deadline stride:

        * ``"eliminated"`` when a candidate token has no free world,
          or a base ring token's mask misses the slices' union;
        * ``"dtrs"`` when every slice shares one HT: the empty pair set
          determines the candidate's HT (a size-0 DTRS);
        * ``"dtrs"`` when one base pair's mask touches exactly one HT
          group of the slices: that size-1 pair set determines the
          candidate's HT and is minimal, since the empty set does not,
          and its one-token HT multiset fails (c, l) unless l = 1 and
          c > 1 (:func:`one_token_fails`).  The sweep would meet the
          same DTRS at size 1, where no other size-1 set can dominate
          it.

        Only then does the recursive sweep run.  It enumerates minimal
        determining pair sets per closure target in ascending size on
        the factorized masks and exits at the *first* violating minimal
        DTRS: no extended world is ever materialized and no enumeration
        runs past the violation.

        Raises:
            DeadlineExceeded: the pass or the sweep passed ``deadline``.
        """
        # The pass is the verdict's first step toward the deadline stride.
        if deadline is not None and 1 % _DEADLINE_STRIDE == 0:
            if time.perf_counter() > deadline:
                raise DeadlineExceeded("kernel DTRS sweep passed its deadline")
        slices, union = self.slices_of(tokens)
        ht_of = universe.ht_of
        # Non-eliminated over the closure: every candidate token has a
        # free world (so the union is nonzero), and every base ring
        # keeps every token possible.
        groups: dict[str, int] = {}
        for name, free in slices.items():
            if not free:
                return "eliminated"
            ht = ht_of(name)
            groups[ht] = groups.get(ht, 0) | free
        for mask in self.ring_token_masks:
            if not mask & union:
                return "eliminated"
        if len(groups) == 1:
            return "dtrs"
        if one_token_fails(c, ell):
            group_masks = tuple(groups.values())
            for mask in self.pair_masks:
                touched = 0
                for group in group_masks:
                    if mask & group:
                        touched += 1
                if touched == 1:
                    return "dtrs"
        return self._sweep(universe, slices, union, groups, c, ell, deadline)

    def _sweep(
        self,
        universe: TokenUniverse,
        slices: dict[str, int],
        union: int,
        slice_ht: dict[str, int],
        c: float,
        ell: int,
        deadline: float | None,
    ) -> str:
        """The complete DTRS sweep of :meth:`verdict_of`'s survivors.

        ``slice_ht`` groups the candidate row's slices by HT (tokens
        sharing an HT merge — determination is about HTs, not tokens).
        The size-0 check and the size-1+ backtracking share one
        dominance-pruned loop; the step count starts at the pass's one.
        """
        rows = self.rows
        count = len(rows)
        cand_position = count  # pseudo-position id of the candidate row
        steps = 1  # the pass took the first step
        # The candidate row determines HT h iff the mask touches h's
        # slices only, i.e. misses the union of the other groups.
        groups = list(slice_ht.items())
        cand_complements = []
        for ht, _ in groups:
            others = 0
            for other, mask in groups:
                if other != ht:
                    others |= mask
            cand_complements.append((ht, others))

        def sweep_target(target_index: int | None, complements, ring_c, ring_ell) -> bool:
            """True iff the target has a violating minimal DTRS.

            ``target_index`` is a base position, or None for the
            candidate row; ``complements`` are its (HT, complement)
            pairs.  Mirrors ``WorldSet.dtrss_of`` — ascending size,
            leaf-level dominance pruning, determining prefixes cut —
            but on factorized masks: a pair-set state is a base mask
            plus at most one candidate-row slice, and it exits at the
            first violating minimal determining set instead of
            enumerating them all.
            """
            # Size 0: the empty pair set over all extended worlds.  If
            # it determines, the empty DTRS (whose empty HT multiset
            # can never satisfy (c, l)-diversity) is the only one.
            for _, complement in complements:
                if not union & complement:
                    return True
            # Pair universe: the other base rows, plus the candidate
            # row itself when the target is a base ring.  The candidate
            # row comes last, so it is the last pair of any pair set.
            positions = [
                (index, rows[index].pairs)
                for index in range(count)
                if index != target_index
            ]
            if target_index is not None:
                positions.append((cand_position, sorted(slices.items())))
            buckets: dict[tuple[int, str], list[frozenset]] = {}

            def leaf_violates(pairs) -> bool:
                """A determining leaf: is it a violating minimal DTRS?"""
                pair_set = frozenset(pairs)
                for element in pair_set:
                    for existing in buckets.get(element, ()):
                        if existing <= pair_set:
                            return False
                if not ht_labels_satisfy(
                    map(universe.ht_of, {name for _, name in pair_set}), ring_c, ring_ell
                ):
                    return True
                buckets.setdefault(min(pair_set), []).append(pair_set)
                return False

            def descend(depth, chosen, base_mask, pairs) -> bool:
                nonlocal steps
                steps += 1
                if deadline is not None and steps % _DEADLINE_STRIDE == 0:
                    if time.perf_counter() > deadline:
                        raise DeadlineExceeded("kernel DTRS sweep passed its deadline")
                position, position_pairs = chosen[depth]
                if position == cand_position:
                    # A candidate-row pair fixes the slice: the leaf's
                    # worlds are the accumulated base mask within it.
                    for name, free in position_pairs:
                        mask = base_mask & free
                        if not mask:
                            continue
                        for _, complement in complements:
                            if not mask & complement:
                                if leaf_violates(pairs + ((position, name),)):
                                    return True
                                break
                    return False
                leaf = depth + 1 == len(chosen)
                for name, pair_mask in position_pairs:
                    narrowed = base_mask & pair_mask
                    realizable = narrowed & union
                    if not realizable:
                        continue
                    for _, complement in complements:
                        if not realizable & complement:
                            # Determining.  A leaf is tested as a DTRS;
                            # a prefix is cut: it was a leaf at its own
                            # size, so it returned dtrs there or a found
                            # set inside it dominates every leaf below.
                            if leaf and leaf_violates(pairs + ((position, name),)):
                                return True
                            break
                    else:
                        if not leaf and descend(
                            depth + 1, chosen, narrowed, pairs + ((position, name),)
                        ):
                            return True
                return False

            try:
                for size in range(1, len(positions) + 1):
                    for chosen in subset_combinations(positions, size):
                        if descend(0, chosen, self.full, ()):
                            return True
                return False
            finally:
                del descend  # it calls itself through its cell: break the cycle

        if sweep_target(None, cand_complements, c, ell):
            return "dtrs"
        for index, row in enumerate(rows):
            if sweep_target(index, row.complements, row.ring.c, row.ring.ell):
                return "dtrs"
        return "feasible"


class KernelBackend:
    """Builds a :class:`KernelState` from a cached base world set.

    Every state build goes through :meth:`build_state` on the one
    instance, :data:`BACKEND` (servebench's launcher times builds by
    wrapping this method).
    """

    __slots__ = ()

    def build_state(self, worlds: WorldSet, universe: TokenUniverse) -> KernelState:
        masks = worlds.pair_masks()
        full = worlds.full_mask
        presence: dict[str, int] = {}
        rows: list[_Row] = []
        for position, ring in enumerate(worlds.rings):
            token_masks: dict[str, int] = {}
            ht_masks: dict[str, int] = {}
            for token in worlds.tokens_by_position()[position]:
                mask = masks[(position, token)]
                name = worlds.token_name(token)
                token_masks[name] = mask
                presence[name] = presence.get(name, 0) | mask
                ht = universe.ht_of(name)
                ht_masks[ht] = ht_masks.get(ht, 0) | mask
            rows.append(_Row(ring, token_masks, ht_masks, full))
        return KernelState(rows, presence, full)


BACKEND = KernelBackend()


def prefilter_chunk(
    instance,
    cache,
    chunk: Sequence[tuple[str, ...]],
    deadline: float | None = None,
) -> list[str] | None:
    """Verdicts for one stratum chunk of mixin tuples.

    Returns verdicts (``"ht"`` | ``"eliminated"`` | ``"dtrs"`` |
    ``"feasible"``) in chunk order, aligned with ``chunk``'s prefix, up
    to and including the first ``"feasible"`` one — or ``None`` when
    the kernel passed the deadline mid-chunk.  Algorithm 2 returns the
    first feasible candidate of the stratum, so the in-order replay
    stops there and never reads past it; a chunk with no feasible
    candidate gets a verdict for every entry.

    Each verdict depends only on (instance, candidate), never on how
    the stream was chunked.  The chunk publishes one
    :class:`~repro.obs.events.KernelBatchScanned` event on every exit,
    carrying its solver-cache lookups (read off ``cache.stats``).
    """
    universe = instance.universe
    ht_of = universe.ht_of
    target = (instance.target_token,)
    c, ell = instance.c, instance.ell
    stats = cache.stats
    hits, misses = stats.worlds_hits, stats.worlds_misses
    verdicts: list[str] = []
    aborted = True
    try:
        for mixin_tuple in chunk:
            tokens = frozenset(mixin_tuple + target)
            if not ht_labels_satisfy(map(ht_of, tokens), c, ell):
                verdicts.append("ht")
                continue
            state = cache.kernel_state(cache.related_key(tokens), deadline=deadline)
            verdict = state.verdict_of(universe, tokens, c, ell, deadline=deadline)
            verdicts.append(verdict)
            if verdict == "feasible":
                break
        aborted = False
    except DeadlineExceeded:
        return None
    finally:
        if events.enabled():
            events.emit(
                events.KernelBatchScanned(
                    candidates=len(chunk),
                    resolved=len(verdicts),
                    worlds_hits=stats.worlds_hits - hits,
                    worlds_misses=stats.worlds_misses - misses,
                    aborted=aborted,
                )
            )
    return verdicts

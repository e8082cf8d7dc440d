"""Interned, bitmask-indexed token-RS combinations of a ring set.

The seed ``get_dtrss`` materialized ``list(enumerate_combinations(...))``
as a list of ``{rid: token}`` dicts for *every* (target, closure) call,
then re-scanned the whole list once per candidate pair set.  A
:class:`WorldSet` enumerates the combinations of a ring set once and
keeps them as **pair masks**: for each (ring position, token) pair, a
Python int whose bit ``w`` is set iff world ``w`` assigns that token
to that ring.  The worlds consistent with a candidate pair set are then
one big-integer AND per pair, and a pair set determines the target's
HT iff its world mask is non-zero and misses the complement of exactly
one of the target's HT masks (the worlds grouped by the HT of the
target's assigned token).

The masks are made during enumeration, not by a scan afterwards.
Worlds are numbered in backtracking order, so the worlds below one
backtracking node form a contiguous run of bits: the node ORs one range
mask into its (position, token) pair when its subtree returns, and the
last ring's tokens, one world each, are looped inline.  The cost is one
big-integer OR per node instead of one per world per ring.  The
per-ring token columns, the row tuples and the ``{rid: token}`` dicts
(``columns``, ``worlds``, ``as_dicts``) are views built from the masks
on first use; only tests and debugging read them.

DTRS enumeration (:meth:`WorldSet.dtrss_of`) walks the realizable pair
sets directly, pruning any branch whose partial mask is already zero.
A leaf is tested for the HT it determines, against complement masks
precomputed once per query, before its pair set is built and checked
for dominance; a branch whose prefix already determines is cut, since
that prefix was a leaf at its own size and dominates every leaf below.

The batch kernels (:mod:`~repro.core.perf.kernels`) build their
per-candidate slices from ``pair_masks`` / ``tokens_by_position`` /
``full_mask``.  A WorldSet is immutable once built and has one
construction path: every world set, a closure's included, is
enumerated from its ring list.
"""

from __future__ import annotations

import time
from array import array
from itertools import combinations as subset_combinations
from typing import Sequence

from ...obs import events
from ..ring import Ring, TokenUniverse

__all__ = ["WorldSet", "DeadlineExceeded"]

#: How many enumeration steps between deadline checks.
_DEADLINE_STRIDE = 2048

#: array typecode for token-index columns (token universes are small).
_COLUMN_TYPE = "i"


class DeadlineExceeded(RuntimeError):
    """Raised when a deadline passed mid-enumeration (budget threading)."""


def _bits(mask: int):
    """The indices of ``mask``'s set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WorldSet:
    """All token-RS combinations of a fixed ring sequence.

    Attributes:
        rings: the ring sequence (positional order is the world layout).
    """

    __slots__ = (
        "rings",
        "_count",
        "_position_of",
        "_token_names",
        "_token_index",
        "_pair_masks",
        "_tokens_by_position",
        "_full_mask",
        "_columns",
        "_rows",
        "_dtrs_cache",
    )

    def __init__(self, rings: Sequence[Ring], deadline: float | None = None) -> None:
        self.rings: list[Ring] = list(rings)
        self._position_of = {ring.rid: pos for pos, ring in enumerate(self.rings)}
        if len(self._position_of) != len(self.rings):
            raise ValueError("ring ids must be unique within a world set")
        names = sorted({token for ring in self.rings for token in ring.tokens})
        self._token_names = names
        self._token_index = {name: idx for idx, name in enumerate(names)}
        self._pair_masks, self._count = self._enumerate(deadline)
        if events.enabled():
            events.emit(events.WorldsBuilt(rings=len(self.rings), worlds=self._count))
        by_position: list[list[int]] = [[] for _ in self.rings]
        for position, token in self._pair_masks:
            by_position[position].append(token)
        for tokens in by_position:
            tokens.sort()
        self._tokens_by_position = by_position
        self._full_mask = (1 << self._count) - 1
        self._columns: tuple[array, ...] | None = None
        self._rows: list[tuple[int, ...]] | None = None
        self._dtrs_cache: dict[tuple[str, int | None], list] = {}

    # -- construction -----------------------------------------------------

    def _enumerate(self, deadline: float | None) -> tuple[dict[tuple[int, int], int], int]:
        """Backtracking SDR enumeration, most-constrained rings first.

        Returns the pair masks and the world count.  World ``w`` is the
        ``w``-th leaf in backtracking order, so a node's subtree holds
        a contiguous run of worlds and its pair takes that run as one
        range mask.
        """
        count = len(self.rings)
        if not count:
            return {}, 1
        index = self._token_index
        candidates = [sorted(index[token] for token in ring.tokens) for ring in self.rings]
        order = sorted(range(count), key=lambda i: len(candidates[i]))
        # Per depth: the (token, pair key) choices of the ring placed there.
        choices = [
            [(token, (position, token)) for token in candidates[position]]
            for position in order
        ]
        last_choices = choices[-1]
        leaf_depth = count - 1
        masks: dict[tuple[int, int], int] = {}
        used: set[int] = set()
        steps = 0
        worlds = 0

        def backtrack(depth: int) -> None:
            nonlocal steps, worlds
            steps += 1
            if deadline is not None and steps % _DEADLINE_STRIDE == 0:
                if time.perf_counter() > deadline:
                    raise DeadlineExceeded("world enumeration passed its deadline")
            if depth == leaf_depth:
                for token, key in last_choices:
                    if token not in used:
                        masks[key] = masks.get(key, 0) | (1 << worlds)
                        worlds += 1
                return
            for token, key in choices[depth]:
                if token in used:
                    continue
                used.add(token)
                start = worlds
                backtrack(depth + 1)
                used.discard(token)
                if worlds != start:
                    masks[key] = masks.get(key, 0) | ((1 << worlds) - (1 << start))

        try:
            backtrack(0)
        finally:
            del backtrack  # it calls itself through its cell: break the cycle
        return masks, worlds

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def columns(self) -> tuple[array, ...]:
        """Per ring position, the token index it takes in each world
        (a view built from the pair masks on first use)."""
        if self._columns is None:
            columns = tuple(array(_COLUMN_TYPE, [0]) * self._count for _ in self.rings)
            for (position, token), mask in self._pair_masks.items():
                column = columns[position]
                for world in _bits(mask):
                    column[world] = token
            self._columns = columns
        return self._columns

    @property
    def worlds(self) -> list[tuple[int, ...]]:
        """Row view of the table (a view built on first use)."""
        if self._rows is None:
            if not self.rings:
                self._rows = [() for _ in range(self._count)]
            else:
                self._rows = list(zip(*self.columns))
        return self._rows

    @property
    def full_mask(self) -> int:
        """Bitmask with one set bit per world."""
        return self._full_mask

    @property
    def token_index(self) -> dict[str, int]:
        """Interning table: token name -> token index (read-only)."""
        return self._token_index

    def token_name(self, index: int) -> str:
        return self._token_names[index]

    def as_dicts(self) -> list[dict[str, str]]:
        """Worlds in the seed's {rid: token} form (tests, debugging)."""
        rids = [ring.rid for ring in self.rings]
        return [
            {rid: self._token_names[idx] for rid, idx in zip(rids, world)}
            for world in self.worlds
        ]

    def pair_masks(self) -> dict[tuple[int, int], int]:
        """(ring position, token index) -> bitmask of consistent worlds."""
        return self._pair_masks

    def tokens_by_position(self) -> list[list[int]]:
        """Per ring position: the sorted token indices it takes in any world.

        The per-position index the seed lacked (it linearly scanned
        every pair-mask entry per ``possible_tokens_of`` call).
        """
        return self._tokens_by_position

    def possible_tokens_of(self, rid: str) -> frozenset[str]:
        """Tokens the ring takes in at least one world (indexed lookup)."""
        position = self._position_of[rid]
        return frozenset(
            self._token_names[token]
            for token in self._tokens_by_position[position]
        )

    # -- DTRS enumeration (Algorithm 3 on masks) ---------------------------

    def dtrss_of(
        self,
        target_rid: str,
        universe: TokenUniverse,
        max_size: int | None = None,
        deadline: float | None = None,
    ):
        """Minimal DTRSs of ``target_rid`` within this ring set.

        Returns the same set of :class:`~repro.core.dtrs.Dtrs` objects
        as the seed ``get_dtrss`` (order canonicalized: by size, then by
        sorted pairs).  Results are memoized per (target, max_size).
        """
        from ..dtrs import Dtrs

        key = (target_rid, max_size)
        cached = self._dtrs_cache.get(key)
        if cached is not None:
            if events.enabled():
                events.emit(events.DtrsSweep(memo_hit=True, found=len(cached)))
            return list(cached)

        if target_rid not in self._position_of:
            raise ValueError("target ring must be a member of the ring set")
        if not self._count:
            self._dtrs_cache[key] = []
            if events.enabled():
                events.emit(events.DtrsSweep(memo_hit=False, found=0))
            return []

        target_pos = self._position_of[target_rid]
        masks = self._pair_masks
        by_position = self._tokens_by_position
        full = self._full_mask

        # The target's HT masks (worlds grouped by the HT of the
        # target's assigned token), as complements: a realizable mask
        # determines HT h iff it misses h's complement.
        ht_masks: dict[str, int] = {}
        for token in by_position[target_pos]:
            ht = universe.ht_of(self._token_names[token])
            ht_masks[ht] = ht_masks.get(ht, 0) | masks[(target_pos, token)]
        complements = [(ht, full ^ ht_mask) for ht, ht_mask in ht_masks.items()]

        # Size 0: the empty pair set. If it determines (single HT over
        # all worlds), it dominates everything else — done immediately.
        for ht, complement in complements:
            if not complement:
                result = [Dtrs(pairs=frozenset(), determined_ht=ht)]
                self._dtrs_cache[key] = result
                if events.enabled():
                    events.emit(events.DtrsSweep(memo_hit=False, found=1))
                return list(result)

        # Per non-target ring: the tokens it takes across worlds, with
        # their masks — the realizable pair universe.
        positions = [pos for pos in range(len(self.rings)) if pos != target_pos]
        pairs_by_position: dict[int, list[tuple[int, int]]] = {
            pos: [(token, masks[(pos, token)]) for token in by_position[pos]]
            for pos in positions
        }

        cap = len(positions) if max_size is None else min(max_size, len(positions))
        index = _DominanceIndex()
        found: list[tuple[frozenset[tuple[int, int]], str]] = []
        steps = 0

        def descend(depth: int, mask: int, pairs: tuple[tuple[int, int], ...]) -> None:
            nonlocal steps
            steps += 1
            if deadline is not None and steps % _DEADLINE_STRIDE == 0:
                if time.perf_counter() > deadline:
                    raise DeadlineExceeded("DTRS enumeration passed its deadline")
            pos = chosen_positions[depth]
            if depth == leaf_depth:
                for token, pair_mask in pairs_by_position[pos]:
                    narrowed = mask & pair_mask
                    if not narrowed:
                        continue  # unrealizable: no world holds these pairs
                    for ht, complement in complements:
                        if not narrowed & complement:
                            pair_set = frozenset(pairs + ((pos, token),))
                            if not index.dominated(pair_set):
                                index.add(pair_set)
                                found.append((pair_set, ht))
                            break
                return
            for token, pair_mask in pairs_by_position[pos]:
                narrowed = mask & pair_mask
                if not narrowed:
                    continue
                for _, complement in complements:
                    if not narrowed & complement:
                        # The prefix determines: it was a leaf at its
                        # own size, so it dominates every leaf below.
                        break
                else:
                    descend(depth + 1, narrowed, pairs + ((pos, token),))

        try:
            for size in range(1, cap + 1):
                leaf_depth = size - 1
                for chosen_positions in subset_combinations(positions, size):
                    descend(0, full, ())
        finally:
            del descend  # it calls itself through its cell: break the cycle

        result = [
            Dtrs(
                pairs=frozenset(
                    (self._token_names[token], self.rings[pos].rid)
                    for pos, token in pair_set
                ),
                determined_ht=ht,
            )
            for pair_set, ht in found
        ]
        result.sort(key=lambda d: (len(d.pairs), sorted(d.pairs)))
        self._dtrs_cache[key] = result
        if events.enabled():
            events.emit(events.DtrsSweep(memo_hit=False, found=len(result)))
        return list(result)


class _DominanceIndex:
    """Sublinear ``dominated()`` for minimal-set enumeration.

    Found sets are bucketed by their minimum element; a set ``f`` can
    only dominate ``candidate`` if ``min(f)`` is one of candidate's own
    elements, so the check scans |candidate| small buckets instead of
    the full found list.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[tuple[int, int], list[frozenset[tuple[int, int]]]] = {}

    def add(self, pairs: frozenset[tuple[int, int]]) -> None:
        anchor = min(pairs)
        self._buckets.setdefault(anchor, []).append(pairs)

    def dominated(self, candidate: frozenset[tuple[int, int]]) -> bool:
        for element in candidate:
            for existing in self._buckets.get(element, ()):
                if existing <= candidate:
                    return True
        return False

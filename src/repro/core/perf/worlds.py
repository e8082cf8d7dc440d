"""Interned, columnar, bitmask-indexed token-RS combinations of a ring set.

The seed ``get_dtrss`` materialized ``list(enumerate_combinations(...))``
as a list of ``{rid: token}`` dicts for *every* (target, closure) call,
then re-scanned the whole list once per candidate pair set.  A
:class:`WorldSet` enumerates the combinations of a ring set once,
storing them **columnar**: one ``array`` of interned token indices per
ring position (a column-per-ring token-index table) instead of a
row-major ``list[tuple[int, ...]]``.  Rows (`.worlds`) are materialized
lazily only when something actually needs them (``as_dicts``, the
per-candidate ``extend`` fallback, tests).  Two derived structures are
built from the columns:

* ``pair mask`` — for each (ring position, token) pair, a Python int
  whose bit ``w`` is set iff world ``w`` assigns that token to that
  ring.  The worlds consistent with a candidate pair set are then one
  big-integer AND per pair, and
* ``HT masks`` — per target ring, the worlds grouped by the HT of the
  target's assigned token; a candidate determines an HT iff its world
  mask is non-zero and fits inside exactly one HT mask.

Together these replace the seed's memoization-free ``_determined_ht``
world scans with O(|pairs| + |HTs|) big-integer operations, and DTRS
enumeration walks the realizable pair sets directly (pruning any branch
whose partial mask is already zero) instead of re-deriving them from
every world.

The columnar layout is also what the batch kernels
(:mod:`~repro.core.perf.kernels`) consume: ``columns`` /
``token_index`` / ``full_mask`` expose the table so a whole stratum of
candidate rings can be evaluated against one base world set in bulk.

A WorldSet is immutable once built; :meth:`extend` derives the world
set of ``closure = base + [candidate]`` from the base worlds without
re-running the backtracking enumeration — the shared-prefix trick the
BFS solver leans on, since thousands of candidates of a given size
share the same related-ring base.
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


class WorldSet:
    """All token-RS combinations of a fixed ring sequence.

    Attributes:
        rings: the ring sequence (positional order is the world layout).
        columns: the columnar table — one ``array`` of token indices per
            ring position; ``columns[p][w]`` is the token ring ``p``
            consumes in world ``w``.
    """

    __slots__ = (
        "rings",
        "columns",
        "_count",
        "_rows",
        "_position_of",
        "_token_names",
        "_token_index",
        "_pair_masks",
        "_tokens_by_position",
        "_full_mask",
        "_dtrs_cache",
    )

    def __init__(
        self,
        rings: Sequence[Ring],
        deadline: float | None = None,
        _columns: tuple[array, ...] | None = None,
        _count: int | None = None,
        _token_names: list[str] | None = None,
    ) -> None:
        self.rings: list[Ring] = list(rings)
        self._position_of = {ring.rid: pos for pos, ring in enumerate(self.rings)}
        if len(self._position_of) != len(self.rings):
            raise ValueError("ring ids must be unique within a world set")
        if _token_names is None:
            names = sorted({token for ring in self.rings for token in ring.tokens})
        else:
            names = _token_names
        self._token_names = names
        self._token_index = {name: idx for idx, name in enumerate(names)}
        if _columns is None:
            self.columns, self._count = self._enumerate(deadline)
            if events.enabled():
                events.emit(
                    events.WorldsBuilt(
                        rings=len(self.rings), worlds=self._count
                    )
                )
        else:
            self.columns = _columns
            self._count = (
                _count if _count is not None
                else (len(_columns[0]) if _columns else 0)
            )
        self._rows: list[tuple[int, ...]] | None = None
        self._pair_masks: dict[tuple[int, int], int] | None = None
        self._tokens_by_position: list[list[int]] | None = None
        self._full_mask = (1 << self._count) - 1
        self._dtrs_cache: dict[tuple[str, int | None], list] = {}

    # -- construction -----------------------------------------------------

    def _enumerate(self, deadline: float | None) -> tuple[tuple[array, ...], int]:
        """Backtracking SDR enumeration, most-constrained rings first."""
        count = len(self.rings)
        candidates = [
            sorted(self._token_index[token] for token in ring.tokens)
            for ring in self.rings
        ]
        order = sorted(range(count), key=lambda i: len(candidates[i]))
        columns = tuple(array(_COLUMN_TYPE) for _ in range(count))
        assignment = [0] * count
        used: set[int] = set()
        steps = 0
        worlds = 0

        def backtrack(depth: int) -> None:
            nonlocal steps, worlds
            steps += 1
            if deadline is not None and steps % _DEADLINE_STRIDE == 0:
                if time.perf_counter() > deadline:
                    raise DeadlineExceeded("world enumeration passed its deadline")
            if depth == count:
                for position in range(count):
                    columns[position].append(assignment[position])
                worlds += 1
                return
            position = order[depth]
            for token in candidates[position]:
                if token in used:
                    continue
                used.add(token)
                assignment[position] = token
                backtrack(depth + 1)
                used.discard(token)

        try:
            backtrack(0)
        finally:
            del backtrack  # it calls itself through its cell: break the cycle
        return columns, (worlds if count else 1)

    def extend(self, candidate: Ring, deadline: float | None = None) -> "WorldSet":
        """The world set of ``self.rings + [candidate]``.

        Every world of the closure is a base world plus one candidate
        token unused in that world, so the closure worlds come straight
        from the base table — no backtracking re-run.  This is exact:
        the candidate occupies the final ring position.
        """
        names = list(self._token_names)
        index = dict(self._token_index)
        for token in sorted(candidate.tokens):
            if token not in index:
                index[token] = len(names)
                names.append(token)
        cand_indices = sorted(index[token] for token in candidate.tokens)

        extended = tuple(array(_COLUMN_TYPE) for _ in range(len(self.rings) + 1))
        emitted = 0
        if not self.rings:
            for idx in cand_indices:
                extended[0].append(idx)
            emitted = len(cand_indices)
        else:
            cand_column = extended[-1]
            base_columns = self.columns
            positions = range(len(base_columns))
            for world in self.worlds:
                used = set(world)
                for idx in cand_indices:
                    if idx in used:
                        continue
                    # The stride counts *emitted* worlds, not base
                    # worlds: a base set with many open candidate
                    # tokens multiplies the output, and the deadline
                    # must track the work actually done.
                    emitted += 1
                    if deadline is not None and emitted % _DEADLINE_STRIDE == 0:
                        if time.perf_counter() > deadline:
                            raise DeadlineExceeded(
                                "world extension passed its deadline"
                            )
                    for position in positions:
                        extended[position].append(world[position])
                    cand_column.append(idx)
        if events.enabled():
            events.emit(events.WorldsExtended(worlds=emitted))
        return WorldSet(
            self.rings + [candidate],
            _columns=extended,
            _count=emitted,
            _token_names=names,
        )

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def worlds(self) -> list[tuple[int, ...]]:
        """Row view of the table (lazy; columns are the primary storage)."""
        if self._rows is None:
            if not self.columns:
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
        """Interning table: token name -> column value (read-only)."""
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
        if self._pair_masks is None:
            masks: dict[tuple[int, int], int] = {}
            for position, column in enumerate(self.columns):
                for w, token in enumerate(column):
                    key = (position, token)
                    masks[key] = masks.get(key, 0) | (1 << w)
            self._pair_masks = masks
            by_position: list[list[int]] = [[] for _ in self.rings]
            for position, token in masks:
                by_position[position].append(token)
            for tokens in by_position:
                tokens.sort()
            self._tokens_by_position = by_position
        return self._pair_masks

    def tokens_by_position(self) -> list[list[int]]:
        """Per ring position: the sorted token indices it takes in any world.

        Built alongside :meth:`pair_masks` — the per-position index the
        seed lacked (it linearly scanned every pair-mask entry per
        ``possible_tokens_of`` call).
        """
        if self._tokens_by_position is None:
            self.pair_masks()
        return self._tokens_by_position

    def possible_tokens_of(self, rid: str) -> frozenset[str]:
        """Tokens the ring takes in at least one world (indexed lookup)."""
        position = self._position_of[rid]
        return frozenset(
            self._token_names[token]
            for token in self.tokens_by_position()[position]
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
        masks = self.pair_masks()

        # HT masks of the target: worlds grouped by the HT of the
        # target's assigned token.
        ht_masks: dict[str, int] = {}
        for token in self.tokens_by_position()[target_pos]:
            ht = universe.ht_of(self._token_names[token])
            ht_masks[ht] = ht_masks.get(ht, 0) | masks[(target_pos, token)]
        full = self._full_mask

        def determined_ht(mask: int) -> str | None:
            # Memoization lives in the precomputed masks: the check is a
            # couple of big-int ANDs instead of a world scan.
            for ht, ht_mask in ht_masks.items():
                if mask & ~ht_mask == 0:
                    return ht
            return None

        # Per non-target ring: the tokens it takes across worlds, with
        # their masks — the realizable pair universe.
        positions = [pos for pos in range(len(self.rings)) if pos != target_pos]
        pairs_by_position: dict[int, list[tuple[int, int]]] = {
            pos: [
                (token, masks[(pos, token)])
                for token in self.tokens_by_position()[pos]
            ]
            for pos in positions
        }

        cap = len(positions) if max_size is None else min(max_size, len(positions))
        index = _DominanceIndex()
        found: list[tuple[frozenset[tuple[int, int]], str]] = []
        steps = 0

        def check_deadline() -> None:
            nonlocal steps
            steps += 1
            if deadline is not None and steps % _DEADLINE_STRIDE == 0:
                if time.perf_counter() > deadline:
                    raise DeadlineExceeded("DTRS enumeration passed its deadline")

        # Size 0: the empty pair set. If it determines (single HT over
        # all worlds), it dominates everything else — done immediately.
        ht = determined_ht(full)
        if ht is not None:
            result = [Dtrs(pairs=frozenset(), determined_ht=ht)]
            self._dtrs_cache[key] = result
            if events.enabled():
                events.emit(events.DtrsSweep(memo_hit=False, found=1))
            return list(result)

        def descend(depth: int, mask: int, pairs: tuple[tuple[int, int], ...]) -> None:
            check_deadline()
            if mask == 0:
                return  # unrealizable — no world holds these pairs
            if depth == size:
                pair_set = frozenset(pairs)
                if index.dominated(pair_set):
                    return
                ht = determined_ht(mask)
                if ht is not None:
                    index.add(pair_set)
                    found.append((pair_set, ht))
                return
            pos = chosen_positions[depth]
            for token, pair_mask in pairs_by_position[pos]:
                descend(depth + 1, mask & pair_mask, pairs + ((pos, token),))

        try:
            for size in range(1, cap + 1):
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

"""Practical configurations — super RSs, fresh tokens and modules (Sec 6.1).

The first practical configuration requires every new ring to be a
superset of some existing rings and disjoint from all the others.  The
building blocks a selector may combine are then:

* **super RSs** (Definition 7): rings with no later-proposed strict
  superset inside the related ring set, and
* **fresh tokens** (Definition 8): tokens not yet in any ring.

Both are wrapped in a uniform :class:`Module` (the "modules"/"players"
of Algorithms 4 and 5).  Under this configuration, Theorem 6.1 turns
DTRS enumeration into a polynomial check: the only DTRS token sets of a
ring r_i are psi_{i,j} = r_i \\ T~_{i,j} for HTs h_j frequent enough
that v_{i*} >= |r_i| - |T~_{i,j}| + 1.

The second practical configuration (Theorem 6.4) says: target
(c, l+1)-diversity for the new ring, and every DTRS of it is guaranteed
to satisfy (c, l).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .diversity import ht_counts_satisfy
from .ring import Ring, TokenUniverse

__all__ = [
    "Module",
    "ModuleUniverse",
    "find_super_rings",
    "find_fresh_tokens",
    "subset_count",
    "decompose",
    "is_superset_or_disjoint",
    "theorem61_dtrs_token_sets",
    "ring_is_recursive_diverse_config",
    "second_config_ell",
]


@dataclass(frozen=True, slots=True)
class Module:
    """A selectable unit: one super RS or one fresh token.

    Attributes:
        mid: module id ("s:<rid>" or "f:<token>").
        tokens: tokens the module contributes to a new ring.
        is_super: True for super RSs, False for fresh tokens.
        source_rid: the super RS's ring id (None for fresh tokens).
    """

    mid: str
    tokens: frozenset[str]
    is_super: bool
    source_rid: str | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    def ht_counts(self, universe: TokenUniverse) -> Counter[str]:
        return universe.ht_counts(self.tokens)


def find_super_rings(rings: Sequence[Ring]) -> list[Ring]:
    """Super RSs of Definition 7.

    A ring r_i is a super RS iff no ring proposed after it (higher seq)
    is a strict superset of it.

    One sweep in descending seq order maintains the token sets of all
    later-proposed rings, bucketed (and deduplicated) by size; a ring
    only needs comparing against strictly larger later sets, so
    module-universe construction stays fast when histories grow — the
    seed compared all O(n²) ring pairs.
    """
    order = sorted(range(len(rings)), key=lambda i: rings[i].seq, reverse=True)
    later_by_size: dict[int, set[frozenset[str]]] = {}
    super_indices: set[int] = set()

    position = 0
    while position < len(order):
        # Rings sharing a seq are mutually "not later": batch them.
        group_end = position
        seq = rings[order[position]].seq
        while group_end < len(order) and rings[order[group_end]].seq == seq:
            group_end += 1
        group = order[position:group_end]
        for index in group:
            tokens = rings[index].tokens
            if not any(
                size > len(tokens) and any(tokens < other for other in sets)
                for size, sets in later_by_size.items()
            ):
                super_indices.add(index)
        for index in group:
            tokens = rings[index].tokens
            later_by_size.setdefault(len(tokens), set()).add(tokens)
        position = group_end

    return [ring for index, ring in enumerate(rings) if index in super_indices]


def subset_count(ring: Ring, rings: Sequence[Ring]) -> int:
    """v_i: how many rings of the set are subsets of ``ring`` (itself included)."""
    return sum(1 for other in rings if other.tokens <= ring.tokens)


def find_fresh_tokens(universe_tokens: Iterable[str], rings: Sequence[Ring]) -> list[str]:
    """Fresh tokens of Definition 8: in T but in no ring."""
    covered: set[str] = set()
    for ring in rings:
        covered |= ring.tokens
    return sorted(set(universe_tokens) - covered)


class ModuleUniverse:
    """The decomposition of a mixin universe into selectable modules.

    Built from the related ring set over a batch universe; provides the
    module containing a given token (x_tau / a_tau of Algorithms 4/5)
    and the subset counts v_i needed by Theorem 6.1.
    """

    def __init__(
        self,
        universe: TokenUniverse,
        rings: Sequence[Ring],
    ) -> None:
        self.universe = universe
        self.rings = list(rings)
        self.super_rings = find_super_rings(self.rings)
        self.fresh_tokens = find_fresh_tokens(universe.tokens, self.rings)
        self.modules: list[Module] = [
            Module(
                mid=f"s:{ring.rid}",
                tokens=ring.tokens,
                is_super=True,
                source_rid=ring.rid,
            )
            for ring in self.super_rings
        ] + [
            Module(mid=f"f:{token}", tokens=frozenset({token}), is_super=False)
            for token in self.fresh_tokens
        ]
        self._module_of_token: dict[str, Module] = {}
        for module in self.modules:
            for token in module.tokens:
                # Under configuration 1 super RSs are pairwise disjoint or
                # nested; prefer the largest (outermost) module per token.
                current = self._module_of_token.get(token)
                if current is None or len(module.tokens) > len(current.tokens):
                    self._module_of_token[token] = module
        self._subset_counts = {
            ring.rid: subset_count(ring, self.rings) for ring in self.rings
        }

    def extended(self, ring: Ring) -> "ModuleUniverse | None":
        """This decomposition after appending ``ring`` to the history.

        Returns exactly ``ModuleUniverse(self.universe, self.rings +
        [ring])`` when that can be derived locally, else ``None``: the
        caller drops the decomposition and rebuilds it on first use,
        so a commit never pays for a rebuild no request may need.

        The local path applies when ``ring`` is strictly newer than
        everything here and obeys the first practical configuration
        (superset-or-disjoint, Thm 6.1): then the decomposition changes
        only locally —

        * ``ring`` becomes a super RS (nothing later exists), and the
          only rings that *lose* super status are its strict subsets;
        * the only tokens that stop being fresh are ``ring``'s;
        * token→module assignments move only for ``ring``'s tokens;
        * subset counts v_i grow only where ``ring.tokens <= r.tokens``.

        Everything else — surviving :class:`Module` objects included —
        is shared with ``self``.  Any other ring (stale seq, a reused
        rid, or a configuration-1 violation) returns ``None``.  The rid
        guard matters: the local path keys super-RS modules by
        ``s:{rid}``, so a duplicate rid would silently alias the old
        super ring's module slot to the new ring's tokens, while the
        rebuild keeps both rings distinct.
        """
        max_seq = max((r.seq for r in self.rings), default=None)
        if (
            (max_seq is not None and ring.seq <= max_seq)
            or any(r.rid == ring.rid for r in self.rings)
            or not is_superset_or_disjoint(ring.tokens, self.rings)
        ):
            return None

        new = ModuleUniverse.__new__(ModuleUniverse)
        new.universe = self.universe
        new.rings = self.rings + [ring]
        # Def 7 sweep, localized: the new ring is later than everything,
        # so exactly its strict subsets stop being super RSs; rebuild
        # order (original index order, new ring last) is preserved.
        new.super_rings = [
            s for s in self.super_rings if not s.tokens < ring.tokens
        ] + [ring]
        new.fresh_tokens = [t for t in self.fresh_tokens if t not in ring.tokens]
        reused = {
            module.mid: module for module in self.modules if module.is_super
        }
        ring_module = Module(
            mid=f"s:{ring.rid}", tokens=ring.tokens, is_super=True,
            source_rid=ring.rid,
        )
        reused[ring_module.mid] = ring_module
        fresh_modules = {
            module.mid: module for module in self.modules if not module.is_super
        }
        new.modules = [reused[f"s:{s.rid}"] for s in new.super_rings] + [
            fresh_modules[f"f:{t}"] for t in new.fresh_tokens
        ]
        new._module_of_token = dict(self._module_of_token)
        for token in ring.tokens:
            current = new._module_of_token.get(token)
            # Under configuration 1 any surviving module overlapping the
            # ring has tokens ⊆ ring.tokens; only an equal-size (hence
            # equal-set) earlier super RS keeps the token (the rebuild's
            # strictly-larger-wins rule prefers the first of equals).
            if (
                current is None
                or not current.is_super
                or len(current.tokens) < len(ring.tokens)
            ):
                new._module_of_token[token] = ring_module
        new._subset_counts = {
            r.rid: self._subset_counts[r.rid]
            + (1 if ring.tokens <= r.tokens else 0)
            for r in self.rings
        }
        new._subset_counts[ring.rid] = subset_count(ring, new.rings)
        return new

    def module_of(self, token: str) -> Module:
        """The module containing ``token`` (Algorithm 4 line 1)."""
        try:
            return self._module_of_token[token]
        except KeyError:
            raise KeyError(f"token {token!r} is in no module of this universe") from None

    def others(self, module: Module) -> list[Module]:
        """All modules except ``module``, in deterministic order."""
        return [m for m in self.modules if m.mid != module.mid]

    def subset_count_of(self, rid: str) -> int:
        return self._subset_counts[rid]

    def super_of(self, ring: Ring) -> Ring:
        """The super RS covering ``ring``.

        For rings already in the universe this is the largest known
        super RS containing them.  A *candidate* ring (about to be
        proposed, so strictly newer than everything here) is its own
        covering super RS under configuration 1.
        """
        best: Ring | None = None
        for candidate in self.super_rings:
            if ring.tokens <= candidate.tokens:
                if best is None or len(candidate.tokens) > len(best.tokens):
                    best = candidate
        if best is None:
            return ring
        return best

    def subset_count_for(self, covering: Ring) -> int:
        """v_{i*} for a covering super RS, known or candidate."""
        if covering.rid in self._subset_counts:
            return self._subset_counts[covering.rid]
        return subset_count(covering, self.rings + [covering])


def is_superset_or_disjoint(tokens: frozenset[str], rings: Sequence[Ring]) -> bool:
    """First practical configuration check for a new ring's token set."""
    for ring in rings:
        if not (ring.tokens <= tokens or ring.tokens.isdisjoint(tokens)):
            return False
    return True


def theorem61_dtrs_token_sets(
    ring: Ring,
    modules: ModuleUniverse,
) -> list[tuple[str, frozenset[str]]]:
    """DTRS token sets of ``ring`` under configuration 1 (Theorem 6.1).

    Returns (h_j, psi_{i,j}) pairs: for each HT h_j of ``ring``'s
    tokens, if the covering super RS's subset count v_{i*} satisfies
    v_{i*} >= |r_i| - |T~_{i,j}| + 1, then psi_{i,j} = r_i \\ T~_{i,j}
    is the token set of a DTRS determining h_j.  HTs below the
    threshold contribute nothing (no DTRS can determine them).
    """
    universe = modules.universe
    covering = modules.super_of(ring)
    v_star = modules.subset_count_for(covering)
    results: list[tuple[str, frozenset[str]]] = []
    counts = universe.ht_counts(ring.tokens)
    for ht, multiplicity in counts.items():
        threshold = len(ring.tokens) - multiplicity + 1
        if v_star >= threshold:
            tokens_of_ht = frozenset(
                token for token in ring.tokens if universe.ht_of(token) == ht
            )
            psi = ring.tokens - tokens_of_ht
            if psi:
                results.append((ht, psi))
    return results


def ring_is_recursive_diverse_config(
    ring: Ring,
    modules: ModuleUniverse,
    c: float | None = None,
    ell: int | None = None,
) -> bool:
    """Definition 4 verified polynomially via Theorem 6.1.

    Checks the ring's own HT multiset and each psi_{i,j} token set's HT
    multiset against recursive (c, l)-diversity.
    """
    universe = modules.universe
    c = ring.c if c is None else c
    ell = ring.ell if ell is None else ell
    if not ht_counts_satisfy(universe.ht_counts(ring.tokens), c, ell):
        return False
    for _, psi in theorem61_dtrs_token_sets(ring, modules):
        if not ht_counts_satisfy(universe.ht_counts(psi), c, ell):
            return False
    return True


def second_config_ell(ell: int) -> int:
    """Second practical configuration: target (c, l+1) so DTRSs keep (c, l)."""
    return ell + 1

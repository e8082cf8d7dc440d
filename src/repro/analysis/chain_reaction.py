"""Chain-reaction analysis: the adversary of Sections 1-2.

Because every token is consumed exactly once, the set of rings forms a
constraint system whose valid worlds are the token-RS combinations.
Two attack strengths are implemented:

* :func:`cascade_attack` — the classic iterated-elimination cascade
  used against Monero in practice ("zero-mixin" analysis): any ring
  whose possible tokens shrink to one is deanonymized, and its token is
  removed from all other rings, possibly cascading.
* :func:`exact_analysis` — the information-theoretic optimum: a token
  stays possible for a ring iff some complete token-RS combination
  assigns it (matching-based, polynomial).  Everything the cascade
  finds, this finds; the converse fails on instances needing the
  Theorem 4.1 group rule.

Both honour adversary side information (known token-RS pairs, the
paper's Definition 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.perf.matching import IncrementalMatcher
from ..core.ring import Ring
from ..obs import events, trace

__all__ = ["AttackResult", "cascade_attack", "exact_analysis"]


@dataclass(slots=True)
class AttackResult:
    """Outcome of a chain-reaction attack over a ring set.

    Attributes:
        possible: rid -> tokens still possible as the consumed token.
        deanonymized: rid -> token, for rings pinned to one token.
        eliminated: rid -> tokens ruled out by the analysis.
    """

    possible: dict[str, frozenset[str]] = field(default_factory=dict)
    deanonymized: dict[str, str] = field(default_factory=dict)
    eliminated: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def deanonymization_rate(self) -> float:
        """Fraction of rings whose consumed token the adversary knows."""
        if not self.possible:
            return 0.0
        return len(self.deanonymized) / len(self.possible)

    def effective_ring_size(self, rid: str) -> int:
        """Mixins surviving the attack + 1 (the anonymity-set size)."""
        return len(self.possible[rid])


def cascade_attack(
    rings: Sequence[Ring],
    side_information: Mapping[str, str] | None = None,
) -> AttackResult:
    """Iterated-elimination cascade over ``rings``.

    Args:
        rings: all rings visible to the adversary.
        side_information: known {rid: token} pairs (Definition 3);
            each pins its ring and removes the token everywhere else.
    """
    with trace.span("attack.cascade", rings=len(rings)) as sp:
        possible: dict[str, set[str]] = {
            ring.rid: set(ring.tokens) for ring in rings
        }
        known = dict(side_information or {})
        for rid, token in known.items():
            if rid in possible:
                possible[rid] = {token}

        rounds = 0
        changed = True
        while changed:
            rounds += 1
            changed = False
            for rid, tokens in possible.items():
                if len(tokens) != 1:
                    continue
                consumed = next(iter(tokens))
                for other_rid, other_tokens in possible.items():
                    if other_rid != rid and consumed in other_tokens:
                        other_tokens.discard(consumed)
                        changed = True
        result = _result_from_possible(
            {ring.rid: ring for ring in rings}, possible
        )
        if sp is not None:
            sp.attrs["rounds"] = rounds
            sp.attrs["deanonymized"] = len(result.deanonymized)
        if events.enabled():
            events.emit(
                events.AttackAnalyzed(
                    kind="cascade",
                    rings=len(rings),
                    deanonymized=len(result.deanonymized),
                )
            )
        return result


def exact_analysis(
    rings: Sequence[Ring],
    side_information: Mapping[str, str] | None = None,
) -> AttackResult:
    """Matching-based exact possibility analysis.

    A token t is possible for ring r iff forcing r -> t (together with
    all side information) still admits a complete token-RS combination.
    One maximum matching is shared by every query; each query is a
    single augmenting-path repair.

    Example — a zero-mixin ring pins itself, and because every token
    is consumed exactly once, it drags its neighbour down with it:

        >>> from repro.core.ring import Ring
        >>> rings = [
        ...     Ring("r1", frozenset({"t1"}), c=1.0, ell=1, seq=0),
        ...     Ring("r2", frozenset({"t1", "t2"}), c=1.0, ell=1, seq=1)]
        >>> result = exact_analysis(rings)
        >>> result.deanonymized == {"r1": "t1", "r2": "t2"}
        True
        >>> result.deanonymization_rate
        1.0
    """
    with trace.span("attack.exact", rings=len(rings)) as sp:
        forced = dict(side_information or {})
        by_rid = {ring.rid: ring for ring in rings}
        matcher = IncrementalMatcher(rings, forced)
        if not matcher.complete:
            # Contradictory side information: nothing is possible.
            return _result_from_possible(
                by_rid, {ring.rid: set() for ring in rings}
            )
        possible = {
            ring.rid: set(matcher.possible_tokens(ring.rid)) for ring in rings
        }
        result = _result_from_possible(by_rid, possible)
        if sp is not None:
            sp.attrs["deanonymized"] = len(result.deanonymized)
        if events.enabled():
            events.emit(
                events.AttackAnalyzed(
                    kind="exact",
                    rings=len(rings),
                    deanonymized=len(result.deanonymized),
                )
            )
        return result


def _result_from_possible(
    rings_by_rid: Mapping[str, Ring], possible: dict[str, set[str]]
) -> AttackResult:
    result = AttackResult()
    for rid, tokens in possible.items():
        result.possible[rid] = frozenset(tokens)
        result.eliminated[rid] = frozenset(rings_by_rid[rid].tokens) - frozenset(tokens)
        if len(tokens) == 1:
            result.deanonymized[rid] = next(iter(tokens))
    return result

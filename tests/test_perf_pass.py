"""The kernel's flat pass: the verdicts it gives before the DTRS sweep.

``KernelState.verdict_of`` opens with one pass over two tables of the
base world set (the mask of every base ring token, the mask of every
base pair).  The pass answers ``eliminated``, and ``dtrs`` when the
empty or a one-pair set determines the candidate's HT, before the
recursive sweep sets anything up.  It may change when a verdict is
found, never which: these tests pin every verdict against the sweep's
answer on random instances, and pin that on a servebench-shaped batch
only feasible candidates pay for a sweep.  The sweep itself cuts every
branch whose prefix already determines its target's HT; a line spy
shows that cut firing on random instances whose verdicts still match
the frozen seed checks.
"""

from __future__ import annotations

import linecache
import random
import sys
from itertools import combinations

import pytest

from repro.core.bfs import bfs_select
from repro.core.diversity import ht_counts_satisfy
from repro.core.perf import kernels
from repro.core.perf.cache import SolverCache
from repro.core.problem import DamsInstance
from repro.core.ring import Ring, TokenUniverse
from repro.data.monero import OUTPUT_COUNT_DISTRIBUTION
from tests.test_perf_kernels import reference_gate


def sweep_verdict(state, universe, tokens, c, ell) -> str:
    """The verdict of the elimination checks and the recursive sweep
    alone, with no flat pass before the sweep."""
    slices, union = state.slices_of(tokens)
    eliminated = not all(slices.values()) or any(
        not row.token_masks.get(name, 0) & union
        for row in state.rows
        for name in row.ring.tokens
    )
    if eliminated:
        return "eliminated"
    groups: dict[str, int] = {}
    for name, free in slices.items():
        ht = universe.ht_of(name)
        groups[ht] = groups.get(ht, 0) | free
    return state._sweep(universe, slices, union, groups, c, ell, None)


def random_case(seed: int, c: float, ell: int) -> DamsInstance:
    rng = random.Random(seed)
    tokens = [f"t{i}" for i in range(rng.randint(6, 9))]
    hts = rng.randint(3, 6)
    universe = TokenUniverse({token: f"h{rng.randrange(hts)}" for token in tokens})
    rings = [
        Ring(
            rid=f"r{i}",
            tokens=frozenset(rng.sample(tokens, rng.randint(1, 4))),
            c=rng.choice([0.5, 1.0, 2.0]),
            ell=rng.choice([1, 2, 3]),
            seq=i,
        )
        for i in range(rng.randint(0, 4))
    ]
    return DamsInstance(universe, rings, rng.choice(tokens), c=c, ell=ell)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_every_verdict_equals_the_sweeps_answer(c, ell):
    histories, verdicts = set(), set()
    for seed in range(30):
        instance = random_case(seed, c, ell)
        histories.add(len(instance.rings))
        universe = instance.universe
        cache = SolverCache(universe, instance.rings)
        sigma = sorted(instance.candidate_mixins())
        for size in range(ell - 1, ell + 3):
            for mixins in combinations(sigma, size):
                tokens = frozenset(mixins) | {instance.target_token}
                if not ht_counts_satisfy(universe.ht_counts(tokens), c, ell):
                    continue
                state = cache.kernel_state(cache.related_key(tokens))
                verdict = state.verdict_of(universe, tokens, c, ell)
                assert verdict == sweep_verdict(state, universe, tokens, c, ell), (
                    f"seed {seed}: {sorted(tokens)} at ({c}, {ell})"
                )
                verdicts.add(verdict)
    assert histories == {0, 1, 2, 3, 4}
    assert verdicts == {"eliminated", "dtrs", "feasible"}, verdicts


def servebench_batch(seed: int) -> tuple[TokenUniverse, list[Ring]]:
    """One servebench-shaped batch: 40 tokens labelled by Monero-like
    transactions, two disjoint 11-token super rings claimed at (1, 2)."""
    rng = random.Random(seed)
    tokens = [f"t{index:02d}" for index in range(40)]
    counts = list(OUTPUT_COUNT_DISTRIBUTION)
    weights = list(OUTPUT_COUNT_DISTRIBUTION.values())
    labels: dict[str, str] = {}
    start = tx = 0
    while start < len(tokens):
        outputs = rng.choices(counts, weights)[0]
        for token in tokens[start : start + outputs]:
            labels[token] = f"x{tx:02d}"
        start += outputs
        tx += 1
    members = rng.sample(tokens, 22)
    rings = [
        Ring(f"r{k}", frozenset(members[11 * k : 11 * (k + 1)]), c=1.0, ell=2, seq=k)
        for k in range(2)
    ]
    return TokenUniverse(labels), rings


def test_only_feasible_candidates_reach_the_sweep(monkeypatch):
    # Every dtrs verdict of a servebench-shaped genesis batch comes
    # from a one-pair set of the candidate row, so the flat pass
    # answers it; the recursive sweep (each of which enumerates its
    # pair-set sizes through the module's subset_combinations) runs
    # for feasible candidates only.
    sweeps = 0
    original_combinations = kernels.subset_combinations

    def counting_combinations(*args):
        nonlocal sweeps
        sweeps += 1
        return original_combinations(*args)

    reached: dict[str, list[bool]] = {}
    original_verdict = kernels.KernelState.verdict_of

    def spy_verdict(state, *args, **kwargs):
        before = sweeps
        verdict = original_verdict(state, *args, **kwargs)
        reached.setdefault(verdict, []).append(sweeps > before)
        return verdict

    monkeypatch.setattr(kernels, "subset_combinations", counting_combinations)
    monkeypatch.setattr(kernels.KernelState, "verdict_of", spy_verdict)
    for seed in (1, 2):
        universe, rings = servebench_batch(seed)
        cache = SolverCache(universe, rings)
        for target in sorted(universe.tokens):
            bfs_select(DamsInstance(universe, rings, target, c=2.0, ell=2), cache=cache)
    assert len(reached.get("dtrs", ())) > 100
    assert not any(reached["dtrs"])
    assert not any(reached.get("eliminated", ()))
    assert any(reached["feasible"])


class PrefixCutSpy:
    """Counts the sweep's prefix cuts: a ``break`` line of the kernel's
    ``descend`` run at a node that is not a leaf (its determining
    prefix is cut, not tested as a DTRS)."""

    def __init__(self) -> None:
        self.cuts = 0
        self._previous = None

    def __enter__(self) -> "PrefixCutSpy":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_name == "descend" and code.co_filename == kernels.__file__:
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line" and frame.f_locals.get("leaf") is False:
            text = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
            if text.strip() == "break":
                self.cuts += 1
        return self._line


def test_the_sweeps_prefix_cut_fires_and_verdicts_match_the_seed():
    cut_seeds, verdicts = 0, set()
    for seed in range(40):
        instance = random_case(500 + seed, c=2.0, ell=2)
        universe = instance.universe
        cache = SolverCache(universe, instance.rings)
        sigma = sorted(instance.candidate_mixins())
        with PrefixCutSpy() as spy:
            outcomes = []
            for size in (1, 2, 3):
                for mixins in combinations(sigma, size):
                    tokens = frozenset(mixins) | {instance.target_token}
                    if not ht_counts_satisfy(universe.ht_counts(tokens), 2.0, 2):
                        continue
                    state = cache.kernel_state(cache.related_key(tokens))
                    outcomes.append((tokens, state.verdict_of(universe, tokens, 2.0, 2)))
        for tokens, verdict in outcomes:
            mixins = tuple(sorted(tokens - {instance.target_token}))
            assert verdict == reference_gate(instance, mixins), f"seed {seed}: {sorted(tokens)}"
            verdicts.add(verdict)
        cut_seeds += spy.cuts > 0
    assert cut_seeds >= 3, "the random instances must reach the prefix cut"
    assert verdicts == {"eliminated", "dtrs", "feasible"}, verdicts

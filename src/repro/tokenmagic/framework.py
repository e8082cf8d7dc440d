"""The TokenMagic framework — Algorithm 1 (Section 4).

Ties the pieces together for one spend:

1. locate the batch of the consuming token (the mixin universe T),
2. gather the rings already proposed over that batch,
3. decompose them into modules under the practical configurations,
4. run a selector (BFS / Progressive / Game / Smallest / Random) and —
   in the paper-faithful *candidate mode* — run it for every token in
   T, collect each produced ring into the candidate sets of all its
   members, and answer with a uniformly random candidate of the target
   token, so adversaries cannot invert the deterministic selection.

The framework also exposes the Step-3 policy verifier the ledger can
install so miners reject rings violating the configurations.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..chain.blockchain import Blockchain
from ..chain.errors import ConfigurationViolation
from ..chain.transaction import RingInput
from ..core.modules import (
    ModuleUniverse,
    is_superset_or_disjoint,
    second_config_ell,
)
from ..core.problem import InfeasibleError
from ..core.ring import Ring
from ..core.selector import SelectionResult, Selector, get_selector
from ..obs import events, trace
from .batch import Batch, batch_of_token, build_batches, rings_over_batch
from .registry import BatchRegistry, ReserveViolation

__all__ = ["TokenMagic", "TokenMagicConfig"]


@dataclass(frozen=True, slots=True)
class TokenMagicConfig:
    """System parameters of the framework.

    Attributes:
        batch_lambda: minimum tokens per batch (public consensus value).
        eta: the reserve parameter of Section 4 (0 disables).
        apply_second_config: target (c, l+1) on new rings so their
            DTRSs keep (c, l) (Theorem 6.4).
        candidate_mode: run the full Algorithm 1 candidate-set
            randomization.  When False the selector runs once, directly
            for the target token (deterministic; what the paper's
            efficiency experiments time).

    Example — the defaults are the paper's efficiency-experiment
    settings; the second configuration bumps the *targeted* l by one
    so the emitted ring's DTRSs keep the claimed (c, l):

        >>> config = TokenMagicConfig()
        >>> (config.batch_lambda, config.eta, config.apply_second_config)
        (100, 0.0, True)
        >>> TokenMagicConfig(eta=0.2, candidate_mode=True).eta
        0.2
    """

    batch_lambda: int = 100
    eta: float = 0.0
    apply_second_config: bool = True
    candidate_mode: bool = False


class TokenMagic:
    """Facade: generate configuration-compliant rings over a chain."""

    def __init__(
        self,
        chain: Blockchain,
        config: TokenMagicConfig | None = None,
    ) -> None:
        self.chain = chain
        self.config = config or TokenMagicConfig()
        self._registries: dict[int, BatchRegistry] = {}

    # -- batch plumbing ----------------------------------------------------

    def batches(self) -> list[Batch]:
        return build_batches(self.chain, self.config.batch_lambda)

    def registry_for(self, batch: Batch) -> BatchRegistry:
        registry = self._registries.get(batch.index)
        if registry is None:
            lam = self.config.batch_lambda
            registry = BatchRegistry(
                batch=batch,
                eta=self.config.eta,
                lambda_effective=2 * lam - 1,
            )
            for ring in rings_over_batch(list(self.chain.rings), batch):
                registry.rings.append(ring)
            self._registries[batch.index] = registry
        return registry

    # -- ring generation (Algorithm 1) --------------------------------------

    def generate_ring(
        self,
        token_id: str,
        c: float,
        ell: int,
        algorithm: str | Selector = "progressive",
        rng: random.Random | None = None,
    ) -> SelectionResult:
        """Produce a ring consuming ``token_id`` under (c, ell)-diversity.

        Raises:
            InfeasibleError: when the batch cannot satisfy the request.
            ReserveViolation: when the eta rule forbids another ring.
        """
        generator = rng if rng is not None else random.Random()
        selector = get_selector(algorithm) if isinstance(algorithm, str) else algorithm
        start = time.perf_counter()
        with trace.span(
            "tokenmagic.generate_ring",
            token=token_id,
            algorithm=getattr(selector, "name", str(algorithm)),
            candidate_mode=self.config.candidate_mode,
        ) as sp:
            batch = batch_of_token(self.batches(), token_id)
            registry = self.registry_for(batch)
            target_ell = (
                second_config_ell(ell) if self.config.apply_second_config else ell
            )
            modules = ModuleUniverse(batch.universe, registry.rings)

            if not self.config.candidate_mode:
                result = selector(modules, token_id, c, target_ell, rng=generator)
                self._check_admissible(registry, result, c, ell)
                return self._record_generated(sp, result, start)

            # Algorithm 1 proper: one candidate ring per token of the batch.
            candidates: dict[str, list[SelectionResult]] = {
                token: [] for token in batch.universe
            }
            with trace.span(
                "tokenmagic.candidate_sweep", tokens=len(batch.universe)
            ) as sweep_span:
                infeasible = 0
                for token in sorted(batch.universe.tokens):
                    try:
                        result = selector(
                            modules, token, c, target_ell, rng=generator
                        )
                    except InfeasibleError:
                        infeasible += 1
                        continue
                    for member in result.tokens:
                        candidates[member].append(result)
                if sweep_span is not None:
                    sweep_span.attrs["infeasible"] = infeasible
            eligible = candidates[token_id]
            if not eligible:
                raise InfeasibleError(
                    f"no candidate ring contains token {token_id!r} under "
                    f"({c}, {ell})-diversity"
                )
            chosen = eligible[generator.randrange(len(eligible))]
            chosen = SelectionResult(
                tokens=chosen.tokens,
                target_token=token_id,
                modules=chosen.modules,
                elapsed=chosen.elapsed,
                algorithm=chosen.algorithm,
            )
            self._check_admissible(registry, chosen, c, ell)
            return self._record_generated(sp, chosen, start)

    def _record_generated(
        self, sp, result: SelectionResult, start: float
    ) -> SelectionResult:
        """Flush the per-generation span attrs and RingGenerated event."""
        if events.enabled():
            events.emit(
                events.RingGenerated(
                    algorithm=result.algorithm,
                    size=len(result.tokens),
                    elapsed_s=time.perf_counter() - start,
                )
            )
        if sp is not None:
            sp.attrs["ring_size"] = len(result.tokens)
        return result

    def generate_ring_exact(
        self,
        token_id: str,
        c: float,
        ell: int,
        time_budget: float | None = None,
        max_mixins: int | None = None,
    ) -> SelectionResult:
        """Produce a ring via the exact BFS solver (the paper's TM_B).

        Unlike :meth:`generate_ring`, this solves the DA-MS instance
        exactly over the batch universe (no practical-configuration
        module decomposition), using the solver performance layer.

        Raises:
            InfeasibleError: the batch cannot satisfy the request.
            SearchBudgetExceeded: the time budget ran out first.
            ReserveViolation: the eta rule forbids another ring.
        """
        from ..core.bfs import bfs_select
        from ..core.problem import DamsInstance

        start = time.perf_counter()
        with trace.span(
            "tokenmagic.generate_ring_exact", token=token_id, budget=time_budget
        ) as sp:
            batch = batch_of_token(self.batches(), token_id)
            registry = self.registry_for(batch)
            instance = DamsInstance(
                batch.universe, list(registry.rings), token_id, c=c, ell=ell
            )
            solved = bfs_select(
                instance, time_budget=time_budget, max_mixins=max_mixins
            )
            result = SelectionResult(
                tokens=solved.ring.tokens,
                target_token=token_id,
                modules=(),
                elapsed=solved.elapsed,
                algorithm="bfs",
            )
            self._check_admissible(registry, result, c, ell)
            return self._record_generated(sp, result, start)

    def generate_ring_resilient(
        self,
        token_id: str,
        c: float,
        ell: int,
        time_budget: float | None = None,
        max_mixins: int | None = None,
        rng: random.Random | None = None,
    ):
        """:meth:`generate_ring_exact` behind the degradation ladder.

        The exact BFS runs first; if it trips its budget, the ladder
        steps down through progressive selection, the relaxation
        schedule, and the diversity-checked baseline — re-verifying the
        Definition 5 constraints at every rung and failing closed
        rather than emitting an unverified ring.

        Returns:
            A :class:`~repro.resilience.ladder.DegradedResult`; its
            ``.result`` is the accepted selection, ``.claimed_c`` /
            ``.claimed_ell`` the (possibly relaxed) requirement it is
            verified — and admission-checked — against.

        Raises:
            InfeasibleError: no feasible ring exists (exact proof), or
                every rung failed.
            ConstraintViolation: the last rung's ring failed Def. 5
                re-verification (fail closed).
            ReserveViolation: the eta rule forbids another ring.
        """
        from ..core.problem import DamsInstance
        from ..resilience.ladder import ladder_select

        start = time.perf_counter()
        with trace.span(
            "tokenmagic.generate_ring_resilient", token=token_id, budget=time_budget
        ) as sp:
            batch = batch_of_token(self.batches(), token_id)
            registry = self.registry_for(batch)
            instance = DamsInstance(
                batch.universe, list(registry.rings), token_id, c=c, ell=ell
            )
            outcome = ladder_select(
                instance, time_budget=time_budget, max_mixins=max_mixins, rng=rng
            )
            self._check_admissible(
                registry, outcome.result, outcome.claimed_c, outcome.claimed_ell
            )
            self._record_generated(sp, outcome.result, start)
            if sp is not None:
                sp.attrs["rung"] = outcome.rung
            return outcome

    def audit_batch(self, batch: Batch):
        """Chain-reaction audit of every ring proposed over ``batch``.

        Runs the exact matching-based possibility analysis (what an
        information-theoretically optimal adversary learns).
        """
        from ..analysis.chain_reaction import exact_analysis

        registry = self.registry_for(batch)
        with trace.span("tokenmagic.audit_batch", batch=batch.index):
            return exact_analysis(list(registry.rings))

    def commit_ring(self, result: SelectionResult, c: float, ell: int) -> Ring:
        """Record a generated ring in its batch registry and return it."""
        batch = batch_of_token(self.batches(), result.target_token)
        registry = self.registry_for(batch)
        ring = Ring(
            rid=f"tm:{batch.index}:{len(registry.rings)}",
            tokens=result.tokens,
            c=c,
            ell=ell,
            seq=len(registry.rings),
        )
        registry.admit(ring)
        return ring

    def _check_admissible(
        self, registry: BatchRegistry, result: SelectionResult, c: float, ell: int
    ) -> None:
        probe = Ring(
            rid="tm:probe",
            tokens=result.tokens,
            c=c,
            ell=ell,
            seq=len(registry.rings),
        )
        if registry.eta > 0:
            with trace.span("tokenmagic.reserve_check", eta=registry.eta) as sp:
                ok = registry.reserve_ok(probe)
                if sp is not None:
                    sp.attrs["ok"] = ok
            if events.enabled():
                events.emit(events.ReserveChecked(ok=ok))
            if not ok:
                raise ReserveViolation(
                    f"ring for {result.target_token!r} violates the eta "
                    f"reserve rule"
                )

    # -- Step-3 policy verifier ---------------------------------------------

    def policy_verifier(
        self,
        check_diversity_claim: bool = True,
        check_reserve: bool = True,
    ):
        """A ledger policy enforcing the paper's Step-3 configurations.

        Install on a :class:`~repro.chain.Blockchain` via
        ``policy_verifiers`` so miners reject rings that:

        * mix tokens from different batches (batch locality),
        * are neither supersets nor disjoint of existing rings
          (first practical configuration),
        * fail their own claimed recursive (c, l)-diversity — lifted to
          (c, l+1) when the second configuration is active — evaluated
          through the polynomial Theorem 6.1 check
          (``check_diversity_claim``),
        * would break the eta reserve requirement
          (``check_reserve``, active when the framework's eta > 0).
        """
        from ..core.modules import ring_is_recursive_diverse_config
        from ..core.ring import Ring
        from ..core.modules import ModuleUniverse

        def verifier(chain: Blockchain, ring_input: RingInput) -> None:
            tokens = ring_input.token_set()
            batches = build_batches(chain, self.config.batch_lambda)
            containing = None
            for batch in batches:
                inside = sum(1 for token in tokens if token in batch)
                if inside:
                    if inside != len(tokens):
                        raise ConfigurationViolation(
                            "ring mixes tokens from different batches"
                        )
                    containing = batch
                    break
            if containing is None:
                raise ConfigurationViolation("ring tokens are in no batch")
            related = rings_over_batch(list(chain.rings), containing)
            if not is_superset_or_disjoint(tokens, related):
                raise ConfigurationViolation(
                    "ring is neither a superset nor disjoint of an existing ring"
                )
            probe = Ring(
                rid="policy:probe",
                tokens=tokens,
                c=ring_input.claimed_c,
                ell=ring_input.claimed_ell,
                seq=len(related),
            )
            if check_diversity_claim:
                target_ell = (
                    second_config_ell(ring_input.claimed_ell)
                    if self.config.apply_second_config
                    else ring_input.claimed_ell
                )
                modules = ModuleUniverse(containing.universe, related)
                if not ring_is_recursive_diverse_config(
                    probe, modules, c=ring_input.claimed_c, ell=target_ell
                ):
                    raise ConfigurationViolation(
                        f"ring does not satisfy its claimed recursive "
                        f"({ring_input.claimed_c}, {target_ell})-diversity"
                    )
            if check_reserve and self.config.eta > 0:
                registry = BatchRegistry(
                    batch=containing,
                    eta=self.config.eta,
                    lambda_effective=2 * self.config.batch_lambda - 1,
                    rings=list(related),
                )
                if not registry.reserve_ok(probe):
                    raise ConfigurationViolation(
                        "ring would violate the eta reserve requirement"
                    )

        return verifier

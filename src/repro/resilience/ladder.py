"""The degradation ladder: always a verified ring, or a typed refusal.

DA-MS is #P-hard (Theorem 3.1), so at production scale the exact
pipeline *will* trip its budget.  Aborting loses all
search progress; silently falling back to a ring-size-only selector
emits exactly the rings traceability analyses exploit.  The ladder
threads the middle path: step down through progressively cheaper
solvers, but **re-verify the Definition 5 constraints at every rung**
— (c, l)-diversity of the ring and all its DTRSs, non-elimination over
the closure, immutability of every prior ring — and fail closed
(raise :class:`ConstraintViolation`) rather than return a ring that
violates what it claims.

Rungs, in order::

    exact        bfs_select — minimum-cardinality optimum
    progressive  Algorithm 4 under the practical configurations
    relaxation   progressive across the Section-4 relaxation schedule
    baseline     smallest-module baseline across the same schedule

The exact rung degrades on :class:`~repro.core.bfs.SearchBudgetExceeded`
(resource exhaustion); later rungs degrade on :class:`~repro.core.problem.InfeasibleError` or
a failed re-verification.  An :class:`InfeasibleError` from the *exact*
rung is a proof that no feasible ring exists at the requirement, so it
propagates — degradation cannot conjure one.  Relaxed rungs verify
against the relaxed requirement they claim (``claimed_c``,
``claimed_ell`` on the result), never silently against the original.

Every step down emits a typed
:class:`~repro.obs.events.DegradationStepped` event, and the accepted
ring comes back in a :class:`DegradedResult` wrapper recording the
rung, the trigger, the claimed requirement and the verified
constraints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..core.baselines import smallest_select  # noqa: F401 - registers "smallest"
from ..core.bfs import SearchBudgetExceeded, bfs_select
from ..core.modules import ModuleUniverse
from ..core.problem import DamsInstance, InfeasibleError, definition5_violations
from ..core.progressive import progressive_select
from ..core.relaxation import select_with_relaxation
from ..core.selector import SelectionResult
from ..obs import events, trace

__all__ = [
    "RUNGS",
    "CONSTRAINTS",
    "ConstraintViolation",
    "DegradedResult",
    "verify_ring",
    "ladder_select",
]

#: Ladder rungs, strongest first.
RUNGS = ("exact", "progressive", "relaxation", "baseline")

#: The Definition 5 constraints every rung re-verifies.
CONSTRAINTS = ("diversity", "non_eliminated", "immutability")


class ConstraintViolation(RuntimeError):
    """A rung produced a ring violating Definition 5 — fail closed.

    Attributes:
        rung: the rung whose output failed verification (for the
            terminal error: the last rung tried).
        failed: names of the violated constraints.
    """

    def __init__(self, rung: str, failed: tuple[str, ...]) -> None:
        super().__init__(
            f"ring from rung {rung!r} violates constraint(s): "
            f"{', '.join(failed)} — refusing to emit it"
        )
        self.rung = rung
        self.failed = failed


@dataclass(frozen=True, slots=True)
class DegradedResult:
    """A verified selection plus the resilience story behind it.

    Attributes:
        result: the accepted selection (``result.algorithm`` names the
            concrete selector that produced it).
        rung: the ladder rung that produced the ring.
        trigger: exception class name that forced the last step down
            (``None`` when the exact rung succeeded directly).
        claimed_c: the c the ring is verified against (relaxed rungs
            may claim weaker than requested — never unverified).
        claimed_ell: the l the ring is verified against.
        relaxation_level: 0 unless a relaxation schedule was walked.
        verified: the constraint names re-checked on the accepted ring.
    """

    result: SelectionResult
    rung: str
    trigger: str | None
    claimed_c: float
    claimed_ell: int
    relaxation_level: int
    verified: tuple[str, ...]

    @property
    def degraded(self) -> bool:
        return self.rung != "exact"


def verify_ring(
    instance: DamsInstance, tokens: frozenset[str]
) -> tuple[str, ...]:
    """Exact Definition 5 re-verification of one candidate ring.

    One candidate's check, not a search — cheap relative to the budget
    that tripped the exact rung.  The closure's world sets are built
    afresh on every call (see
    :func:`~repro.core.problem.definition5_violations`), never taken
    from the solver's cache, so a fault in the cached path cannot
    verify itself.  Returns the verified constraint names; raises
    :class:`ConstraintViolation` (rung "verify") listing every violated
    one.
    """
    mixins = set(tokens) - {instance.target_token}
    failed = tuple(definition5_violations(instance, mixins))
    if failed:
        raise ConstraintViolation("verify", failed)
    return CONSTRAINTS


def _verified_at(
    instance: DamsInstance, tokens: frozenset[str], c: float, ell: int, rung: str
) -> tuple[str, ...]:
    """Verify ``tokens`` against the (possibly relaxed) claim (c, ell)."""
    if (c, ell) == (instance.c, instance.ell):
        probe = instance
    else:
        probe = DamsInstance(
            instance.universe, list(instance.rings), instance.target_token,
            c=c, ell=ell,
        )
    try:
        return verify_ring(probe, tokens)
    except ConstraintViolation as exc:
        raise ConstraintViolation(rung, exc.failed) from None


def ladder_select(
    instance: DamsInstance,
    modules: Callable[[], ModuleUniverse] | None = None,
    time_budget: float | None = None,
    max_mixins: int | None = None,
    rng: random.Random | None = None,
    rungs: tuple[str, ...] = RUNGS,
    cache=None,
) -> DegradedResult:
    """Run the ladder on ``instance`` and return a verified ring.

    Args:
        modules: a zero-argument callable returning the practical-
            configuration decomposition the non-exact rungs use (the
            service passes its snapshot's).  It is called only when a
            non-exact rung runs, so a ring the exact rung serves never
            builds one; when omitted the decomposition is built from
            the instance at that point.
        time_budget / max_mixins: forwarded to the exact rung's
            :func:`~repro.core.bfs.bfs_select`.
        cache: a :class:`~repro.core.perf.cache.SolverCache` shared with
            other selections over the same (universe, ring history)
            snapshot — the service layer passes its per-epoch warm
            cache here.  Purely a work-sharing handle: results are
            identical with or without it.
        rng: randomness for the degraded selectors (the exact rung is
            deterministic).
        rungs: which rungs to try, in order — tests force individual
            rungs; production keeps the default.

    Raises:
        InfeasibleError: the exact rung proved no feasible ring exists,
            or every degraded rung was infeasible even relaxed.
        ConstraintViolation: the last rung tried produced a ring that
            failed re-verification (fail closed).

    Example — when nothing fails the ladder is just the exact solver
    plus a re-verification, and reports itself undegraded:

        >>> from repro.core.problem import DamsInstance
        >>> from repro.core.ring import Ring, TokenUniverse
        >>> universe = TokenUniverse(
        ...     {"t1": "h1", "t2": "h2", "t3": "h1", "t4": "h3"})
        >>> history = [
        ...     Ring("r1", frozenset({"t1", "t2"}), c=2.0, ell=2, seq=0)]
        >>> outcome = ladder_select(
        ...     DamsInstance(universe, history, "t3", c=2.0, ell=2))
        >>> (outcome.rung, outcome.degraded)
        ('exact', False)
        >>> sorted(outcome.result.tokens)
        ['t3', 't4']
    """
    target = instance.target_token
    c, ell = instance.c, instance.ell
    trigger: str | None = None
    last_error: Exception | None = None
    decomposition: ModuleUniverse | None = None

    with trace.span(
        "resilience.ladder", target=target, rungs=",".join(rungs)
    ) as span:
        for position, rung in enumerate(rungs):
            if rung != "exact" and decomposition is None:
                decomposition = (
                    ModuleUniverse(instance.universe, instance.rings)
                    if modules is None
                    else modules()
                )
            try:
                outcome = _run_rung(
                    rung,
                    instance,
                    decomposition,
                    trigger,
                    time_budget=time_budget,
                    max_mixins=max_mixins,
                    rng=rng,
                    cache=cache,
                )
            except SearchBudgetExceeded as exc:
                trigger = type(exc).__name__
                last_error = exc
            except InfeasibleError as exc:
                if rung == "exact":
                    raise  # exact proof: no ring exists at (c, ell)
                trigger = type(exc).__name__
                last_error = exc
            except ConstraintViolation as exc:
                trigger = type(exc).__name__
                last_error = exc
                if rung == rungs[-1]:
                    if events.enabled():
                        events.emit(events.LadderFailClosed(rung=rung))
                    raise
            else:
                if span is not None:
                    span.attrs["rung"] = rung
                    span.attrs["degraded"] = outcome.degraded
                if events.enabled():
                    events.emit(
                        events.RungServed(rung=rung, degraded=outcome.degraded)
                    )
                return outcome
            if rung != rungs[-1]:
                next_rung = rungs[position + 1]
                if events.enabled():
                    events.emit(
                        events.DegradationStepped(rung=next_rung, trigger=trigger)
                    )

    if isinstance(last_error, ConstraintViolation):
        if events.enabled():
            events.emit(events.LadderFailClosed(rung=rungs[-1]))
        raise last_error
    raise InfeasibleError(
        f"every ladder rung failed for token {target!r} under ({c}, {ell})-"
        f"diversity (last trigger: {trigger})"
    ) from last_error


def _run_rung(
    rung: str,
    instance: DamsInstance,
    modules: ModuleUniverse | None,
    trigger: str | None,
    time_budget: float | None,
    max_mixins: int | None,
    rng: random.Random | None,
    cache=None,
) -> DegradedResult:
    """Produce + verify one rung's ring, or raise its failure."""
    target = instance.target_token
    c, ell = instance.c, instance.ell

    if rung == "exact":
        solved = bfs_select(
            instance,
            time_budget=time_budget,
            max_mixins=max_mixins,
            cache=cache,
        )
        result = SelectionResult(
            tokens=solved.ring.tokens,
            target_token=target,
            modules=(),
            elapsed=solved.elapsed,
            algorithm="bfs",
        )
        verified = _verified_at(instance, result.tokens, c, ell, rung)
        return DegradedResult(
            result=result, rung=rung, trigger=trigger,
            claimed_c=c, claimed_ell=ell, relaxation_level=0, verified=verified,
        )

    if rung == "progressive":
        result = progressive_select(modules, target, c, ell, rng=rng)
        verified = _verified_at(instance, result.tokens, c, ell, rung)
        return DegradedResult(
            result=result, rung=rung, trigger=trigger,
            claimed_c=c, claimed_ell=ell, relaxation_level=0, verified=verified,
        )

    if rung in ("relaxation", "baseline"):
        algorithm = "progressive" if rung == "relaxation" else "smallest"
        result, step = select_with_relaxation(
            modules, target, c, ell, algorithm=algorithm, rng=rng
        )
        verified = _verified_at(instance, result.tokens, step.c, step.ell, rung)
        return DegradedResult(
            result=result, rung=rung, trigger=trigger,
            claimed_c=step.c, claimed_ell=step.ell,
            relaxation_level=step.level, verified=verified,
        )

    raise ValueError(f"unknown ladder rung {rung!r}; known: {', '.join(RUNGS)}")

"""Fault tolerance for the exact pipeline (DESIGN.md §10).

Three cooperating pieces:

* :mod:`repro.resilience.faults` — a deterministic, serializable
  :class:`FaultPlan` that injects failures (worker death, hung checks,
  cache corruption, clock skew, chain-load I/O errors) at named sites
  via the same hook-slot pattern :mod:`repro.obs.metrics` uses, so the
  production cost when disabled is one load + compare per site.
* :mod:`repro.resilience.supervisor` — retry/backoff supervision of
  calls into a process pool (the shard router's worker dispatches): a
  dead or hung worker's call is resubmitted with bounded retries and
  exponential backoff under an injectable clock, or surfaces as the
  typed :class:`WorkerLost`.
* :mod:`repro.resilience.ladder` — the degradation ladder: on
  :class:`~repro.core.bfs.SearchBudgetExceeded`, step exact BFS down to
  the Progressive solver, then requirement relaxation, then a
  diversity-checked baseline — re-verifying the Definition 5
  constraints at every rung and failing closed (raising) rather than
  emitting an unverified ring.

Submodules are loaded lazily (PEP 562) so solver modules can import
``repro.resilience.faults`` from deep inside :mod:`repro.core` without
creating import cycles through the ladder (which imports the solver).
"""

from importlib import import_module

__all__ = [
    "faults",
    "ladder",
    "supervisor",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedIOError",
    "RetryPolicy",
    "WorkerLost",
    "DegradedResult",
    "ConstraintViolation",
    "ladder_select",
    "verify_ring",
]

_SUBMODULES = ("faults", "ladder", "supervisor")

_EXPORTS = {
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "InjectedFault": "faults",
    "InjectedIOError": "faults",
    "RetryPolicy": "supervisor",
    "WorkerLost": "supervisor",
    "DegradedResult": "ladder",
    "ConstraintViolation": "ladder",
    "ladder_select": "ladder",
    "verify_ring": "ladder",
}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    owner = _EXPORTS.get(name)
    if owner is not None:
        return getattr(import_module(f".{owner}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)

"""Deterministic fault injection behind a hook slot.

A :class:`FaultPlan` is a seeded, serializable list of
:class:`FaultSpec` entries, each naming an injection *site* and an
*action*.  Call sites in the pipeline ask the active plan whether to
misbehave::

    plan = faults.active()
    if plan is not None:
        plan.check("bfs.candidate")

Like :mod:`repro.obs.metrics`, the plan lives in one module-global
slot, so the production cost with injection disabled is a single global
load plus a ``None`` comparison per site.  Forked pool workers inherit
the controller's plan (each with its own copy of the per-process hit
counters), which is exactly what lets a plan kill a worker process.

Sites wired into the pipeline (the closed vocabulary of
:data:`KNOWN_SITES`):

============================ ==============================================
``bfs.candidate``            every candidate of the BFS replay
``cache.worlds``             every base-world cache lookup
``chain.load``               every dataset load from disk
``chain.clock``              every block-timestamp read (cooperative skew)
``shard.batch``              start of every shard-worker batch dispatch
                             (``index`` is the router's global dispatch
                             sequence, ``attempt`` the retry)
``journal.append``           every write-ahead frame append (``index`` is
                             the frame's commit epoch)
``journal.fsync``            every journal fsync batch flush
``journal.replay``           every frame replayed during recovery
                             (``index`` is the frame's epoch)
``client.reconnect``         every client reconnect attempt (``attempt``
                             is the retry number)
============================ ==============================================

Actions:

* ``die`` — ``os._exit`` the current process (worker-death chaos);
* ``hang`` / ``delay`` — sleep ``payload`` seconds (hung/slow checks);
* ``error`` — raise :class:`InjectedFault`;
* ``io_error`` — raise :class:`InjectedIOError` (an ``OSError``);
* ``corrupt`` — cooperative: the call site receives the spec back and
  corrupts (discards) its own state, e.g. a cache entry;
* ``skew`` — cooperative: the call site adds ``payload`` seconds to a
  clock reading.

Firing is deterministic: a spec fires on an explicit hit number
(``at_hit``, 1-based per-process counter), on an explicit call-site
index (``at_index`` + ``on_attempt``), with a seeded per-site
probability, or on every visit when no trigger is given — always capped
by ``max_fires`` per process.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..obs import events

__all__ = [
    "KNOWN_ACTIONS",
    "KNOWN_SITES",
    "FAULT_PLAN_FORMAT_VERSION",
    "MAX_PAYLOAD_S",
    "InjectedFault",
    "InjectedIOError",
    "FaultSpec",
    "FaultPlan",
    "active",
    "set_plan",
    "injecting",
]

FAULT_PLAN_FORMAT_VERSION = 1

KNOWN_ACTIONS = ("die", "hang", "delay", "error", "io_error", "corrupt", "skew")

#: Largest ``payload`` a spec takes, in seconds (about 11.6 days): far
#: above any chaos hang, and below the longest ``time.sleep`` every
#: platform accepts, so a ``hang``/``delay`` never overflows the sleep.
MAX_PAYLOAD_S = 1e6

#: The sites the pipeline actually checks (documentation + validation).
KNOWN_SITES = (
    "bfs.candidate",
    "cache.worlds",
    "chain.load",
    "chain.clock",
    "shard.batch",
    "journal.append",
    "journal.fsync",
    "journal.replay",
    "client.reconnect",
)


class InjectedFault(RuntimeError):
    """A failure raised on purpose by an active :class:`FaultPlan`."""

    def __init__(self, site: str, action: str) -> None:
        super().__init__(f"injected {action!r} fault at site {site!r}")
        self.site = site
        self.action = action


class InjectedIOError(InjectedFault, OSError):
    """An injected I/O failure (``io_error`` action) — also an OSError."""


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault to inject.

    Attributes:
        site: injection site name (see :data:`KNOWN_SITES`).
        action: what to do when firing (see :data:`KNOWN_ACTIONS`).
        at_hit: fire on the Nth visit of the site (1-based, counted per
            process); ``None`` disables this trigger.
        at_index: fire when the call site passes this explicit index
            (e.g. the router's dispatch sequence) — retry-aware
            together with ``on_attempt``.
        on_attempt: with ``at_index``, fire only on this attempt number
            (0 = first try), so a requeued call survives its retry.
        probability: fire with this probability per visit, drawn from a
            per-site stream seeded by the plan seed (deterministic).
        payload: seconds for ``hang``/``delay``/``skew``, within
            [0, :data:`MAX_PAYLOAD_S`].
        max_fires: cap on fires per process (``None`` = unlimited).

    When ``at_hit``, ``at_index`` and ``probability`` are all unset the
    spec fires on every visit of its site.
    """

    site: str
    action: str
    at_hit: int | None = None
    at_index: int | None = None
    on_attempt: int = 0
    probability: float = 0.0
    payload: float = 0.0
    max_fires: int | None = 1

    def __post_init__(self) -> None:
        if self.action not in KNOWN_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: "
                f"{', '.join(KNOWN_ACTIONS)}"
            )
        if not isinstance(self.site, str) or not self.site:
            raise ValueError("fault site must be a non-empty string")
        for name in ("at_hit", "at_index", "max_fires"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise ValueError(f"{name} must be an integer or null, got {value!r}")
        if not _is_int(self.on_attempt):
            raise ValueError(f"on_attempt must be an integer, got {self.on_attempt!r}")
        if not (_is_real(self.probability) and 0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be a number within [0, 1]")
        if not (_is_real(self.payload) and 0.0 <= self.payload <= MAX_PAYLOAD_S):
            raise ValueError(
                f"payload must be a number of seconds within [0, {MAX_PAYLOAD_S:g}]"
            )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class FaultPlan:
    """A seeded, serializable set of faults plus per-process counters.

    The plan object is mutable state (hit counters, fire counts, RNG
    streams); the spec list and seed are what serializes.  Two plans
    deserialized from the same document behave identically given the
    same sequence of ``check`` calls.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._hits: dict[str, int] = {}
        self._fires: dict[int, int] = {}
        self._rngs: dict[str, random.Random] = {}

    # -- the injection decision ---------------------------------------------

    def check(
        self, site: str, index: int | None = None, attempt: int = 0
    ) -> FaultSpec | None:
        """Visit ``site``; fire the first matching spec, if any.

        Side-effecting actions (``die``, ``hang``, ``delay``, ``error``,
        ``io_error``) are executed here; cooperative actions
        (``corrupt``, ``skew``) only return the spec so the call site
        can interpret the payload.  Returns ``None`` when nothing fired.
        """
        self._hits[site] = hit = self._hits.get(site, 0) + 1
        for spec_index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            fires = self._fires.get(spec_index, 0)
            if spec.max_fires is not None and fires >= spec.max_fires:
                continue
            if spec.at_index is not None:
                if index != spec.at_index or attempt != spec.on_attempt:
                    continue
            elif spec.at_hit is not None:
                if hit != spec.at_hit:
                    continue
            elif spec.probability > 0.0:
                if self._stream(site).random() >= spec.probability:
                    continue
            self._fires[spec_index] = fires + 1
            return self._execute(spec)
        return None

    def skew(self, site: str) -> float:
        """Clock-skew convenience: seconds to add to a clock reading."""
        spec = self.check(site)
        if spec is not None and spec.action == "skew":
            return spec.payload
        return 0.0

    def _stream(self, site: str) -> random.Random:
        stream = self._rngs.get(site)
        if stream is None:
            # str seeding hashes via sha512 — stable across processes,
            # unlike tuple seeds which go through randomized hash().
            stream = self._rngs[site] = random.Random(f"{self.seed}:{site}")
        return stream

    def _execute(self, spec: FaultSpec) -> FaultSpec | None:
        if events.enabled():
            events.emit(events.FaultInjected(site=spec.site, action=spec.action))
        if spec.action == "die":
            os._exit(17)
        if spec.action in ("hang", "delay"):
            time.sleep(spec.payload)
            return spec
        if spec.action == "io_error":
            raise InjectedIOError(spec.site, spec.action)
        if spec.action == "error":
            raise InjectedFault(spec.site, spec.action)
        return spec  # cooperative: "corrupt" / "skew"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": FAULT_PLAN_FORMAT_VERSION,
            "seed": self.seed,
            "faults": [asdict(spec) for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultPlan":
        version = payload.get("version")
        if version != FAULT_PLAN_FORMAT_VERSION:
            raise ValueError(f"unsupported fault-plan version: {version!r}")
        raw_specs = payload.get("faults", [])
        if not isinstance(raw_specs, list):
            raise ValueError("fault plan 'faults' must be a list")
        specs = []
        for entry in raw_specs:
            try:
                specs.append(FaultSpec(**entry))
            except TypeError as exc:
                raise ValueError(f"malformed fault spec {entry!r}") from exc
        return cls(specs, seed=int(payload.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path


# -- the active-plan slot ----------------------------------------------------

_active: FaultPlan | None = None


def active() -> FaultPlan | None:
    """The installed plan, or ``None`` when injection is disabled."""
    return _active


def set_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` (``None`` disables); returns it for chaining."""
    global _active
    _active = plan
    return plan


@contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    previous = _active
    set_plan(plan)
    try:
        yield plan
    finally:
        set_plan(previous)

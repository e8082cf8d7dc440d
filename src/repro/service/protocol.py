"""The service wire protocol: typed requests/responses over JSONL.

One JSON object per line in both directions.  Every request line names
an ``op``; the service answers each line with exactly one response
line, in request order per connection, so a client can correlate by
position or by the echoed ``id``.

Ops (the closed vocabulary of :data:`KNOWN_OPS`):

============  ==============================================================
``select``    run one mixin selection (the payload of
              :class:`SelectRequest`)
``commit``    append an accepted ring to the chain snapshot — advances the
              epoch and invalidates the warm state the ring reaches
``epoch``     report the current epoch / ring count / queue depth
``stats``     dump the service counters, telemetry histograms/gauges and
              resilience counters
``metrics``   render the telemetry registry as Prometheus text
              exposition (``body`` + ``content_type`` in the response)
``health``    ready/degraded/draining probe wired to the resilience
              ladder and admission queue
``shutdown``  drain and stop the service loop
============  ==============================================================

Responses carry ``status``: ``"ok"``, ``"rejected"`` (typed admission
refusal — the request never ran) or ``"error"`` (the request ran and
failed; ``code`` mirrors the CLI sysexits vocabulary, e.g.
``"budget_exceeded"`` for exit 75, ``"constraint_violation"`` for
exit 65).

Served by a :class:`~repro.service.router.ShardRouter` (``serve
--shards N``) the same ops answer shard-tagged supersets: ``stats``
and ``health`` gain a ``shards`` list (one row per worker — queue
depth, warm/memo hit rates, rung distribution, per-shard health), and
the ``metrics`` body appends per-shard exposition series labelled
``shard="N"`` after the fleet-wide families.  Clients that ignore the
extra keys keep working unchanged.

Example::

    >>> req = SelectRequest(request_id="r1", target="t3", c=2.0, ell=2)
    >>> line = encode(req.to_dict())
    >>> decode(line)["target"]
    't3'
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..resilience.faults import FaultPlan

__all__ = [
    "PROTOCOL_VERSION",
    "KNOWN_OPS",
    "KNOWN_MODES",
    "REJECT_QUEUE_FULL",
    "REJECT_STALE_EPOCH",
    "REJECT_BAD_REQUEST",
    "ERROR_BUDGET_EXCEEDED",
    "ERROR_INFEASIBLE",
    "ERROR_CONSTRAINT_VIOLATION",
    "ERROR_FAULT_INJECTED",
    "ERROR_INTERNAL",
    "ProtocolError",
    "finite_float",
    "SelectRequest",
    "SelectResponse",
    "encode",
    "decode",
]

PROTOCOL_VERSION = 1

KNOWN_OPS = ("select", "commit", "epoch", "stats", "metrics", "health", "shutdown")

#: ``exact`` runs only :func:`repro.core.bfs.bfs_select` (a budget trip
#: is a typed error); ``ladder`` degrades through
#: :func:`repro.resilience.ladder.ladder_select`.
KNOWN_MODES = ("exact", "ladder")

# -- rejection codes (admission control: the request never executed) --------
REJECT_QUEUE_FULL = "queue_full"
REJECT_STALE_EPOCH = "stale_epoch"
REJECT_BAD_REQUEST = "bad_request"

# -- error codes (the request executed and failed) --------------------------
ERROR_BUDGET_EXCEEDED = "budget_exceeded"        # CLI exit 75 (EX_TEMPFAIL)
ERROR_INFEASIBLE = "infeasible"
ERROR_CONSTRAINT_VIOLATION = "constraint_violation"  # CLI exit 65 (EX_DATAERR)
ERROR_FAULT_INJECTED = "fault_injected"
ERROR_INTERNAL = "internal_error"


class ProtocolError(ValueError):
    """A line that cannot be parsed into a valid request."""


def finite_float(value: Any, name: str) -> float:
    """``value`` as a float, refusing NaN and the infinities.

    :func:`decode` already refuses non-finite number literals, but
    ``float`` reads strings such as ``"nan"`` and ``"inf"``; a
    non-finite ``c`` fails every HT gate and sends the exact search
    through its whole candidate space, and would be echoed and
    journaled as a token that is not JSON.
    """
    number = float(value)
    if not math.isfinite(number):
        raise ProtocolError(f"{name} must be a finite number, got {value!r}")
    return number


def _check_fault_plan(document: Any) -> None:
    """Refuse a ``fault_plan`` that is not a fault-plan document."""
    if not isinstance(document, Mapping):
        raise ProtocolError(
            f"fault_plan must be a fault-plan object, got {type(document).__name__}"
        )
    try:
        FaultPlan.from_dict(document)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed fault_plan: {exc}") from exc


@dataclass(frozen=True, slots=True)
class SelectRequest:
    """One mixin-selection request.

    Attributes:
        request_id: client-chosen correlation id, echoed verbatim.
        target: the token t_tau to consume.
        c: required diversity parameter c_tau.
        ell: required diversity parameter l_tau.
        mode: ``"exact"`` or ``"ladder"`` (see :data:`KNOWN_MODES`).
        epoch: pin the request to this snapshot epoch; the service
            rejects it (``stale_epoch``) if the chain has advanced by
            execution time.  ``None`` means "whatever is current".
        time_budget: per-request wall-clock cap for the exact search.
        max_mixins: cap on the mixin-set size to search.
        seed: seeds the degraded rungs' RNG so ladder requests are
            reproducible (the exact rung is deterministic regardless).
        fault_plan: an optional :class:`~repro.resilience.faults.FaultPlan`
            document applied around *this request only* — a fresh plan
            instance per request, so one chaos request cannot poison
            its batch-mates.

    A request the solver could never run is refused at construction
    with :class:`ProtocolError` (answered ``bad_request``): a ``c``
    that is not a finite number > 0, an ``ell`` below 1, and a
    ``fault_plan`` that :meth:`FaultPlan.from_dict
    <repro.resilience.faults.FaultPlan.from_dict>` rejects.
    """

    request_id: str
    target: str
    c: float
    ell: int
    mode: str = "ladder"
    epoch: int | None = None
    time_budget: float | None = None
    max_mixins: int | None = None
    seed: int = 0
    fault_plan: Mapping | None = None

    def __post_init__(self) -> None:
        if self.mode not in KNOWN_MODES:
            raise ProtocolError(
                f"unknown mode {self.mode!r}; known: {', '.join(KNOWN_MODES)}"
            )
        if not self.request_id:
            raise ProtocolError("request_id must be non-empty")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ProtocolError(f"c must be a finite number > 0, got {self.c!r}")
        if self.ell < 1:
            raise ProtocolError(f"ell must be >= 1, got {self.ell!r}")
        if self.fault_plan is not None:
            _check_fault_plan(self.fault_plan)

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {
            "op": "select",
            "id": self.request_id,
            "target": self.target,
            "c": self.c,
            "ell": self.ell,
            "mode": self.mode,
        }
        if self.epoch is not None:
            payload["epoch"] = self.epoch
        if self.time_budget is not None:
            payload["budget"] = self.time_budget
        if self.max_mixins is not None:
            payload["max_mixins"] = self.max_mixins
        if self.seed:
            payload["seed"] = self.seed
        if self.fault_plan is not None:
            payload["fault_plan"] = dict(self.fault_plan)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SelectRequest":
        try:
            return cls(
                request_id=str(payload["id"]),
                target=str(payload["target"]),
                c=finite_float(payload["c"], "c"),
                ell=int(payload["ell"]),
                mode=str(payload.get("mode", "ladder")),
                epoch=(
                    None if payload.get("epoch") is None
                    else int(payload["epoch"])
                ),
                time_budget=(
                    None if payload.get("budget") is None
                    else finite_float(payload["budget"], "budget")
                ),
                max_mixins=(
                    None if payload.get("max_mixins") is None
                    else int(payload["max_mixins"])
                ),
                seed=int(payload.get("seed", 0)),
                fault_plan=payload.get("fault_plan"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: int() of an infinite float (``"ell": 1e999``).
            if isinstance(exc, ProtocolError):
                raise
            raise ProtocolError(f"malformed select request: {exc}") from exc


@dataclass(frozen=True, slots=True)
class SelectResponse:
    """The service's answer to one :class:`SelectRequest`.

    ``status`` is ``"ok"`` / ``"rejected"`` / ``"error"``.  On ``ok``
    the selection fields are set; otherwise ``code`` and ``detail``
    explain the refusal or failure.  ``epoch``, ``batch_id`` and
    ``batch_size`` locate the execution (rejected requests keep the
    epoch that refused them and batch_id -1).
    """

    request_id: str
    status: str
    epoch: int
    tokens: tuple[str, ...] = ()
    mixins: tuple[str, ...] = ()
    rung: str | None = None
    claimed_c: float | None = None
    claimed_ell: int | None = None
    degraded: bool = False
    candidates_checked: int | None = None
    elapsed: float = 0.0
    batch_id: int = -1
    batch_size: int = 0
    code: str | None = None
    detail: str | None = None
    warm_cache: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {
            "id": self.request_id,
            "status": self.status,
            "epoch": self.epoch,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
        }
        if self.status == "ok":
            payload.update(
                tokens=sorted(self.tokens),
                mixins=sorted(self.mixins),
                rung=self.rung,
                claimed_c=self.claimed_c,
                claimed_ell=self.claimed_ell,
                degraded=self.degraded,
                elapsed=round(self.elapsed, 6),
                warm_cache=self.warm_cache,
            )
            if self.candidates_checked is not None:
                payload["candidates_checked"] = self.candidates_checked
        else:
            payload["code"] = self.code
            if self.detail:
                payload["detail"] = self.detail
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SelectResponse":
        return cls(
            request_id=str(payload.get("id", "")),
            status=str(payload.get("status", "error")),
            epoch=int(payload.get("epoch", -1)),
            tokens=tuple(payload.get("tokens", ())),
            mixins=tuple(payload.get("mixins", ())),
            rung=payload.get("rung"),
            claimed_c=payload.get("claimed_c"),
            claimed_ell=payload.get("claimed_ell"),
            degraded=bool(payload.get("degraded", False)),
            candidates_checked=payload.get("candidates_checked"),
            elapsed=float(payload.get("elapsed", 0.0)),
            batch_id=int(payload.get("batch_id", -1)),
            batch_size=int(payload.get("batch_size", 0)),
            code=payload.get("code"),
            detail=payload.get("detail"),
            warm_cache=bool(payload.get("warm_cache", False)),
            attrs=dict(payload.get("attrs", {})),
        )


def encode(payload: Mapping) -> str:
    """One JSONL line (no trailing newline), keys sorted for stability.

        >>> line = encode(SelectRequest(
        ...     request_id="q1", target="t3", c=2.0, ell=2,
        ...     mode="exact").to_dict())
        >>> line
        '{"c":2.0,"ell":2,"id":"q1","mode":"exact","op":"select","target":"t3"}'
        >>> SelectRequest.from_dict(decode(line)).target
        't3'
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _refuse_constant(text: str) -> float:
    raise ProtocolError(f"non-finite number {text} in request")


def _finite_literal(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise ProtocolError(f"non-finite number {text} in request")
    return number


#: Built once: ``json.loads`` with hooks builds a decoder per call,
#: which doubled the cost of decoding a request line.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_literal)


def decode(line: str) -> dict:
    """Parse one JSONL line into a dict, or raise :class:`ProtocolError`.

    Python's ``json`` reads ``NaN``, ``Infinity``, ``-Infinity`` and
    literals such as ``1e999`` that overflow to infinity; a reply that
    echoed one (every op echoes ``id``) would not be JSON, so they are
    refused anywhere in the line.  So are integer literals past
    Python's int-string digit limit and nesting past the recursion
    limit, which ``json`` reports as ``ValueError`` and
    ``RecursionError`` rather than as a decode error.
    """
    try:
        payload = _DECODER.decode(line)
    except ProtocolError:
        raise
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"unreadable JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a JSON object, got {type(payload).__name__}")
    return payload

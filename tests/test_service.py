"""Service-layer edge cases: admission, epochs, batch-mate isolation.

The scenarios the ISSUE names explicitly:

* a full admission queue rejects with a typed ``queue_full`` response
  instead of blocking or buffering unboundedly;
* a snapshot-epoch advance between admission and execution rejects
  *only* the requests pinned to the dead epoch — floating batch-mates
  are served against the new snapshot;
* one request degrading through the ladder (or blowing up on an
  injected fault) never poisons the other members of its batch.

The batching determinism trick used throughout: submit against a
*stopped* service, so the queue state is exactly known, then
``start()`` and wait — the worker drains everything in one batch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import select
import socket
import threading
import time
from collections import Counter

import pytest

from repro.core.bfs import bfs_select
from repro.core.perf import kernels
from repro.core.problem import DamsInstance
from repro.core.ring import Ring, TokenUniverse
from repro.service import (
    AdmissionQueue,
    ProtocolError,
    SelectionService,
    SelectRequest,
    SelectResponse,
    ServiceConfig,
    ServiceState,
)
from repro.service.batching import EPOCH_ANY
from repro.service.journal import Journal
from repro.service.state import DuplicateRingId
from repro.service.protocol import decode, encode
from repro.service.server import MAX_LINE_BYTES, handle_line, serve_socket, serve_stdio


def small_universe() -> TokenUniverse:
    return TokenUniverse(
        {
            "t1": "h1", "t2": "h2", "t3": "h1", "t4": "h3",
            "t5": "h2", "t6": "h4", "t7": "h3", "t8": "h4",
        }
    )


def history() -> list[Ring]:
    return [
        Ring("r1", frozenset({"t1", "t2"}), c=2.0, ell=2, seq=0),
        Ring("r2", frozenset({"t1", "t2"}), c=2.0, ell=2, seq=1),
    ]


def request(rid: str, target: str = "t3", **kwargs) -> SelectRequest:
    kwargs.setdefault("mode", "exact")
    return SelectRequest(request_id=rid, target=target, c=2.0, ell=2, **kwargs)


# -- admission control -------------------------------------------------------


def test_queue_full_rejection_is_immediate_and_typed():
    service = SelectionService(
        small_universe(), history(), ServiceConfig(max_queue=2)
    )
    # Not started: nothing drains, so the queue state is exact.
    admitted = [service.submit(request(f"q{i}")) for i in range(2)]
    overflow = service.submit(request("q-over"))

    assert overflow.done  # resolved synchronously, before any worker ran
    rejected = overflow.wait(0)
    assert rejected.status == "rejected"
    assert rejected.code == "queue_full"
    assert "retry" in (rejected.detail or "")

    service.start()
    try:
        served = [pending.wait(30.0) for pending in admitted]
    finally:
        service.stop()
    assert all(response.status == "ok" for response in served)
    assert service.stats()["refused"] == 1
    assert service.counters["rejected.queue_full"] == 1


def test_admission_queue_closed_refuses():
    queue: AdmissionQueue[int] = AdmissionQueue(max_depth=4)
    assert queue.offer(1)
    queue.close()
    assert not queue.offer(2)
    batch = queue.drain_batch(timeout=0.0)
    assert batch is not None and batch.items == [1]
    assert queue.drain_batch(timeout=0.0) is None


def test_admission_queue_never_mixes_epoch_pins():
    queue: AdmissionQueue[str] = AdmissionQueue(max_depth=8, max_batch=8)
    queue.offer("a0", epoch_key=0)
    queue.offer("b1", epoch_key=1)
    queue.offer("a1", epoch_key=0)
    queue.offer("free", epoch_key=EPOCH_ANY)
    first = queue.drain_batch(timeout=0.0)
    second = queue.drain_batch(timeout=0.0)
    assert first is not None and second is not None
    # Epoch-0 pins and the floating request share; the epoch-1 pin waits.
    assert first.items == ["a0", "a1", "free"]
    assert first.epoch_key == 0
    assert second.items == ["b1"]
    assert second.epoch_key == 1


def test_admission_queue_floating_batch_adopts_first_pin():
    queue: AdmissionQueue[str] = AdmissionQueue(max_depth=8, max_batch=8)
    queue.offer("free", epoch_key=EPOCH_ANY)
    queue.offer("pin3", epoch_key=3)
    queue.offer("pin4", epoch_key=4)
    batch = queue.drain_batch(timeout=0.0)
    assert batch is not None
    assert batch.items == ["free", "pin3"]
    assert batch.epoch_key == 3


# -- snapshot epochs ---------------------------------------------------------


def test_stale_epoch_rejected_mid_batch_without_poisoning_mates():
    service = SelectionService(small_universe(), history())
    pinned = service.submit(request("pinned", epoch=0))
    floating = service.submit(request("floating", target="t5"))
    # The chain grows while both requests sit in the queue: the batch
    # they end up in executes against epoch 1.
    service.commit_ring(["t3", "t4"], c=2.0, ell=2)
    assert service.epoch == 1

    service.start()
    try:
        stale = pinned.wait(30.0)
        served = floating.wait(30.0)
    finally:
        service.stop()

    assert stale.status == "rejected"
    assert stale.code == "stale_epoch"
    assert stale.epoch == 1
    assert served.status == "ok"
    assert served.epoch == 1
    # Same batch: the stale rejection did not split or kill the batch.
    assert stale.batch_id == served.batch_id
    assert stale.batch_size == served.batch_size == 2
    # The floating mate was answered against the *new* snapshot (the
    # committed ring consumed t3, so its history is two rings deeper).
    direct = bfs_select(
        DamsInstance(
            small_universe(),
            history()
            + [Ring("svc:2", frozenset({"t3", "t4"}), c=2.0, ell=2, seq=2)],
            "t5",
            c=2.0,
            ell=2,
        )
    )
    assert sorted(served.tokens) == sorted(direct.ring.tokens)


def test_commit_invalidates_warm_cache_deterministically():
    """A commit drops exactly the warm state its ring reaches.

    The history's rings form one token-overlap component, {t1, t2}.  A
    commit disjoint from it keeps that component's world enumeration
    object-identical into the next epoch; a commit joining it drops it.
    """
    service = SelectionService(small_universe(), history())
    service.start()
    try:
        first = service.submit_wait(request("w1"), 30.0)
        second = service.submit_wait(request("w2", target="t4"), 30.0)
        assert not first.warm_cache and second.warm_cache
        cache = service.state.current().solver_cache()
        kept = cache.base_worlds(cache.related_key(["t1"]))
        service.commit_ring(["t3", "t4"], c=2.0, ell=2)
        third = service.submit_wait(request("w3", target="t5"), 30.0)
        assert third.warm_cache
        head = service.state.current().solver_cache()
        assert head.base_worlds(head.related_key(["t1"])) is kept
        assert service.state.caches_invalidated == 0
        service.commit_ring(["t1", "t2", "t5"], c=2.0, ell=2)
    finally:
        service.stop()
    assert service.state.caches_invalidated == 1
    assert service.state.delta_counters["worlds_invalidated"] == 1


def test_commit_rejects_duplicate_rid():
    state = ServiceState(small_universe(), history())
    with pytest.raises(DuplicateRingId, match="duplicate ring id"):
        state.commit(Ring("r1", frozenset({"t3"}), c=1.0, ell=1, seq=2))


# -- batch-mate isolation ----------------------------------------------------


def test_one_degrading_request_does_not_poison_batch_mates():
    service = SelectionService(small_universe(), history())
    mates = [
        service.submit(request("m1", target="t3")),
        # A budget so small the exact rung trips on its first deadline
        # check; the ladder steps down and still answers.
        service.submit(
            SelectRequest(
                request_id="victim", target="t4", c=2.0, ell=2,
                mode="ladder", time_budget=1e-9,
            )
        ),
        service.submit(request("m2", target="t5")),
    ]
    service.start()
    try:
        first, degraded, last = [pending.wait(30.0) for pending in mates]
    finally:
        service.stop()

    assert degraded.status == "ok"
    assert degraded.degraded and degraded.rung != "exact"
    # All three shared one batch; the mates got exact, undegraded answers
    # identical to direct solver calls.
    assert first.batch_id == degraded.batch_id == last.batch_id
    for response, target in ((first, "t3"), (last, "t5")):
        assert response.status == "ok" and not response.degraded
        direct = bfs_select(
            DamsInstance(small_universe(), history(), target, c=2.0, ell=2)
        )
        assert sorted(response.tokens) == sorted(direct.ring.tokens)
        assert response.candidates_checked == direct.candidates_checked


def test_exact_mode_budget_trip_is_a_typed_error():
    service = SelectionService(small_universe(), history())
    service.start()
    try:
        response = service.submit_wait(
            request("b1", time_budget=1e-9), 30.0
        )
    finally:
        service.stop()
    assert response.status == "error"
    assert response.code == "budget_exceeded"


def test_per_request_fault_plan_is_isolated_and_fresh():
    plan = {
        "version": 1,
        "seed": 0,
        "faults": [{"site": "bfs.candidate", "action": "error", "at_hit": 1}],
    }
    service = SelectionService(small_universe(), history())
    chaotic_a = service.submit(request("chaos-a", fault_plan=plan))
    healthy = service.submit(request("healthy", target="t4"))
    chaotic_b = service.submit(request("chaos-b", target="t5", fault_plan=plan))
    service.start()
    try:
        responses = [p.wait(30.0) for p in (chaotic_a, healthy, chaotic_b)]
    finally:
        service.stop()

    assert responses[0].status == "error"
    assert responses[0].code == "fault_injected"
    # Fresh plan per request: the second chaotic request fires at *its*
    # first candidate too (per-process counters would have spent the
    # single max_fires already).
    assert responses[2].status == "error"
    assert responses[2].code == "fault_injected"
    assert responses[1].status == "ok"
    direct = bfs_select(
        DamsInstance(small_universe(), history(), "t4", c=2.0, ell=2)
    )
    assert sorted(responses[1].tokens) == sorted(direct.ring.tokens)


def test_infeasible_is_a_typed_error_not_a_crash():
    # ell larger than the number of distinct HTs can never be met.
    service = SelectionService(small_universe(), history())
    service.start()
    try:
        response = service.submit_wait(
            SelectRequest(
                request_id="inf", target="t3", c=1.0, ell=7, mode="exact"
            ),
            30.0,
        )
        after = service.submit_wait(request("after", target="t4"), 30.0)
    finally:
        service.stop()
    assert response.status == "error"
    assert response.code == "infeasible"
    assert after.status == "ok"


# -- result memo -------------------------------------------------------------


def test_identical_requests_are_memo_served_byte_identically():
    service = SelectionService(small_universe(), history())
    service.start()
    try:
        first = service.submit_wait(request("a1"), 30.0)
        second = service.submit_wait(request("a2"), 30.0)
    finally:
        service.stop()
    direct = bfs_select(
        DamsInstance(small_universe(), history(), "t3", c=2.0, ell=2)
    )
    for response in (first, second):
        assert response.status == "ok"
        assert sorted(response.tokens) == sorted(direct.ring.tokens)
        assert response.candidates_checked == direct.candidates_checked
    assert "memo" not in first.attrs
    assert second.attrs.get("memo") is True
    assert second.request_id == "a2"  # identity is per-request, not replayed
    assert service.counters["memo.hits"] == 1
    assert service.counters["memo.stores"] == 1


def test_memo_dies_with_the_epoch():
    service = SelectionService(small_universe(), history())
    service.start()
    try:
        service.submit_wait(request("e1", target="t5"), 30.0)
        service.commit_ring(["t3", "t4"], c=2.0, ell=2)
        again = service.submit_wait(request("e2", target="t5"), 30.0)
    finally:
        service.stop()
    # Same parameters, new snapshot: solved fresh, not replayed.
    assert again.status == "ok"
    assert "memo" not in again.attrs
    assert "memo.hits" not in service.counters
    assert service.counters["memo.stores"] == 2


def test_ladder_memo_is_seed_scoped():
    service = SelectionService(small_universe(), history())
    service.start()
    try:
        service.submit_wait(request("s0", mode="ladder", seed=0), 30.0)
        other = service.submit_wait(request("s1", mode="ladder", seed=1), 30.0)
        same = service.submit_wait(request("s0b", mode="ladder", seed=0), 30.0)
    finally:
        service.stop()
    assert "memo" not in other.attrs  # different seed, different key
    assert same.attrs.get("memo") is True
    assert service.counters["memo.hits"] == 1
    assert service.counters["memo.stores"] == 2


def test_fault_plan_requests_bypass_the_memo():
    plan = {
        "version": 1,
        "seed": 0,
        "faults": [{"site": "bfs.candidate", "action": "error", "at_hit": 1}],
    }
    service = SelectionService(small_universe(), history())
    service.start()
    try:
        healthy = service.submit_wait(request("h1"), 30.0)
        chaotic = service.submit_wait(request("h2", fault_plan=plan), 30.0)
    finally:
        service.stop()
    assert healthy.status == "ok"
    # A memoized replay would have masked the injected fault.
    assert chaotic.status == "error"
    assert chaotic.code == "fault_injected"
    assert "memo.hits" not in service.counters


def test_stats_reports_the_cyclic_collector_per_generation():
    service = SelectionService(small_universe(), history())
    line, _ = handle_line(service, encode({"op": "stats", "id": "s"}))
    block = decode(line)["gc"]
    assert [sorted(row) for row in block] == [
        ["collected", "collections", "uncollectable"]
    ] * 3
    assert all(type(value) is int and value >= 0 for row in block for value in row.values())


# -- protocol ----------------------------------------------------------------


def test_select_request_round_trips_through_wire_form():
    req = SelectRequest(
        request_id="x", target="t3", c=2.0, ell=2, mode="exact",
        epoch=4, time_budget=1.5, max_mixins=3, seed=9,
    )
    assert SelectRequest.from_dict(decode(encode(req.to_dict()))) == req


def test_select_response_round_trips_through_wire_form():
    resp = SelectResponse(
        request_id="x", status="ok", epoch=2, tokens=("t3", "t4"),
        mixins=("t4",), rung="exact", claimed_c=2.0, claimed_ell=2,
        candidates_checked=3, elapsed=0.25, batch_id=7, batch_size=3,
        warm_cache=True,
    )
    parsed = SelectResponse.from_dict(decode(encode(resp.to_dict())))
    assert parsed.ok and sorted(parsed.tokens) == ["t3", "t4"]
    assert parsed.batch_id == 7 and parsed.warm_cache


def test_protocol_rejects_unknown_mode_and_empty_id():
    with pytest.raises(ProtocolError):
        SelectRequest(request_id="x", target="t", c=1.0, ell=1, mode="warp")
    with pytest.raises(ProtocolError):
        SelectRequest(request_id="", target="t", c=1.0, ell=1)
    with pytest.raises(ProtocolError):
        SelectRequest.from_dict({"id": "x", "target": "t", "c": "NaN-ish"})


def test_handle_line_answers_malformed_input_without_dying():
    service = SelectionService(small_universe(), history())
    line, keep_going = handle_line(service, "{broken")
    assert keep_going
    payload = decode(line)
    assert payload["status"] == "rejected"
    assert payload["code"] == "bad_request"

    line, keep_going = handle_line(service, encode({"op": "teleport"}))
    assert keep_going and decode(line)["code"] == "bad_request"

    line, keep_going = handle_line(service, encode({"op": "shutdown"}))
    assert not keep_going and decode(line)["status"] == "ok"


def raw_line(**fields: str) -> str:
    """A request line from raw JSON value texts (``NaN`` and ``1e999`` too)."""
    return "{" + ",".join(f'"{key}":{value}' for key, value in fields.items()) + "}"


@pytest.mark.parametrize(
    "override",
    [{"c": "NaN"}, {"c": '"nan"'}, {"c": "1e999"}, {"c": "-Infinity"},
     {"budget": "NaN"}, {"ell": "1e999"}],
    ids=lambda override: "-".join(f"{k}={v}" for k, v in override.items()),
)
def test_select_with_a_non_finite_number_is_a_bad_request(override):
    # A NaN c fails every HT gate, so the exact search would walk the
    # whole candidate space before answering infeasible; an infinite c
    # would be served and echoed as a non-JSON "Infinity"; a NaN budget
    # would silently mean none; int() of an infinite ell raised past
    # every handler.  Each is refused before anything is solved.
    universe = TokenUniverse({f"t{i:02d}": f"h{i % 5}" for i in range(16)})
    fields = {"op": '"select"', "id": '"a"', "target": '"t00"', "c": "2",
              "ell": "2", "mode": '"exact"', **override}
    with SelectionService(universe) as service:
        started = time.perf_counter()
        reply, keep_going = handle_line(service, raw_line(**fields))
        elapsed = time.perf_counter() - started
    assert keep_going
    payload = decode(reply)
    assert (payload["status"], payload["code"]) == ("rejected", "bad_request")
    assert service.counters.get("requests", 0) == 0
    assert elapsed < 0.1


@pytest.mark.parametrize(
    "override", [{"c": "1e999"}, {"c": "NaN"}, {"ell": "1e999"}],
    ids=lambda override: "-".join(f"{k}={v}" for k, v in override.items()),
)
def test_commit_with_a_non_finite_number_is_a_bad_request(tmp_path, override):
    # An infinite c was acknowledged and journaled as "c":Infinity, a
    # line no strict JSON reader accepts; an infinite ell raised past
    # every handler.
    journal = Journal(tmp_path / "j")
    journal.append_genesis(small_universe(), history(), None)
    service = SelectionService(
        small_universe(), history(), ServiceConfig(journal=journal)
    )
    fields = {"op": '"commit"', "id": '"k"', "tokens": '["t3","t4"]', "c": "2",
              "ell": "2", **override}
    started = time.perf_counter()
    reply, keep_going = handle_line(service, raw_line(**fields))
    elapsed = time.perf_counter() - started
    journal.close()
    assert keep_going
    payload = decode(reply)
    assert (payload["status"], payload["code"]) == ("rejected", "bad_request")
    assert elapsed < 0.1
    assert service.epoch == 0
    assert Journal(tmp_path / "j").recover().epoch == 0


def strict_json(text: str):
    """``json.loads`` that refuses the non-JSON constants Python writes
    for non-finite floats (``NaN``, ``Infinity``, ``-Infinity``)."""

    def refuse(name: str):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]
OP_FIELDS = {
    "select": {"target": '"t3"', "c": "2", "ell": "2", "mode": '"exact"'},
    "commit": {"tokens": '["t3","t4"]', "c": "2", "ell": "2", "rid": '"k1"'},
    "epoch": {}, "stats": {}, "metrics": {}, "health": {}, "shutdown": {},
}


@pytest.mark.parametrize("spelling", NON_FINITE)
@pytest.mark.parametrize("op", sorted(OP_FIELDS))
def test_every_op_refuses_a_non_finite_id(op, spelling):
    # Every op echoes the request's id; Python's json read NaN,
    # Infinity and 1e999 and wrote them back as tokens no strict JSON
    # parser accepts.  The line is refused before anything runs.
    line = raw_line(op=f'"{op}"', id=spelling, **OP_FIELDS[op])
    with SelectionService(small_universe(), history()) as service:
        reply, keep_going = handle_line(service, line)
    payload = strict_json(reply)
    assert keep_going
    assert (payload["status"], payload["code"]) == ("rejected", "bad_request")
    assert service.epoch == 0
    assert service.counters.get("requests", 0) == 0


@pytest.mark.parametrize("spelling", NON_FINITE)
def test_a_commit_with_a_non_finite_id_is_not_journaled(tmp_path, spelling):
    journal = Journal(tmp_path / "j")
    journal.append_genesis(small_universe(), history(), None)
    service = SelectionService(
        small_universe(), history(), ServiceConfig(journal=journal)
    )
    line = raw_line(op='"commit"', id=spelling, **OP_FIELDS["commit"])
    reply, _ = handle_line(service, line)
    journal.close()
    assert strict_json(reply)["code"] == "bad_request"
    assert service.epoch == 0
    assert Journal(tmp_path / "j").recover().epoch == 0


def test_stdio_answers_lines_json_cannot_read():
    # An integer literal past Python's int-string digit limit raised
    # ValueError, and deep nesting RecursionError, out of the session's
    # reader: the stdio session ended without answering the lines after.
    lines = [
        raw_line(op='"epoch"', id="1" * 5000),
        "[" * 100_000,
        raw_line(op='"epoch"', id='"e"'),
        raw_line(op='"shutdown"', id='"s"'),
    ]
    out = io.StringIO()
    with SelectionService(small_universe(), history()) as service:
        served = serve_stdio(service, io.StringIO("\n".join(lines) + "\n"), out)
    replies = [strict_json(reply) for reply in out.getvalue().splitlines()]
    assert served == 4
    assert [reply.get("code") for reply in replies[:2]] == ["bad_request"] * 2
    assert replies[2]["status"] == "ok" and replies[2]["id"] == "e"
    assert replies[3]["shutdown"] is True


FUZZ_VALUES = [
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1e308", "-0.0", "0",
    "-1", "1", "2", "3", "2.5", "123456789012345678901234567890", '"t3"',
    '"t4"', '"t9"', '""', '"nan"', '"inf"', '"exact"', '"ladder"', '"x"',
    "null", "true", "false", "[]", "{}", '["t3","t4"]', '["t5"]',
    '["t3",NaN]', "[[[1]]]", '{"a":NaN}', '{"version":1,"faults":[]}',
    '{"faults":7}', '"\\u0000"', '"k1"', '"k2"',
]
FUZZ_KEYS = [
    "id", "target", "c", "ell", "mode", "epoch", "budget", "max_mixins",
    "seed", "fault_plan", "tokens", "rid",
]


def hostile_line(rng: random.Random, request_id: str = '"q"') -> str:
    """Each op's valid line with up to four protocol keys set to hostile
    values, a tenth of the lines cut short."""
    op = rng.choice([*OP_FIELDS, "teleport", None])
    fields = {} if op is None else {"op": f'"{op}"', "id": request_id, **OP_FIELDS.get(op, {})}
    for key in rng.sample(FUZZ_KEYS, rng.randint(0, 4)):
        fields[key] = rng.choice(FUZZ_VALUES)
    line = raw_line(**fields)
    if rng.random() < 0.1:
        line = line[: rng.randrange(len(line))]
    return line


def test_fuzzed_request_lines_each_get_one_json_reply():
    # Every line gets exactly one reply, and the reply is a JSON object
    # with a status that a strict parser reads, never internal_error.
    rng = random.Random(24)
    statuses = Counter()
    with SelectionService(
        small_universe(), history(), ServiceConfig(default_budget=0.05)
    ) as service:
        for _ in range(2000):
            line = hostile_line(rng)
            reply, _ = handle_line(service, line)
            assert "\n" not in reply
            payload = strict_json(reply)
            assert isinstance(payload, dict) and "status" in payload, reply
            assert payload.get("code") != "internal_error", (line, reply)
            statuses[payload["status"]] += 1
    assert service.epoch > 0, "some fuzzed commits must apply"
    assert statuses["ok"] > 100 and statuses["rejected"] > 100, statuses
    assert statuses["error"] > 0, statuses


SELECT_FIELDS = {"op": '"select"', "id": '"q"', **OP_FIELDS["select"]}


@pytest.mark.parametrize(
    "plan",
    ['"chaos"', "[]", "7", "{}", '{"faults":7}', '{"version":1,"faults":[7]}',
     '{"version":1,"faults":[{"site":"bfs.candidate","action":"explode"}]}',
     '{"version":1,"faults":[{"site":"bfs.candidate","action":"error","max_fires":"x"}]}',
     '{"version":1,"faults":[{"site":"bfs.candidate","action":"error","at_hit":1.5}]}',
     '{"version":1,"faults":[{"site":"bfs.candidate","action":"error","at_index":[0]}]}',
     '{"version":1,"faults":[{"site":"bfs.candidate","action":"error","on_attempt":null}]}',
     '{"version":1,"faults":[{"site":"bfs.candidate","action":"error","probability":"x"}]}',
     '{"version":1,"faults":[{"site":7,"action":"error"}]}',
     '{"version":1,"faults":[{"site":"bfs.candidate","action":"delay","payload":1e300}]}'],
)
def test_select_with_a_malformed_fault_plan_is_a_bad_request(plan):
    # The worker built the plan per request, so a document FaultPlan
    # cannot read was admitted and answered internal_error; so was a
    # spec whose trigger fields are not integers (the first check
    # compared them) or whose delay overflows time.sleep.
    with SelectionService(small_universe(), history()) as service:
        reply, keep_going = handle_line(
            service, raw_line(**SELECT_FIELDS, fault_plan=plan)
        )
    payload = strict_json(reply)
    assert keep_going
    assert (payload["status"], payload["code"]) == ("rejected", "bad_request")
    assert "fault_plan" in payload["detail"]
    assert service.counters.get("requests", 0) == 0


@pytest.mark.parametrize(
    "override",
    [{"c": "0"}, {"c": "-1"}, {"c": "-0.0"}, {"ell": "0"}, {"ell": "-2"}],
    ids=lambda override: "-".join(f"{k}={v}" for k, v in override.items()),
)
def test_select_with_an_invalid_requirement_is_a_bad_request(override):
    # A c <= 0 or an ell < 1 was admitted, and the solve's DamsInstance
    # raised ValueError, answered internal_error.
    with SelectionService(small_universe(), history()) as service:
        reply, _ = handle_line(service, raw_line(**{**SELECT_FIELDS, **override}))
    payload = strict_json(reply)
    assert (payload["status"], payload["code"]) == ("rejected", "bad_request")
    assert service.counters.get("requests", 0) == 0


@pytest.mark.parametrize("target", ["x", "t9", "", "\u0000"])
def test_select_of_a_target_outside_the_universe_is_refused_at_submit(target):
    # Not started: the refusal must resolve the slot inside submit,
    # before any worker runs (it was admitted and answered
    # internal_error by the solve).
    service = SelectionService(small_universe(), history())
    pending = service.submit(request("away", target=target))
    assert pending.done
    response = pending.wait(0)
    assert (response.status, response.code) == ("rejected", "bad_request")
    assert repr(target) in response.detail
    assert service.counters == {"rejected.bad_request": 1}
    assert service.queue_depth() == 0


@pytest.mark.parametrize("c", [float("nan"), float("inf")])
def test_admission_and_instances_refuse_a_non_finite_c(c):
    state = ServiceState(small_universe(), history())
    with pytest.raises(ValueError, match="finite"):
        state.admit_commit(["t3", "t4"], c, 2)
    assert state.epoch == 0
    with pytest.raises(ValueError):
        DamsInstance(small_universe(), history(), "t3", c=c, ell=2)


def test_exact_mode_answers_are_reverified(monkeypatch):
    # A kernel that calls one infeasible candidate feasible: {t2, t3}
    # is eliminated (r1 and r2 always consume t1 and t2 between them),
    # yet the exact search would return it as the first feasible ring.
    original = kernels.KernelState.verdict_of

    def lenient(state, universe, tokens, c, ell, deadline=None):
        verdict = original(state, universe, tokens, c, ell, deadline=deadline)
        return "feasible" if tokens == {"t2", "t3"} else verdict

    monkeypatch.setattr(kernels.KernelState, "verdict_of", lenient)
    instance = DamsInstance(small_universe(), history(), "t3", c=2.0, ell=2)
    assert bfs_select(instance).ring.tokens == {"t2", "t3"}
    with SelectionService(small_universe(), history()) as service:
        response = service.submit_wait(request("x1"), 30.0)
    assert (response.status, response.code) == ("error", "constraint_violation")
    assert "non_eliminated" in response.detail
    assert response.tokens == ()


# -- socket front end ----------------------------------------------------------


@contextlib.contextmanager
def socket_connection(tmp_path):
    """A live ``serve_socket`` daemon and one raw connection to it."""
    path = str(tmp_path / "s.sock")
    ready = threading.Event()
    with SelectionService(small_universe(), history()) as service:
        server = threading.Thread(
            target=serve_socket, args=(service, path, ready), daemon=True
        )
        server.start()
        assert ready.wait(5.0)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(30.0)
            conn.connect(path)
            with conn.makefile("rb") as replies:
                yield conn, replies
                conn.sendall(b'{"op":"shutdown"}\n')
                assert decode(replies.readline().decode())["shutdown"] is True
        server.join(timeout=5.0)
        assert not server.is_alive()


def select_line(rid: str) -> bytes:
    payload = {"op": "select", **request(rid).to_dict()}
    return (encode(payload) + "\n").encode()


def test_socket_answers_a_line_that_is_not_utf8(tmp_path):
    with socket_connection(tmp_path) as (conn, replies):
        conn.sendall(b'\xff\xfe{"op":"epoch"}\n' + select_line("after"))
        rejected = decode(replies.readline().decode())
        assert rejected["status"] == "rejected"
        assert rejected["code"] == "bad_request"
        assert "UTF-8" in rejected["detail"]
        answered = decode(replies.readline().decode())
        assert (answered["id"], answered["status"]) == ("after", "ok")


def test_socket_discards_an_over_long_line_with_one_reply(tmp_path):
    with socket_connection(tmp_path) as (conn, replies):
        # The reader answers as soon as the line passes the bound, with
        # no newline in sight, and drops the rest of it unbuffered.
        conn.sendall(b"x" * (MAX_LINE_BYTES + 1))
        rejected = decode(replies.readline().decode())
        assert (rejected["status"], rejected["code"]) == ("rejected", "bad_request")
        assert str(MAX_LINE_BYTES) in rejected["detail"]
        for _ in range(2):
            conn.sendall(b"x" * MAX_LINE_BYTES)
        conn.sendall(b"\n" + select_line("after"))
        answered = decode(replies.readline().decode())
        assert (answered["id"], answered["status"]) == ("after", "ok")


@contextlib.contextmanager
def stdio_session():
    """A live ``serve_stdio`` session reading and writing over two pipes."""
    requests_in, requests_out = os.pipe()
    replies_in, replies_out = os.pipe()
    with SelectionService(small_universe(), history()) as service, \
            open(requests_in, encoding="utf-8") as in_stream, \
            open(replies_out, "w", encoding="utf-8") as out_stream, \
            open(requests_out, "wb") as requests, \
            open(replies_in, "rb", buffering=0) as replies:
        server = threading.Thread(
            target=serve_stdio, args=(service, in_stream, out_stream), daemon=True
        )
        server.start()

        def send(data: bytes) -> None:
            requests.write(data)
            requests.flush()

        def reply() -> dict:
            assert select.select([replies], [], [], 30.0)[0], "no reply in 30 s"
            return decode(replies.readline().decode())

        yield send, reply
        send(b'{"op":"shutdown"}\n')
        assert reply()["shutdown"] is True
        server.join(timeout=5.0)
        assert not server.is_alive()


def test_stdio_discards_an_over_long_line_with_one_reply():
    with stdio_session() as (send, reply):
        # Same contract as the socket: one reply as soon as the line
        # passes the bound, no newline in sight, and the rest dropped.
        send(b"x" * (MAX_LINE_BYTES + 1))
        rejected = reply()
        assert (rejected["status"], rejected["code"]) == ("rejected", "bad_request")
        assert str(MAX_LINE_BYTES) in rejected["detail"]
        for _ in range(2):
            send(b"x" * MAX_LINE_BYTES)
        send(b"\n" + select_line("after"))
        answered = reply()
        assert (answered["id"], answered["status"]) == ("after", "ok")


# -- the front ends end to end -------------------------------------------------


def ends_session(line: str) -> bool:
    """Is ``line`` a ``shutdown`` a front end would act on?"""
    try:
        return decode(line).get("op") == "shutdown"
    except ProtocolError:
        return False


def transport_corpus(seed: int, count: int) -> tuple[list[bytes], list[str]]:
    """Raw request lines for a front end, and the id each answered line
    carries when the reply echoes one of ours.

    The hostile corpus of the fuzz test above, each line given its own
    id and no ``shutdown`` among them, plus what only a transport sees:
    bytes that are not UTF-8, a line over ``MAX_LINE_BYTES``, CRLF
    endings and blank lines.  The last line is a ``shutdown`` with no
    newline after it.  Blank lines
    get no reply and have no entry in the second list.
    """
    rng = random.Random(seed)
    lines: list[bytes] = []
    expected: list[str] = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice([b"", b"   ", b"\r", b"\t"]))
            continue
        if roll < 0.08:
            lines.append(rng.choice([b'\xff\xfe{"op":"epoch"}', b'{"op":"epoch","id":"\xc3"}']))
        elif roll < 0.09:
            lines.append(b"x" * (MAX_LINE_BYTES + 1))
        else:
            line = hostile_line(rng, f'"q{index}"')
            while ends_session(line):
                line = hostile_line(rng, f'"q{index}"')
            lines.append(line.encode() + (b"\r" if rng.random() < 0.2 else b""))
            if not line.strip():  # cut short to nothing
                continue
        expected.append(f"q{index}")
    lines.append(b'{"op":"shutdown","id":"end"}')
    expected.append("end")
    return lines, expected


def check_transport_replies(replies: list[str], expected: list[str]) -> Counter:
    """One strict-JSON reply with a status per non-blank line, in line
    order, none ``internal_error``, the final shutdown answered."""
    assert len(replies) == len(expected), (len(replies), len(expected))
    statuses = Counter()
    for reply, request_id in zip(replies, expected):
        payload = strict_json(reply)
        assert isinstance(payload, dict) and "status" in payload, reply
        assert payload.get("code") != "internal_error", reply
        echoed = payload.get("id")
        if isinstance(echoed, str) and echoed.startswith("q") and echoed[1:].isdigit():
            assert echoed == request_id, (echoed, request_id)
        statuses[payload["status"]] += 1
    last = strict_json(replies[-1])
    assert (last["id"], last["shutdown"]) == ("end", True)
    assert statuses["ok"] > 20 and statuses["rejected"] > 20, statuses
    return statuses


def test_socket_front_end_answers_the_hostile_corpus(tmp_path):
    # The unterminated last line was buffered and dropped at EOF, so
    # the final shutdown went unanswered.
    lines, expected = transport_corpus(seed=31, count=500)
    path = str(tmp_path / "s.sock")
    ready = threading.Event()
    config = ServiceConfig(default_budget=0.05)
    with SelectionService(small_universe(), history(), config) as service:
        server = threading.Thread(
            target=serve_socket, args=(service, path, ready), daemon=True
        )
        server.start()
        assert ready.wait(5.0)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(60.0)
            conn.connect(path)
            conn.sendall(b"\n".join(lines))
            conn.shutdown(socket.SHUT_WR)
            with conn.makefile("rb") as stream:
                replies = [raw.decode("utf-8") for raw in stream]
        server.join(timeout=10.0)
        assert not server.is_alive()
    check_transport_replies(replies, expected)


def test_stdio_front_end_answers_the_hostile_corpus():
    # A strict UTF-8 text stream raised UnicodeDecodeError out of the
    # read on the first bad byte, which ended the session unanswered.
    lines, expected = transport_corpus(seed=32, count=500)
    in_stream = io.TextIOWrapper(io.BytesIO(b"\n".join(lines)), encoding="utf-8")
    out = io.StringIO()
    config = ServiceConfig(default_budget=0.05)
    with SelectionService(small_universe(), history(), config) as service:
        served = serve_stdio(service, in_stream, out)
    replies = out.getvalue().splitlines()
    assert served == len(expected)
    check_transport_replies(replies, expected)

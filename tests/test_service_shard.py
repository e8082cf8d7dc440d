"""The shard router contract: routing changes *where* work happens.

Three layers of pinning:

* the TokenMagic partition is deterministic and batch-local commits
  are enforced (:mod:`repro.service.partition`,
  :mod:`repro.service.state` retention);
* :class:`~repro.service.router.ShardRouter` responses are
  byte-identical (modulo execution coordinates: elapsed, batch ids,
  warm/memo flags) to the partitioned single-worker
  :class:`~repro.service.daemon.SelectionService` at equal seeds —
  including multi-batch scatter, interleaved commits, stale-epoch
  pins, unknown targets and shard-loss chaos replays;
* the socket front-end is pipelined, not lockstep: one client's burst
  micro-batches, two clients interleave, and non-select ops are
  barriers that observe every earlier select completed.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.ring import Ring, TokenUniverse
from repro.obs.clock import ManualClock
from repro.resilience.supervisor import RetryPolicy
from repro.service import (
    RouterConfig,
    SelectionService,
    SelectRequest,
    ServiceClient,
    ServiceConfig,
    ServiceState,
    ShardRouter,
    TokenPartition,
    serve_socket,
)
from repro.service.telemetry import format_stats, format_top


def shard_universe(tokens: int = 24, hts: int = 6, seed: int = 3) -> TokenUniverse:
    rng = random.Random(seed)
    return TokenUniverse(
        {f"t{i:02d}": f"h{rng.randrange(hts)}" for i in range(tokens)}
    )


def batch_local_history(universe: TokenUniverse, batches: int = 4) -> list[Ring]:
    """One seed ring inside each of the first two batch slices."""
    part = TokenPartition(universe, batches=batches)
    return [
        Ring("r0", frozenset(part.tokens_of(0)[0:4]), c=2.0, ell=2, seq=0),
        Ring("r1", frozenset(part.tokens_of(1)[0:4]), c=2.0, ell=2, seq=1),
    ]


def canon(response) -> dict:
    """A response minus its execution coordinates.

    ``elapsed`` is wall-clock, ``batch_id``/``batch_size`` depend on
    how requests happened to coalesce, and ``warm_cache`` /
    ``attrs["memo"]`` on what ran before in the same process — none
    affect *what* was selected (the test_service_equivalence
    convention).
    """
    payload = response.to_dict()
    for key in ("elapsed", "batch_id", "batch_size", "warm_cache"):
        payload.pop(key, None)
    attrs = payload.get("attrs")
    if attrs is not None:
        attrs.pop("memo", None)
        if not attrs:
            payload.pop("attrs")
    return payload


# -- the partition ----------------------------------------------------------


def test_partition_is_deterministic_and_total():
    universe = shard_universe()
    a = TokenPartition(universe, batches=4)
    b = TokenPartition(universe, batches=4)
    assert a == b
    assert sorted(
        token for batch in range(a.batches) for token in a.tokens_of(batch)
    ) == sorted(universe.tokens)
    for batch in range(a.batches):
        for token in a.tokens_of(batch):
            assert a.batch_of(token) == batch
            assert token in a.universe_of(batch).tokens


def test_partition_rejects_unknown_and_spanning_rings():
    universe = shard_universe()
    part = TokenPartition(universe, batches=4)
    with pytest.raises(KeyError, match="not in the partitioned universe"):
        part.batch_of("zz")
    spanning = (part.tokens_of(0)[0], part.tokens_of(1)[0])
    with pytest.raises(ValueError, match="spans batches"):
        part.batch_of_ring(spanning)
    with pytest.raises(ValueError, match="not in the partitioned universe"):
        part.batch_of_ring(("zz",))


def test_commit_retains_untouched_batch_warm_state():
    universe = shard_universe()
    part = TokenPartition(universe, batches=4)
    state = ServiceState(universe, (), partition=part)
    snap = state.current()
    touched_token = part.tokens_of(0)[0]
    kept_token = part.tokens_of(2)[0]
    snap.solve_view(touched_token).solver_cache()
    kept_view = snap.solve_view(kept_token)
    kept_view.solver_cache()

    ring = Ring("c0", frozenset(part.tokens_of(0)[0:3]), c=2.0, ell=2, seq=0)
    head = state.commit(ring)

    assert head.epoch == snap.epoch + 1
    assert head.solve_view(kept_token) is kept_view  # warm slice carried
    assert head.solve_view(touched_token) is not snap.solve_view(touched_token)
    assert state.delta_counters["parts_retained"] == 1  # only the touched batch moved


def test_partition_one_matches_unpartitioned_service():
    universe = shard_universe()
    requests = [
        SelectRequest(request_id=f"r{i}", target=target, c=2.0, ell=2, mode=mode)
        for i, (target, mode) in enumerate(
            [("t03", "exact"), ("t07", "ladder"), ("t03", "exact"), ("t19", "ladder")]
        )
    ]
    with SelectionService(universe) as plain:
        baseline = [plain.submit_wait(request, 60.0) for request in requests]
    with SelectionService(universe, config=ServiceConfig(partition=1)) as one:
        partitioned = [one.submit_wait(request, 60.0) for request in requests]
    for a, b in zip(baseline, partitioned):
        da, db = a.to_dict(), b.to_dict()
        da.pop("elapsed"), db.pop("elapsed")
        assert da == db


# -- router vs partitioned single service ------------------------------------


def scripted_workload(service) -> list[dict]:
    """Selects + interleaved commits, identical against either backend.

    Exercises both modes, hot-target repeats, multi-batch scatter, a
    stale-epoch pin, an unknown target, and two commits whose
    invalidation the retained shards must get right.
    """
    part = TokenPartition(shard_universe(), batches=4)
    hot = [part.tokens_of(b)[5] for b in range(4)]
    out = []

    def run(requests):
        slots = [service.submit(request) for request in requests]
        out.extend(canon(slot.wait(60.0)) for slot in slots)

    run(
        [
            SelectRequest(request_id=f"a{i}", target=target, c=2.0, ell=2,
                          mode="exact")
            for i, target in enumerate(hot)
        ]
    )
    run(
        [
            SelectRequest(request_id=f"b{i}", target=target, c=2.0, ell=2,
                          mode="ladder", seed=7)
            for i, target in enumerate(hot)
        ]
    )
    first = next(entry for entry in out if entry["status"] == "ok")
    service.commit_ring(tokens=first["tokens"], c=2.0, ell=2)
    run(
        [
            SelectRequest(request_id=f"c{i}", target=target, c=2.0, ell=2,
                          mode="exact")
            for i, target in enumerate(hot)
        ]
    )
    # Stale pin: epoch 0 is gone after the commit.
    run([SelectRequest(request_id="stale", target=hot[0], c=2.0, ell=2,
                       epoch=0)])
    # Unknown target: refused bad_request at submission.
    run([SelectRequest(request_id="unknown", target="zz", c=2.0, ell=2)])
    service.commit_ring(tokens=part.tokens_of(2)[0:3], c=2.0, ell=2)
    run(
        [
            SelectRequest(request_id=f"d{i}", target=target, c=2.0, ell=2,
                          mode="ladder", seed=11)
            for i, target in enumerate(hot)
        ]
    )
    return out


def test_router_matches_partitioned_single_service():
    universe = shard_universe()
    hist = batch_local_history(universe)
    with SelectionService(
        universe, hist, config=ServiceConfig(partition=4)
    ) as single:
        baseline = scripted_workload(single)
    with ShardRouter(
        universe, hist, config=RouterConfig(shards=2, batches=4)
    ) as router:
        sharded = scripted_workload(router)
    assert sharded == baseline
    statuses = {entry["status"] for entry in baseline}
    assert statuses == {"ok", "rejected", "error"}  # all paths exercised


def test_router_refuses_a_target_outside_the_universe_at_submit():
    # Not started, so no shard can answer: the refusal resolves inside
    # submit, as the single daemon's does (it was routed to shard 0 and
    # answered internal_error there).
    router = ShardRouter(shard_universe(), config=RouterConfig(shards=2, batches=4))
    pending = router.submit(
        SelectRequest(request_id="away", target="zz", c=2.0, ell=2)
    )
    assert pending.done
    response = pending.wait(0)
    assert (response.status, response.code) == ("rejected", "bad_request")
    assert router.counters == {"rejected.bad_request": 1}
    assert router.queue_depth() == 0


def test_submit_many_scatter_preserves_input_order():
    universe = shard_universe()
    requests = [
        SelectRequest(request_id=f"s{i}", target=f"t{i:02d}", c=2.0, ell=2,
                      mode="exact")
        for i in range(0, 24, 2)
    ]
    with ShardRouter(
        universe, config=RouterConfig(shards=4, batches=8)
    ) as router:
        responses = router.submit_wait_many(requests, timeout=60.0)
    assert [r.request_id for r in responses] == [r.request_id for r in requests]
    assert all(r.status == "ok" for r in responses)


# -- shard loss and recovery -------------------------------------------------


def chaos_config(clock=None) -> RouterConfig:
    plan = {
        "version": 1,
        "seed": 0,
        "faults": [
            {"site": "shard.batch", "action": "die",
             "at_index": 0, "on_attempt": 0}
        ],
    }
    return RouterConfig(
        shards=2,
        batches=4,
        fault_plan=plan,
        clock=clock,
        retry=RetryPolicy(max_retries=2, hang_timeout=30.0, death_grace=0.5),
    )


def test_shard_loss_is_retried_and_responses_replay_identically():
    universe = shard_universe()
    requests = [
        SelectRequest(request_id=f"k{i}", target=f"t{i:02d}", c=2.0, ell=2,
                      mode="exact")
        for i in range(0, 24, 3)
    ]
    clock = ManualClock()
    with ShardRouter(universe, config=chaos_config(clock)) as router:
        chaotic = router.submit_wait_many(requests, timeout=60.0)
        assert router.counters.get("shard.retries", 0) >= 1
        health = router.health()
        assert health["health"] == "degraded"
        assert any("shard.retries" in reason for reason in health["reasons"])
        clock.advance(120.0)  # the telemetry window forgets the loss
        assert router.health()["health"] == "ready"
    with ShardRouter(
        universe, config=RouterConfig(shards=2, batches=4)
    ) as router:
        calm = router.submit_wait_many(requests, timeout=60.0)
    assert all(r.status == "ok" for r in chaotic)
    assert [canon(a) for a in chaotic] == [canon(b) for b in calm]


def test_commits_survive_a_shard_loss_between_batches():
    universe = shard_universe()
    part = TokenPartition(universe, batches=4)
    clock = ManualClock()
    with ShardRouter(universe, config=chaos_config(clock)) as router:
        first = router.submit_wait(
            SelectRequest(request_id="w0", target=part.tokens_of(0)[5],
                          c=2.0, ell=2, mode="exact"),
            timeout=60.0,
        )
        assert first.status == "ok"
        router.commit_ring(tokens=first.tokens, c=2.0, ell=2)
        after = router.submit_wait(
            SelectRequest(request_id="w1", target=part.tokens_of(2)[5],
                          c=2.0, ell=2, mode="exact"),
            timeout=60.0,
        )
        assert after.status == "ok"
        assert after.epoch == 1
    with ShardRouter(
        universe, config=RouterConfig(shards=2, batches=4)
    ) as router:
        calm_first = router.submit_wait(
            SelectRequest(request_id="w0", target=part.tokens_of(0)[5],
                          c=2.0, ell=2, mode="exact"),
            timeout=60.0,
        )
        router.commit_ring(tokens=calm_first.tokens, c=2.0, ell=2)
        calm_after = router.submit_wait(
            SelectRequest(request_id="w1", target=part.tokens_of(2)[5],
                          c=2.0, ell=2, mode="exact"),
            timeout=60.0,
        )
    assert canon(first) == canon(calm_first)
    assert canon(after) == canon(calm_after)


def test_retry_exhaustion_is_a_typed_internal_error():
    """A shard that dies on *every* attempt exhausts the supervised
    retry budget: the batch answers with a typed ``internal_error``
    carrying the attempt count (never an unhandled exception), and the
    resilience counters match the injected plan exactly — three deaths
    = two retries observed + one worker lost."""
    universe = shard_universe()
    plan = {
        "version": 1,
        "seed": 0,
        "faults": [
            {"site": "shard.batch", "action": "die",
             "at_index": 0, "on_attempt": attempt}
            for attempt in range(3)
        ],
    }
    clock = ManualClock()
    # Every attempt dies at dispatch, so a short hang timeout keeps
    # the three doomed attempts cheap; the healthy follow-up solve is
    # milliseconds against a 6-token batch slice.
    config = RouterConfig(
        shards=2,
        batches=4,
        fault_plan=plan,
        clock=clock,
        retry=RetryPolicy(max_retries=2, hang_timeout=3.0, death_grace=0.25),
    )
    with ShardRouter(universe, config=config) as router:
        doomed = router.submit_wait(
            SelectRequest(request_id="x0", target="t00", c=2.0, ell=2,
                          mode="exact"),
            timeout=60.0,
        )
        assert doomed.status == "error"
        assert doomed.code == "internal_error"
        assert "3 attempt(s)" in doomed.detail

        assert router.counters.get("shard.retries") == 2
        assert router.counters.get("shard.worker_lost") == 1
        assert router.telemetry.window_count("shard.retries") == 2
        assert router.telemetry.window_count("shard.worker_lost") == 1
        health = router.health()
        assert health["health"] == "degraded"
        assert any("shard.worker_lost=1" in r for r in health["reasons"])

        # The exhaustion was scoped to that batch: the respawned
        # worker (fresh fault counters, dispatch seq past every
        # at_index=0 spec) serves the same target fine.
        follow = router.submit_wait(
            SelectRequest(request_id="x1", target="t00", c=2.0, ell=2,
                          mode="exact"),
            timeout=60.0,
        )
        assert follow.status == "ok"
        assert follow.request_id == "x1"


# -- fleet observability -----------------------------------------------------


def test_stats_health_metrics_carry_shard_breakdown():
    universe = shard_universe()
    with ShardRouter(
        universe, config=RouterConfig(shards=2, batches=4)
    ) as router:
        router.submit_wait_many(
            [
                SelectRequest(request_id=f"o{i}", target=f"t{i:02d}",
                              c=2.0, ell=2, mode="exact")
                for i in range(0, 24, 4)
            ],
            timeout=60.0,
        )
        stats = router.stats()
        health = router.health()
        metrics = router.metrics_text()

    rows = stats["shards"]
    assert [row["shard"] for row in rows] == [0, 1]
    assert sorted(
        batch for row in rows for batch in row["batches"]
    ) == [0, 1, 2, 3]
    assert sum(row["requests"] for row in rows) == 6
    for row in rows:
        assert set(row) >= {
            "shard", "batches", "queue_depth", "requests", "epoch",
            "warm_hit_rate", "memo_hit_rate", "p99_s", "rungs",
        }
    assert [row["shard"] for row in health["shards"]] == [0, 1]
    assert health["health"] == "ready"

    assert 'shard="0"' in metrics and 'shard="1"' in metrics
    # Families are declared once (fleet body); shard bodies are labelled.
    assert metrics.count("# TYPE repro_service_requests_total counter") == 1
    assert 'repro_service_requests_total{shard="0"}' in metrics

    rendered = format_stats(stats)
    assert "shards:" in rendered and "rungs" in rendered
    framed = format_top(stats, health)
    assert "fleet: 2 shard(s)" in framed


# -- the pipelined front-end -------------------------------------------------


def socket_backdrop(service, tmp_path):
    path = tmp_path / "svc.sock"
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_socket, args=(service, path, ready), daemon=True
    )
    thread.start()
    assert ready.wait(5.0)
    return path, thread


def test_single_connection_burst_micro_batches(tmp_path):
    universe = shard_universe()
    config = ServiceConfig(linger_s=0.25)
    with SelectionService(universe, config=config) as service:
        path, thread = socket_backdrop(service, tmp_path)
        with ServiceClient(path) as client:
            responses = client.select_many(
                [
                    SelectRequest(request_id=f"p{i}", target=f"t{i:02d}",
                                  c=2.0, ell=2, mode="exact")
                    for i in range(6)
                ]
            )
            assert [r.request_id for r in responses] == [f"p{i}" for i in range(6)]
            assert all(r.status == "ok" for r in responses)
            # Lockstep served every request in its own batch; the
            # pipelined reader admits the whole burst, so the linger
            # coalesces it.
            assert max(r.batch_size for r in responses) > 1
            client.shutdown()
        thread.join(timeout=5.0)


def test_two_clients_interleave_without_lockstep(tmp_path):
    universe = shard_universe()
    with SelectionService(universe) as service:
        path, thread = socket_backdrop(service, tmp_path)
        results: dict[str, list] = {}

        def run_client(name: str, targets: list[str]) -> None:
            with ServiceClient(path) as client:
                results[name] = client.select_many(
                    [
                        SelectRequest(request_id=f"{name}{i}", target=target,
                                      c=2.0, ell=2, mode="exact")
                        for i, target in enumerate(targets)
                    ]
                )

        a = threading.Thread(
            target=run_client, args=("a", ["t01", "t05", "t09", "t13"])
        )
        b = threading.Thread(
            target=run_client, args=("b", ["t02", "t06", "t10", "t14"])
        )
        a.start(), b.start()
        a.join(30.0), b.join(30.0)
        for name in ("a", "b"):
            assert [r.request_id for r in results[name]] == [
                f"{name}{i}" for i in range(4)
            ]
            assert all(r.status == "ok" for r in results[name])
        with ServiceClient(path) as client:
            client.shutdown()
        thread.join(timeout=5.0)


def test_non_select_ops_are_barriers_after_pipelined_selects(tmp_path):
    universe = shard_universe()
    with SelectionService(universe) as service:
        path, thread = socket_backdrop(service, tmp_path)
        with ServiceClient(path) as client:
            burst = [
                SelectRequest(request_id="q1", target="t03", c=2.0, ell=2,
                              mode="exact").to_dict(),
                {"op": "stats", "id": "s1"},
                SelectRequest(request_id="q2", target="t07", c=2.0, ell=2,
                              mode="exact").to_dict(),
                {"op": "health", "id": "h1"},
            ]
            responses = client.request_many(burst)
            assert responses[0]["id"] == "q1"
            # The stats barrier observes q1 completed.
            assert responses[1]["counters"]["requests"] >= 1
            assert responses[2]["id"] == "q2"
            assert responses[3]["health"] in ("ready", "degraded")
            client.shutdown()
        thread.join(timeout=5.0)


def test_router_behind_socket_server(tmp_path):
    universe = shard_universe()
    with ShardRouter(
        universe, config=RouterConfig(shards=2, batches=4)
    ) as router:
        path, thread = socket_backdrop(router, tmp_path)
        with ServiceClient(path) as client:
            responses = client.select_many(
                [
                    SelectRequest(request_id=f"v{i}", target=f"t{i:02d}",
                                  c=2.0, ell=2, mode="exact")
                    for i in range(0, 24, 6)
                ]
            )
            assert all(r.status == "ok" for r in responses)
            commit = client.commit(responses[0].tokens, c=2.0, ell=2)
            assert commit["epoch"] == 1
            stats = client.stats()
            assert [row["shard"] for row in stats["shards"]] == [0, 1]
            assert client.epoch()["epoch"] == 1
            client.shutdown()
        thread.join(timeout=5.0)

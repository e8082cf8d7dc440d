"""Sharded selection fleet vs the single daemon (BENCH_shard.json).

The workload is the commit-interleaved hot-target pattern the shard
router exists for: a universe of many TokenMagic batches, each with
its own ring history and a couple of popular targets, and a chain
that keeps growing — every round commits one ring into one batch and
then re-asks every hot target.

The 1-shard column is the single daemon: a partitioned
:class:`~repro.service.daemon.SelectionService`, which like every
shard carries the untouched batches' warm state — solver cache,
module decomposition, result memo — across each commit and advances
only the touched batch.  Both sides therefore re-solve the same work
per round; what the router columns add is that shards solve their
batches in separate processes, in parallel on a multi-core host, at
the price of IPC and a per-commit broadcast to every shard.  The
headline speedup is that trade measured, not asserted: it may fall
below 1 on a small profile or a single core.

Claim asserted: responses are byte-identical across every column
(modulo execution coordinates), including through all the commits.

Writes ``benchmarks/results/BENCH_shard.json``: per-column throughput
and request-latency quantiles, per-shard p99 via the PR-7 telemetry
rows, and the workload fingerprint ``tools/bench_trend.py`` keys on.
Run as a script (``make bench`` / ``make shard-smoke``); the smoke
profile (``REPRO_BENCH_SHARD_SMOKE=1``) shrinks the grid to 1/4
shards with its own fingerprint so trend checks skip it.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.ring import Ring, TokenUniverse
from repro.service import (
    RouterConfig,
    SelectionService,
    SelectRequest,
    ServiceConfig,
)
from repro.service.router import ShardRouter

from bench_common import save_json, save_text

SMOKE = os.environ.get("REPRO_BENCH_SHARD_SMOKE") == "1"

BATCHES = 8 if SMOKE else 16
TOKENS_PER_BATCH = 16 if SMOKE else 18
HT_COUNT = 5
RINGS_PER_BATCH = 8 if SMOKE else 10
HOT_PER_BATCH = 2
ROUNDS = 3 if SMOKE else 8
SHARD_COUNTS = (1, 4) if SMOKE else (1, 2, 4, 8, 16)
SEED = 9
C, ELL = 2.0, 2

HEADLINE_SHARDS = int(
    os.environ.get("REPRO_BENCH_SHARD_HEADLINE", "4" if SMOKE else "8")
)

WORKLOAD = {
    # Names the 1-shard column: a daemon that carries untouched batches
    # across commits.  Rows measured against another baseline do not compare.
    "baseline": "retaining-daemon",
    "batches": BATCHES,
    "tokens_per_batch": TOKENS_PER_BATCH,
    "hts": HT_COUNT,
    "rings_per_batch": RINGS_PER_BATCH,
    "hot_per_batch": HOT_PER_BATCH,
    "rounds": ROUNDS,
    "shard_counts": list(SHARD_COUNTS),
    "seed": SEED,
    "c": C,
    "ell": ELL,
    "smoke": SMOKE,
}


def build_workload():
    """Universe, batch-local histories, hot targets and commit stream."""
    rng = random.Random(SEED)
    count = BATCHES * TOKENS_PER_BATCH
    universe = TokenUniverse(
        {f"t{i:03d}": f"h{rng.randrange(HT_COUNT)}" for i in range(count)}
    )
    tokens = sorted(universe.tokens)
    slices = [
        tokens[b * TOKENS_PER_BATCH : (b + 1) * TOKENS_PER_BATCH]
        for b in range(BATCHES)
    ]
    rings, seq = [], 0
    for b, members in enumerate(slices):
        for k in range(RINGS_PER_BATCH):
            rings.append(
                Ring(
                    f"h{b}:{k}",
                    frozenset(members[k : k + 4]),
                    c=C,
                    ell=ELL,
                    seq=seq,
                )
            )
            seq += 1
    hot = [members[-h - 1] for members in slices for h in range(HOT_PER_BATCH)]
    commits = [
        tuple(slices[r % BATCHES][0:3]) for r in range(max(0, ROUNDS - 1))
    ]
    return universe, rings, hot, commits


def canon(response) -> dict:
    """A response minus execution coordinates (see tests/test_service_shard)."""
    payload = response.to_dict()
    for key in ("elapsed", "batch_id", "batch_size", "warm_cache"):
        payload.pop(key, None)
    attrs = payload.get("attrs")
    if attrs is not None:
        attrs.pop("memo", None)
        if not attrs:
            payload.pop("attrs")
    return payload


def run_column(service, hot, commits):
    """ROUNDS of (commit, re-ask every hot target) against one backend."""
    responses = []
    started = time.perf_counter()
    for round_no in range(ROUNDS):
        if round_no > 0:
            service.commit_ring(tokens=commits[round_no - 1], c=C, ell=ELL)
        slots = [
            service.submit(
                SelectRequest(
                    request_id=f"r{round_no}-{i}",
                    target=target,
                    c=C,
                    ell=ELL,
                    mode="exact",
                )
            )
            for i, target in enumerate(hot)
        ]
        responses.extend(slot.wait(300.0) for slot in slots)
    elapsed = time.perf_counter() - started
    stats = service.stats()
    return responses, elapsed, stats


def column_row(shards: int, responses, elapsed: float, stats: dict) -> dict:
    hist = stats.get("telemetry", {}).get("histograms", {}).get("request_s", {})
    row = {
        "shards": shards,
        "requests": len(responses),
        "elapsed_s": round(elapsed, 6),
        "throughput_rps": round(len(responses) / elapsed, 3),
        "p50_ms": None if hist.get("p50") is None else round(hist["p50"] * 1e3, 3),
        "p99_ms": None if hist.get("p99") is None else round(hist["p99"] * 1e3, 3),
        "caches_invalidated": stats.get("caches_invalidated"),
        "memo_hits": stats.get("counters", {}).get("memo.hits", 0),
    }
    if "shards" in stats:
        row["per_shard"] = [
            {
                "shard": entry["shard"],
                "batches": entry["batches"],
                "requests": entry.get("requests"),
                "p99_ms": (
                    None
                    if entry.get("p99_s") is None
                    else round(entry["p99_s"] * 1e3, 3)
                ),
                "warm_hit_rate": entry.get("warm_hit_rate"),
                "memo_hit_rate": entry.get("memo_hit_rate"),
            }
            for entry in stats["shards"]
        ]
    return row


def main() -> int:
    universe, rings, hot, commits = build_workload()
    columns, baselines = [], {}
    for shards in SHARD_COUNTS:
        if shards == 1:
            service = SelectionService(
                universe,
                rings,
                ServiceConfig(partition=BATCHES, max_batch=64, linger_s=0.01),
            )
        else:
            service = ShardRouter(
                universe,
                rings,
                RouterConfig(
                    shards=shards, batches=BATCHES, max_batch=64, linger_s=0.01
                ),
            )
        with service:
            responses, elapsed, stats = run_column(service, hot, commits)
        assert all(r.status == "ok" for r in responses), [
            r.to_dict() for r in responses if r.status != "ok"
        ][:3]
        baselines[shards] = [canon(r) for r in responses]
        columns.append(column_row(shards, responses, elapsed, stats))
        print(
            f"shards={shards:>2}: {columns[-1]['throughput_rps']:8.1f} req/s  "
            f"p99={columns[-1]['p99_ms']}ms  "
            f"invalidated={columns[-1]['caches_invalidated']}"
        )

    # -- equivalence: every column answered every request identically -------
    reference = baselines[SHARD_COUNTS[0]]
    for shards in SHARD_COUNTS[1:]:
        assert baselines[shards] == reference, (
            f"column {shards} diverged from the 1-shard responses"
        )

    single = columns[0]["throughput_rps"]
    by_shards = {row["shards"]: row for row in columns}
    headline_row = by_shards.get(HEADLINE_SHARDS, columns[-1])
    speedup = round(headline_row["throughput_rps"] / single, 3)

    table = ["# BENCH_shard", "", "shards  req/s     p50ms    p99ms   speedup"]
    for row in columns:
        table.append(
            f"{row['shards']:>6}  {row['throughput_rps']:>8.1f}  "
            f"{row['p50_ms']!s:>7}  {row['p99_ms']!s:>7}  "
            f"{row['throughput_rps'] / single:>6.2f}x"
        )
    text = "\n".join(table)
    print(text)

    payload = {
        "workload": WORKLOAD,
        "columns": columns,
        "headline": {
            "shards": headline_row["shards"],
            "throughput_rps": headline_row["throughput_rps"],
            "speedup_vs_single": speedup,
            "single_throughput_rps": single,
        },
    }
    save_json("BENCH_shard.json", payload)
    save_text("BENCH_shard.txt", text)
    print(
        f"headline: {headline_row['shards']} shards at "
        f"{headline_row['throughput_rps']} req/s = {speedup}x single"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

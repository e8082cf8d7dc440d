"""Journal-on overhead and recovery-replay cost (BENCH_recovery.json).

Two costs of the crash-safe daemon (PR 9), measured separately:

1. **Steady state** — the same commit-interleaved hot-target workload
   the shard bench uses, run against today's in-memory daemon and
   against an identical daemon with a durable commit journal
   (``sync_every=1``: every commit fsynced before it is acknowledged).
   The journal changes *when* durability happens, never *what* is
   selected, so both columns must answer byte-identically; the only
   delta is the WAL append+fsync on the commit path, amortised over a
   round of selections.

2. **Recovery** — ``Journal.recover()`` wall time as the chain grows.
   The WAL-only column replays every commit frame since genesis and
   scales linearly; the compacted column (periodic snapshots truncating
   the WAL) replays at most ``snapshot_every`` frames no matter how
   long the chain is — the boundedness claim the snapshot machinery
   exists for.

Claims asserted:

* journal-on and in-memory responses are byte-identical (modulo
  execution coordinates) through all the commits;
* journal-on steady-state overhead is <= REPRO_BENCH_RECOVERY_MAX_PCT
  percent (default 15; the smoke profile relaxes it — tiny workloads
  put an fsync in the noise floor of everything else);
* compacted recovery replays at most ``snapshot_every`` frames even at
  the longest chain length.

Writes ``benchmarks/results/BENCH_recovery.json`` (workload
fingerprint, per-column rows, recovery table, headline) and leaves the
journaled column's journal directory at
``benchmarks/results/recovery_journal/`` so ``make recover-smoke`` can
run ``tools/journal_fsck.py --check`` over a journal produced by a
real daemon rather than a synthetic fixture.  The smoke profile
(``REPRO_BENCH_RECOVERY_SMOKE=1``) shrinks the grid with its own
fingerprint so trend checks skip it.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

from repro.core.ring import Ring, TokenUniverse
from repro.service import (
    Journal,
    SelectionService,
    SelectRequest,
    ServiceConfig,
)

from bench_common import RESULTS_DIR, save_json, save_text

SMOKE = os.environ.get("REPRO_BENCH_RECOVERY_SMOKE") == "1"

BATCHES = 4 if SMOKE else 8
TOKENS_PER_BATCH = 12 if SMOKE else 16
HT_COUNT = 5
RINGS_PER_BATCH = 6 if SMOKE else 8
HOT_PER_BATCH = 2
ROUNDS = BATCHES  # ROUNDS - 1 commits, one per distinct batch
SEED = 17
C, ELL = 2.0, 2
SNAPSHOT_EVERY = 4
CHAIN_LENGTHS = (32, 128) if SMOKE else (128, 512, 2048)
REPLAY_SNAPSHOT_EVERY = 64

MAX_OVERHEAD_PCT = float(
    os.environ.get("REPRO_BENCH_RECOVERY_MAX_PCT", "75.0" if SMOKE else "15.0")
)

#: Where the journaled column leaves its journal for the fsck CI step.
JOURNAL_DIR = RESULTS_DIR / "recovery_journal"

WORKLOAD = {
    "batches": BATCHES,
    "tokens_per_batch": TOKENS_PER_BATCH,
    "hts": HT_COUNT,
    "rings_per_batch": RINGS_PER_BATCH,
    "hot_per_batch": HOT_PER_BATCH,
    "rounds": ROUNDS,
    "snapshot_every": SNAPSHOT_EVERY,
    "chain_lengths": list(CHAIN_LENGTHS),
    "replay_snapshot_every": REPLAY_SNAPSHOT_EVERY,
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
    commits = [tuple(slices[r % BATCHES][0:3]) for r in range(ROUNDS - 1)]
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
            service.commit_ring(
                tokens=commits[round_no - 1],
                c=C,
                ell=ELL,
                rid=f"bench:{round_no - 1}",
            )
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


def steady_state_columns():
    """In-memory vs journaled daemon on the same workload; assert parity."""
    universe, rings, hot, commits = build_workload()
    shutil.rmtree(JOURNAL_DIR, ignore_errors=True)
    columns, baselines = [], {}
    for name in ("memory", "journal"):
        journal = None
        if name == "journal":
            journal = Journal(
                JOURNAL_DIR, sync_every=1, snapshot_every=SNAPSHOT_EVERY
            )
            journal.append_genesis(universe, rings, BATCHES)
        service = SelectionService(
            universe,
            rings,
            ServiceConfig(
                partition=BATCHES,
                max_batch=64,
                linger_s=0.01,
                journal=journal,
            ),
        )
        with service:
            responses, elapsed, stats = run_column(service, hot, commits)
        if journal is not None:
            journal.close()
        assert all(r.status == "ok" for r in responses), [
            r.to_dict() for r in responses if r.status != "ok"
        ][:3]
        baselines[name] = [canon(r) for r in responses]
        journal_stats = stats.get("journal") or {}
        columns.append(
            {
                "column": name,
                "requests": len(responses),
                "commits": ROUNDS - 1,
                "elapsed_s": round(elapsed, 6),
                "throughput_rps": round(len(responses) / elapsed, 3),
                "journal_appends": journal_stats.get("appends"),
                "journal_fsyncs": journal_stats.get("fsyncs"),
                "journal_snapshots": journal_stats.get("snapshots"),
            }
        )
        print(
            f"{name:>8}: {columns[-1]['throughput_rps']:8.1f} req/s  "
            f"fsyncs={columns[-1]['journal_fsyncs']}"
        )
    assert baselines["journal"] == baselines["memory"], (
        "journaled responses diverged from the in-memory daemon"
    )
    return columns


def replay_table():
    """Journal.recover() wall time vs chain length, WAL-only vs compacted."""
    universe = TokenUniverse(
        {f"t{i:03d}": f"h{i % HT_COUNT}" for i in range(128)}
    )
    tokens = sorted(universe.tokens)
    rows = []
    for length in CHAIN_LENGTHS:
        rings = [
            Ring(
                f"bench:{i}",
                frozenset(tokens[(4 * i) % 120 : (4 * i) % 120 + 4]),
                c=C,
                ell=ELL,
                seq=i,
            )
            for i in range(length)
        ]
        row = {"rings": length}
        for mode, snapshot_every in (
            ("wal", 0),
            ("compacted", REPLAY_SNAPSHOT_EVERY),
        ):
            with tempfile.TemporaryDirectory() as tmp:
                with Journal(
                    tmp, sync_every=0, snapshot_every=snapshot_every
                ) as journal:
                    journal.append_genesis(universe, [], None)
                    for i, ring in enumerate(rings):
                        journal.append_commit(i + 1, ring)
                        journal.maybe_snapshot(i + 1, None)
                started = time.perf_counter()
                recovered = Journal(tmp).recover(truncate=False)
                recover_s = time.perf_counter() - started
                assert recovered is not None and recovered.epoch == length
                assert len(recovered.rings) == length
                replayed = recovered.recovery["frames_replayed"]
                if mode == "compacted":
                    assert replayed <= REPLAY_SNAPSHOT_EVERY, (
                        f"compacted recovery replayed {replayed} frames at "
                        f"chain length {length} (snapshots are not bounding "
                        f"the tail)"
                    )
                row[f"{mode}_recover_s"] = round(recover_s, 6)
                row[f"{mode}_frames_replayed"] = replayed
        rows.append(row)
        print(
            f"rings={length:>5}: wal={row['wal_recover_s']:.4f}s "
            f"({row['wal_frames_replayed']} frames)  "
            f"compacted={row['compacted_recover_s']:.4f}s "
            f"({row['compacted_frames_replayed']} frames)"
        )
    return rows


def main() -> int:
    columns = steady_state_columns()
    rows = replay_table()

    by_name = {row["column"]: row for row in columns}
    memory_rps = by_name["memory"]["throughput_rps"]
    journal_rps = by_name["journal"]["throughput_rps"]
    overhead_pct = round((memory_rps / journal_rps - 1.0) * 100.0, 3)
    longest = rows[-1]
    replay_rings_per_s = round(
        longest["rings"] / longest["wal_recover_s"], 3
    )

    table = [
        "# BENCH_recovery",
        "",
        "column    req/s     overhead",
        f"memory   {memory_rps:>8.1f}  -",
        f"journal  {journal_rps:>8.1f}  {overhead_pct:+.1f}%",
        "",
        "rings   wal_recover_s  compacted_recover_s  compacted_frames",
    ]
    for row in rows:
        table.append(
            f"{row['rings']:>5}   {row['wal_recover_s']:>13.4f}  "
            f"{row['compacted_recover_s']:>19.4f}  "
            f"{row['compacted_frames_replayed']:>16}"
        )
    text = "\n".join(table)
    print(text)

    payload = {
        "workload": WORKLOAD,
        "columns": columns,
        "recovery": rows,
        "headline": {
            "overhead_pct": overhead_pct,
            "memory_rps": memory_rps,
            "journal_rps": journal_rps,
            "replay_rings_per_s": replay_rings_per_s,
            "longest_chain": longest["rings"],
            "compacted_recover_s": longest["compacted_recover_s"],
        },
    }
    save_json("BENCH_recovery.json", payload)
    save_text("BENCH_recovery.txt", text)

    assert overhead_pct <= MAX_OVERHEAD_PCT, (
        f"journal-on steady state is {overhead_pct}% slower than in-memory "
        f"(allowed <= {MAX_OVERHEAD_PCT}%)"
    )
    print(
        f"headline: journal overhead {overhead_pct:+.1f}% "
        f"(allowed <= {MAX_OVERHEAD_PCT:g}%), replay "
        f"{replay_rings_per_s} rings/s at chain {longest['rings']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

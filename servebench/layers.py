"""Per-layer metrics from the spans a traced daemon wrote (see launcher.py).

Time metrics are means (a layer's total time over the run divided by the
selects, or commits, it served), so the layers' shares add up to the
mean end-to-end time the way medians would not.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Iterable

PREFIX = "bench."


def iter_spans(path):
    """The spans ``launcher.py`` recorded in one traced daemon, as
    ``(name, start_ns, end_ns, rid, attrs)``; the program's own spans in
    the same file are skipped."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["name"].startswith(PREFIX):
                attrs = record["attrs"]
                yield (
                    record["name"][len(PREFIX):],
                    round(record["start"] * 1e9),
                    round(record["end"] * 1e9),
                    attrs.pop("rid"),
                    attrs,
                )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p90_ms(durations_ns: list[int]) -> float:
    if len(durations_ns) < 2:
        return 0.0
    return statistics.quantiles(durations_ns, n=10, method="inclusive")[8] * 1e-6


def per_layer(
    spans: Iterable[tuple],
    closed_rtt_ns: dict[str, int],
    commits: int,
    fsyncs: int,
) -> dict[str, float]:
    """Every per-layer metric of one traced run, in one pass over its spans.

    ``spans`` covers every daemon start of the run; ``closed_rtt_ns``
    maps each closed-loop select's request id to the round trip the
    client measured.
    """
    total_ns: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    submitted: dict[str, tuple[int, int]] = {}
    resolved: dict[str, int] = {}
    codec_ns: dict[str, int] = defaultdict(int)
    drains: list[tuple[int, list[str]]] = []
    memo = bfs_candidates = chunk_candidates = chunk_resolved = 0
    lookups = misses = enumerated = missed_ns = 0
    rungs: list[str] = []
    recover: list[int] = []
    appends: list[int] = []
    for name, start, end, rid, extra in spans:
        took = end - start
        total_ns[name] += took
        count[name] += 1
        if name == "daemon.submit":
            submitted[rid] = (start, end)
        elif name == "daemon.resolve":
            resolved[rid] = end
            memo += extra["memo"]
        elif name in ("server.decode", "server.encode"):
            codec_ns[rid] += took
        elif name == "batching.drain" and extra["rids"]:
            drains.append((end, extra["rids"]))
        elif name == "ladder.select":
            rungs.append(extra["rung"])
        elif name == "bfs.select":
            bfs_candidates += extra["candidates"]
        elif name == "kernel.prefilter":
            chunk_candidates += extra["candidates"]
            chunk_resolved += extra["resolved"]
        elif name == "cache.base_worlds":
            lookups += 1
            if extra["miss"]:
                misses += 1
                enumerated += extra["worlds"]
                missed_ns += took
        elif name == "journal.recover":
            recover.append(took)
        elif name == "journal.append":
            appends.append(took)

    selects = len(resolved)
    request_ns = [end - submitted[rid][0] for rid, end in resolved.items() if rid in submitted]
    frontend_ns = [
        rtt - (resolved[rid] - submitted[rid][0])
        for rid, rtt in closed_rtt_ns.items()
        if rid in resolved and rid in submitted
    ]
    # A request's wait ends when the worker starts it: at the drain for
    # the head of a batch, at the previous resolve for the others.
    waits = []
    for started, rids in drains:
        for rid in rids:
            if rid in submitted and rid in resolved:
                waits.append(started - submitted[rid][1])
                started = resolved[rid]

    def per_select(name: str, scale: float = 1e-6) -> float:
        return _ratio(total_ns[name] * scale, selects)

    def per_commit(name: str) -> float:
        return _ratio(total_ns[name] * 1e-6, commits)

    metrics = {
        "server.frontend_ms": _ratio(sum(frontend_ns) * 1e-6, len(frontend_ns)),
        "server.codec_us": _ratio(sum(codec_ns[rid] for rid in resolved) * 1e-3, selects),
        "batching.queue_wait_ms": _ratio(sum(waits) * 1e-6, len(waits)),
        "batching.batch_size_mean": _ratio(sum(len(r) for _, r in drains), len(drains)),
        "daemon.request_ms": _ratio(sum(request_ns) * 1e-6, len(request_ns)),
        "daemon.request_p90_ms": _p90_ms(request_ns),
        "daemon.memo_hit_ratio": _ratio(memo, selects),
        "telemetry.marks_us": per_select("telemetry.mark", 1e-3),
        "state.commit_ms": per_commit("state.commit"),
        "state.cache_builds": _ratio(count["state.cache_build"], selects),
        "state.modules_build_ms": per_select("modules.build"),
        "journal.append_ms": per_commit("journal.append"),
        "journal.append_p90_ms": _p90_ms(appends),
        "journal.fsyncs_per_commit": _ratio(fsyncs, commits),
        "journal.snapshot_ms": per_commit("journal.snapshot"),
        "journal.recover_ms": _ratio(sum(recover) * 1e-6, len(recover)),
        "ladder.verify_ms": per_select("ladder.verify"),
        "ladder.exact_share": _ratio(rungs.count("exact"), len(rungs)),
        "bfs.select_ms": per_select("bfs.select"),
        "bfs.candidates": _ratio(bfs_candidates, selects),
        "kernel.prefilter_ms": per_select("kernel.prefilter"),
        "kernel.resolved_ratio": _ratio(chunk_resolved, chunk_candidates),
        "kernel.state_builds": _ratio(count["kernel.state_build"], selects),
        "kernel.state_build_ms": per_select("kernel.state_build"),
        "cache.worlds_hit_ratio": _ratio(lookups - misses, lookups),
        "worlds.enumerated": _ratio(enumerated, selects),
        "worlds.build_ms": _ratio(missed_ns * 1e-6, selects),
    }
    return metrics

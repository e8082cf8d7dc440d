"""End-to-end benchmark of ``repro serve`` (see README.md).

Run from the repository root::

    python3 servebench/run.py --workload cold-selects --seed 1 --seconds 20 --trace 0

Builds a Monero-shaped, TokenMagic-batched chain from the seed, writes
it as a journal genesis, then runs a sequence of sessions.  Each session
starts a real ``repro serve --socket --journal`` with every other
setting at its default, drives it from this process over one
connection, and shuts it down; the next session recovers the chain from
the same journal.  Between phases the client times a fixed reference
task on the CPU it shares with the daemons, and every time is reported
at the reference speed (see ``Speed``).  Every answer is checked, and
one JSON object is printed as the last line of standard output.
``--trace 1`` starts the daemons through ``launcher.py`` and reports
per-layer metrics instead of the end-to-end ones.

Every run replays one operation sequence to its end: ``--seconds`` only
sets how many sessions it has (``SESSIONS`` at ``REFERENCE_SECONDS``,
which measures for about that long on a 2-core machine).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    # Never fall back to an installed copy: the benchmark measures the
    # program of the checkout it sits in.
    sys.exit(f"error: no program under {ROOT / 'src'}; run servebench inside a repro checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from chain import (  # noqa: E402
    BURST, C, ELL, SPENDS_PER_BATCH, batch_of, block_rings, build_chain,
    cold_targets, layout, memo_keys, spend_target,
)
from checks import BatchView  # noqa: E402
from layers import iter_spans, per_layer  # noqa: E402
from repro.core.ring import Ring  # noqa: E402
from repro.service import Journal, ServiceClient, ServiceUnavailable  # noqa: E402

WORKLOADS = ("memo-reads", "cold-selects", "spend-flow")
REFERENCE_SECONDS = 20
#: Daemon starts per run at REFERENCE_SECONDS; each works on its own batches.
SESSIONS = {"memo-reads": 24, "cold-selects": 24, "spend-flow": 12}
#: The speed reference (see Speed): the reference task's loop steps,
#: heap size, heap walk and socket hand-offs; the tasks timed per
#: sample; and what one task takes at the reference speed, about this
#: 2-core machine's usual.
REFERENCE_LOOPS = 1000
REFERENCE_HEAP = 400_000
REFERENCE_WALK = 5000
REFERENCE_HANDOFFS = 100
REFERENCE_REPEATS = 3
REFERENCE_MS = 2.5
#: Answers per run whose ring size is compared with the seed BFS optimum.
OPTIMUM_SAMPLE = 3
#: memo-reads, per session: closed-loop selects and pipelined bursts.
MEMO_CLOSED = 800
MEMO_BURSTS = 48

#: Daemon counters that must repeat exactly run after run (batch counts
#: depend on timing and are left out).
WORK_PREFIXES = ("bfs.", "kernel.", "worlds.", "cache.worlds_")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class CheckFailed(RuntimeError):
    """A served answer broke one of the benchmark's checks."""


class Daemon:
    """One ``repro serve`` process and the client connection to it."""

    def __init__(self, run_dir: Path, index: int, traced: bool) -> None:
        self.socket = run_dir / f"d{index}.sock"
        self.spans = run_dir / f"d{index}.spans.jsonl"
        serve = ["serve", "--socket", str(self.socket), "--journal", str(run_dir / "journal")]
        if traced:
            cmd = [sys.executable, str(HERE / "launcher.py"), *serve, "--trace-out", str(self.spans)]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.log_path = run_dir / f"d{index}.log"
        self.log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL, stdout=self.log, stderr=subprocess.STDOUT
        )
        deadline = started + 60.0
        while True:
            try:
                self.client = ServiceClient(self.socket, timeout=120.0)
                break
            except ServiceUnavailable:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.kill()
                    raise RuntimeError(f"repro serve did not come up (see {self.log_path})")
                time.sleep(0.001)
        self.head = self.client.epoch()
        self.setup_s = time.perf_counter() - started

    def cpu_ns(self) -> int:
        """CPU time the daemon has used, all its threads, in nanoseconds.

        Reads the daemon's process CPU clock, the clock id Linux's
        ``clock_getcpuclockid(pid)`` returns (``MAKE_PROCESS_CPUCLOCK``
        with ``CPUCLOCK_SCHED``): the utime + stime of ``/proc/<pid>/stat``
        without its 10 ms ticks.
        """
        return time.clock_gettime_ns((~self.proc.pid << 3) | 2)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def shutdown(self) -> None:
        try:
            self.client.shutdown()
            self.client.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Speed:
    """The shared CPU's speed, sampled with a fixed reference task.

    The host's speed moves in steps of up to 1.4x that last minutes, so
    no median inside one run can absorb them.  The client and every
    daemon share one CPU, so between phases the client times
    :meth:`reference_task` on it.  Every time the run reports is scaled
    by ``REFERENCE_MS`` over the median of these samples: wall times by
    the task's wall time, daemon CPU times by its CPU time.  The task
    runs only benchmark code, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.wall_ns: list[int] = []
        self.cpu_ns: list[int] = []
        # Distinct int objects, allocated in order and visited shuffled.
        self._heap = list(range(1000, 1000 + REFERENCE_HEAP))
        random.Random(0).shuffle(self._heap)
        self._walks = 0
        self._ping, pong = socket.socketpair()
        self._echo = threading.Thread(target=_echo, args=(pong,), daemon=True)
        self._echo.start()

    def close(self) -> None:
        self._ping.close()  # the echo thread sees end of file and returns
        self._echo.join()

    def sample(self) -> None:
        for _ in range(REFERENCE_REPEATS):
            wall, cpu = time.perf_counter_ns(), time.process_time_ns()
            self.reference_task()
            self.cpu_ns.append(time.process_time_ns() - cpu)
            self.wall_ns.append(time.perf_counter_ns() - wall)

    def reference_task(self) -> int:
        """Three fixed parts of about 1 ms each, the kinds of work a
        request does: small-object Python work, a walk over a heap larger
        than the CPU's own caches, and thread hand-offs over a socket."""
        acc = 0
        table: dict[frozenset, int] = {}
        for i in range(REFERENCE_LOOPS):
            key = frozenset((i & 31, i >> 3 & 31, i % 7))
            table[key] = table.get(key, 0) + 1
            acc ^= (1 << (i & 63)) | len(key)
        start = self._walks * REFERENCE_WALK % REFERENCE_HEAP
        self._walks += 1
        for value in self._heap[start : start + REFERENCE_WALK]:
            acc += value
        for _ in range(REFERENCE_HANDOFFS):
            self._ping.sendall(b"x")
            self._ping.recv(1)
        return acc + len(table)

    def wall_scale(self) -> float:
        """The factor that takes a wall time to the reference speed."""
        return REFERENCE_MS * 1e6 / statistics.median(self.wall_ns)

    def cpu_scale(self) -> float:
        return REFERENCE_MS * 1e6 / statistics.median(self.cpu_ns)


def _echo(sock: socket.socket) -> None:
    with sock:
        while data := sock.recv(1):
            sock.sendall(data)


class Run:
    """What one run sent and got back, over all its sessions."""

    def __init__(self, chain) -> None:
        self.chain = chain
        self.history = list(chain.rings)         # genesis + committed rings
        self.heads: list[tuple[dict, int]] = []  # (first epoch reply, commits) per session
        self.counts: dict[str, int] = {}
        self.closed_rtt: dict[str, int] = {}     # closed-loop select id -> ns
        self.answers: list[tuple[str, dict, int]] = []  # (target, reply, chain length)
        self.commits: list[tuple[str, dict]] = []
        self.speed = Speed()
        self.setup_s: list[float] = []           # per daemon start
        self.rss_mb = 0.0                        # highest over the daemons
        self.burst_selects = self.burst_ns = self.burst_cpu_ns = 0
        self.block_commits = self.block_cpu_ns = 0
        self.attempted = 0
        self.failed = 0

    def request(self, daemon: Daemon, payload: dict) -> tuple[dict, int]:
        self.attempted += 1
        started = time.perf_counter_ns()
        reply = daemon.client.request(payload)
        return reply, time.perf_counter_ns() - started

    def ok(self, reply: dict) -> bool:
        if reply.get("status") == "ok":
            return True
        self.failed += 1
        print(f"failed op: {json.dumps(reply)}", file=sys.stderr)
        return False

    def select(self, daemon: Daemon, rid: str, target: str, timed: bool = True) -> dict:
        reply, rtt = self.request(daemon, select_op(rid, target))
        if self.ok(reply):
            if timed:
                self.closed_rtt[rid] = rtt
            self.answers.append((target, reply, len(self.history)))
        return reply

    def bursts(self, daemon: Daemon, tag: str, bursts: list[list[str]]) -> list[dict]:
        """Pipelined bursts on one connection, timed and CPU-accounted;
        returns the replies in request order."""
        self.speed.sample()
        cpu = daemon.cpu_ns()
        started = time.perf_counter_ns()
        replies = []
        for b, targets in enumerate(bursts):
            payloads = [select_op(f"{tag}p{b}.{i}", t) for i, t in enumerate(targets)]
            self.attempted += len(payloads)
            replies.extend(daemon.client.request_many(payloads))
        self.burst_ns += time.perf_counter_ns() - started
        self.burst_cpu_ns += daemon.cpu_ns() - cpu
        self.burst_selects += len(replies)
        self.speed.sample()
        for target, reply in zip((t for burst in bursts for t in burst), replies):
            if self.ok(reply):
                self.answers.append((target, reply, len(self.history)))
        return replies

    def block(self, daemon: Daemon, rings: list[tuple[str, list[str]]]) -> None:
        """Closed-loop commits back to back, CPU-accounted."""
        self.speed.sample()
        cpu = daemon.cpu_ns()
        for rid, tokens in rings:
            self.commit(daemon, rid, tokens)
        self.block_cpu_ns += daemon.cpu_ns() - cpu
        self.block_commits += len(rings)
        self.speed.sample()

    def commit(self, daemon: Daemon, rid: str, tokens) -> dict:
        tokens = sorted(tokens)
        payload = {"op": "commit", "id": rid, "rid": rid, "tokens": tokens, "c": C, "ell": ELL}
        reply, _ = self.request(daemon, payload)
        if self.ok(reply):
            self.commits.append((rid, reply))
            ring = Ring(rid, frozenset(tokens), c=C, ell=ELL, seq=len(self.history))
            self.history.append(ring)
        return reply


def select_op(rid: str, target: str) -> dict:
    return {"op": "select", "id": rid, "target": target, "c": C, "ell": ELL}


def memo_session(run: Run, daemon: Daemon, s: int, group: list[int], seed: int) -> None:
    """Hot keys, closed loop then pipelined; a block lands in ``group`` last."""
    keys = memo_keys(run.chain, seed)
    for i, key in enumerate(keys):  # first solve of each key: untimed
        run.select(daemon, f"{s}w{i}", key, timed=False)
    rng = random.Random(f"memo-order:{seed}:{s}")
    closed = [keys[i % len(keys)] for i in range(MEMO_CLOSED)]
    rng.shuffle(closed)
    for i, key in enumerate(closed):
        run.select(daemon, f"{s}m{i}", key)
    asks = [keys[i % len(keys)] for i in range(MEMO_BURSTS * BURST)]
    rng.shuffle(asks)
    run.bursts(daemon, str(s), [asks[i : i + BURST] for i in range(0, len(asks), BURST)])
    run.block(daemon, block_rings(run.chain, seed, group, set()))


def cold_session(run: Run, daemon: Daemon, s: int, group: list[int], seed: int) -> None:
    """Distinct targets of ``group``, closed loop then pipelined; then its block."""
    targets = cold_targets(run.chain, seed, group)
    half = len(targets) // 2
    for i, target in enumerate(targets[:half]):
        run.select(daemon, f"{s}s{i}", target)
    rest = targets[half:]
    run.bursts(daemon, str(s), [rest[i : i + BURST] for i in range(0, len(rest), BURST)])
    run.block(daemon, block_rings(run.chain, seed, group, set(targets)))


def spend_session(run: Run, daemon: Daemon, s: int, group: list[int], seed: int) -> None:
    """Rounds of one spend in every batch of ``group``: each selects a ring
    for a token that no ring holds yet, then commits the ring served.

    Even rounds select in a closed loop, each select followed by its
    commit.  Odd rounds select the whole round in pipelined bursts, then
    commit every served ring as one block; the rings lie in distinct
    batches, so none of them changes what another round-mate's select saw.
    """
    rng = random.Random(f"spend:{seed}:{s}")
    held = {token for ring in run.history for token in ring.tokens}
    for r in range(SPENDS_PER_BATCH):
        targets = [spend_target(run.chain, batch, held, rng) for batch in group]
        if r % 2:
            bursts = [targets[i : i + BURST] for i in range(0, len(targets), BURST)]
            served = run.bursts(daemon, f"{s}f{r}", bursts)
        block = []
        for i, target in enumerate(targets):
            reply = served[i] if r % 2 else run.select(daemon, f"{s}f{r}.{i}", target)
            if reply.get("status") != "ok":
                raise CheckFailed(f"spend-flow select for {target} failed: {reply}")
            held.update(reply["tokens"])
            if r % 2:
                block.append((f"spend{s}.{r}.{i}", reply["tokens"]))
            else:
                run.commit(daemon, f"spend{s}.{r}.{i}", reply["tokens"])
        if block:
            run.block(daemon, block)


SESSION = {"memo-reads": memo_session, "cold-selects": cold_session, "spend-flow": spend_session}


def work_counts(stats: dict) -> dict:
    solver = stats["telemetry"]["solver"]["counters"]
    counts = {k: v for k, v in sorted(solver.items()) if k.startswith(WORK_PREFIXES)}
    for name in ("memo.hits", "memo.stores"):
        counts[name] = stats["counters"].get(name, 0)
    for name in ("appends", "fsyncs"):
        counts[f"journal.{name}"] = stats["journal"][name]
    for name, value in sorted(stats["delta"].items()):
        counts[f"delta.{name}"] = value
    return counts


def check(run: Run, seed: int) -> int:
    """Every answer check; returns how many distinct rings were verified."""
    chain = run.chain
    genesis = len(chain.rings)
    epoch = 0
    commits = iter(run.commits)
    for head, session_commits in run.heads:
        if head["epoch"] != epoch or head["rings"] != genesis + epoch:
            raise CheckFailed(f"daemon recovered {head}, expected epoch {epoch}")
        for _ in range(session_commits):
            rid, reply = next(commits)
            if reply["epoch"] != epoch + 1:
                raise CheckFailed(f"commit {rid} moved the epoch {epoch} -> {reply['epoch']}")
            epoch += 1

    memo: dict[tuple[str, int], tuple] = {}
    distinct = set()
    for target, reply, chain_len in run.answers:
        if reply["rung"] != "exact" or reply["degraded"]:
            raise CheckFailed(f"{reply['id']} degraded to rung {reply['rung']}")
        if reply["epoch"] != chain_len - genesis:
            raise CheckFailed(f"{reply['id']} served at epoch {reply['epoch']}")
        tokens = tuple(reply["tokens"])
        if memo.setdefault((target, reply["epoch"]), tokens) != tokens:
            raise CheckFailed(f"{target} got two different rings in one epoch")
        distinct.add((target, tokens, chain_len))

    views: dict[tuple[int, int], BatchView] = {}

    def view_of(target: str, chain_len: int) -> BatchView:
        key = (batch_of(target), chain_len)
        if key not in views:
            views[key] = BatchView(chain.universe, chain.batches[key[0]], run.history[:chain_len])
        return views[key]

    for target, tokens, chain_len in sorted(distinct):
        failed = view_of(target, chain_len).ring_failures(target, tokens, C, ELL)
        if failed:
            raise CheckFailed(f"ring {tokens} for {target} fails {', '.join(failed)}")
    rng = random.Random(f"optimum:{seed}")
    for target, tokens, chain_len in rng.sample(sorted(distinct), min(OPTIMUM_SAMPLE, len(distinct))):
        optimum = view_of(target, chain_len).optimum_size(target, C, ELL)
        if optimum != len(tokens):
            raise CheckFailed(f"{target}: served {len(tokens)} tokens, optimum is {optimum}")
    return len(distinct)


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, float]]:
    """(the metrics as reported, their times as measured before scaling).

    Throughput and CPU figures are totals over the run's phases; the
    round trip is the median of every closed-loop select of the run;
    set-up is the median over the daemon starts.
    """
    measured = {
        "setup_s": statistics.median(run.setup_s),
        "select_p50_ms": statistics.median(run.closed_rtt.values()) * 1e-6,
        "select_rps": run.burst_selects / (run.burst_ns * 1e-9),
        "select_cpu_ms": run.burst_cpu_ns * 1e-6 / run.burst_selects,
        "commit_cpu_ms": run.block_cpu_ns * 1e-6 / run.block_commits,
    }
    wall, cpu = run.speed.wall_scale(), run.speed.cpu_scale()
    values = {
        "setup_s": measured["setup_s"] * wall,
        "select_p50_ms": measured["select_p50_ms"] * wall,
        "select_rps": measured["select_rps"] / wall,
        "select_cpu_ms": measured["select_cpu_ms"] * cpu,
        "commit_cpu_ms": measured["commit_cpu_ms"] * cpu,
        "ring_size_mean": statistics.fmean(len(reply["tokens"]) for _, reply, _ in run.answers),
        "rss_mb": run.rss_mb,
    }
    measured["reference_ms"] = statistics.median(run.speed.wall_ns) * 1e-6
    return values, measured


def execute(args, run_dir: Path) -> tuple[Run, dict, int]:
    """Every session of the run, then the checks; returns (run, metrics, verified)."""
    sessions = max(2, round(SESSIONS[args.workload] * args.seconds / REFERENCE_SECONDS))
    batches, groups = layout(args.workload, sessions)
    run = Run(build_chain(args.seed, batches))
    with Journal(run_dir / "journal") as journal:
        journal.append_genesis(run.chain.universe, run.chain.rings, batches)
    try:
        for s, group in enumerate(groups):
            # The client keeps every answer for the checks.  Frozen, those
            # objects stay out of the collector's full passes, which would
            # otherwise grow with the run and land inside timed round trips.
            gc.collect()
            gc.freeze()
            run.speed.sample()
            daemon = Daemon(run_dir, s, args.trace == 1)
            try:
                committed = len(run.commits)
                run.setup_s.append(daemon.setup_s)
                SESSION[args.workload](run, daemon, s, group, args.seed)
                run.heads.append((daemon.head, len(run.commits) - committed))
                for name, value in work_counts(daemon.client.stats()).items():
                    run.counts[name] = run.counts.get(name, 0) + value
                run.rss_mb = max(run.rss_mb, daemon.peak_rss_mb())
                daemon.shutdown()
            finally:
                daemon.kill()
    finally:
        run.speed.close()
    verified = check(run, args.seed)
    values, measured = end_to_end(run)
    # The unscaled times go to stderr only; so do the traced run's
    # figures, whose difference from an untraced run is the tracing
    # overhead.
    for name, value in measured.items():
        print(f"{'measured ' + name:>28} {value:12.4f}", file=sys.stderr)
    if args.trace:
        for name, value in values.items():
            print(f"{'traced ' + name:>28} {value:12.4f}", file=sys.stderr)
        spans = (span for s in range(sessions) for span in iter_spans(run_dir / f"d{s}.spans.jsonl"))
        values = per_layer(spans, run.closed_rtt, len(run.commits), run.counts["journal.fsyncs"])
    return run, values, verified


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its daemons (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The client and the daemons it starts share one CPU.  The hand-offs
    # of a round trip are then switches on a running CPU, not wake-ups of
    # an idle virtual CPU, whose latency follows the host's load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.chdir(ROOT)  # keeps the socket paths relative and short
    run_dir = Path(f".servebench-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        run, values, verified = execute(args, run_dir)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print("work_counts " + json.dumps(run.counts, sort_keys=True))
    print(f"checked {verified} distinct rings in {len(run.answers)} answers", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:>28} {values[name]:12.4f} {unit}", file=sys.stderr)
    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
